"""Benchmark of mvtsk: training, prediction, the paper's protocol and serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

The last line of the output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer ones, from spans recorded
around the calls into each layer.
"""

import env  # first: pins the BLAS threads before numpy loads

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["large_n", "wide_rules", "protocol_grid", "serve_batches"]


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; without it, each runs in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from spans (ignored without --workload)")
    return parser.parse_args()


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced, and the
    tracing overhead: the traced round median minus the untraced one."""
    worst = 0
    for name in WORKLOADS:
        medians = []
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name}: exit code {proc.returncode}")
                worst = worst or proc.returncode or 1
                break
            print("\n".join(lines[:-1]))
            medians.append(float(re.search(r"round median (\S+) s", lines[0]).group(1)))
        else:
            print(f"{name}: tracing overhead {medians[1] - medians[0]:+.4f} s per round "
                  f"({medians[1] / medians[0] - 1:+.1%})\n")
    return worst


def main() -> int:
    args = parse_args()
    env.use_checkout()
    if args.workload is None:
        return run_all(args)

    import spans
    import workloads

    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = spans.Tracer() if args.trace else None
    try:
        tally, rounds, problem = workloads.run(
            args.workload, args.seed, args.seconds, workdir, tracer
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problem is not None:
        print(f"error: check failed: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(tally.attempted, 1),
                          "failed": tally.failed, "metrics": {}}))
        return 1

    if tracer is None:
        metrics = tally.metrics()
    else:
        summary = tracer.summary(rounds)
        metrics = {name: (summary[name], unit) for name, unit in spans.metric_names()}
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {rounds}  "
          f"round median {statistics.median(tally.rounds):.4f} s  "
          f"attempted {tally.attempted}  failed {tally.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
