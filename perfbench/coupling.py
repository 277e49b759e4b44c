"""How far a row's prediction depends on the rest of its batch.

Run from the root of a checkout:

    python3 perfbench/coupling.py --seed 1

On the serve_batches model and request pool for the seed, and again with
the configuration of the README's config file, it prints:

- how many 20-row batches change at least one label when their rows are
  permuted (``representation.transform`` starts each row from a random
  draw that depends on the row's position in the batch);
- the share of pool rows whose label is the same scored alone as scored in
  the whole pool.
"""

import env

import argparse

import numpy as np


def measure(model, pool):
    from mvtsk import pipeline
    from workloads import BATCH_ROWS, permutation_changes

    n_batches = pool.n_instances // BATCH_ROWS
    changed = sum(permutation_changes(model, pool, b) for b in range(n_batches))
    _, whole = pipeline.predict_model(model, pool)
    alone = np.array([pipeline.predict_model(model, pool.subset([i]))[1][0]
                      for i in range(pool.n_instances)])
    return changed, n_batches, float(np.mean(alone == whole))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    env.use_checkout()
    from mvtsk import pipeline
    from mvtsk.classifier import EnsembleConfig
    from mvtsk.representation import DualRepConfig
    import workloads

    spec, seeds = workloads.SPECS["serve_batches"], workloads.seeds(args.seed, "serve_batches")
    _, train, pool = workloads.serve_data(spec, seeds)
    readme = (DualRepConfig(m=4, lam1=1.0, lam2=1.0, lam3=1.0, p=5, max_iters=100, tol=1e-6),
              EnsembleConfig(K=4))
    for label, cfgs in (("benchmark config", workloads.configs(spec, seeds["model"])),
                        ("README config", readme)):
        model = pipeline.train_model(train, *cfgs)
        changed, n_batches, agree = measure(model, pool)
        print(f"{label}: {changed} of {n_batches} permuted {workloads.BATCH_ROWS}-row batches "
              f"changed a label; single-row vs whole-pool label agreement "
              f"{agree:.3f} ({pool.n_instances} rows)")


if __name__ == "__main__":
    main()
