#!/usr/bin/env python3
"""Train and evaluate on the bundled synthetic solid classes.

Builds a jittered, randomly rotated corpus of tetrahedra/boxes/prisms,
trains the path-message network, and reports classification and retrieval
metrics on the held-out test split.
"""

import argparse
import json
import time

from polyrep import TrainConfig, train
from polyrep.datasets import synthetic_dataset
from polyrep.training import evaluate_classification, evaluate_retrieval


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=300)
    ap.add_argument("--hidden-dim", type=int, default=64)
    ap.add_argument("--layers", type=int, default=2)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    records = synthetic_dataset(args.count, seed=args.seed)
    cfg = TrainConfig(
        hidden_dim=args.hidden_dim,
        layers=args.layers,
        max_epochs=args.epochs,
        seed=args.seed,
    )
    started = time.time()
    result = train(cfg, records)
    elapsed = time.time() - started

    cls = evaluate_classification(result.checkpoint.params, result.test_records)
    ret = evaluate_retrieval(result.checkpoint.params, result.test_records)
    print(
        json.dumps(
            {
                "config_hash": cfg.config_hash(),
                "epochs_run": len(result.log),
                "best_epoch": result.best_epoch,
                "train_seconds": round(elapsed, 1),
                "classification": cls.as_dict(),
                "retrieval": ret.as_dict(),
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
