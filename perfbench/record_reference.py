#!/usr/bin/env python3
"""Records perfbench/reference.json: the exact outputs of the training
workloads for a set of seeds.

    python3 perfbench/record_reference.py --seeds 0-31,42

For each seed and training workload it runs perfbench_workloads once (one
repetition) and stores every model's BA and SR and the hash of all
prediction bits. run.py compares its runs against these values exactly.
Re-record only when a change is meant to alter the models' outputs (for
example a change to the floating-point order contract), and say so.
"""
import argparse
import json
import sys

import run


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def entry(out):
    return {"hash": out["hashes"][0], "models": out["models"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31,42")
    args = parser.parse_args()
    run.build()
    reference = run.load_reference()
    for seed in parse_seeds(args.seeds):
        for workload in run.TRAINING:
            out = run.training_run(workload, seed, 0, min_reps=1)
            reference.setdefault(workload, {})[str(seed)] = entry(out)
            print(workload, seed, out["hashes"][0], file=sys.stderr)
    with open(run.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
