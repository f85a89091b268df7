"""Regenerate reference.json: the outputs every benchmark operation must give.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs each workload's operations, untimed, over every key a run can reach
(every variant, every step of a trajectory cycle, every pooled checkpoint
and input set) and stores their output records. Run it on the commit whose
outputs are the reference; a later commit that changes results fails the
benchmark's output check until the change is understood and this file is
regenerated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run  # pins BLAS threads before numpy loads

run._import_program()

from workloads import (EVAL_POOL, PAPER_INPUT_SETS, TRAIN_CYCLE, VARIANTS,  # noqa: E402
                       WORKLOADS)

# Relative and absolute tolerance of the output check.
TOLERANCE = {"rtol": 1e-6, "atol": 1e-9}

# (variant, operations) that together reach every reference key.
PLAN = {
    "train-desk": [(v, TRAIN_CYCLE) for v in range(VARIANTS)],
    "eval-desk": [(0, EVAL_POOL * len(WORKLOADS["eval-desk"].kinds))],
    "paper-forward": [(v, PAPER_INPUT_SETS * len(WORKLOADS["paper-forward"].kinds))
                      for v in range(VARIANTS)],
}


def records(name: str) -> dict:
    out = {}
    for variant, count in PLAN[name]:
        workload = WORKLOADS[name](variant, run.RUN_DIR / f"reference-{name}-{os.getpid()}")
        try:
            workload.setup(0)
            ops = workload.operations()
            for _ in range(count):
                op = next(ops)
                out[op.key] = op.fn()
        finally:
            workload.close()
        print(f"{name}: variant {variant} done", file=sys.stderr)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(PLAN))
    args = parser.parse_args()
    path = run.BENCH / "reference.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    doc["tolerance"] = TOLERANCE
    for name in args.workload or sorted(PLAN):
        doc[name] = records(name)
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
