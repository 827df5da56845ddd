#!/usr/bin/env python3
"""Print one sha256 per benchmark workload over what training computes.

Run from any directory:

    python3 tools/output_hashes.py --seed 1

For each workload in perfbench/run.py this builds the inputs from the
seed exactly as the benchmark does, reads them back as the benchmark's
set-up does, trains once with the workload's TrainConfig and evaluates
the test split once. The digest covers the final θ, every epoch report
(losses and validation metrics) and the whole `evaluate()` output, so
two checkouts that print the same lines compute the same numbers.
Nothing is timed; all three workloads take a few seconds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as bench  # noqa: E402  (perfbench/run.py)
import workload  # noqa: E402  (perfbench/workload.py)
from marble import trainer  # noqa: E402


def output_hash(definition: dict, seed: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp)
        bench.prepare_inputs(definition, seed, data_dir)
        index, bags = workload.read_inputs(data_dir)
        spec = json.loads((data_dir / "spec.json").read_text())
    config = trainer.TrainConfig(**spec["train"])
    result = trainer.train(index, config,
                           bag_loader=lambda rec: bags[rec.slide_id])
    report = trainer.evaluate(result.params, index.split_records("test"),
                              bag_loader=lambda rec: bags[rec.slide_id])
    digest = hashlib.sha256(result.params.theta.tobytes())
    digest.update(json.dumps([dataclasses.astuple(r) for r in result.reports]).encode())
    digest.update(json.dumps(report, sort_keys=True).encode())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for name, definition in bench.WORKLOADS.items():
        print(f"{name} {output_hash(definition, args.seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
