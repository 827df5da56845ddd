#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that:
* BENCHMARK.json, rationale.json and run.WORKLOADS name the same
  workloads and per-layer metrics, and every end-to-end metric that
  rationale.json says a layer moves is declared;
* every metric declared in BENCHMARK.json is printed with its unit, by
  name, in the human-readable lines and in the final JSON line, for the
  untraced and the traced run, on a classification and a survival
  workload;
* a bag with a non-finite embedding counts in `failed` and the harness
  neither crashes nor reports a wrong result;
* the traced run stops with an error naming a trace target that does not
  exist.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import time

import run
from run import OUT, ROOT

_TINY_TRAIN = {"base_lr": 1e-3, "drop_alpha": 0.1, "shuffle_each_epoch": True,
               "d_model": 8, "d_inner": 16, "d_state": 4, "epochs": 2,
               "warmup_epochs": 1, "early_stop_patience": 2}
_TINY_SYNTH = {"levels": 2, "ratio": 2, "coarse_rows": 4, "coarse_cols": 4, "dim": 8}
TINY = {
    "tiny-class": {
        "synth": {**_TINY_SYNTH, "task": "classification"},
        "splits": {"train": 6, "val": 4, "test": 4},
        "eval_repeats": 2,
        "train": {**_TINY_TRAIN, "head": "classification", "n_levels": 2},
    },
    "tiny-cox": {
        "synth": {**_TINY_SYNTH, "task": "survival"},
        "splits": {"train": 8, "val": 8, "test": 8},
        "eval_repeats": 2,
        "train": {**_TINY_TRAIN, "head": "survival", "n_levels": 2, "cox_chunk": 4},
    },
}
SEED = 5
SECONDS = 1.0


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_declarations() -> dict:
    declared = run.declared_metrics()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rationale = json.loads((run.HERE / "rationale.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    check(names == list(run.WORKLOADS), f"BENCHMARK.json workloads {names} "
          f"!= run.WORKLOADS {list(run.WORKLOADS)}")
    check(sorted(rationale["workloads"]) == sorted(names),
          "rationale.json workloads differ from BENCHMARK.json")
    check(sorted(rationale["per_layer"]) == sorted(declared["per_layer"]),
          "rationale.json per_layer differs from BENCHMARK.json")
    moves = {m for row in rationale["per_layer"].values() for m in row["moves"]}
    check(moves <= set(declared["end_to_end"]),
          f"rationale.json moves undeclared metrics {sorted(moves - set(declared['end_to_end']))}")
    return declared


def run_tiny(name: str, trace: bool, declared: dict, corrupt: bool) -> dict:
    """Prepare a tiny workload, run it through the harness and check the
    printed metrics; returns the final JSON object."""
    work = OUT / f"selftest_{name}_trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run.prepare_inputs(TINY[name], SEED, work)
        if corrupt:
            poison_first_train_bag(work)
        result = run.run_children(work, name, SEED, SECONDS, trace,
                                  time.monotonic() + run.RUN_DEADLINE_S)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            final = run.report(name, SEED, SECONDS, trace, result, declared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = printed.getvalue().splitlines()
    check(json.loads(lines[-1]) == final, "last printed line is not the result")
    check(final["correct"], f"{name}: run not correct: {result.get('error')}")
    check(set(final) == {"correct", "attempted", "failed", "metrics"},
          f"{name}: final keys {sorted(final)}")
    check(final["attempted"] >= 1, f"{name}: nothing attempted")
    kind = "per_layer" if trace else "end_to_end"
    for metric, unit in declared[kind].items():
        entry = final["metrics"].get(metric)
        check(entry is not None and entry["unit"] == unit,
              f"{name}: {metric} missing or without unit {unit} in final line")
        check(isinstance(entry["value"], float) and math.isfinite(entry["value"]),
              f"{name}: {metric} value {entry['value']!r} is not a finite number")
        check(any(line.split()[:1] == [metric] and unit in line.split()
                  for line in lines),
              f"{name}: {metric} not printed with unit {unit}")
    return final


def poison_first_train_bag(work) -> None:
    """Write a NaN into one embedding of the first training slide's bag."""
    marble = run._import_marble()
    index = marble.load_manifest(str(work / "manifest.csv"))
    rec = index.split_records("train")[0]
    bag = marble.read_bag(str(work / rec.path))
    bag.levels[-1].embeddings[0, 0] = float("nan")
    marble.write_bag(bag, str(work / rec.path))


def check_missing_target() -> None:
    run._import_marble()
    from tracer import TraceTargetMissing, Tracer
    import marble.trainer

    original = marble.trainer.train
    tracer = Tracer(targets=(("marble.trainer", "train", "trainer.train", None),
                             ("marble.trainer", "no_such_function", "x", None)))
    try:
        tracer.install()
    except TraceTargetMissing as exc:
        check("marble.trainer.no_such_function" in str(exc),
              f"error does not name the missing target: {exc}")
    else:
        check(False, "install() accepted a missing trace target")
    check(marble.trainer.train is original, "a failed install left a patch behind")


def main() -> int:
    declared = check_declarations()
    check_missing_target()
    final = run_tiny("tiny-class", False, declared, corrupt=True)
    check(final["failed"] == 1, f"non-finite bag: failed={final['failed']}, want 1")
    run_tiny("tiny-class", True, declared, corrupt=True)
    run_tiny("tiny-cox", False, declared, corrupt=False)
    final = run_tiny("tiny-cox", True, declared, corrupt=False)
    check(final["failed"] == 0, f"tiny-cox: failed={final['failed']}")
    for metric in ("metrics.cox_loss_ms", "metrics.c_index_ms"):
        check(final["metrics"][metric]["value"] > 0, f"tiny-cox: {metric} is 0")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
