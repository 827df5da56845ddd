#!/usr/bin/env python3
"""marble-mil benchmark: one command for every end-to-end and per-layer metric.

Run from the repository root:

    python3 perfbench/run.py --workload class-small --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/selftest.py                             # harness self-test

For each workload this script generates the synthetic inputs from the
seed (untimed), writes them as bag files and a manifest, and then runs
fresh child processes (perfbench/workload.py), one at a time:

* `--trace 0`: SETUP_REPEATS set-up-only children give `setup_s`; one
  measuring child gives the other end-to-end metrics, with tracing off.
* `--trace 1`: one measuring child whose rounds alternate untraced and
  traced; it reports the per-layer metrics and the tracing overhead.

Metric names, units and bounds are declared in BENCHMARK.json; why each
workload exists and which end-to-end metric each layer metric should
move are in perfbench/rationale.json. Results also go to
.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json, spans of
traced runs to .perfbench_out/spans_<workload>_seed<seed>.json.

The gated time and CPU metrics are 90th percentiles of per-slide values
(see `end_to_end` in workload.py for why); throughput over whole calls
is printed beside them as information.

The last line of output for a workload is one JSON object with the keys
correct, attempted, failed and metrics. An op is one training slide or
one evaluated test slide; it fails if it raises a MarbleError. A failed
correctness check reports no metrics and exits 1.

The harness sets no BLAS/OpenMP thread variables: it measures the
program at its default and records the environment it ran under.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
RUN_DEADLINE_S = 170.0   # each workload's children must end within 180 s

_TRAIN = {"base_lr": 1e-3, "drop_alpha": 0.1, "shuffle_each_epoch": True,
          "d_model": 64, "d_inner": 128, "d_state": 16}

# Each workload: SynthSpec fields, slides per split, evaluate() calls on
# the test split per round, TrainConfig fields. Early-stop patience
# equals epochs so every round does the same work.
WORKLOADS = {
    "class-small": {
        "synth": {"task": "classification", "levels": 2, "ratio": 2,
                  "coarse_rows": 4, "coarse_cols": 4, "dim": 64},
        "splits": {"train": 64, "val": 32, "test": 128},
        "eval_repeats": 3,
        "train": {**_TRAIN, "head": "classification", "n_levels": 2,
                  "epochs": 2, "warmup_epochs": 1, "early_stop_patience": 2},
    },
    "cox-cohort": {
        "synth": {"task": "survival", "levels": 2, "ratio": 2,
                  "coarse_rows": 4, "coarse_cols": 4, "dim": 64},
        "splits": {"train": 512, "val": 128, "test": 128},
        "eval_repeats": 4,
        "train": {**_TRAIN, "head": "survival", "n_levels": 2, "cox_chunk": 512,
                  "epochs": 1, "warmup_epochs": 0, "early_stop_patience": 1},
    },
    "long-slide": {
        "synth": {"task": "classification", "levels": 4, "ratio": 2,
                  "coarse_rows": 8, "coarse_cols": 8, "dim": 64},
        "splits": {"train": 4, "val": 2, "test": 8},
        "eval_repeats": 1,
        "train": {**_TRAIN, "head": "classification", "n_levels": 4,
                  "epochs": 1, "warmup_epochs": 0, "early_stop_patience": 1},
    },
}


class HarnessError(Exception):
    """The benchmark could not run (missing sources, child crash, timeout)."""


def _import_marble():
    if not (ROOT / "src" / "marble" / "__init__.py").is_file():
        raise HarnessError(f"marble sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import marble
    return marble


def declared_metrics() -> dict:
    """BENCHMARK.json metric declarations: {"end_to_end": {name: unit},
    "per_layer": {name: unit}}."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"{path.name} not found")
    bench = json.loads(path.read_text())
    return {kind: {m["name"]: m["unit"] for m in bench[kind]}
            for kind in ("end_to_end", "per_layer")}


def prepare_inputs(definition: dict, seed: int, data_dir: Path) -> None:
    """Synthetic bags + manifest with explicit splits, from the seed.

    Classification slides are reordered to alternate by label before
    splitting, so every split holds both classes (AUC is defined on val
    and test)."""
    marble = _import_marble()
    splits = definition["splits"]
    spec = marble.SynthSpec(n_slides=sum(splits.values()), seed=seed,
                            **definition["synth"])
    slides = marble.generate_dataset(spec)
    if spec.task == "classification":
        seen = {0: 0, 1: 0}
        rank = {}
        for s in slides:
            rank[s.slide_id] = (seen[s.label], s.label)
            seen[s.label] += 1
        slides.sort(key=lambda s: rank[s.slide_id])
    names = [name for name, n in splits.items() for _ in range(n)]
    (data_dir / "bags").mkdir(parents=True)
    records = []
    for split, s in zip(names, slides):
        path = f"bags/{s.slide_id}.bag"
        marble.write_bag(s.bag, str(data_dir / path))
        records.append(marble.ManifestRecord(s.slide_id, path, label=s.label,
                                             record=s.record, split=split))
    marble.write_manifest(str(data_dir / "manifest.csv"),
                          marble.DatasetIndex(task=spec.task, records=records))
    spec_json = {"seed": seed, **definition,
                 "train": {**definition["train"], "seed": seed}}
    (data_dir / "spec.json").write_text(json.dumps(spec_json, indent=1))


def _child(mode: str, work: Path, *rest: str,
           deadline: float) -> subprocess.CompletedProcess:
    """Run workload.py in a fresh process; subprocess.run kills and reaps
    it if it outlives the deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("out of time before starting a child process")
    spawn = time.monotonic()
    try:
        return subprocess.run(
            [sys.executable, str(HERE / "workload.py"), mode, str(work),
             repr(spawn), *rest],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child {mode} exceeded the time limit") from exc


def run_workload(name: str, definition: dict, seed: int, seconds: float,
                 trace: bool, deadline: float) -> dict:
    """Prepare the inputs in a scratch directory, run the children on
    them, and remove the inputs again."""
    work = OUT / f"work_{name}_seed{seed}_trace{int(trace)}_{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        prepare_inputs(definition, seed, work)
        return run_children(work, name, seed, seconds, trace, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_children(work: Path, name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Set-up children (trace off) and the measuring child on prepared
    inputs; returns the measuring child's result with `setup_s` added."""
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            proc = _child("setup", work, deadline=deadline)
            if proc.returncode != 0:
                raise HarnessError(f"setup child failed:\n{proc.stderr}")
            setups.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    proc = _child("measure", work, str(int(trace)), repr(seconds),
                  str(result_path), deadline=deadline)
    if not result_path.is_file():
        raise HarnessError(f"measuring child exited {proc.returncode} "
                           f"without a result:\n{proc.stderr}")
    result = json.loads(result_path.read_text())
    if proc.returncode != 0 and result.get("correct"):
        raise HarnessError(f"measuring child exited {proc.returncode}:\n{proc.stderr}")
    if setups and result["correct"]:
        setups.sort()
        result["metrics"]["setup_s"] = setups[len(setups) // 2]
        result.setdefault("details", {})["setup_s"] = {
            "median": setups[len(setups) // 2], "min": setups[0],
            "max": setups[-1], "n": len(setups)}
    if result.get("spans_file"):
        kept = OUT / f"spans_{name}_seed{seed}.json"
        shutil.move(result["spans_file"], kept)
        result["spans_file"] = str(kept.relative_to(ROOT))
    return result


def report(name: str, seed: int, seconds: float, trace: bool, result: dict,
           declared: dict) -> dict:
    """Print the human-readable block and return the final JSON object."""
    kind = "per_layer" if trace else "end_to_end"
    units = declared[kind]
    print(f"== perfbench workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("provenance " + json.dumps(result.get("provenance", {}), sort_keys=True))
    metrics = {}
    if result["correct"]:
        missing = sorted(set(units) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(units))
        if missing or extra:
            raise HarnessError(f"metrics differ from BENCHMARK.json: missing "
                               f"{missing}, undeclared {extra}")
        details = result.get("details", {})
        for metric, unit in units.items():
            value = result["metrics"][metric]
            metrics[metric] = {"value": value, "unit": unit}
            extra_info = ""
            d = details.get(metric)
            if d and "p90" in d:
                extra_info = (f"  ({d['n']} units, {d['beyond_p90']} beyond p90"
                              + ("" if d["valid"] else
                                 "; below the 10-beyond-p90 floor, read as indicative")
                              + f"; median {d['median']:.6g})")
            elif metric == "setup_s" and d:
                extra_info = (f"  (median of {d['n']} fresh processes, "
                              f"{d['min']:.6g}..{d['max']:.6g})")
            print(f"  {metric:<38} {value:>14.6g} {unit}{extra_info}")
        if "throughput" in details:
            print("  throughput over whole calls (information, not gated: it "
                  "follows the host's share of fast phases):")
            for key, value in details["throughput"].items():
                print(f"    {key}: {value:.6g}")
        if trace:
            print("  counts (exact: they repeat for a given seed and code; "
                  "cite them as counts, not speed-ups):")
            for key, value in result.get("counts", {}).items():
                print(f"    {key}: {value}")
            print("  waiting time per layer: not applicable, the program has "
                  "no queues or worker pools")
            print(f"  spans: {result.get('spans')} written to {result.get('spans_file')}")
        print(f"  scan oracle max abs error {result.get('scan_oracle_max_abs_err')}; "
              f"rounds {result.get('rounds')}; determinism: identical checksums")
    else:
        print(f"  FAILED: {result.get('error', 'unknown error')}")
    final = {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
             "failed": int(result["failed"]), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), **final,
                    **{k: v for k, v in result.items() if k not in final}},
                   indent=1))
    print(json.dumps(final))
    return final


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    try:
        declared = declared_metrics()
        _import_marble()
        for name in names:
            result = run_workload(name, WORKLOADS[name], args.seed, args.seconds,
                                  bool(args.trace), time.monotonic() + RUN_DEADLINE_S)
            final = report(name, args.seed, args.seconds, bool(args.trace),
                           result, declared)
            if not final["correct"]:
                status = 1
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
