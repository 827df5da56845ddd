"""One benchmark workload, run in a fresh child process by run.py.

    python3 perfbench/workload.py setup   DATA_DIR SPAWN_TIME
    python3 perfbench/workload.py measure DATA_DIR SPAWN_TIME TRACE SECONDS RESULT

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process, so set-up time includes interpreter start and the marble
imports. `setup` prints that set-up time and exits. `measure` sets up the
same way, checks the scan against its oracle, then runs rounds of
`train()` followed by `evaluate()` on the test split until SECONDS are
spent, and writes a JSON result to RESULT. The first round is a warm-up
that gives no timings. The bag loaders passed to `train()` and
`evaluate()` stamp wall and CPU time before each slide's work, which
gives the per-slide units the end-to-end metrics are taken over.

With TRACE=1 the rounds alternate untraced and traced, so the tracing
overhead is measured in the same process, and the result carries the
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCAN_ORACLE_PREFIX = 8      # tokens; reference_scan is O(T^3) Python loops
MIN_ROUNDS = 3              # a warm-up round, then two timed rounds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


class CheckFailed(Exception):
    """A correctness check failed; the run reports no numbers."""


def _import_marble() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import marble  # noqa: F401  (timed as part of set-up)


def read_inputs(data_dir: Path):
    """Set-up as a user pays it: load the manifest and read every bag.
    The functions are looked up on the module at call time, so a traced
    set-up goes through the tracer's wrappers."""
    from marble import bagdata
    index = bagdata.load_manifest(str(data_dir / "manifest.csv"))
    bags = {rec.slide_id: bagdata.read_bag(str(data_dir / rec.path))
            for rec in index.records}
    return index, bags


# ---------------------------------------------------------------------------
# correctness checks


def check_scan_oracle(bag, config) -> float:
    """selective_scan on a prefix of the bag's finest level, in eval and in
    grad mode, against reference_scan; returns the worst abs error."""
    import numpy as np
    from marble import numerics as nm
    from marble.network import init_marble_params
    from marble.ssmcore import reference_scan, selective_scan

    params = init_marble_params(config.d_model, config.d_inner, config.d_state,
                                config.n_levels, config.head, config.n_classes,
                                np.random.default_rng(config.seed))
    block = params.blocks[-1]
    x = bag.levels[-1].embeddings[:SCAN_ORACLE_PREFIX]
    u = x @ block.w_in.data
    delta = np.logaddexp(0.0, u @ block.w_delta.data + block.b_delta.data)
    operands = (u, delta, u @ block.w_b.data, u @ block.w_c.data,
                -np.exp(block.a_log.data), block.d_skip.data)
    want = reference_scan(*operands)
    got_eval = selective_scan(*(nm.Tensor(a) for a in operands)).data
    with nm.Tape():
        got_grad = selective_scan(*(nm.Tensor(a, requires_grad=True)
                                    for a in operands)).data
    worst = float(max(np.abs(got_eval - want).max(),
                      np.abs(got_grad - want).max()))
    if not worst <= 1e-12:
        raise CheckFailed(f"selective_scan differs from reference_scan by {worst:.3e}")
    return worst


def check_outputs(result, report, task) -> str:
    """Finite losses, scores and probabilities; probability rows sum to 1.
    Returns the checksum of the loss sequence and eval scores."""
    import numpy as np

    losses = np.array([[r.train_loss, r.val_metric] for r in result.reports])
    if not np.all(np.isfinite(losses)):
        raise CheckFailed(f"non-finite training loss or validation metric: {losses}")
    if task == "classification":
        scores = np.array([row["probs"] for row in report["per_slide"]])
        if not np.all(np.isfinite(scores)):
            raise CheckFailed("non-finite class probability")
        worst = float(np.abs(scores.sum(axis=1) - 1.0).max())
        if worst > 1e-12:
            raise CheckFailed(f"probability row sums off by {worst:.3e}")
        summary = [report["auc"], report["accuracy"]]
    else:
        scores = np.array([row["risk"] for row in report["per_slide"]])
        if not np.all(np.isfinite(scores)):
            raise CheckFailed("non-finite risk score")
        summary = [report["c_index"]]
    if not np.all(np.isfinite(summary)):
        raise CheckFailed(f"non-finite evaluation metric {summary}")
    digest = hashlib.sha256(losses.tobytes())
    digest.update(scores.tobytes())
    digest.update(np.array(summary).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Round:
    traced: bool
    train_wall: float
    train_cpu: float
    train_ops: int
    eval_walls: list[float]      # one per evaluate() call
    eval_cpus: list[float]
    eval_ops: int                # slides per evaluate() call
    train_units: list[tuple[float, float]]   # (wall ms, CPU ms) per slide
    eval_units: list[tuple[float, float]]
    checksum: str


@dataclass
class Session:
    index: object
    bags: dict
    config: object
    eval_repeats: int
    quarantined: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    rounds: list[Round] = field(default_factory=list)


def _screen(session, records) -> list[str]:
    """Slides whose forward pass fails on its own: raises a MarbleError or
    gives a non-finite output under freshly initialised parameters."""
    import numpy as np
    from marble.errors import MarbleError
    from marble.network import encode_slide, init_marble_params

    c = session.config
    params = init_marble_params(c.d_model, c.d_inner, c.d_state, c.n_levels,
                                c.head, c.n_classes, np.random.default_rng(c.seed))
    bad = []
    for rec in records:
        try:
            out = encode_slide(session.bags[rec.slide_id], params)
        except MarbleError:
            bad.append(rec.slide_id)
            continue
        if not np.all(np.isfinite(out.output.data)):
            bad.append(rec.slide_id)
    return bad


def _quarantine(session, records, exc) -> None:
    """Count the slides that made a call raise as failed ops and leave
    them out of later rounds. Earlier rounds ran on other inputs, so they
    are dropped and the next round is a warm-up again. A raise no single
    slide explains is a program failure, not a failed op."""
    bad = _screen(session, records)
    if not bad:
        raise CheckFailed(f"{type(exc).__name__}: {exc} (no single slide fails alone)")
    session.quarantined.update(bad)
    session.attempted += len(bad)
    session.failed += len(bad)
    session.rounds.clear()


def run_round(session, traced: bool) -> Round | None:
    """One train() + evaluate(test) round; None if a slide had to be
    quarantined (that round gives no timings)."""
    from marble import trainer
    from marble.bagdata import DatasetIndex
    from marble.errors import MarbleError

    bags = session.bags
    live = [r for r in session.index.records if r.slide_id not in session.quarantined]
    index = DatasetIndex(task=session.index.task, records=live)
    train_recs = index.split_records("train")

    train_stamps: list[tuple[str, float, float]] = []

    def train_loader(rec):
        train_stamps.append((rec.split, time.perf_counter(), time.process_time()))
        return bags[rec.slide_id]

    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        result = trainer.train(index, session.config, bag_loader=train_loader)
    except MarbleError as exc:
        _quarantine(session, train_recs + index.split_records("val"), exc)
        return None
    wall1, cpu1 = time.perf_counter(), time.process_time()
    train_stamps.append(("end", wall1, cpu1))
    train_wall, train_cpu = wall1 - wall0, cpu1 - cpu0
    step = session.config.cox_chunk if index.task == "survival" else 1
    train_ops = len(train_recs) * len(result.reports)
    session.attempted += train_ops

    test_recs = index.split_records("test")
    walls, cpus, eval_units, checksums = [], [], [], set()
    for _ in range(session.eval_repeats):
        stamps: list[tuple[str, float, float]] = []

        def eval_loader(rec):
            stamps.append((rec.split, time.perf_counter(), time.process_time()))
            return bags[rec.slide_id]

        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            report = trainer.evaluate(result.params, test_recs, bag_loader=eval_loader)
        except MarbleError as exc:
            session.attempted += len(stamps) - 1   # slides before the raise
            _quarantine(session, test_recs, exc)
            return None
        wall1, cpu1 = time.perf_counter(), time.process_time()
        stamps.append(("end", wall1, cpu1))
        walls.append(wall1 - wall0)
        cpus.append(cpu1 - cpu0)
        eval_units.extend(step_units(stamps, 1))
        checksums.add(check_outputs(result, report, index.task))
        session.attempted += len(test_recs)

    if len(checksums) != 1:
        raise CheckFailed("repeated evaluate() calls on one model differ")
    return Round(traced=traced, train_wall=train_wall, train_cpu=train_cpu,
                 train_ops=train_ops, eval_walls=walls, eval_cpus=cpus,
                 eval_ops=len(test_recs), train_units=step_units(train_stamps, step),
                 eval_units=eval_units, checksum=checksums.pop())


def step_units(stamps: list[tuple[str, float, float]], step: int):
    """Per-slide (wall ms, CPU ms) of each optimizer step or evaluated slide.

    `stamps` holds (split, wall, CPU) from the bag loader, which train()
    and evaluate() call right before a slide's work, plus a final stamp
    when the call returned. train() caches bags, so only its first epoch
    is stamped. A unit runs from the load of its first slide to the next
    stamp after its last one, and holds up to `step` slides of the split
    the first stamp names: 1 for slide-at-a-time steps and evaluation, the
    Cox chunk for Cox steps, whose slides are all loaded up front."""
    split = stamps[0][0]
    n = next(i for i, s in enumerate(stamps) if s[0] != split)
    units = []
    for first in range(0, n, step):
        size = min(step, n - first)
        a, b = stamps[first], stamps[first + size]
        units.append((1e3 * (b[1] - a[1]) / size, 1e3 * (b[2] - a[2]) / size))
    return units


def check_determinism(rounds: list[Round]) -> None:
    """Same seed, same slides: bit-identical losses and eval scores,
    traced or not."""
    sums = {r.checksum for r in rounds}
    if len(sums) != 1:
        raise CheckFailed(f"same-seed rounds differ: {len(sums)} distinct checksums")


def run_rounds(session, seconds: float, tracer=None) -> None:
    """Rounds until `seconds` are spent, and at least MIN_ROUNDS that
    succeed on the same slides. With a tracer, even rounds are untraced
    and odd rounds traced. The first round is a warm-up that `timed`
    leaves out: it pays the allocator's first touch of the tape's memory."""
    start = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        if traced:
            tracer.install()
        try:
            done = run_round(session, traced)
        finally:
            if traced:
                tracer.uninstall()
        n += 1
        if done is not None:
            session.rounds.append(done)
        if len(session.rounds) < MIN_ROUNDS:
            continue
        elapsed = time.perf_counter() - start
        per_round = elapsed / n
        if elapsed + per_round > seconds:
            return


# ---------------------------------------------------------------------------
# metrics


def timed(rounds: list[Round]) -> list[Round]:
    """The rounds that give timings: all but the warm-up round."""
    return rounds[1:]


def _p90(values: list[float]) -> dict:
    # 'inclusive' keeps p90 inside the sample range, so on workloads with few
    # units it is not an extrapolation past the slowest one
    p90 = (statistics.quantiles(values, n=10, method="inclusive")[-1]
           if len(values) > 1 else values[0])
    beyond = sum(1 for v in values if v > p90)
    return {"p90": p90, "median": statistics.median(values), "n": len(values),
            "beyond_p90": beyond, "valid": beyond >= 10}


def end_to_end(rounds: list[Round]) -> tuple[dict, dict]:
    """End-to-end metrics and, per metric, its sample count and median.

    Time and CPU cost are the 90th percentile of per-slide values over all
    timed units: optimizer steps in train() (one slide each, or a whole
    Cox chunk per slide in it) and slides in evaluate(). Shared virtual
    machines switch between fast and slow phases lasting from
    milliseconds to minutes, and the share of fast time differs from run
    to run, so a total, a mean or a median follows that share; the slow
    phase itself recurs at a steady speed, and p90 lies in it.
    Throughput as work over wall time of the whole train() and evaluate()
    calls is reported beside them as information."""
    units = {
        "train_slide_ms_p90": [w for r in rounds for w, _ in r.train_units],
        "train_cpu_ms_p90": [c for r in rounds for _, c in r.train_units],
        "eval_slide_ms_p90": [w for r in rounds for w, _ in r.eval_units],
        "eval_cpu_ms_p90": [c for r in rounds for _, c in r.eval_units],
    }
    details = {name: _p90(v) for name, v in units.items()}
    metrics = {name: d["p90"] for name, d in details.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    train_ops = sum(r.train_ops for r in rounds)
    eval_ops = sum(r.eval_ops * len(r.eval_walls) for r in rounds)
    details["throughput"] = {
        "train_slides_per_s": train_ops / sum(r.train_wall for r in rounds),
        "train_cpu_ms_per_slide": 1e3 * sum(r.train_cpu for r in rounds) / train_ops,
        "eval_slides_per_s": eval_ops / sum(sum(r.eval_walls) for r in rounds),
        "eval_cpu_ms_per_slide": 1e3 * sum(sum(r.eval_cpus) for r in rounds) / eval_ops,
    }
    return metrics, details


def provenance() -> dict:
    import numpy as np

    rev, dirty = "unavailable (not a git checkout)", None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        rev = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain"))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = None
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "git_revision": rev, "git_dirty": dirty,
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "process_threads": threads,
    }


# ---------------------------------------------------------------------------
# entry points


def setup_main(data_dir: Path, spawn: float) -> int:
    _import_marble()
    read_inputs(data_dir)
    print(json.dumps({"setup_s": time.monotonic() - spawn}))
    return 0


def measure_main(data_dir: Path, trace: bool, seconds: float,
                 result_path: Path) -> int:
    _import_marble()
    from marble import trainer
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()          # set-up is traced too (bagdata layer)
    index, bags = read_inputs(data_dir)
    if tracer is not None:
        tracer.uninstall()

    spec = json.loads((data_dir / "spec.json").read_text())
    config = trainer.TrainConfig(**spec["train"])
    session = Session(index=index, bags=bags, config=config,
                      eval_repeats=spec["eval_repeats"])
    out = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        test_bag = bags[index.split_records("test")[0].slide_id]
        out["scan_oracle_max_abs_err"] = check_scan_oracle(test_bag, config)
        run_rounds(session, seconds, tracer)
        check_determinism(session.rounds)
        if trace:
            out["metrics"], out["counts"] = _traced_metrics(session.rounds, tracer)
            out["spans"] = len(tracer.spans)
            spans_path = result_path.with_name("spans.json")
            spans_path.write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent", "attrs"],
                 "spans": tracer.spans}))
            out["spans_file"] = str(spans_path)
        else:
            out["metrics"], out["details"] = end_to_end(timed(session.rounds))
        out["rounds"] = len(session.rounds)
        out["correct"] = True
    except CheckFailed as exc:
        out["metrics"] = {}
        out["error"] = f"correctness check failed: {exc}"
    out["attempted"], out["failed"] = session.attempted, session.failed
    out["provenance"] = provenance()
    result_path.write_text(json.dumps(out))
    return 0 if out["correct"] else 1


def _traced_metrics(rounds: list[Round], tracer) -> tuple[dict, dict]:
    from tracer import layer_metrics, scan_backward_us_per_token

    metrics, counts = layer_metrics(
        tracer.spans, scan_backward_us_per_token(tracer.scan_inputs))
    walls = {flag: statistics.median([r.train_wall + sum(r.eval_walls)
                                      for r in timed(rounds) if r.traced == flag])
             for flag in (False, True)}
    metrics["trace.overhead_s"] = walls[True] - walls[False]
    metrics["trace.overhead_frac"] = (walls[True] - walls[False]) / walls[False]
    return metrics, counts


def main(argv: list[str]) -> int:
    mode, data_dir, spawn = argv[1], Path(argv[2]), float(argv[3])
    if mode == "setup":
        return setup_main(data_dir, spawn)
    if mode == "measure":
        return measure_main(data_dir, argv[4] == "1", float(argv[5]),
                            Path(argv[6]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
