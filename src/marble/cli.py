"""Command-line entry point.

Subcommands: gen-data, train, sweep-alpha, ablate-scales, bench. Runs
are reproducible: every command derives all randomness from one --seed
(or the seed key in the config) and echoes the fully resolved
configuration into its output directory. Exit codes: 0 success, 2 config
error, 3 data/format error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import sys
from dataclasses import field, fields, make_dataclass, replace

import numpy as np

from .bagdata import (DatasetIndex, ManifestRecord, SynthSpec,
                      generate_dataset, load_manifest, read_bag,
                      write_bag, write_manifest)
from .errors import ConfigError, FormatError, MarbleError, NumericError
from .network import save_checkpoint
from .pyramid import TokenBag, single_level_view
from .ssmcore import scaling_bench
from .trainer import (METRIC, TrainConfig, TrainResult, check_scorable,
                      derive_seed, evaluate, train)


# TrainConfig fields the dataset decides: the task picks the head, the
# first bag gives width and level count, the manifest labels give classes.
_FROM_DATA = ("head", "d_model", "n_levels", "n_classes")
_TRAIN_KEYS = [f.name for f in fields(TrainConfig) if f.name not in _FROM_DATA]


def _synth_spec(self) -> SynthSpec:
    return SynthSpec(**{f.name: getattr(self, f.name) for f in fields(SynthSpec)})


def _train_config(self, index: DatasetIndex, probe: TokenBag) -> TrainConfig:
    """The TrainConfig for training on `index`, whose bags look like
    `probe`."""
    return TrainConfig(
        **{key: getattr(self, key) for key in _TRAIN_KEYS}, head=index.task,
        d_model=probe.levels[0].embeddings.shape[1],
        n_levels=probe.n_levels,
        n_classes=max([2] + [r.label + 1 for r in index.records
                             if r.label is not None]))


# Flat key=value configuration shared by all commands: every SynthSpec
# field, every TrainConfig field the data does not decide (seed is in both
# and is one key), and the number of repeats.
_KEYS = {f.name: f for f in (*fields(SynthSpec), *fields(TrainConfig))
         if f.name not in _FROM_DATA}
RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default)) for f in _KEYS.values()]
    + [("repeats", "int", field(default=1))],
    namespace={"__module__": __name__, "synth_spec": _synth_spec,
               "train_config": _train_config})


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot parse boolean '{raw}' for key '{key}'")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for '{key}': {exc}") from exc
    return raw


def load_run_config(path: str | None, overrides: list[str]) -> RunConfig:
    """Plain-text key=value config ('#' comments); unknown keys rejected."""
    items = []
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            items = [(f"{path}:{lineno}", text)
                     for lineno, line in enumerate(fh, start=1)
                     if (text := line.split("#", 1)[0].strip())]
    values: dict = {}
    for where, item in items + [("--set", item) for item in overrides]:
        key, eq, raw = (part.strip() for part in item.partition("="))
        if not eq:
            raise ConfigError(f"{where}: expected key=value, got '{item}'")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}: unknown key '{key}'")
        values[key] = _coerce(key, raw)
    config = RunConfig(**values)
    if config.repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {config.repeats}")
    # fail fast on values the dataclasses validate lazily
    config.synth_spec()
    TrainConfig(**{key: getattr(config, key) for key in _TRAIN_KEYS})
    return config


def echo_config(config: RunConfig, out_dir: str) -> None:
    with open(os.path.join(out_dir, "config.txt"), "w", encoding="utf-8") as fh:
        for f in fields(RunConfig):
            fh.write(f"{f.name}={getattr(config, f.name)}\n")


class _RunDir:
    """Output directory with a .partial marker while work is in flight."""

    def __init__(self, path: str, force: bool = False):
        self.path = path
        if os.path.isdir(path) and os.listdir(path):
            if not force:
                raise ConfigError(
                    f"output directory '{path}' is not empty (use --force)")
            shutil.rmtree(path)
        os.makedirs(path, exist_ok=True)
        self.marker = os.path.join(path, ".partial")

    def __enter__(self):
        open(self.marker, "w").close()
        return self.path

    def __exit__(self, exc_type, *rest):
        if exc_type is None and os.path.exists(self.marker):
            os.remove(self.marker)
        return False


def _load_index(manifest_path: str, seed: int) -> tuple[DatasetIndex, str]:
    if not os.path.exists(manifest_path):
        raise FormatError(f"manifest not found: {manifest_path}")
    index = load_manifest(manifest_path, split_seed=derive_seed(seed, "split"))
    return index, os.path.dirname(os.path.abspath(manifest_path))


def _bag_loader(index: DatasetIndex, base_dir: str):
    """A loader of the manifest's bags, and its first bag: the probe that
    gives the model its shape. A bag whose level count or width differs
    from the probe's is a data error naming its file."""
    def read(record: ManifestRecord):
        # os.path.join keeps a manifest path that is already absolute
        bag = read_bag(os.path.join(base_dir, record.path))
        return bag, (bag.n_levels, bag.levels[0].embeddings.shape[1])

    probe, want = read(index.records[0])

    def load(record: ManifestRecord):
        bag, got = read(record)
        if got != want:
            raise FormatError(f"{record.path}: {got[0]} levels of width "
                              f"{got[1]}, but {index.records[0].path} has "
                              f"{want[0]} of width {want[1]}")
        return bag
    return load, probe


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    config = load_run_config(args.spec, args.set or [])
    spec = config.synth_spec()
    with _RunDir(args.out, force=args.force) as out_dir:
        slides = generate_dataset(spec)
        if spec.task == "survival":
            n_events = sum(1 for s in slides if s.record.event)
            if n_events < 2:
                print(f"warning: near-degenerate dataset, only {n_events} "
                      "observed events", file=sys.stderr)
        records = []
        for s in slides:
            fname = s.slide_id + ".bag"
            write_bag(s.bag, os.path.join(out_dir, fname))
            records.append(ManifestRecord(s.slide_id, fname, label=s.label,
                                          record=s.record))
        index = DatasetIndex(task=spec.task, records=records)
        write_manifest(os.path.join(out_dir, "manifest.csv"), index)
        echo_config(config, out_dir)
    print(f"wrote {len(slides)} bags + manifest to {args.out}")
    return 0


def _train_once(index: DatasetIndex, loader, tconf: TrainConfig,
                out_dir: str) -> tuple[TrainResult, dict]:
    result = train(index, tconf, bag_loader=loader)
    _write_csv(os.path.join(out_dir, "epochs.csv"),
               ["epoch", "lr", "train_loss", "val_metric", "best_so_far",
                "stopped_flag"],
               [[r.epoch, repr(r.lr), repr(r.train_loss), repr(r.val_metric),
                 repr(r.best_so_far), int(r.stopped)] for r in result.reports])
    save_checkpoint(result.params, os.path.join(out_dir, "best.ckpt"))
    test_recs = index.split_records("test")
    report = {}
    if test_recs:
        report = evaluate(result.params, test_recs, bag_loader=loader)
    return result, report


def cmd_train(args) -> int:
    config = load_run_config(args.config, args.set or [])
    index, base_dir = _load_index(args.data, config.seed)
    loader, probe = _bag_loader(index, base_dir)
    base = config.train_config(index, probe)
    test_recs = index.split_records("test")
    if test_recs:
        check_scorable("test", test_recs, base)
    with _RunDir(args.out, force=args.force) as out_dir:
        echo_config(config, out_dir)
        rows = []
        for rep in range(config.repeats):
            seed = (config.seed if config.repeats == 1
                    else derive_seed(config.seed, f"repeat:{rep}"))
            tconf = replace(base, seed=seed)
            rep_dir = out_dir if config.repeats == 1 \
                else os.path.join(out_dir, f"run{rep}")
            os.makedirs(rep_dir, exist_ok=True)
            result, report = _train_once(index, loader, tconf, rep_dir)
            metric_name = METRIC[index.task]
            test_metric = report.get(metric_name, float("nan"))
            rows.append([rep, seed, result.best_epoch,
                         repr(result.best_metric), repr(test_metric)])
            print(f"run {rep}: best val {result.best_metric:.4f} "
                  f"(epoch {result.best_epoch}), test {test_metric:.4f}")
        _write_csv(os.path.join(out_dir, "runs.csv"),
                   ["repeat", "seed", "best_epoch", "val_metric", "test_metric"],
                   rows)
        if config.repeats > 1:
            vals = [float(r[4]) for r in rows]
            print(f"test metric over {config.repeats} repeats: "
                  f"{np.mean(vals):.4f} +/- {np.std(vals):.4f}")
    return 0


def cmd_sweep_alpha(args) -> int:
    config = load_run_config(args.config, args.set or [])
    grid = [float(v) for v in args.grid.split(",")]
    for alpha in grid:
        if not 0.0 <= alpha < 1.0:
            raise ConfigError(f"grid value {alpha} outside [0, 1)")
    index, base_dir = _load_index(args.data, config.seed)
    loader, probe = _bag_loader(index, base_dir)
    base = config.train_config(index, probe)
    metric_name = METRIC[index.task]
    with _RunDir(args.out, force=args.force) as out_dir:
        echo_config(config, out_dir)
        rows = []
        for alpha in grid:
            metrics = []
            for rep in range(config.repeats):
                seed = derive_seed(config.seed, f"alpha:{alpha}:rep:{rep}")
                tconf = replace(base, seed=seed, drop_alpha=alpha)
                result = train(index, tconf, bag_loader=loader)
                metrics.append(result.best_metric)
            rows.append([repr(alpha), repr(float(np.mean(metrics))),
                         repr(float(np.std(metrics)))])
            print(f"alpha={alpha}: val {metric_name} "
                  f"{np.mean(metrics):.4f} +/- {np.std(metrics):.4f}")
        _write_csv(os.path.join(out_dir, "sweep.csv"),
                   ["alpha", f"mean_val_{metric_name}", "sd"], rows)
    return 0


def cmd_ablate_scales(args) -> int:
    config = load_run_config(args.config, args.set or [])
    index, base_dir = _load_index(args.data, config.seed)
    loader, probe = _bag_loader(index, base_dir)
    if probe.n_levels < 2:
        raise ConfigError("ablate-scales needs a dataset with at least 2 levels")
    finest = probe.n_levels - 1
    metric_name = METRIC[index.task]

    variants = {
        "coarse-only": lambda rec: single_level_view(loader(rec), 0),
        "fine-only": lambda rec: single_level_view(loader(rec), finest),
        "combined": loader,
    }
    test_recs = index.split_records("test")
    check_scorable("test", test_recs, config.train_config(index, probe))
    with _RunDir(args.out, force=args.force) as out_dir:
        echo_config(config, out_dir)
        rows = []
        for name, variant_loader in variants.items():
            base = config.train_config(index, variant_loader(index.records[0]))
            metrics = []
            for rep in range(config.repeats):
                seed = derive_seed(config.seed, f"ablate:{name}:rep:{rep}")
                tconf = replace(base, seed=seed)
                result = train(index, tconf, bag_loader=variant_loader)
                report = evaluate(result.params, test_recs,
                                  bag_loader=variant_loader)
                metrics.append(report[metric_name])
            rows.append([name, repr(float(np.mean(metrics))),
                         repr(float(np.std(metrics)))])
            print(f"{name}: test {metric_name} {np.mean(metrics):.4f} "
                  f"+/- {np.std(metrics):.4f}")
        _write_csv(os.path.join(out_dir, "ablation.csv"),
                   ["variant", f"mean_test_{metric_name}", "sd"], rows)
    return 0


def cmd_bench(args) -> int:
    sizes = [int(v) for v in args.sizes.split(",")]
    rows = scaling_bench(args.encoder, args.dim, args.state, sizes,
                         repetitions=args.reps, rng_seed=args.seed)
    print(f"{'encoder':<10} {'T':>8} {'median_ms':>12} {'ratio_vs_prev':>14}")
    out_rows = []
    for row in rows:
        ratio = "" if row["ratio_vs_prev"] is None else f"{row['ratio_vs_prev']:.3f}"
        print(f"{row['encoder']:<10} {row['T']:>8} {row['median_ms']:>12.3f} "
              f"{ratio:>14}")
        out_rows.append([row["encoder"], row["T"], repr(row["median_ms"]),
                         ratio])
    if args.out:
        _write_csv(args.out, ["encoder", "T", "median_ms", "ratio_vs_prev"],
                   out_rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marble",
        description="Multi-scale linear-time MIL: data synthesis, training, "
                    "ablations, and scaling benchmarks. For multi-class "
                    "datasets the reported AUC is macro one-vs-rest.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--spec", help="key=value spec file")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a manifest dataset")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--data", required=True, help="manifest path")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep-alpha", help="grid sweep of the drop fraction")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", default="0.05,0.1,0.2")
    p.add_argument("--force", action="store_true")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("ablate-scales",
                       help="coarse-only vs fine-only vs combined")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_ablate_scales)

    p = sub.add_parser("bench", help="sequence-length scaling benchmark")
    p.add_argument("--encoder", choices=["scan", "attention"], required=True)
    p.add_argument("--sizes", default="2048,4096,8192,16384")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--state", type=int, default=16)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except MarbleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
