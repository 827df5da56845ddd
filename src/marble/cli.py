"""Command-line entry point.

Subcommands: gen-data, train, sweep-alpha, ablate-scales, bench. Runs
are reproducible: each command but bench derives all randomness from the
seed key of its config and echoes the fully resolved configuration into
its output directory; bench takes --seed. Exit codes: 0 success, 2
config error, 3 data/format error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import field, fields, make_dataclass, replace

import numpy as np

from .bagdata import (DatasetIndex, ManifestRecord, SynthSpec,
                      generate_dataset, load_manifest, read_bag,
                      write_bag, write_manifest)
from .errors import ConfigError, FormatError, MarbleError, NumericError
from .network import save_checkpoint
from .pyramid import single_level_view
from .ssmcore import scaling_bench
from .trainer import (DATA_FIELDS, METRIC, TrainConfig, check_scorable,
                      data_config, derive_seed, evaluate, train)


_TRAIN_KEYS = [f.name for f in fields(TrainConfig) if f.name not in DATA_FIELDS]


def _synth_spec(self) -> SynthSpec:
    return SynthSpec(**{f.name: getattr(self, f.name) for f in fields(SynthSpec)})


# Flat key=value configuration shared by all commands: every SynthSpec
# field, every TrainConfig field the data does not decide (seed is in both
# and is one key), and the number of repeats.
_KEYS = {f.name: f for f in (*fields(SynthSpec), *fields(TrainConfig))
         if f.name not in DATA_FIELDS}
RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, field(default=f.default)) for f in _KEYS.values()]
    + [("repeats", "int", field(default=1))],
    namespace={"__module__": __name__, "synth_spec": _synth_spec})


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
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                items = [(f"{path}:{lineno}", text)
                         for lineno, line in enumerate(fh, start=1)
                         if (text := line.split("#", 1)[0].strip())]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
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


@contextmanager
def _run_dir(args, config: RunConfig):
    """The output directory `args.out`, emptied under --force, holding
    config.txt and, while work is in flight, a .partial marker."""
    if os.path.isdir(args.out) and os.listdir(args.out):
        if not args.force:
            raise ConfigError(
                f"output directory '{args.out}' is not empty (use --force)")
        shutil.rmtree(args.out)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory '{args.out}': "
                          f"{exc.strerror}") from exc
    marker = os.path.join(args.out, ".partial")
    open(marker, "w").close()
    with open(os.path.join(args.out, "config.txt"), "w",
              encoding="utf-8") as fh:
        for f in fields(RunConfig):
            fh.write(f"{f.name}={getattr(config, f.name)}\n")
    yield args.out
    os.remove(marker)


def _setup(args):
    """The run config, the manifest, its bags by slide id, each read once,
    and the TrainConfig the first bag decides. A bag whose level count or
    width differs from the first bag's is a data error naming its file."""
    config = load_run_config(args.config, args.set or [])
    if not os.path.exists(args.data):
        raise FormatError(f"manifest not found: {args.data}")
    index = load_manifest(args.data, split_seed=derive_seed(config.seed, "split"))
    base_dir = os.path.dirname(os.path.abspath(args.data))
    # os.path.join keeps a manifest path that is already absolute
    bags = {rec.slide_id: read_bag(os.path.join(base_dir, rec.path))
            for rec in index.records}
    first = index.records[0]
    tconf = data_config(index, bags[first.slide_id],
                        **{key: getattr(config, key) for key in _TRAIN_KEYS})
    for rec, bag in zip(index.records, bags.values()):
        got = (bag.n_levels, bag.levels[0].embeddings.shape[1])
        if got != (tconf.n_levels, tconf.d_model):
            raise FormatError(f"{rec.path}: {got[0]} levels of width "
                              f"{got[1]}, but {first.path} has "
                              f"{tconf.n_levels} of width {tconf.d_model}")
    return config, index, bags, tconf


def _repeat(config: RunConfig, index: DatasetIndex, bags: dict,
            tconf: TrainConfig, tag: str | None, test=(), out=None):
    """Yield (seed, TrainResult, test metric) for each of `config.repeats`
    trainings of `tconf` on `bags`, by slide id. Pass r is seeded by
    derive_seed(seed, tag.format(r)), or by the seed itself when `tag` is
    None, and scored on `test` (nan when empty). With `out`, each pass
    writes epochs.csv and best.ckpt there, or to out/run<r> if repeated."""
    loader = lambda rec: bags[rec.slide_id]
    for rep in range(config.repeats):
        seed = config.seed if tag is None \
            else derive_seed(config.seed, tag.format(rep))
        result = train(index, replace(tconf, seed=seed), bag_loader=loader)
        if out is not None:
            rep_dir = out if config.repeats == 1 \
                else os.path.join(out, f"run{rep}")
            os.makedirs(rep_dir, exist_ok=True)
            _write_csv(os.path.join(rep_dir, "epochs.csv"),
                       ["epoch", "lr", "train_loss", "val_metric",
                        "best_so_far", "stopped_flag"],
                       [[r.epoch, repr(r.lr), repr(r.train_loss),
                         repr(r.val_metric), repr(r.best_so_far),
                         int(r.stopped)] for r in result.reports])
            save_checkpoint(result.params, os.path.join(rep_dir, "best.ckpt"))
        metric = float("nan")
        if test:
            metric = evaluate(result.params, test,
                              bag_loader=loader)[METRIC[index.task]]
        yield seed, result, metric


def _variant_table(config: RunConfig, index: DatasetIndex, variants: list,
                   path: str, key_name: str, test=()) -> None:
    """Print and write to `path` the mean and population sd over the
    repeats of each variant's test metric, or its best validation metric
    when there is no `test`. A variant is (CSV key, printed label, bags
    by slide id, TrainConfig, seed tag)."""
    metric_name = METRIC[index.task]
    split = "test" if test else "val"
    rows = []
    for key, label, bags, tconf, tag in variants:
        metrics = [metric if test else result.best_metric for _, result, metric
                   in _repeat(config, index, bags, tconf, tag, test)]
        mean, sd = np.mean(metrics), np.std(metrics)
        rows.append([key, repr(float(mean)), repr(float(sd))])
        print(f"{label}: {split} {metric_name} {mean:.4f} +/- {sd:.4f}")
    _write_csv(path, [key_name, f"mean_{split}_{metric_name}", "sd"], rows)


def _parse_list(flag: str, raw: str, kind) -> list:
    try:
        return [kind(v) for v in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


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
    with _run_dir(args, config) as out_dir:
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
    print(f"wrote {len(slides)} bags + manifest to {args.out}")
    return 0


def cmd_train(args) -> int:
    config, index, bags, tconf = _setup(args)
    test = index.split_records("test")
    if test:
        check_scorable("test", test, tconf)
    with _run_dir(args, config) as out_dir:
        tag = "repeat:{}" if config.repeats > 1 else None
        rows = []
        for rep, (seed, result, metric) in enumerate(
                _repeat(config, index, bags, tconf, tag, test, out_dir)):
            rows.append([rep, seed, result.best_epoch,
                         repr(result.best_metric), repr(metric)])
            print(f"run {rep}: best val {result.best_metric:.4f} "
                  f"(epoch {result.best_epoch}), test {metric:.4f}")
        _write_csv(os.path.join(out_dir, "runs.csv"),
                   ["repeat", "seed", "best_epoch", "val_metric", "test_metric"],
                   rows)
        if config.repeats > 1:
            vals = [float(r[4]) for r in rows]
            print(f"test metric over {config.repeats} repeats: "
                  f"{np.mean(vals):.4f} +/- {np.std(vals):.4f}")
    return 0


def cmd_sweep_alpha(args) -> int:
    grid = _parse_list("--grid", args.grid, float)
    for alpha in grid:
        if not 0.0 <= alpha < 1.0:
            raise ConfigError(f"grid value {alpha} outside [0, 1)")
    config, index, bags, tconf = _setup(args)
    variants = [(repr(alpha), f"alpha={alpha}", bags,
                 replace(tconf, drop_alpha=alpha), f"alpha:{alpha}:rep:{{}}")
                for alpha in grid]
    with _run_dir(args, config) as out_dir:
        _variant_table(config, index, variants,
                       os.path.join(out_dir, "sweep.csv"), "alpha")
    return 0


def cmd_ablate_scales(args) -> int:
    config, index, bags, tconf = _setup(args)
    if tconf.n_levels < 2:
        raise ConfigError("ablate-scales needs a dataset with at least 2 levels")
    test = index.split_records("test")
    check_scorable("test", test, tconf)
    single = replace(tconf, n_levels=1)
    views = [(name, {sid: single_level_view(bag, level)
                     for sid, bag in bags.items()}, single)
             for name, level in (("coarse-only", 0),
                                 ("fine-only", tconf.n_levels - 1))]
    variants = [(name, name, view, conf, f"ablate:{name}:rep:{{}}")
                for name, view, conf in views + [("combined", bags, tconf)]]
    with _run_dir(args, config) as out_dir:
        _variant_table(config, index, variants,
                       os.path.join(out_dir, "ablation.csv"), "variant", test)
    return 0


def cmd_bench(args) -> int:
    sizes = _parse_list("--sizes", args.sizes, int)
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(
            os.path.dirname(args.out) or ".")):
        raise ConfigError(f"--out: cannot write a file at '{args.out}'")
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
    out_flags = argparse.ArgumentParser(add_help=False)
    out_flags.add_argument("--out", required=True)
    out_flags.add_argument("--force", action="store_true")
    out_flags.add_argument("--set", action="append", metavar="KEY=VALUE")
    data_flags = argparse.ArgumentParser(add_help=False)
    data_flags.add_argument("--config", help="key=value config file")
    data_flags.add_argument("--data", required=True, help="manifest path")

    p = sub.add_parser("gen-data", help="generate a synthetic dataset",
                       parents=[out_flags])
    p.add_argument("--spec", help="key=value spec file")
    p.set_defaults(func=cmd_gen_data)

    for name, func, text in [
            ("train", cmd_train, "train on a manifest dataset"),
            ("sweep-alpha", cmd_sweep_alpha, "grid sweep of the drop fraction"),
            ("ablate-scales", cmd_ablate_scales,
             "coarse-only vs fine-only vs combined")]:
        sub.add_parser(name, help=text, parents=[data_flags, out_flags]) \
            .set_defaults(func=func)
    sub.choices["sweep-alpha"].add_argument("--grid", default="0.05,0.1,0.2")

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
