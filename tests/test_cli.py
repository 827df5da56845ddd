"""End-to-end tests of the command-line interface.

Each command is exercised through main() so exit codes, output files,
and error mapping are all covered. Training runs use tiny datasets and
epoch counts to keep the suite fast.
"""

import csv
import os
from dataclasses import replace

import numpy as np
import pytest

from marble import cli
from marble.bagdata import load_manifest, read_bag, write_bag
from marble.cli import RunConfig, load_run_config, main
from marble.errors import ConfigError
from marble.network import load_checkpoint
from marble.pyramid import BagLevel, TokenBag, single_level_view
from marble.trainer import TrainConfig, derive_seed, evaluate, train

FAST = [
    "--set", "n_slides=20", "--set", "dim=8", "--set", "coarse_rows=3",
    "--set", "coarse_cols=3", "--set", "epochs=2", "--set", "warmup_epochs=1",
    "--set", "d_state=2",
]

# training keys only: width, levels and classes come from the data
SHORT = ["--set", "epochs=2", "--set", "warmup_epochs=1", "--set", "d_state=2"]
# explicit splits for a 20-slide manifest
SPLITS = ["train"] * 14 + ["val"] * 3 + ["test"] * 3


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def relabel(dataset, labels):
    """Rewrite the manifest with the given labels and SPLITS."""
    path = os.path.join(dataset, "manifest.csv")
    rows = read_csv(path)
    with open(path, "w") as fh:
        for row, label, split in zip(rows, labels, SPLITS):
            fh.write(f"{row[0]},{row[1]},{label},{split}\n")
    return path


@pytest.fixture
def dataset(tmp_path):
    out = str(tmp_path / "data")
    assert main(["gen-data", "--out", out,
                 "--set", "n_slides=20", "--set", "dim=8",
                 "--set", "coarse_rows=3", "--set", "coarse_cols=3"]) == 0
    return out


class TestRunConfig:

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nn_slides = 10\nbase_lr=0.01\n")
        config = load_run_config(str(path), ["epochs=7"])
        assert config.n_slides == 10
        assert config.base_lr == 0.01
        assert config.epochs == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("nslides=10\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_run_config(str(path), [])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            load_run_config(None, ["epochs=soon"])

    def test_invalid_semantics_fail_fast(self):
        with pytest.raises(ConfigError):
            load_run_config(None, ["noise=0"])

    def test_bool_coercion(self):
        assert load_run_config(None, ["shuffle_each_epoch=off"]) \
            .shuffle_each_epoch is False

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config("/nonexistent/cfg.txt", [])

    def test_directory_as_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_run_config(str(tmp_path), [])

    def test_binary_config_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"epochs=2\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="cfg.txt: not UTF-8 text"):
            load_run_config(str(path), [])

    @pytest.mark.parametrize("line,overrides,message", [
        ("n_slides 10", [], "cfg.txt:2: expected key=value, got 'n_slides 10'"),
        ("", ["epochs"], "--set: expected key=value, got 'epochs'"),
        ("nslides=10", [], "cfg.txt:2: unknown key 'nslides'"),
        ("", ["nslides=1"], "--set: unknown key 'nslides'"),
    ])
    def test_bad_item_names_its_place(self, tmp_path, line, overrides, message):
        path = tmp_path / "cfg.txt"
        path.write_text(f"# comment\n{line}\n")
        with pytest.raises(ConfigError, match=message):
            load_run_config(str(path), overrides)

    @pytest.mark.parametrize("command", ["train", "sweep-alpha",
                                         "ablate-scales"])
    def test_zero_repeats_rejected(self, dataset, tmp_path, capsys, command):
        out = str(tmp_path / "run")
        assert main([command, "--data", os.path.join(dataset, "manifest.csv"),
                     "--out", out, "--set", "repeats=0"]) == 2
        assert "repeats must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("item,message", [
        pytest.param(item, message, id=item) for item, message in [
            ("d_state=0", "d_state >= 1 and d_inner >= 0"),
            ("d_inner=-4", "d_state >= 1 and d_inner >= 0"),
            ("early_stop_patience=0",
             "early_stop_patience >= 1 and warmup_epochs >= 0"),
            ("warmup_epochs=-1",
             "early_stop_patience >= 1 and warmup_epochs >= 0"),
            ("base_lr=-1", "base_lr must be finite and non-negative"),
            ("base_lr=nan", "base_lr must be finite and non-negative"),
            ("weight_decay=inf", "weight_decay must be finite and non-negative"),
            ("cox_lambda=nan", "cox_lambda must be finite and non-negative"),
            ("grad_clip=nan", "grad_clip must be finite")]])
    def test_model_dims_rejected_before_output(self, dataset, tmp_path,
                                               capsys, item, message):
        # d_state=0 used to train and write a checkpoint the reader refuses,
        # and base_lr=-1 failed only at the first optimizer step
        out = str(tmp_path / "run")
        assert main(["train", "--data", os.path.join(dataset, "manifest.csv"),
                     "--out", out] + SHORT + ["--set", item]) == 2
        assert message in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("item", ["batch_size=1", "n_classes=2", "beta1=0.9",
                                      "beta2=0.999"])
    def test_removed_keys_unknown(self, tmp_path, capsys, item):
        assert main(["train", "--data", str(tmp_path / "manifest.csv"),
                     "--out", str(tmp_path / "run"), "--set", item]) == 2
        assert "unknown key" in capsys.readouterr().err


class TestGenData:

    def test_writes_bags_manifest_and_config(self, dataset):
        names = os.listdir(dataset)
        assert "manifest.csv" in names
        assert "config.txt" in names
        assert sum(1 for n in names if n.endswith(".bag")) == 20
        assert ".partial" not in names

    def test_refuses_nonempty_dir(self, dataset):
        code = main(["gen-data", "--out", dataset, "--set", "n_slides=4",
                     "--set", "coarse_rows=3", "--set", "coarse_cols=3"])
        assert code == 2

    def test_force_overwrites(self, dataset):
        code = main(["gen-data", "--out", dataset, "--force",
                     "--set", "n_slides=4", "--set", "dim=8",
                     "--set", "coarse_rows=3", "--set", "coarse_cols=3"])
        assert code == 0
        bags = [n for n in os.listdir(dataset) if n.endswith(".bag")]
        assert len(bags) == 4

    def test_bad_config_exit_code(self, tmp_path):
        assert main(["gen-data", "--out", str(tmp_path / "x"),
                     "--set", "task=regression"]) == 2

    @pytest.mark.parametrize("item", ["n_slides=0", "dim=0", "ratio=0",
                                      "coarse_rows=0", "coarse_cols=-1"])
    def test_size_below_one_exits_before_output(self, tmp_path, capsys, item):
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), "--set", item]) == 2
        assert f"{item.split('=')[0]} must be at least 1" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("item,message", [
        ("dim=1", "need dim >= 2, got 1"),
        ("noise=nan", "noise must be finite"),
        ("amplitude=inf", "amplitude must be finite"),
        ("hazard_gamma=nan", "hazard_gamma must be finite")])
    def test_unusable_signal_exits_before_output(self, tmp_path, capsys,
                                                 item, message):
        # dim=1 and noise=nan used to exit 0 and write bags holding NaN
        out = tmp_path / "data"
        assert main(["gen-data", "--out", str(out), "--set", item]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        assert main(["gen-data", "--out", str(path), "--set", "n_slides=4",
                     "--set", "coarse_rows=3", "--set", "coarse_cols=3"]) == 2
        assert f"cannot create output directory '{path}'" \
            in capsys.readouterr().err


class TestTrain:

    def test_single_run_outputs(self, dataset, tmp_path):
        out = str(tmp_path / "run")
        manifest = os.path.join(dataset, "manifest.csv")
        assert main(["train", "--data", manifest, "--out", out] + FAST) == 0
        assert os.path.exists(os.path.join(out, "epochs.csv"))
        assert os.path.exists(os.path.join(out, "runs.csv"))
        assert os.path.exists(os.path.join(out, "best.ckpt"))
        assert not os.path.exists(os.path.join(out, ".partial"))
        rows = read_csv(os.path.join(out, "epochs.csv"))
        assert rows[0] == ["epoch", "lr", "train_loss", "val_metric",
                           "best_so_far", "stopped_flag"]
        assert len(rows) >= 2

    def test_repeats_make_subdirs(self, dataset, tmp_path):
        out = str(tmp_path / "run")
        manifest = os.path.join(dataset, "manifest.csv")
        assert main(["train", "--data", manifest, "--out", out,
                     "--set", "repeats=2"] + FAST) == 0
        assert os.path.isdir(os.path.join(out, "run0"))
        assert os.path.isdir(os.path.join(out, "run1"))
        rows = read_csv(os.path.join(out, "runs.csv"))
        assert len(rows) == 3  # header + 2 repeats

    def test_missing_manifest_exit_code(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "run")] + FAST) == 3

    def test_binary_manifest_exit_code(self, dataset, tmp_path, capsys):
        bag = os.path.join(dataset, "s00001.bag")
        assert main(["train", "--data", bag,
                     "--out", str(tmp_path / "run")] + SHORT) == 3
        assert f"cannot read manifest {bag}" in capsys.readouterr().err

    def test_truncated_bag_exit_code_names_the_file(self, dataset, tmp_path,
                                                    capsys):
        path = os.path.join(dataset, "s00007.bag")
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-10])
        manifest = os.path.join(dataset, "manifest.csv")
        assert main(["train", "--data", manifest,
                     "--out", str(tmp_path / "run")] + SHORT) == 3
        assert "s00007.bag: bag file truncated" in capsys.readouterr().err

    def test_truncated_test_bag_exits_before_output(self, dataset, tmp_path,
                                                    capsys):
        # the test split is scored only after training, but its bags are
        # read and checked before the run directory is made; the manifest's
        # first bag, which decides the model's shape, does not show that
        manifest = os.path.join(dataset, "manifest.csv")
        rec = load_manifest(manifest, split_seed=derive_seed(0, "split")) \
            .split_records("test")[-1]
        assert rec.slide_id != "s00000"
        path = os.path.join(dataset, rec.path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-10])
        out = str(tmp_path / "run")
        assert main(["train", "--data", manifest, "--out", out] + SHORT) == 3
        assert f"{rec.path}: bag file truncated" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_missing_bag_exit_code_names_the_file(self, dataset, tmp_path,
                                                  capsys):
        os.remove(os.path.join(dataset, "s00007.bag"))
        manifest = os.path.join(dataset, "manifest.csv")
        assert main(["train", "--data", manifest,
                     "--out", str(tmp_path / "run")] + SHORT) == 3
        assert "s00007.bag" in capsys.readouterr().err

    def test_out_under_a_file_exits_2(self, dataset, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        out = str(tmp_path / "taken" / "sub")
        assert main(["train", "--data", os.path.join(dataset, "manifest.csv"),
                     "--out", out] + SHORT) == 2
        assert f"cannot create output directory '{out}'" \
            in capsys.readouterr().err

    def test_bag_unlike_the_probe_exit_code_names_the_file(self, dataset,
                                                            tmp_path, capsys):
        path = os.path.join(dataset, "s00005.bag")
        bag = read_bag(path)
        write_bag(TokenBag([replace(lv, embeddings=lv.embeddings[:, :6].copy())
                            for lv in bag.levels]), path)
        manifest = os.path.join(dataset, "manifest.csv")
        assert main(["train", "--data", manifest,
                     "--out", str(tmp_path / "run")] + SHORT) == 3
        err = capsys.readouterr().err
        assert "s00005.bag: 2 levels of width 6" in err
        assert "s00000.bag has 2 of width 8" in err

    @pytest.mark.parametrize("setting", ["cox_chunk=0", "cox_lambda=-0.1"])
    def test_bad_cox_setting_exits_before_training(self, tmp_path, capsys,
                                                    setting):
        data = str(tmp_path / "data")
        assert main(["gen-data", "--out", data, "--set", "task=survival",
                     "--set", "n_slides=40", "--set", "dim=8",
                     "--set", "coarse_rows=3", "--set", "coarse_cols=3"]) == 0
        out = str(tmp_path / "run")
        assert main(["train", "--data", os.path.join(data, "manifest.csv"),
                     "--out", out, "--set", setting] + SHORT) == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_deterministic_checkpoints(self, dataset, tmp_path):
        manifest = os.path.join(dataset, "manifest.csv")
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        for out in (out_a, out_b):
            assert main(["train", "--data", manifest, "--out", out] + FAST) == 0
        blob_a = open(os.path.join(out_a, "best.ckpt"), "rb").read()
        blob_b = open(os.path.join(out_b, "best.ckpt"), "rb").read()
        assert blob_a == blob_b
        assert read_csv(os.path.join(out_a, "epochs.csv")) == \
            read_csv(os.path.join(out_b, "epochs.csv"))

    def test_classes_from_manifest_labels(self, dataset, tmp_path):
        manifest = relabel(dataset, [i % 3 for i in range(20)])
        out = str(tmp_path / "run")
        assert main(["train", "--data", manifest, "--out", out] + SHORT) == 0
        params = load_checkpoint(os.path.join(out, "best.ckpt"))
        assert params.cls_w.shape == (3, 8)

    def test_unscorable_split_exits_before_training(self, tmp_path, capsys):
        # 12 slides: the seeded 80/10/10 split leaves one val and one test
        # slide, so neither split can give an AUC
        data = str(tmp_path / "small")
        assert main(["gen-data", "--out", data, "--set", "n_slides=12",
                     "--set", "dim=8", "--set", "coarse_rows=3",
                     "--set", "coarse_cols=3"]) == 0
        out = str(tmp_path / "run")
        assert main(["train", "--data", os.path.join(data, "manifest.csv"),
                     "--out", out] + SHORT) == 2
        assert "split cannot be scored" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "epochs.csv"))

    @pytest.mark.parametrize("command,output", [
        ("train", "epochs.csv"), ("ablate-scales", "ablation.csv")])
    def test_unscorable_test_exits_before_training(self, dataset, tmp_path,
                                                   capsys, command, output):
        manifest = relabel(dataset, [i % 2 for i in range(17)] + [1, 1, 1])
        out = str(tmp_path / "run")
        assert main([command, "--data", manifest, "--out", out] + SHORT) == 2
        assert "test split cannot be scored" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, output))


class TestShapeFromData:
    """A dim=8, 3-level dataset trains with neither dim nor levels set."""

    @pytest.fixture
    def deep(self, tmp_path):
        out = str(tmp_path / "deep")
        assert main(["gen-data", "--out", out, "--set", "n_slides=20",
                     "--set", "dim=8", "--set", "levels=3",
                     "--set", "coarse_rows=2", "--set", "coarse_cols=2"]) == 0
        return os.path.join(out, "manifest.csv")

    def test_train(self, deep, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", "--data", deep, "--out", out] + SHORT) == 0
        params = load_checkpoint(os.path.join(out, "best.ckpt"))
        assert (params.d_model, params.n_levels) == (8, 3)

    def test_sweep_alpha(self, deep, tmp_path):
        assert main(["sweep-alpha", "--data", deep, "--out",
                     str(tmp_path / "sweep"), "--grid", "0.1"] + SHORT) == 0

    def test_ablate_scales(self, deep, tmp_path):
        assert main(["ablate-scales", "--data", deep, "--out",
                     str(tmp_path / "ablate")] + SHORT) == 0


class TestSweepAlpha:

    def test_sweep_csv(self, dataset, tmp_path):
        out = str(tmp_path / "sweep")
        manifest = os.path.join(dataset, "manifest.csv")
        assert main(["sweep-alpha", "--data", manifest, "--out", out,
                     "--grid", "0.0,0.1"] + FAST) == 0
        rows = read_csv(os.path.join(out, "sweep.csv"))
        assert rows[0][0] == "alpha"
        assert [r[0] for r in rows[1:]] == ["0.0", "0.1"]

    def test_bad_grid_value(self, dataset, tmp_path):
        manifest = os.path.join(dataset, "manifest.csv")
        assert main(["sweep-alpha", "--data", manifest,
                     "--out", str(tmp_path / "s"), "--grid", "1.5"] + FAST) == 2

    @pytest.mark.parametrize("grid", ["0.1,abc", "", "abc"])
    def test_unparsable_grid_exits_2(self, dataset, tmp_path, capsys, grid):
        manifest = os.path.join(dataset, "manifest.csv")
        out = tmp_path / "s"
        assert main(["sweep-alpha", "--data", manifest, "--out", str(out),
                     f"--grid={grid}"] + FAST) == 2
        assert "config error: --grid" in capsys.readouterr().err
        assert not out.exists()


class TestAblateScales:

    def test_three_variants(self, dataset, tmp_path):
        out = str(tmp_path / "ablate")
        manifest = os.path.join(dataset, "manifest.csv")
        assert main(["ablate-scales", "--data", manifest, "--out", out]
                    + FAST) == 0
        rows = read_csv(os.path.join(out, "ablation.csv"))
        assert [r[0] for r in rows[1:]] == ["coarse-only", "fine-only",
                                            "combined"]

    def test_needs_two_levels(self, tmp_path):
        data = str(tmp_path / "flat")
        assert main(["gen-data", "--out", data, "--set", "levels=1",
                     "--set", "n_slides=6", "--set", "dim=8",
                     "--set", "planted_fine=3"]) == 0
        assert main(["ablate-scales", "--data",
                     os.path.join(data, "manifest.csv"),
                     "--out", str(tmp_path / "a")] + FAST) == 2


class TestSeeds:
    """Each command's seed rule, pinned by re-running train() and
    evaluate() directly at the documented seeds."""

    @pytest.mark.parametrize("repeats", [1, 2])
    def test_train_seeds(self, dataset, tmp_path, repeats):
        out = str(tmp_path / "run")
        assert main(["train", "--data", os.path.join(dataset, "manifest.csv"),
                     "--out", out, "--set", "seed=7",
                     "--set", f"repeats={repeats}"] + SHORT) == 0
        want = [7] if repeats == 1 else [derive_seed(7, f"repeat:{r}")
                                         for r in range(repeats)]
        assert [int(row[1]) for row in
                read_csv(os.path.join(out, "runs.csv"))[1:]] == want

    @staticmethod
    def direct(manifest, view, tags, test, **knobs):
        """[mean, population sd] of train() runs at derive_seed(0, tag):
        the test AUC when `test`, else the best validation AUC."""
        index = load_manifest(manifest, split_seed=derive_seed(0, "split"))
        base = os.path.dirname(manifest)

        def load(rec):
            return view(read_bag(os.path.join(base, rec.path)))
        metrics = []
        for tag in tags:
            result = train(index, TrainConfig(
                epochs=2, warmup_epochs=1, d_state=2, d_model=8,
                seed=derive_seed(0, tag), **knobs), bag_loader=load)
            metrics.append(evaluate(result.params, index.split_records("test"),
                                    bag_loader=load)["auc"] if test
                           else result.best_metric)
        return [repr(float(np.mean(metrics))), repr(float(np.std(metrics)))]

    def test_sweep_alpha_seeds(self, dataset, tmp_path):
        manifest = os.path.join(dataset, "manifest.csv")
        out = str(tmp_path / "sweep")
        assert main(["sweep-alpha", "--data", manifest, "--out", out,
                     "--grid", "0,0.3", "--set", "repeats=2"] + SHORT) == 0
        assert read_csv(os.path.join(out, "sweep.csv"))[1:] == [
            [repr(alpha)] + self.direct(
                manifest, lambda bag: bag,
                [f"alpha:{alpha}:rep:0", f"alpha:{alpha}:rep:1"], False,
                drop_alpha=alpha)
            for alpha in (0.0, 0.3)]

    def test_ablate_scales_seeds(self, dataset, tmp_path):
        manifest = os.path.join(dataset, "manifest.csv")
        out = str(tmp_path / "ablate")
        assert main(["ablate-scales", "--data", manifest, "--out", out,
                     "--set", "repeats=2"] + SHORT) == 0
        views = {"coarse-only": (lambda bag: single_level_view(bag, 0), 1),
                 "fine-only": (lambda bag: single_level_view(bag, 1), 1),
                 "combined": (lambda bag: bag, 2)}
        assert read_csv(os.path.join(out, "ablation.csv"))[1:] == [
            [name] + self.direct(
                manifest, view, [f"ablate:{name}:rep:0", f"ablate:{name}:rep:1"],
                True, n_levels=levels)
            for name, (view, levels) in views.items()]


@pytest.mark.parametrize("command", [
    ["train", "--set", "repeats=2"],
    ["sweep-alpha", "--grid", "0,0.3", "--set", "repeats=2"],
    ["ablate-scales", "--set", "repeats=2"]])
def test_each_bag_read_once(tmp_path, monkeypatch, command):
    """Whatever the variants and repeats, a command reads each manifest
    bag once."""
    data = str(tmp_path / "data")
    assert main(["gen-data", "--out", data, "--set", "n_slides=40",
                 "--set", "dim=8"]) == 0
    reads = []
    monkeypatch.setattr(cli, "read_bag",
                        lambda path: reads.append(path) or read_bag(path))
    assert main(command + ["--data", os.path.join(data, "manifest.csv"),
                           "--out", str(tmp_path / "run")] + SHORT) == 0
    bags = sorted(os.path.join(data, name) for name in os.listdir(data)
                  if name.endswith(".bag"))
    assert len(bags) == 40
    assert sorted(reads) == bags


def random_bag(rng, n_levels, dim, scale):
    """A pyramid the reader accepts: 1 to 2 x 2 coarse cells, ratio 1 or 2
    per level, and at each level a random non-empty subset of the cells
    under the level above, one token half the time."""
    def subset(cells):
        n = 1 if rng.random() < 0.5 else int(rng.integers(1, len(cells) + 1))
        return [cells[i] for i in sorted(rng.choice(len(cells), n, replace=False))]

    def embeddings(count):
        return (rng.standard_normal((count, dim)) * scale).astype(np.float32)

    rows, cols = rng.integers(1, 3, size=2)
    coords = np.array(subset([(r, c) for r in range(rows) for c in range(cols)]))
    levels = [BagLevel(embeddings(len(coords)), coords, None)]
    for _ in range(1, n_levels):
        ratio = int(rng.integers(1, 3))
        kept = subset([(p, (r * ratio + dr, c * ratio + dc))
                       for p, (r, c) in enumerate(levels[-1].coords.tolist())
                       for dr in range(ratio) for dc in range(ratio)])
        levels.append(BagLevel(embeddings(len(kept)),
                               np.array([rc for _, rc in kept]),
                               np.array([p for p, _ in kept]), ratio))
    return TokenBag(levels)


def test_every_reader_accepted_bag_set_trains_or_exits_cleanly(tmp_path, capsys):
    """Seeded fuzz: 48 sets of bags that read_bag accepts, with 3 or 4
    levels, 1-token levels, ratio 1 and largest magnitudes from 1e-3 to
    1e30, each trained by `marble train`. Every run exits 0 (trained), 2
    (config), 3 (data) or 4 (numeric failure), never 1 or a traceback."""
    rng = np.random.default_rng(1010)
    codes = []
    for case in range(48):
        data = tmp_path / f"case{case}"
        data.mkdir()
        n_levels, dim = int(rng.integers(3, 5)), int(rng.integers(1, 5))
        # half the sets at everyday magnitudes, half up to 1e30
        scale = 10.0 ** rng.uniform(-3, 1 if case % 4 < 2 else 30)
        lines = []
        for i, split in enumerate(["train"] * 4 + ["val"] * 2 + ["test"] * 2):
            write_bag(random_bag(rng, n_levels, dim, scale),
                      str(data / f"b{i}.bag"))
            target = (f"{rng.uniform(1, 10)!r},{int(i > 0)}" if case % 2
                      else str(i % 2))
            lines.append(f"b{i},b{i}.bag,{target},{split}\n")
        (data / "manifest.csv").write_text("".join(lines))
        code = main(["train", "--data", str(data / "manifest.csv"),
                     "--out", str(data / "run")] + SHORT)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (case, code, err)
        codes.append(code)
    assert codes.count(0) >= 20 and 4 in codes, codes


class TestBench:

    def test_scan_bench_csv(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        assert main(["bench", "--encoder", "scan", "--sizes", "64,128",
                     "--dim", "8", "--state", "2", "--reps", "3",
                     "--out", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["encoder", "T", "median_ms", "ratio_vs_prev"]
        assert len(rows) == 3
        assert rows[1][3] == ""       # first size has no predecessor
        assert float(rows[2][3]) > 0  # second reports a ratio

    @pytest.mark.parametrize("args", [
        ["--sizes", "16,x"], ["--sizes", "0,16"], ["--sizes", "16", "--dim", "0"],
        ["--sizes", "16", "--state", "0"]])
    def test_bad_values_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--encoder", "scan", "--dim", "4", "--reps", "3",
                     "--out", str(out)] + args) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/x.csv", "."])
    def test_unwritable_out_exits_2_before_timing(self, tmp_path, capsys,
                                                  monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--encoder", "scan", "--sizes", "16",
                     "--dim", "4", "--reps", "3", "--out", out]) == 2
        captured = capsys.readouterr()
        assert f"config error: --out: cannot write a file at '{out}'" \
            in captured.err
        assert captured.out == ""

    def test_attention_bench_runs(self, tmp_path):
        assert main(["bench", "--encoder", "attention", "--sizes", "64,128",
                     "--dim", "8", "--reps", "3"]) == 0
