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

from marble.bagdata import read_bag, write_bag
from marble.cli import RunConfig, load_run_config, main
from marble.errors import ConfigError
from marble.network import load_checkpoint
from marble.pyramid import TokenBag

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

    @pytest.mark.parametrize("item", ["d_state=0", "d_inner=-4"])
    def test_model_dims_rejected_before_output(self, dataset, tmp_path,
                                               capsys, item):
        # d_state=0 used to train and write a checkpoint the reader refuses
        out = str(tmp_path / "run")
        assert main(["train", "--data", os.path.join(dataset, "manifest.csv"),
                     "--out", out] + SHORT + ["--set", item]) == 2
        assert "d_state >= 1 and d_inner >= 0" in capsys.readouterr().err
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

    def test_truncated_bag_exit_code_names_the_file(self, dataset, tmp_path,
                                                    capsys):
        path = os.path.join(dataset, "s00007.bag")
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-10])
        manifest = os.path.join(dataset, "manifest.csv")
        assert main(["train", "--data", manifest,
                     "--out", str(tmp_path / "run")] + SHORT) == 3
        assert "s00007.bag: bag file truncated" in capsys.readouterr().err

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

    def test_attention_bench_runs(self, tmp_path):
        assert main(["bench", "--encoder", "attention", "--sizes", "64,128",
                     "--dim", "8", "--reps", "3"]) == 0
