"""Tests for the synthetic data generator, the binary bag format, and
manifest handling.

The generator's core promise is checked directly: both classes carry
identical marginal signal counts, and only the co-location of coarse and
fine signal tokens differs.
"""

import os
import struct

import numpy as np
import pytest

from marble import bagdata
from marble.bagdata import (BAG_MAGIC, DatasetIndex, GeneratedSlide,
                            ManifestRecord, SynthSpec, _ancestor0,
                            generate_dataset, generate_slide, load_manifest,
                            read_bag, signal_directions, write_bag,
                            write_manifest)
from marble.errors import ConfigError, FormatError
from marble.metrics import SurvivalRecord
from marble.pyramid import BagLevel, TokenBag


class TestSynthSpec:

    def test_defaults_valid(self):
        SynthSpec()

    @pytest.mark.parametrize("kwargs", [
        {"noise": 0.0}, {"amplitude": -1.0}, {"censor_rate": 1.0},
        {"task": "regression"}, {"levels": 0},
        {"positive_pairs": 0}, {"positive_pairs": 4},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SynthSpec(**kwargs)


class TestSignalDirections:

    def test_orthonormal_and_seed_stable(self):
        spec = SynthSpec(seed=42)
        a, b = signal_directions(spec)
        assert np.linalg.norm(a) == pytest.approx(1.0)
        assert np.linalg.norm(b) == pytest.approx(1.0)
        assert abs(float(a @ b)) < 1e-12
        a2, b2 = signal_directions(SynthSpec(seed=42))
        np.testing.assert_array_equal(a, a2)
        np.testing.assert_array_equal(b, b2)

    def test_seed_changes_directions(self):
        a, _ = signal_directions(SynthSpec(seed=1))
        b, _ = signal_directions(SynthSpec(seed=2))
        assert not np.allclose(a, b)


class TestGenerateSlide:

    def test_marginal_counts_match_across_classes(self):
        spec = SynthSpec(seed=3)
        rng = np.random.default_rng(0)
        for label in (0, 1):
            _, info = generate_slide(spec, label, rng)
            assert len(info.coarse_signal_idx) == spec.planted_coarse
            assert len(info.fine_signal_idx) == spec.planted_fine
            assert info.pair_count == (spec.positive_pairs if label else 0)

    def test_colocation_is_the_only_difference(self):
        spec = SynthSpec(seed=4)
        rng = np.random.default_rng(1)
        for label in (0, 1):
            bag, info = generate_slide(spec, label, rng)
            anc = _ancestor0(bag.levels, 1)
            pairs = sum(1 for i in info.fine_signal_idx
                        if anc[i] in info.coarse_signal_idx)
            assert pairs == info.pair_count

    def test_signal_actually_planted(self):
        spec = SynthSpec(seed=5, amplitude=5.0)
        rng = np.random.default_rng(2)
        bag, info = generate_slide(spec, 1, rng)
        s_coarse, s_fine = signal_directions(spec)
        proj = bag.levels[0].embeddings @ s_coarse
        top = set(np.argsort(proj)[-spec.planted_coarse:].tolist())
        assert top == set(info.coarse_signal_idx)
        proj_f = bag.levels[1].embeddings @ s_fine
        top_f = set(np.argsort(proj_f)[-spec.planted_fine:].tolist())
        assert top_f == set(info.fine_signal_idx)

    def test_decoys_sit_under_unsignalled_parents(self):
        spec = SynthSpec(seed=6)
        rng = np.random.default_rng(3)
        bag, info = generate_slide(spec, 0, rng)
        anc = _ancestor0(bag.levels, 1)
        for i in info.fine_signal_idx:
            assert anc[i] not in info.coarse_signal_idx

    def test_embeddings_are_float32_clean(self):
        spec = SynthSpec(seed=7)
        rng = np.random.default_rng(4)
        bag, _ = generate_slide(spec, 1, rng)
        for lv in bag.levels:
            np.testing.assert_array_equal(
                lv.embeddings, lv.embeddings.astype(np.float32))

    def test_embeddings_are_float32_as_stored(self):
        for task in ("classification", "survival"):
            for s in generate_dataset(SynthSpec(n_slides=4, seed=7,
                                                task=task)):
                assert all(lv.embeddings.dtype == np.float32
                           for lv in s.bag.levels)

    def test_too_small_grid_raises(self):
        # every coarse cell is signalled, so no parent can host a decoy
        spec = SynthSpec(seed=8, coarse_rows=2, coarse_cols=2,
                         planted_coarse=4, planted_fine=3)
        rng = np.random.default_rng(5)
        with pytest.raises(ConfigError):
            generate_slide(spec, 0, rng)


class TestGenerateDataset:

    def test_classification_balanced_and_deterministic(self):
        spec = SynthSpec(n_slides=40, seed=9)
        slides = generate_dataset(spec)
        labels = [s.label for s in slides]
        assert sum(labels) == 20
        again = generate_dataset(SynthSpec(n_slides=40, seed=9))
        for a, b in zip(slides, again):
            assert a.label == b.label
            for la, lb in zip(a.bag.levels, b.bag.levels):
                np.testing.assert_array_equal(la.embeddings, lb.embeddings)

    def test_survival_times_positive_and_pair_counts_in_range(self):
        spec = SynthSpec(n_slides=60, seed=10, task="survival")
        slides = generate_dataset(spec)
        for s in slides:
            assert s.record.time > 0
            assert 0 <= s.info.pair_count <= 3
        assert any(s.record.event for s in slides)
        assert any(not s.record.event for s in slides)

    def test_higher_pair_count_means_earlier_events(self):
        spec = SynthSpec(n_slides=400, seed=11, task="survival",
                         censor_rate=0.0)
        slides = generate_dataset(spec)
        lo = [s.record.time for s in slides if s.info.pair_count == 0]
        hi = [s.record.time for s in slides if s.info.pair_count == 3]
        assert np.median(hi) < np.median(lo)


class TestBagFormat:

    def _bag(self, seed=0):
        spec = SynthSpec(seed=seed)
        rng = np.random.default_rng(seed)
        bag, _ = generate_slide(spec, 1, rng)
        return bag

    @staticmethod
    def _refused_by_writer_and_reader(bag, path, match, monkeypatch):
        """write_bag refuses `bag` and leaves no file; the bytes it would
        have written, forced out unchecked, read_bag refuses alike."""
        with pytest.raises(FormatError, match=match):
            write_bag(bag, path)
        assert not os.path.exists(path)
        monkeypatch.setattr(bagdata, "_parse_bag", lambda blob: None)
        write_bag(bag, path)
        monkeypatch.undo()
        with pytest.raises(FormatError, match=match):
            read_bag(path)

    def test_round_trip_bit_exact(self, tmp_path):
        bag = self._bag(12)
        path = str(tmp_path / "x.bag")
        write_bag(bag, path)
        loaded = read_bag(path)
        assert loaded.n_levels == bag.n_levels
        for a, b in zip(bag.levels, loaded.levels):
            np.testing.assert_array_equal(a.embeddings, b.embeddings)
            np.testing.assert_array_equal(a.coords, b.coords)
            if a.parents is None:
                assert b.parents is None
            else:
                np.testing.assert_array_equal(a.parents, b.parents)
            assert a.ratio == b.ratio

    def test_read_gives_float32_equal_to_the_payload(self, tmp_path):
        path = str(tmp_path / "x.bag")
        write_bag(self._bag(16), path)
        blob = open(path, "rb").read()
        loaded = read_bag(path)
        dim = loaded.levels[0].embeddings.shape[1]
        off = 4 + 7                          # magic, version/levels/D
        for lv in loaded.levels:
            off += 8 + 8 * lv.count + 4 * lv.count   # header, coords, parents
            payload = blob[off:off + 4 * lv.count * dim]
            off += len(payload)
            assert lv.embeddings.dtype == np.float32
            assert lv.embeddings.flags.writeable
            assert lv.embeddings.astype("<f4").tobytes() == payload
        assert off == len(blob)

    def test_magic_checked(self, tmp_path):
        path = str(tmp_path / "x.bag")
        write_bag(self._bag(13), path)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"NOPE"
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            read_bag(path)

    def test_truncation_reported_with_offset(self, tmp_path):
        path = str(tmp_path / "x.bag")
        write_bag(self._bag(14), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-10])
        with pytest.raises(FormatError, match="truncated at offset"):
            read_bag(path)

    def test_errors_name_the_file(self, tmp_path):
        path = str(tmp_path / "s00007.bag")
        write_bag(self._bag(14), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-10])
        with pytest.raises(FormatError, match="s00007.bag"):
            read_bag(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = str(tmp_path / "x.bag")
        write_bag(self._bag(15), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_bag(path)

    def test_parent_out_of_range_rejected(self, tmp_path, monkeypatch):
        bag = self._bag(16)
        bag.levels[1].parents = bag.levels[1].parents.copy()
        bag.levels[1].parents[0] = 10 ** 6
        self._refused_by_writer_and_reader(bag, str(tmp_path / "x.bag"),
                                           "parent index", monkeypatch)

    def test_zero_levels_rejected(self, tmp_path):
        path = tmp_path / "x.bag"
        path.write_bytes(BAG_MAGIC + struct.pack("<HBI", 1, 0, 8))
        with pytest.raises(FormatError, match="0 levels .* offset 4"):
            read_bag(str(path))

    def test_zero_dim_rejected(self, tmp_path, monkeypatch):
        level = BagLevel(np.zeros((1, 0)), np.zeros((1, 2), dtype=np.int64),
                         None)
        self._refused_by_writer_and_reader(
            TokenBag(levels=[level]), str(tmp_path / "x.bag"),
            "dim 0, offset 4", monkeypatch)

    def test_empty_level_rejected(self, tmp_path, monkeypatch):
        bag = self._bag(19)
        bag.levels[1] = BagLevel(np.zeros((0, 64)),
                                 np.zeros((0, 2), dtype=np.int64),
                                 np.zeros(0, dtype=np.int64), 2)
        self._refused_by_writer_and_reader(bag, str(tmp_path / "x.bag"),
                                           "level 1 is empty", monkeypatch)

    def test_finer_level_without_ratio_refused(self, tmp_path, monkeypatch):
        bag = self._bag(19)
        bag.levels[1].ratio = None
        self._refused_by_writer_and_reader(bag, str(tmp_path / "x.bag"),
                                           "level 1 ratio must be >= 1",
                                           monkeypatch)

    def test_non_finite_embeddings_still_written(self, tmp_path):
        # read_bag accepts them, so the writer does too
        bag = self._bag(19)
        bag.levels[1].embeddings[0, 0] = np.nan
        path = str(tmp_path / "x.bag")
        write_bag(bag, path)
        assert np.isnan(read_bag(path).levels[1].embeddings[0, 0])

    def test_negative_coordinate_rejected(self, tmp_path, monkeypatch):
        bag = self._bag(20)
        bag.levels[0].coords[3, 1] = -1
        # level 0's coords start after the 11-byte header and the 8-byte
        # level header; token 3's column is 8 * 3 + 4 bytes further
        self._refused_by_writer_and_reader(
            bag, str(tmp_path / "x.bag"), "negative coordinate at offset 47",
            monkeypatch)

    def test_coordinates_must_lie_under_parent(self, tmp_path, monkeypatch):
        bag = self._bag(21)
        fine = bag.levels[1]
        assert fine.parents[5] != fine.parents[0]
        fine.coords[5] = fine.coords[0]
        self._refused_by_writer_and_reader(bag, str(tmp_path / "x.bag"),
                                           "parent's", monkeypatch)

    def test_fuzz_never_crashes(self, tmp_path):
        # random corruptions must raise FormatError, never anything else
        path = str(tmp_path / "x.bag")
        write_bag(self._bag(17), path)
        blob = open(path, "rb").read()
        rng = np.random.default_rng(18)
        for _ in range(100):
            corrupt = bytearray(blob)
            mode = rng.integers(3)
            if mode == 0:
                corrupt = corrupt[:rng.integers(len(blob))]
            elif mode == 1:
                pos = int(rng.integers(len(corrupt)))
                corrupt[pos] = int(rng.integers(256))
            else:
                corrupt += bytes(rng.integers(0, 256, size=5, dtype=np.uint8))
            open(path, "wb").write(bytes(corrupt))
            try:
                read_bag(path)
            except FormatError:
                pass


class TestManifest:

    def _index(self, tmp_path, task="classification", n=10, with_split=True):
        records = []
        for i in range(n):
            split = ("train" if i < 6 else "val" if i < 8 else "test") \
                if with_split else None
            if task == "classification":
                records.append(ManifestRecord(f"s{i}", f"s{i}.bag",
                                              label=i % 2, split=split))
            else:
                records.append(ManifestRecord(
                    f"s{i}", f"s{i}.bag",
                    record=SurvivalRecord(float(i + 1), i % 3 != 0),
                    split=split))
        return DatasetIndex(task=task, records=records)

    @pytest.mark.parametrize("task", ["classification", "survival"])
    def test_round_trip(self, tmp_path, task):
        index = self._index(tmp_path, task)
        path = str(tmp_path / "manifest.csv")
        write_manifest(path, index)
        loaded = load_manifest(path)
        assert loaded.task == task
        for a, b in zip(index.records, loaded.records):
            assert (a.slide_id, a.path, a.split) == (b.slide_id, b.path,
                                                     b.split)
            if task == "classification":
                assert a.label == b.label
            else:
                assert a.record.time == b.record.time
                assert a.record.event == b.record.event

    def test_missing_split_assigned_deterministically(self, tmp_path):
        index = self._index(tmp_path, n=20, with_split=False)
        path = str(tmp_path / "manifest.csv")
        write_manifest(path, index)
        a = load_manifest(path, split_seed=5)
        b = load_manifest(path, split_seed=5)
        assert [r.split for r in a.records] == [r.split for r in b.records]
        counts = {s: len(a.split_records(s)) for s in ("train", "val", "test")}
        assert counts == {"train": 16, "val": 2, "test": 2}

    def test_missing_split_keeps_both_classes(self, tmp_path):
        index = self._index(tmp_path, n=20, with_split=False)
        path = str(tmp_path / "manifest.csv")
        write_manifest(path, index)
        for seed in range(50):
            loaded = load_manifest(path, split_seed=seed)
            for split in ("val", "test"):
                labels = {r.label for r in loaded.split_records(split)}
                assert labels == {0, 1}, (seed, split)

    def test_missing_split_keeps_class_proportions(self, tmp_path):
        # 90/10 labels: each split holds about its share of each class,
        # so train keeps the minority class
        path = str(tmp_path / "manifest.csv")
        write_manifest(path, DatasetIndex(task="classification", records=[
            ManifestRecord(f"s{i}", f"s{i}.bag", label=int(i >= 90))
            for i in range(100)]))
        for seed in range(20):
            loaded = load_manifest(path, split_seed=seed)
            for split, share in (("train", 0.8), ("val", 0.1),
                                 ("test", 0.1)):
                labels = [r.label for r in loaded.split_records(split)]
                assert abs(labels.count(0) - 90 * share) <= 1, (seed, split)
                assert abs(labels.count(1) - 10 * share) <= 1, (seed, split)

    @pytest.mark.parametrize("n", [7, 20, 37])
    def test_missing_survival_split_is_seeded_80_10_10(self, tmp_path, n):
        # survival records form one group, so the split is the plain
        # seeded permutation: its first 80% train, the next 10% val
        index = self._index(tmp_path, task="survival", n=n, with_split=False)
        path = str(tmp_path / "manifest.csv")
        write_manifest(path, index)
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(n)
            n_train, n_val = int(0.8 * n), int(0.1 * n)
            expected = [None] * n
            for pos, i in enumerate(order):
                expected[i] = ("train" if pos < n_train else "val"
                               if pos < n_train + n_val else "test")
            loaded = load_manifest(path, split_seed=seed)
            assert [r.split for r in loaded.records] == expected

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("a,x.bag,0\na,y.bag,1\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_manifest(str(path))

    def test_mixed_tasks_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("a,x.bag,0\nb,y.bag,1.5,1\n")
        with pytest.raises(FormatError, match="mixed"):
            load_manifest(str(path))

    def test_bad_field_count_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("a,x.bag\n")
        with pytest.raises(FormatError, match="line 1"):
            load_manifest(str(path))

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("# header\n\na,x.bag,0,train\n")
        loaded = load_manifest(str(path))
        assert len(loaded.records) == 1

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("# nothing\n")
        with pytest.raises(FormatError, match="no records"):
            load_manifest(str(path))
