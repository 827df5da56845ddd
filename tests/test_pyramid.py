import numpy as np
import pytest

from marble.errors import ConfigError, DimensionError
from marble.pyramid import (BagLevel, LevelGrid, TokenBag, build_bag,
                            coarse_branch_drop, parent_index,
                            shuffle_within_levels, single_level_view)


def make_bag(rng, t0=6, children_per_parent=4, dim=3, levels=2):
    """Bag with a fixed fan-out, coords on a (t0 x 1) coarse column."""
    out = []
    count = t0
    for k in range(levels):
        coords = np.asarray([(i, 0) for i in range(count)])
        parents = None if k == 0 else np.repeat(
            np.arange(count // children_per_parent), children_per_parent)
        out.append(BagLevel(rng.standard_normal((count, dim)),
                            coords, parents,
                            None if k == 0 else children_per_parent))
        count *= children_per_parent
    return TokenBag(levels=out)


class TestParentIndex:
    def test_integer_division(self):
        assert parent_index((5, 7), 4) == (1, 1)
        assert parent_index((3, 3), 2) == (1, 1)
        assert parent_index((4, 3), 2) == (2, 1)

    def test_origin(self):
        for m in (1, 2, 7):
            assert parent_index((0, 0), m) == (0, 0)

    def test_zero_ratio_rejected(self):
        with pytest.raises(ConfigError):
            parent_index((1, 1), 0)


class TestBuildBag:
    def test_single_coarse_cell(self):
        grids = [LevelGrid(0, 1, 1, None, np.ones((1, 1), bool)),
                 LevelGrid(1, 2, 2, 2, np.ones((2, 2), bool))]
        bag = build_bag(grids, [np.zeros((1, 3)), np.arange(12.0).reshape(4, 3)])
        assert bag.token_counts() == [1, 4]
        assert np.array_equal(bag.levels[1].parents, [0, 0, 0, 0])

    def test_background_parent_excludes_children(self):
        mask0 = np.array([[True], [False]])
        grids = [LevelGrid(0, 2, 1, None, mask0),
                 LevelGrid(1, 4, 2, 2, np.ones((4, 2), bool))]
        bag = build_bag(grids, [np.zeros((1, 2)), np.arange(16.0).reshape(8, 2)])
        # the 4 fine cells over coarse (1, 0) are gone
        assert bag.token_counts() == [1, 4]
        assert all(tuple(rc) in {(0, 0), (0, 1), (1, 0), (1, 1)}
                   for rc in bag.levels[1].coords.tolist())

    def test_all_background_accepted(self):
        grids = [LevelGrid(0, 2, 2, None, np.zeros((2, 2), bool))]
        bag = build_bag(grids, [np.zeros((0, 4))])
        assert bag.token_counts() == [0]

    def test_misaligned_grids_rejected(self):
        grids = [LevelGrid(0, 2, 2, None, np.ones((2, 2), bool)),
                 LevelGrid(1, 3, 4, 2, np.ones((3, 4), bool))]
        with pytest.raises(DimensionError):
            build_bag(grids, [np.zeros((4, 2)), np.zeros((12, 2))])

    def test_embedding_count_mismatch(self):
        grids = [LevelGrid(0, 2, 2, None, np.ones((2, 2), bool))]
        with pytest.raises(DimensionError):
            build_bag(grids, [np.zeros((3, 2))])


class TestCoarseBranchDrop:
    def test_alpha_zero_is_identity(self):
        bag = make_bag(np.random.default_rng(0))
        out = coarse_branch_drop(bag, 0.0, rng_seed=1)
        assert out is bag

    def test_exact_retained_count(self):
        bag = make_bag(np.random.default_rng(1), t0=100, children_per_parent=2)
        out = coarse_branch_drop(bag, 0.1, rng_seed=7)
        assert out.levels[0].count == 90
        retained_parents = set(range(out.levels[0].count))
        assert set(out.levels[1].parents.tolist()) <= retained_parents

    def test_seeded_determinism(self):
        bag = make_bag(np.random.default_rng(2), t0=10, children_per_parent=4)
        a = coarse_branch_drop(bag, 0.2, rng_seed=42)
        b = coarse_branch_drop(bag, 0.2, rng_seed=42)
        assert a.levels[0].count == 8 and a.levels[1].count == 32
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.embeddings, lb.embeddings)
            assert np.array_equal(la.coords, lb.coords)

    def test_no_orphans_three_levels(self):
        rng = np.random.default_rng(3)
        bag = make_bag(rng, t0=8, children_per_parent=2, levels=3)
        out = coarse_branch_drop(bag, 0.4, rng_seed=9)
        for k in (1, 2):
            assert out.levels[k].parents.max() < out.levels[k - 1].count

    def test_at_least_one_parent_kept(self):
        bag = make_bag(np.random.default_rng(4), t0=1, children_per_parent=2)
        out = coarse_branch_drop(bag, 0.9, rng_seed=0)
        assert out.levels[0].count == 1

    def test_matches_per_token_reference(self):
        # the kept tokens, their order and their remapped parents equal a
        # per-token dict walk down the levels
        def reference(bag, keep0):
            keep = np.sort(keep0)
            remap = {old: new for new, old in enumerate(keep.tolist())}
            lv0 = bag.levels[0]
            out = [(lv0.embeddings[keep], lv0.coords[keep], None)]
            for lv in bag.levels[1:]:
                idx = np.array([i for i, p in enumerate(lv.parents.tolist())
                                if p in remap], dtype=np.int64)
                parents = np.array([remap[p] for p in lv.parents[idx].tolist()],
                                   dtype=np.int64)
                out.append((lv.embeddings[idx], lv.coords[idx], parents))
                remap = {old: new for new, old in enumerate(idx.tolist())}
            return out

        rng = np.random.default_rng(6)
        for seed in range(12):
            bag = shuffle_within_levels(
                make_bag(rng, t0=9, children_per_parent=3, levels=3), seed)
            alpha = (0.1, 0.5, 0.9)[seed % 3]
            out = coarse_branch_drop(bag, alpha, rng_seed=seed)
            dropped = np.random.default_rng(seed).choice(
                9, size=min(int(np.ceil(alpha * 9)), 8), replace=False)
            want = reference(bag, np.setdiff1d(np.arange(9), dropped))
            for lv, (emb, coords, parents) in zip(out.levels, want, strict=True):
                assert np.array_equal(lv.embeddings, emb)
                assert np.array_equal(lv.coords, coords)
                if parents is None:
                    assert lv.parents is None
                else:
                    assert lv.parents.dtype == np.int64
                    assert np.array_equal(lv.parents, parents)

    def test_never_empties_a_finer_level(self):
        # only coarse token 3 has descendants; a draw that drops it keeps
        # it after all, and otherwise the draw is unchanged
        levels = [BagLevel(np.zeros((4, 2)), np.array([(i, 0) for i in range(4)]),
                           None),
                  BagLevel(np.ones((2, 2)), np.array([(6, 0), (7, 1)]),
                           np.array([3, 3]), 2),
                  BagLevel(np.ones((1, 2)), np.array([(7, 1)]), np.array([1]), 1)]
        bag = TokenBag(levels)
        kept_three = 0
        for seed in range(20):
            out = coarse_branch_drop(bag, 0.5, rng_seed=seed)
            dropped = np.random.default_rng(seed).choice(4, 2, replace=False)
            assert out.token_counts() == ([2, 2, 1] if 3 not in dropped
                                          else [3, 2, 1])
            assert out.levels[0].coords[-1].tolist() == [3, 0]
            kept_three += 3 in dropped
        assert 0 < kept_three < 20

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
    def test_bad_alpha(self, alpha):
        bag = make_bag(np.random.default_rng(5))
        with pytest.raises(ConfigError):
            coarse_branch_drop(bag, alpha, rng_seed=0)


def fused_pairs(bag):
    """Multiset of (fine embedding, fine coord, parent embedding) keys."""
    pairs = []
    for k in range(1, bag.n_levels):
        fine, coarse = bag.levels[k], bag.levels[k - 1]
        for i in range(fine.count):
            pairs.append((k, fine.embeddings[i].tobytes(),
                          tuple(fine.coords[i]),
                          coarse.embeddings[fine.parents[i]].tobytes()))
    return sorted(pairs)


class TestShuffle:
    def test_single_token_levels_unchanged(self):
        bag = make_bag(np.random.default_rng(6), t0=1, children_per_parent=1)
        out = shuffle_within_levels(bag, rng_seed=3)
        for la, lb in zip(bag.levels, out.levels):
            assert np.array_equal(la.embeddings, lb.embeddings)

    def test_forced_parent_remap(self):
        lv0 = BagLevel(np.array([[0.0], [1.0]]), np.array([(0, 0), (1, 0)]),
                       None)
        lv1 = BagLevel(np.arange(4.0).reshape(4, 1),
                       np.array([(0, 0), (1, 0), (2, 0), (3, 0)]),
                       np.array([0, 0, 1, 1]), 2)
        bag = TokenBag(levels=[lv0, lv1])
        # find a seed that swaps level 0
        for seed in range(50):
            out = shuffle_within_levels(bag, seed)
            if out.levels[0].embeddings[0, 0] == 1.0:
                resolved = out.levels[0].embeddings[out.levels[1].parents, 0]
                fine_vals = out.levels[1].embeddings[:, 0]
                for v, p in zip(fine_vals, resolved):
                    assert p == (0.0 if v in (0.0, 1.0) else 1.0)
                return
        pytest.fail("no swapping seed found")

    def test_multiset_preserved(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            bag = make_bag(rng, t0=5, children_per_parent=3, levels=3)
            out = shuffle_within_levels(bag, seed)
            assert fused_pairs(bag) == fused_pairs(out)


def test_single_level_view():
    bag = make_bag(np.random.default_rng(9))
    view = single_level_view(bag, 1)
    assert view.n_levels == 1
    assert view.levels[0].parents is None
    assert np.array_equal(view.levels[0].embeddings, bag.levels[1].embeddings)
    with pytest.raises(ConfigError):
        single_level_view(bag, 2)
