"""Multi-resolution tile grids, parent-child index maps, and bag sampling.

A slide is a pyramid of token levels, coarsest first. Level k > 0 aligns
to level k-1 through an integer zoom ratio m: the parent of fine cell
(r, c) is coarse cell (r // m, c // m). Fine tissue cells over a
background (or dropped) coarse cell are excluded so that every retained
token always has a live parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError

@dataclass
class LevelGrid:
    """One pyramid level's tile grid with a tissue/background mask."""

    level: int
    rows: int
    cols: int
    ratio_to_parent: int | None  # None at level 0
    tissue_mask: np.ndarray      # bool, shape (rows, cols)

    def __post_init__(self):
        self.tissue_mask = np.asarray(self.tissue_mask, dtype=bool)
        if self.tissue_mask.shape != (self.rows, self.cols):
            raise DimensionError(
                f"tissue_mask shape {self.tissue_mask.shape} != grid "
                f"({self.rows}, {self.cols})")
        if self.level > 0 and (self.ratio_to_parent is None or self.ratio_to_parent < 1):
            raise ConfigError("levels above 0 need a positive ratio_to_parent")


@dataclass
class BagLevel:
    """Tokens of one level: embeddings, grid coords, parent indices."""

    embeddings: np.ndarray           # any float (bag files: float32), (T, D)
    coords: np.ndarray               # int64, (T, 2) as (row, col)
    parents: np.ndarray | None       # int64, (T,); None at level 0
    ratio: int | None = None         # zoom ratio to the parent level

    @property
    def count(self) -> int:
        return self.embeddings.shape[0]


@dataclass
class TokenBag:
    """All levels of one slide, coarsest first."""

    levels: list[BagLevel] = field(default_factory=list)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def token_counts(self) -> list[int]:
        return [lv.count for lv in self.levels]


def parent_index(coord: tuple[int, int], ratio: int) -> tuple[int, int]:
    """Coarse cell containing a fine cell, by integer division."""
    if ratio < 1:
        raise ConfigError(f"ratio must be a positive integer, got {ratio}")
    r, c = coord
    if r < 0 or c < 0:
        raise ConfigError(f"coordinates must be non-negative, got {coord}")
    return (r // ratio, c // ratio)


def build_bag(grids: list[LevelGrid], embeddings: list[np.ndarray]) -> TokenBag:
    """Resolve a grid pyramid plus per-level embeddings into a TokenBag.

    Embedding rows align with the row-major order of tissue cells in each
    grid. Tissue cells whose parent cell is background are excluded
    together with their embedding rows, transitively across levels.
    """
    if len(grids) != len(embeddings):
        raise DimensionError("one embedding block per grid level required")
    levels: list[BagLevel] = []
    # coord -> token index of the previous level's retained cells
    prev_lookup: dict[tuple[int, int], int] = {}
    for k, (grid, emb) in enumerate(zip(grids, embeddings)):
        emb = np.asarray(emb, dtype=np.float64)
        tissue = [(r, c) for r in range(grid.rows) for c in range(grid.cols)
                  if grid.tissue_mask[r, c]]
        if emb.ndim != 2 or emb.shape[0] != len(tissue):
            raise DimensionError(
                f"level {k}: {len(tissue)} tissue cells but "
                f"{emb.shape[0] if emb.ndim == 2 else '?'} embedding rows")
        if k == 0:
            keep = list(range(len(tissue)))
            parents = None
        else:
            parent_grid = grids[k - 1]
            m = grid.ratio_to_parent
            if (grid.rows != parent_grid.rows * m
                    or grid.cols != parent_grid.cols * m):
                raise DimensionError(
                    f"level {k} grid {grid.rows}x{grid.cols} is not "
                    f"{m}x the parent grid {parent_grid.rows}x{parent_grid.cols}")
            keep, parent_idx = [], []
            for i, rc in enumerate(tissue):
                p = prev_lookup.get(parent_index(rc, m))
                if p is not None:  # background/skipped parent -> skip child
                    keep.append(i)
                    parent_idx.append(p)
            parents = np.asarray(parent_idx, dtype=np.int64)
        coords = np.asarray([tissue[i] for i in keep], dtype=np.int64).reshape(-1, 2)
        levels.append(BagLevel(
            embeddings=emb[keep],
            coords=coords,
            parents=parents,
            ratio=None if k == 0 else grid.ratio_to_parent,
        ))
        prev_lookup = {tuple(rc): j for j, rc in enumerate(coords.tolist())}
    return TokenBag(levels=levels)


def _cascade(bag: TokenBag, keep0: np.ndarray) -> TokenBag:
    """Rebuild a bag keeping only level-0 indices in keep0 (+descendants)."""
    out: list[BagLevel] = []
    idx = np.sort(keep0)
    remap = None    # previous level's old index -> new index, -1 if dropped
    for lv in bag.levels:
        parents = None
        if remap is not None:
            mapped = remap[lv.parents]
            idx = np.nonzero(mapped >= 0)[0]
            parents = mapped[idx]
        out.append(BagLevel(lv.embeddings[idx], lv.coords[idx], parents,
                            lv.ratio))
        remap = np.full(lv.count, -1, dtype=np.int64)
        remap[idx] = np.arange(idx.size)
    return TokenBag(levels=out)


def coarse_branch_drop(bag: TokenBag, alpha: float, rng_seed: int) -> TokenBag:
    """Drop ceil(alpha * T_0) level-0 tokens and prune their descendants.

    Sampling is uniform without replacement from the seeded generator; at
    least one level-0 token is always retained, and if the draw would
    empty a finer level (a kept token may have no descendants), the first
    dropped token whose branch reaches every level is kept too. Parent
    indices of the surviving fine tokens are remapped to the compacted
    ordering.
    """
    if not 0.0 <= alpha < 1.0:
        raise ConfigError(f"drop fraction must be in [0, 1), got {alpha}")
    t0 = bag.levels[0].count
    if t0 < 1:
        raise DimensionError("cannot drop from an empty coarse level")
    n_drop = min(math.ceil(alpha * t0), t0 - 1)
    if n_drop == 0:
        return bag
    rng = np.random.default_rng(rng_seed)
    dropped = rng.choice(t0, size=n_drop, replace=False)
    keep0 = np.setdiff1d(np.arange(t0), dropped)
    out = _cascade(bag, keep0)
    for token in dropped:
        if min(out.token_counts()) > 0:
            break
        out = _cascade(bag, np.append(keep0, token))
    return out


def shuffle_within_levels(bag: TokenBag, rng_seed: int) -> TokenBag:
    """Independently permute each level's token order.

    Embeddings, coords, and parent links move together, so the multiset of
    (embedding, coordinate, parent-coordinate) triples is unchanged.
    """
    rng = np.random.default_rng(rng_seed)
    out: list[BagLevel] = []
    inv_prev: np.ndarray | None = None
    for lv in bag.levels:
        perm = rng.permutation(lv.count)
        parents = None
        if lv.parents is not None:
            parents = inv_prev[lv.parents][perm]
        out.append(BagLevel(lv.embeddings[perm], lv.coords[perm], parents,
                            lv.ratio))
        inv_prev = np.empty(lv.count, dtype=np.int64)
        inv_prev[perm] = np.arange(lv.count)
    return TokenBag(levels=out)


def single_level_view(bag: TokenBag, level: int) -> TokenBag:
    """A one-level bag holding only the tokens of `level` (for ablations);
    it shares that level's arrays with `bag`."""
    if not 0 <= level < bag.n_levels:
        raise ConfigError(f"level {level} out of range for {bag.n_levels}-level bag")
    lv = bag.levels[level]
    return TokenBag(levels=[BagLevel(lv.embeddings, lv.coords, None, None)])
