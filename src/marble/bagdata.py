"""Synthetic multi-scale bags with a planted cross-scale signal, the
portable binary bag format, and manifest handling.

The generator plants a fixed number of coarse-direction and
fine-direction signal tokens in every slide, so the marginal presence of
either direction carries no class information. What separates classes
(or orders hazards) is *co-location*: a signalled fine token sitting
under a signalled coarse parent. Positive slides contain at least one
such pair, negatives contain none; for survival the hazard grows with
the pair count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError
from .metrics import SurvivalRecord
from .pyramid import BagLevel, TokenBag

BAG_MAGIC = b"MBG1"
BAG_VERSION = 1
_NO_PARENT = 0xFFFFFFFF
SPLITS = ("train", "val", "test")


@dataclass
class SynthSpec:
    """Knobs of the synthetic dataset generator."""

    n_slides: int = 300
    levels: int = 2              # pyramid depth S+1
    ratio: int = 2               # zoom between adjacent levels
    coarse_rows: int = 4
    coarse_cols: int = 4
    dim: int = 64
    noise: float = 0.3           # embedding noise sigma
    amplitude: float = 1.5       # planted signal strength
    planted_coarse: int = 3      # coarse signal tokens per slide
    planted_fine: int = 3        # fine signal tokens per slide
    positive_pairs: int = 3      # co-located pairs in a positive slide
    task: str = "classification"  # or "survival"
    censor_rate: float = 0.15
    hazard_gamma: float = 1.5    # log-hazard per co-located pair
    seed: int = 0

    def __post_init__(self):
        if self.noise <= 0:
            raise ConfigError("noise sigma must be positive")
        if self.amplitude < 0:
            raise ConfigError("signal amplitude must be non-negative")
        if not 0.0 <= self.censor_rate < 1.0:
            raise ConfigError("censoring rate must be in [0, 1)")
        if self.task not in ("classification", "survival"):
            raise ConfigError(f"unknown task '{self.task}'")
        if self.levels < 1:
            raise ConfigError("need at least one level")
        if not 1 <= self.positive_pairs <= min(self.planted_coarse,
                                               self.planted_fine):
            raise ConfigError("positive_pairs must be in [1, planted budget]")


@dataclass
class SlideInfo:
    """Planted-signal bookkeeping, exposed for tests and audits."""

    coarse_signal_idx: list[int]
    fine_signal_idx: list[int]
    pair_count: int


def signal_directions(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Two orthogonal unit-norm planted directions, fixed by the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xD14]))
    s_coarse = rng.standard_normal(spec.dim)
    s_coarse /= np.linalg.norm(s_coarse)
    s_fine = rng.standard_normal(spec.dim)
    s_fine -= s_coarse * np.dot(s_fine, s_coarse)
    s_fine /= np.linalg.norm(s_fine)
    return s_coarse, s_fine


def _grid_chain(spec: SynthSpec) -> list[tuple[int, int]]:
    dims = [(spec.coarse_rows, spec.coarse_cols)]
    for _ in range(spec.levels - 1):
        r, c = dims[-1]
        dims.append((r * spec.ratio, c * spec.ratio))
    return dims


def generate_slide(spec: SynthSpec, target, rng: np.random.Generator
                   ) -> tuple[TokenBag, SlideInfo]:
    """One slide's TokenBag with the planting rule applied.

    `target` is the class label for classification, or the co-located
    pair count for survival (the event time is drawn by the caller).
    Embeddings are drawn and planted in float64, then stored as float32,
    the bag file's precision, so bag files round-trip bit-exactly.
    """
    s_coarse, s_fine = signal_directions(spec)
    dims = _grid_chain(spec)
    m = spec.ratio

    levels: list[BagLevel] = []
    for k, (rows, cols) in enumerate(dims):
        t_k = rows * cols
        emb = rng.normal(0.0, spec.noise, size=(t_k, spec.dim))
        coords = np.asarray([(r, c) for r in range(rows) for c in range(cols)],
                            dtype=np.int64)
        parents = None
        if k > 0:
            parents = (coords[:, 0] // m) * dims[k - 1][1] + (coords[:, 1] // m)
        levels.append(BagLevel(emb, coords, parents, None if k == 0 else m))

    n_coarse = dims[0][0] * dims[0][1]
    if spec.task == "classification":
        pair_count = spec.positive_pairs if int(target) == 1 else 0
    else:
        pair_count = int(target)
    if pair_count > min(spec.planted_coarse, spec.planted_fine):
        raise ConfigError("pair count exceeds planted signal budget")
    if spec.planted_coarse > n_coarse:
        raise ConfigError("coarse grid too small for the planted signals")

    coarse_sig = rng.choice(n_coarse, size=spec.planted_coarse, replace=False)
    paired_parents = coarse_sig[:pair_count]

    # children of one coarse token at the finest planted level (level 1)
    fine_level = levels[-1] if spec.levels > 1 else levels[0]
    fine_sig: list[int] = []
    if spec.levels > 1:
        children_of = {p: np.nonzero(_ancestor0(levels, len(levels) - 1) == p)[0]
                       for p in range(n_coarse)}
        for p in paired_parents:
            fine_sig.append(int(rng.choice(children_of[int(p)])))
        decoy_pool = np.concatenate(
            [children_of[p] for p in range(n_coarse) if p not in set(coarse_sig.tolist())]
        ) if n_coarse > spec.planted_coarse else np.empty(0, dtype=np.int64)
        n_decoys = spec.planted_fine - pair_count
        if len(decoy_pool) < n_decoys:
            raise ConfigError("grid too small to place non-co-located decoys")
        fine_sig.extend(int(i) for i in
                        rng.choice(decoy_pool, size=n_decoys, replace=False))
    amp = spec.amplitude
    levels[0].embeddings[coarse_sig] += amp * s_coarse
    if spec.levels > 1:
        fine_level.embeddings[fine_sig] += amp * s_fine

    for lv in levels:
        lv.embeddings = lv.embeddings.astype(np.float32)

    info = SlideInfo(coarse_signal_idx=sorted(int(i) for i in coarse_sig),
                     fine_signal_idx=sorted(fine_sig),
                     pair_count=pair_count)
    return TokenBag(levels=levels), info


def _ancestor0(levels: list[BagLevel], k: int) -> np.ndarray:
    """Level-0 ancestor index of every token at level k."""
    anc = np.arange(levels[0].count) if k == 0 else levels[k].parents.copy()
    for j in range(k - 1, 0, -1):
        anc = levels[j].parents[anc]
    return anc


@dataclass
class GeneratedSlide:
    slide_id: str
    bag: TokenBag
    label: int | None
    record: SurvivalRecord | None
    info: SlideInfo


def generate_dataset(spec: SynthSpec) -> list[GeneratedSlide]:
    """Deterministic dataset: balanced labels for classification, uniform
    pair counts with proportional-hazards event times for survival."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xBA6]))
    slides: list[GeneratedSlide] = []
    if spec.task == "classification":
        labels = np.array([i % 2 for i in range(spec.n_slides)])
        rng.shuffle(labels)
        for i, label in enumerate(labels):
            bag, info = generate_slide(spec, int(label), rng)
            slides.append(GeneratedSlide(f"s{i:05d}", bag, int(label), None, info))
    else:
        max_pairs = min(spec.planted_coarse, spec.planted_fine)
        for i in range(spec.n_slides):
            pairs = int(rng.integers(0, max_pairs + 1))
            bag, info = generate_slide(spec, pairs, rng)
            hazard = np.exp(spec.hazard_gamma * pairs)
            t_event = float(rng.exponential(1.0 / hazard)) * 100.0 + 1e-6
            if rng.random() < spec.censor_rate:
                record = SurvivalRecord(t_event * float(rng.uniform(0.05, 0.95)),
                                        False)
            else:
                record = SurvivalRecord(t_event, True)
            slides.append(GeneratedSlide(f"s{i:05d}", bag, None, record, info))
    return slides


# ---------------------------------------------------------------------------
# bag file format (little-endian):
#   magic "MBG1" | version u16 | level count u8 | D u32
#   per level: T u32 | ratio u32 (0 at level 0)
#              coords T x (i32 row, i32 col)
#              parents T x u32 (0xFFFFFFFF at level 0)
#              embeddings T x D float32 row-major


def write_bag(bag: TokenBag, path: str) -> None:
    """Write `bag`, or raise read_bag's FormatError and write no file."""
    if bag.n_levels == 0:
        raise FormatError("refusing to write a bag with no levels")
    dim = bag.levels[0].embeddings.shape[1] if bag.levels[0].count else 0
    parts = [BAG_MAGIC, struct.pack("<HBI", BAG_VERSION, bag.n_levels, dim)]
    for k, lv in enumerate(bag.levels):
        ratio = 0 if k == 0 else lv.ratio or 0     # the reader refuses 0
        parts.append(struct.pack("<II", lv.count, ratio))
        parts.append(np.ascontiguousarray(lv.coords, dtype="<i4").tobytes())
        parents = (np.full(lv.count, _NO_PARENT) if k == 0 or lv.parents is None
                   else lv.parents)
        parts.append(parents.astype("<u4").tobytes())
        parts.append(np.ascontiguousarray(lv.embeddings, dtype="<f4").tobytes())
    blob = b"".join(parts)
    _parse_bag(blob)
    with open(path, "wb") as fh:
        fh.write(blob)


def read_bag(path: str) -> TokenBag:
    """Read a bag file; every FormatError names `path`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse_bag(blob)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _parse_bag(blob: bytes) -> TokenBag:
    off = 0

    def need(n, what):
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"bag file truncated at offset {off} ({what})")
        piece = blob[off:off + n]
        off += n
        return piece

    if need(4, "magic") != BAG_MAGIC:
        raise FormatError("bad bag magic at offset 0")
    version, n_levels, dim = struct.unpack("<HBI", need(7, "header"))
    if version != BAG_VERSION:
        raise FormatError(f"unsupported bag version {version} at offset 4")
    if n_levels == 0 or dim == 0:
        raise FormatError(f"bag has {n_levels} levels of dim {dim}, "
                          f"offset 4")
    levels: list[BagLevel] = []
    for k in range(n_levels):
        header_off = off
        count, ratio = struct.unpack("<II", need(8, f"level {k} header"))
        if count == 0:
            raise FormatError(f"level {k} is empty, offset {header_off}")
        coords_off = off
        coords = np.frombuffer(need(8 * count, f"level {k} coords"),
                               dtype="<i4").reshape(count, 2).astype(np.int64)
        parents_raw = np.frombuffer(need(4 * count, f"level {k} parents"),
                                    dtype="<u4")
        emb = np.frombuffer(need(4 * count * dim, f"level {k} embeddings"),
                            dtype="<f4").reshape(count, dim).astype(np.float32)
        if k == 0:
            if not np.all(parents_raw == _NO_PARENT):
                raise FormatError(
                    f"level 0 parents must be sentinel, offset {header_off}")
            # finer coordinates that lie under these are non-negative too
            if coords.min() < 0:
                bad = int(np.argmax(coords.ravel() < 0))
                raise FormatError(f"level 0 has a negative coordinate at "
                                  f"offset {coords_off + 4 * bad}")
            parents = None
        else:
            if ratio < 1:
                raise FormatError(f"level {k} ratio must be >= 1, offset {header_off}")
            parents = parents_raw.astype(np.int64)
            if parents.max() >= levels[-1].count:  # uint32: never negative
                raise FormatError(
                    f"level {k} parent index out of range at offset {header_off}")
            stray = coords // ratio != levels[-1].coords.take(parents, axis=0)
            if stray.any():
                bad = int(np.argmax(stray.ravel()))
                raise FormatError(
                    f"level {k} coordinate at offset {coords_off + 4 * bad} "
                    f"does not lie under its parent's")
        levels.append(BagLevel(emb, coords, parents,
                               None if k == 0 else int(ratio)))
    if off != len(blob):
        raise FormatError(f"trailing bytes after offset {off}")
    return TokenBag(levels=levels)


# ---------------------------------------------------------------------------
# manifest: UTF-8 lines "id,path,label[,split]" (classification) or
# "id,path,time,event01[,split]" (survival)


@dataclass
class ManifestRecord:
    slide_id: str
    path: str
    label: int | None = None
    record: SurvivalRecord | None = None
    split: str | None = None


@dataclass
class DatasetIndex:
    task: str
    records: list[ManifestRecord] = field(default_factory=list)

    def split_records(self, split: str) -> list[ManifestRecord]:
        return [r for r in self.records if r.split == split]


def write_manifest(path: str, index: DatasetIndex) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in index.records:
            if index.task == "classification":
                fields = [r.slide_id, r.path, str(r.label)]
            else:
                fields = [r.slide_id, r.path, repr(r.record.time),
                          "1" if r.record.event else "0"]
            if r.split is not None:
                fields.append(r.split)
            fh.write(",".join(fields) + "\n")


def load_manifest(path: str, split_seed: int = 0) -> DatasetIndex:
    """Parse a manifest; rows without a split column get a deterministic
    seeded 80/10/10 assignment, stratified by label (`assign_splits`)."""
    records: list[ManifestRecord] = []
    task: str | None = None
    seen: set[str] = set()
    try:
        lines = open(path, "r", encoding="utf-8").read().splitlines()
    except OSError as exc:
        raise FormatError(f"cannot read manifest: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        split = None
        if fields and fields[-1] in SPLITS:
            split = fields[-1]
            fields = fields[:-1]
        if len(fields) == 3:
            row_task = "classification"
        elif len(fields) == 4:
            row_task = "survival"
        else:
            raise FormatError(f"manifest line {lineno}: expected 3-5 fields, "
                              f"got {len(fields)}")
        if task is None:
            task = row_task
        elif task != row_task:
            raise FormatError(f"manifest line {lineno}: mixed task kinds")
        slide_id, bag_path = fields[0], fields[1]
        if slide_id in seen:
            raise FormatError(f"manifest line {lineno}: duplicate slide id "
                              f"'{slide_id}'")
        seen.add(slide_id)
        try:
            if row_task == "classification":
                rec = ManifestRecord(slide_id, bag_path, label=int(fields[2]),
                                     split=split)
            else:
                rec = ManifestRecord(
                    slide_id, bag_path,
                    record=SurvivalRecord(float(fields[2]),
                                          fields[3] == "1"),
                    split=split)
        except ValueError as exc:
            raise FormatError(f"manifest line {lineno}: {exc}") from exc
        records.append(rec)
    if not records:
        raise FormatError("manifest contains no records")

    n = sum(1 for r in records if r.split is None)
    n_train, n_val = int(n * 0.8), int(n * 0.1)
    assign_splits(records, {"test": n - n_train - n_val, "val": n_val},
                  split_seed)
    return DatasetIndex(task=task, records=records)


def assign_splits(records: list[ManifestRecord], counts: dict[str, int],
                  seed: int) -> None:
    """Give every record without a split one, stratified by label: each
    label's records (survival records, label None, are one group) are
    shuffled by one seeded generator and dealt from the end, each group at
    a pace proportional to its size. Each split in `counts`, in order,
    takes the next records dealt; the rest go to train."""
    groups: dict = {}
    for rec in records:
        if rec.split is None:
            groups.setdefault(rec.label, []).append(rec)
    rng = np.random.default_rng(seed)
    dealt = []
    for group in groups.values():
        pool = [group[i] for i in rng.permutation(len(group))]
        dealt += [((j + 0.5) / len(pool), rec)
                  for j, rec in enumerate(reversed(pool))]
    dealt.sort(key=lambda pair: pair[0])
    splits = [split for split, count in counts.items() for _ in range(count)]
    for (_, rec), split in zip(dealt, splits + ["train"] * len(dealt)):
        rec.split = split
