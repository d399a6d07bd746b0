"""Datasets: IDX and CSV ingestion, synthetic generators with known
structure, deterministic splits and batch schedules, and the binary
teacher-feature cache.

Every loader and generator is a deterministic function of its inputs and
seed, and checks all its arguments before it makes any data.  A split
holds no inputs of its own: its halves are ``Rows``, sorted row indices
into the full dataset, so batches of the train half line up with
feature-cache rows extracted over that dataset, and the test half is
gathered a chunk at a time when it is scored.  ``read_cache`` is the one
``.fpfc`` parser; a fit, not the reader, checks a cache against its dataset.
"""

from __future__ import annotations

import csv as _csv
import hashlib
import numbers
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    BatchTooSmall,
    ConfigError,
    CorruptFile,
    CountMismatch,
    DimensionMismatch,
    FeatPriorError,
    LabelOutOfRange,
    NonNumericCell,
    RaggedRows,
    TruncatedFile,
    UnknownLabelColumn,
)

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801

_CACHE_MAGIC = b"FPFC"
_CACHE_VERSION = 1
_CACHE_HEADER_BYTES = 4 + 4 + 32 + 32 + 4  # magic, version, 2 hashes, group count
# float32 values at a time in which a group that is not kept is checked
_SKIP_VALUES = 65536


def _is_int(v) -> bool:
    """An integer (numpy's too) that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    """A real number (numpy's too) that is not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _require(ok: bool, name: str, what: str, value) -> None:
    """The one wording of a refused value: ``ConfigError`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def _check_seed(seed, name: str = "seed") -> None:
    """The one rule for a seed: an integer >= 0."""
    _require(_is_int(seed) and seed >= 0, name, "an integer >= 0", seed)


def _check_batch_size(batch_size) -> None:
    """The one rule for a batch size: an integer >= 2."""
    _require(_is_int(batch_size), "batch_size", "an integer", batch_size)
    if batch_size < 2:
        raise BatchTooSmall(f"batch size {batch_size} < 2: Gram matrix would be degenerate")


def _check_test_fraction(test_fraction) -> None:
    """The one rule for a split's test share."""
    _require(_is_real(test_fraction) and 0.0 < test_fraction < 1.0, "test_fraction",
             "a number in (0, 1)", test_fraction)


def _check_paths(**paths) -> None:
    # an int would be opened as a file descriptor
    for name, path in paths.items():
        _require(isinstance(path, (str, os.PathLike)), name, "a str or os.PathLike", path)


def _check_counts(**counts) -> None:
    """The one rule for a count or a width: an integer >= 1."""
    for name, count in counts.items():
        _require(_is_int(count) and count >= 1, name, "an integer >= 1", count)


@dataclass(frozen=True)
class Dataset:
    """Inputs (n x d) and integer class labels in [0, class_count)."""

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        _require(_is_int(self.class_count), "class_count", "an integer", self.class_count)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise FeatPriorError(f"inputs must be n x d with n >= 1, got {inputs.shape}")
        if labels.shape != (inputs.shape[0],):
            raise FeatPriorError("labels must be one per input row")
        if not np.isfinite(inputs).all():
            raise FeatPriorError("inputs contain non-finite values")
        if labels.size and (labels.min() < 0 or labels.max() >= self.class_count):
            raise LabelOutOfRange(
                f"labels must lie in [0, {self.class_count})"
            )

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def dataset_fingerprint(dataset: Dataset) -> bytes:
    """32-byte content hash over raw input bytes, labels and class count."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dataset.inputs))  # hashed in place, not copied
    h.update(np.ascontiguousarray(dataset.labels))
    h.update(struct.pack("<q", dataset.class_count))
    return h.digest()


# -- loaders -----------------------------------------------------------------

def _read_idx_header(data: bytes, expected_magic: int, path) -> tuple[int, tuple]:
    if len(data) < 4:
        raise TruncatedFile(f"{path}: too short for an IDX header")
    (magic,) = struct.unpack_from(">I", data, 0)
    if magic != expected_magic:
        raise BadMagic(f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    if len(data) < 4 + 4 * ndim:
        raise TruncatedFile(f"{path}: truncated dimension list")
    dims = struct.unpack_from(f">{ndim}I", data, 4)
    return 4 + 4 * ndim, dims


def _idx_payload(data: bytes, offset: int, need: int, path, what: str) -> np.ndarray:
    """The ``need`` ubyte values after the header, which end the file."""
    if len(data) - offset < need:
        raise TruncatedFile(f"{path}: expected {need} {what} bytes")
    if len(data) - offset > need:
        raise CorruptFile(f"{path}: trailing bytes after {need} {what} bytes")
    return np.frombuffer(data, dtype=np.uint8, count=need, offset=offset)


def load_idx(images, labels) -> Dataset:
    """Load an IDX image/label pair (big-endian, ubyte pixels).

    Pixels are scaled by 1/255 into [0, 1] and images flattened row-major.
    """
    _check_paths(images=images, labels=labels)
    img_data, lab_data = Path(images).read_bytes(), Path(labels).read_bytes()

    offset, dims = _read_idx_header(img_data, _IDX_IMAGES_MAGIC, images)
    count, rows, cols = dims
    pixels = _idx_payload(img_data, offset, count * rows * cols, images, "pixel")
    inputs = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0

    offset, dims = _read_idx_header(lab_data, _IDX_LABELS_MAGIC, labels)
    (lab_count,) = dims
    if lab_count != count:
        raise CountMismatch(f"{count} images but {lab_count} labels")
    values = _idx_payload(lab_data, offset, lab_count, labels, "label").astype(np.int64)

    class_count = int(values.max()) + 1 if values.size else 1
    return Dataset(inputs=inputs, labels=values, class_count=class_count)


def load_csv(path, label_column: str) -> Dataset:
    """Rectangular numeric CSV with a header row; one column holds integer
    class labels, the rest become features in header order."""
    _check_paths(path=path)
    _require(isinstance(label_column, str), "label_column", "a string", label_column)
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TruncatedFile(f"{path}: empty file") from None
        if label_column not in header:
            raise UnknownLabelColumn(
                f"{path}: no column {label_column!r} in header {header}"
            )
        label_idx = header.index(label_column)
        features, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise RaggedRows(
                    f"{path}:{lineno}: {len(row)} cells, header has {len(header)}"
                )
            parsed = []
            for name, cell in zip(header, row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise NonNumericCell(
                        f"{path}:{lineno}: cell {cell!r} in column {name!r}"
                    ) from None
            raw_label = parsed.pop(label_idx)
            if not float(raw_label).is_integer():
                raise NonNumericCell(
                    f"{path}:{lineno}: label {raw_label!r} is not an integer"
                )
            labels.append(int(raw_label))
            features.append(parsed)
    labels_arr = np.asarray(labels, dtype=np.int64)
    if labels_arr.size and labels_arr.min() < 0:
        raise LabelOutOfRange(f"{path}: negative class label")
    class_count = int(labels_arr.max()) + 1 if labels_arr.size else 1
    return Dataset(inputs=np.asarray(features, dtype=np.float64),
                   labels=labels_arr, class_count=class_count)


# -- synthetic generators ----------------------------------------------------

def synth_blobs(n_per_class: int, classes: int, dim: int, separation: float,
                seed: int) -> Dataset:
    """Unit-variance Gaussian clusters at mutually separated centers.

    Centers sit on a circle in the first two dimensions (a line for
    dim=1) with adjacent centers ``separation`` apart, so the Bayes
    accuracy is controlled by ``separation``.
    """
    _check_counts(n_per_class=n_per_class, classes=classes, dim=dim)
    _require(_is_real(separation) and 0 < separation < np.inf, "separation",
             "a finite number > 0", separation)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    centers = np.zeros((classes, dim))
    if dim == 1 or classes == 1:
        centers[:, 0] = separation * np.arange(classes)
    else:
        radius = separation / (2.0 * np.sin(np.pi / classes))
        angles = 2.0 * np.pi * np.arange(classes) / classes
        centers[:, 0] = radius * np.cos(angles)
        centers[:, 1] = radius * np.sin(angles)
    inputs = np.vstack([
        centers[k] + rng.standard_normal((n_per_class, dim))
        for k in range(classes)
    ])
    labels = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    return Dataset(inputs=inputs, labels=labels, class_count=classes)


def synth_rings(n_per_class: int, classes: int, noise: float,
                seed: int) -> Dataset:
    """Concentric 2-D rings (radius k+1 for class k) with Gaussian radial
    noise; linearly inseparable by construction."""
    _check_counts(n_per_class=n_per_class, classes=classes)
    _require(_is_real(noise) and 0 <= noise < np.inf, "noise", "a finite number >= 0",
             noise)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    points = []
    for k in range(classes):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n_per_class)
        radii = (k + 1.0) + noise * rng.standard_normal(n_per_class)
        points.append(np.column_stack((radii * np.cos(angles),
                                       radii * np.sin(angles))))
    inputs = np.vstack(points)
    labels = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    return Dataset(inputs=inputs, labels=labels, class_count=classes)


# -- splitting and batching --------------------------------------------------

class BatchSchedule:
    """Deterministic per-epoch batches of non-negative rows, read through ``Rows``.

    Each epoch reshuffles with a generator seeded by (seed, epoch), chops
    into ``batch_size`` pieces, and keeps the tail so every epoch is a
    partition of the underlying indices.
    """

    def __init__(self, indices, batch_size: int, seed: int):
        _check_batch_size(batch_size)
        _check_seed(seed)
        self.indices = Rows(indices).source_indices
        _require(not (self.indices < 0).any(), "row indices", "non-negative", indices)
        self.batch_size = int(batch_size)
        self.seed = int(seed)

    def epoch_batches(self, epoch: int) -> list[np.ndarray]:
        rng = np.random.default_rng([self.seed, int(epoch)])
        perm = self.indices[rng.permutation(self.indices.size)]
        return [perm[i:i + self.batch_size]
                for i in range(0, perm.size, self.batch_size)]


@dataclass(frozen=True)
class Rows:
    """One half of a split: sorted row indices into the full dataset, kept
    as a 1-D integer array.  Every row argument is read through it."""

    source_indices: np.ndarray

    def __post_init__(self):
        idx = self.source_indices
        if isinstance(idx, Rows):
            idx = idx.source_indices
        elif isinstance(idx, Iterator):
            idx = list(idx)  # a generator's rows, read once
        try:
            arr = np.asarray(idx)
        except ValueError:  # ragged nested lists
            arr = None
        _require(arr is not None and arr.ndim == 1 and (arr.size == 0 or np.issubdtype(arr.dtype, np.integer)),
                 "row indices", "a 1-D array of integers", idx)
        object.__setattr__(self, "source_indices", arr.astype(np.int64, copy=False))

    @property
    def n(self) -> int:
        return self.source_indices.size


def _rows_in(rows, n: int) -> np.ndarray:
    """``rows`` read through ``Rows`` (every row when None), refused unless
    non-empty and in [0, n): the rule wherever rows meet their n-row data."""
    idx = np.arange(n) if rows is None else Rows(rows).source_indices
    _require(idx.size > 0 and idx.min() >= 0 and idx.max() < n, "row indices",
             f"non-empty and in [0, {n})", idx)
    return idx


@dataclass(frozen=True)
class SplitBatches:
    train: Rows
    test: Rows
    schedule: BatchSchedule


def split_and_batch(dataset: Dataset, test_fraction: float, batch_size: int,
                    seed: int) -> SplitBatches:
    """Shuffled train/test partition of ``dataset``'s rows, each half at
    least one row, plus the train batch schedule."""
    _check_test_fraction(test_fraction)
    _check_seed(seed)
    n = dataset.n
    _require(n >= 2, "dataset rows", "at least 2 to split", n)
    n_test = int(round(n * test_fraction))
    n_test = min(max(n_test, 1), n - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test = Rows(np.sort(perm[:n_test]))
    train = Rows(np.sort(perm[n_test:]))
    schedule = BatchSchedule(train, batch_size, seed)
    return SplitBatches(train=train, test=test, schedule=schedule)


# -- feature cache -----------------------------------------------------------

@dataclass(frozen=True)
class FeatureCache:
    """Per-group teacher feature matrices (float32, n rows each, after a
    leading seed axis when stacked) bound to a dataset and teacher by
    content hashes; ``shapes`` is every group's shape in the file it was
    read from, kept or not (by default, and for kept groups, the arrays')."""

    groups: dict[int, np.ndarray]
    dataset_fingerprint: bytes
    teacher_fingerprint: bytes
    shapes: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        shapes = {**self.shapes, **{gid: m.shape for gid, m in self.groups.items()}}
        object.__setattr__(self, "shapes", shapes)
        sizes = {shape[:-1] for shape in shapes.values()}
        if len(sizes) > 1:
            raise FeatPriorError(f"cache groups disagree on row count: {sizes}")

    @property
    def n(self) -> int:
        return next(iter(self.shapes.values()))[-2] if self.shapes else 0


def _cache_chunks(cache: FeatureCache):
    """The ``.fpfc`` layout in file order: the file header, then per group
    its header and its little-endian float32 values (the group itself when
    it is already C-contiguous ``<f4``, else a float32 copy of it).  A group
    that is not rows x width (a stacked cache's) raises ``DimensionMismatch``
    here, before any chunk is made."""
    for gid, mat in cache.groups.items():
        if mat.ndim != 2:
            raise DimensionMismatch(f"cache group {gid} has shape {mat.shape}; a .fpfc file "
                                    "holds one teacher's rows x width groups (unstack_model)")

    def chunks():
        yield b"".join([_CACHE_MAGIC, struct.pack("<I", _CACHE_VERSION),
                        cache.dataset_fingerprint, cache.teacher_fingerprint,
                        struct.pack("<I", len(cache.groups))])
        for gid in sorted(cache.groups):
            mat = cache.groups[gid]
            yield struct.pack("<IQI", gid, mat.shape[0], mat.shape[1])
            yield np.ascontiguousarray(mat, dtype="<f4")
    return chunks()


def serialize_cache(cache: FeatureCache) -> bytes:
    return b"".join(_cache_chunks(cache))


def write_cache(path, cache: FeatureCache) -> None:
    """Write the cache group by group, without a copy of its payload."""
    chunks = _cache_chunks(cache)  # refuses a stacked cache before the file opens
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)


def read_cache(path, groups=None) -> FeatureCache:
    """Read an FPFC file group by group into float32 arrays, recording every
    group's shape, kept or not, in ``shapes``.
    A group's size is checked against the bytes left in the file before its
    array is allocated, and its values are checked finite before the next.
    ``groups`` (default every group) names the groups kept; the others are
    checked the same way, streamed through one bounded buffer, so a file is
    refused whichever groups are kept.  A named group the file lacks is not
    an error here."""
    groups = None if groups is None else set(groups)  # an iterator read once
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_CACHE_HEADER_BYTES)
        if header[:4] != _CACHE_MAGIC:
            raise BadMagic(f"{path}: bad cache magic; expected FPFC")
        if len(header) < _CACHE_HEADER_BYTES:
            raise CorruptFile(f"{path}: truncated cache header")
        (version,) = struct.unpack_from("<I", header, 4)
        if version != _CACHE_VERSION:
            raise CorruptFile(f"{path}: unsupported cache version {version}")
        ds_fp = header[8:40]
        teacher_fp = header[40:72]
        (group_count,) = struct.unpack_from("<I", header, 72)
        kept: dict[int, np.ndarray] = {}
        shapes: dict[int, tuple[int, int]] = {}  # every group's, kept or not
        for _ in range(group_count):
            group_header = fh.read(16)
            if len(group_header) < 16:
                raise CorruptFile(f"{path}: truncated group header")
            gid, n, width = struct.unpack("<IQI", group_header)
            if 4 * n * width > size - fh.tell():
                raise CorruptFile(f"{path}: truncated group payload")
            if gid in shapes:
                raise CorruptFile(f"{path}: group {gid} appears twice")
            shapes[gid] = (n, width)
            if groups is None or gid in groups:
                kept[gid] = np.empty((n, width), dtype="<f4")
                _read_finite(fh, kept[gid], path, gid)
            else:
                buf = np.empty(min(n * width, _SKIP_VALUES), dtype="<f4")
                for done in range(0, n * width, buf.size):
                    _read_finite(fh, buf[:n * width - done], path, gid)
        if fh.tell() != size:
            raise CorruptFile(f"{path}: trailing bytes after cache payload")
    return FeatureCache(groups=kept, dataset_fingerprint=ds_fp,
                        teacher_fingerprint=teacher_fp, shapes=shapes)


def _read_finite(fh, out: np.ndarray, path, gid: int) -> None:
    """Fill ``out`` from ``fh``; a short read or a NaN or infinity in it is
    ``CorruptFile``."""
    if fh.readinto(out) != out.nbytes:
        raise CorruptFile(f"{path}: truncated group payload")
    # min and max are finite iff every entry is; no temporary the size of out
    if not np.isfinite([out.min(initial=0.0), out.max(initial=0.0)]).all():
        raise CorruptFile(f"{path}: group {gid} holds NaN or infinity")
