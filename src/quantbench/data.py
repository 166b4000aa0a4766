"""Dataset loading, synthetic data generation, splits, and batching.

Image data arrives as the standard binary batch layout (one label byte
followed by 3072 channel-major pixel bytes per record) and is scaled to
[0, 1]. Generic frame features come in via CSV. Synthetic generators provide
reproducible desk-scale classification tasks, including a frozen random
teacher network whose argmax labels guarantee the task is realizable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, DataFormatError
# ``forward`` stays a name of this module: perfbench's full trace wraps it here.
from .nn import Network, build_ffdnn, forward, predict  # noqa: F401
from .tensor import Rng, Tensor, derive_seed

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 32 * 32 pixels
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"
CIFAR_VALID_COUNT = 10_000


@dataclass
class Dataset:
    """Labeled sample collection; immutable after construction."""

    features: Tensor
    labels: np.ndarray  # int64 class indices
    class_count: int
    teacher: Network | None = None  # set by make_synthetic("teacher_net")

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"feature count {self.features.shape[0]} does not match "
                f"label count {self.labels.shape[0]}"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.class_count
        ):
            raise DataFormatError(
                f"labels must lie in [0, {self.class_count}), "
                f"found range [{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])

    def subset(self, index: np.ndarray) -> "Dataset":
        return Dataset(
            features=Tensor._wrap(self.features.ndarray[index].copy()),
            labels=self.labels[index].copy(),
            class_count=self.class_count,
            teacher=self.teacher,
        )


@dataclass
class DatasetSplit:
    """Train / validation / test triple over one source."""

    train: Dataset
    valid: Dataset
    test: Dataset


# ---------------------------------------------------------------------------
# Image batches
# ---------------------------------------------------------------------------


def _read_image_batch(path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
        expected = (len(raw) // CIFAR_RECORD_BYTES + 1) * CIFAR_RECORD_BYTES
        raise DataFormatError(
            f"{path}: expected a multiple of {CIFAR_RECORD_BYTES} bytes "
            f"(e.g. {expected}), found {len(raw)}"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    pixels = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    return pixels, labels


def load_cifar10(directory: str) -> DatasetSplit:
    """Load the standard five training batches plus the test batch.

    Training pixels are scaled to [0, 1]; the first 40,000 training images
    form the train split and the remaining 10,000 the validation split. The
    test batch stays separate.
    """
    train_parts = []
    label_parts = []
    for name in CIFAR_TRAIN_FILES:
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            raise DataFormatError(f"missing batch file {path}")
        px, lb = _read_image_batch(path)
        train_parts.append(px)
        label_parts.append(lb)
    features = np.concatenate(train_parts, axis=0)
    labels = np.concatenate(label_parts, axis=0)
    if features.shape[0] <= CIFAR_VALID_COUNT:
        raise DataFormatError(
            f"training batches hold {features.shape[0]} records; need more than "
            f"{CIFAR_VALID_COUNT} to carve out a validation split"
        )
    cut = features.shape[0] - CIFAR_VALID_COUNT
    test_px, test_lb = _read_image_batch(os.path.join(directory, CIFAR_TEST_FILE))
    return DatasetSplit(
        train=Dataset(Tensor._wrap(features[:cut]), labels[:cut], 10),
        valid=Dataset(Tensor._wrap(features[cut:]), labels[cut:], 10),
        test=Dataset(Tensor._wrap(test_px), test_lb, 10),
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _parse_csv_rows(path: str) -> tuple[list[list[float]], bool]:
    """Parse a numeric CSV; returns (rows, had_header). Errors carry line numbers."""
    rows: list[list[float]] = []
    had_header = False
    width = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    body_start = 0
    first_data = next((i for i, ln in enumerate(lines) if ln.strip()), None)
    if first_data is None:
        raise DataFormatError(f"{path}: file holds no data rows")
    cells = [c.strip() for c in lines[first_data].split(",")]
    try:
        [float(c) for c in cells]
    except ValueError:
        had_header = True
        body_start = first_data + 1
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: non-numeric cell: {exc}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataFormatError(
                f"{path}:{lineno}: expected {width} columns, found {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: file holds no data rows")
    return rows, had_header


def _labels_from_column(values: list[float], path: str) -> np.ndarray:
    labels = np.asarray(values)
    rounded = np.rint(labels)
    if not np.all(np.isfinite(labels)) or np.any(np.abs(labels - rounded) > 1e-9):
        bad = int(np.argmax(np.abs(labels - rounded) > 1e-9))
        raise DataFormatError(
            f"{path}: label column must hold integers; row {bad + 1} "
            f"has value {labels[bad]!r}"
        )
    if rounded.min() < 0:
        raise DataFormatError(f"{path}: negative class index {int(rounded.min())}")
    return rounded.astype(np.int64)


def load_csv(
    features_path: str,
    labels_path: str | None = None,
    class_count: int | None = None,
) -> Dataset:
    """Load a row-per-sample numeric CSV.

    With ``labels_path`` the features file is used whole and labels come from
    the one-column labels file. Without it, the last column of the features
    file is taken as the label column. A single non-numeric first row is
    treated as a header. ``class_count`` defaults to max(label) + 1.
    """
    rows, _ = _parse_csv_rows(features_path)
    if labels_path is not None:
        label_rows, _ = _parse_csv_rows(labels_path)
        if any(len(r) != 1 for r in label_rows):
            raise DataFormatError(f"{labels_path}: labels file must have one column")
        if len(label_rows) != len(rows):
            raise DataFormatError(
                f"{labels_path}: {len(label_rows)} labels for {len(rows)} samples"
            )
        features = np.asarray(rows, dtype=np.float64)
        labels = _labels_from_column([r[0] for r in label_rows], labels_path)
    else:
        if len(rows[0]) < 2:
            raise DataFormatError(
                f"{features_path}: need at least 2 columns when the label "
                f"is the last column"
            )
        features = np.asarray([r[:-1] for r in rows], dtype=np.float64)
        labels = _labels_from_column([r[-1] for r in rows], features_path)
    if not np.all(np.isfinite(features)):
        raise DataFormatError(f"{features_path}: non-finite feature values")
    classes = int(labels.max()) + 1 if class_count is None else class_count
    return Dataset(Tensor._wrap(features), labels, classes)


# ---------------------------------------------------------------------------
# Synthetic tasks
# ---------------------------------------------------------------------------


def _teacher_for(seed: int, dim: int, classes: int) -> Network:
    return build_ffdnn(
        dim, 32, 1, classes, dropout_rate=0.0, seed=derive_seed(seed, "teacher")
    )


def make_synthetic(
    kind: str,
    n: int,
    classes: int,
    seed: int,
    dim: int = 16,
    spread: float = 0.35,
    shape: tuple[int, ...] | None = None,
) -> Dataset:
    """Reproducible labeled dataset of one of three kinds.

    blobs: one Gaussian cluster per class around a random center; ``shape``
    (e.g. (3, 8, 8)) stores the features image-shaped for convolutional nets.
    spirals: interleaved 2-D spiral arms (dim forced to 2).
    teacher_net: random inputs labeled by a frozen random network's argmax,
    so the task is exactly realizable by a network of that capacity. The
    teacher rides along on the Dataset for inspection.
    """
    if n < classes:
        raise ConfigError(f"need at least one sample per class ({n} < {classes})")
    if classes < 2:
        raise ConfigError(f"class_count must be >= 2, got {classes}")
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if not math.isfinite(spread):
        raise ConfigError(f"spread must be finite, got {spread}")
    if shape is not None:
        if any(d < 1 for d in shape):
            raise ConfigError(f"shape entries must be >= 1, got {list(shape)}")
        if kind != "blobs":
            raise ConfigError(
                f"shaped features are only supported for blobs, not {kind!r}"
            )
        dim = int(np.prod(shape))
    rng = Rng(derive_seed(seed, f"synthetic|{kind}"))
    if kind == "blobs":
        centers = rng.uniform((classes, dim), -1.0, 1.0)
        labels = np.arange(n, dtype=np.int64) % classes
        noise = rng.normal((n, dim)) * spread
        features = centers[labels] + noise
        if shape is not None:
            features = features.reshape(n, *shape)
        return Dataset(Tensor._wrap(features), labels, classes, teacher=None)
    if kind == "spirals":
        labels = np.arange(n, dtype=np.int64) % classes
        t = rng.uniform((n,), 0.25, 1.0)
        radius = t * 2.0
        angle = t * 3.0 * np.pi + labels * (2.0 * np.pi / classes)
        angle = angle + rng.normal((n,)) * spread * 0.25
        features = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
        return Dataset(Tensor._wrap(features), labels, classes, teacher=None)
    if kind == "teacher_net":
        teacher = _teacher_for(seed, dim, classes)
        features = rng.uniform((n, dim), -1.0, 1.0)
        labels = predict(teacher, features).argmax(axis=1).astype(np.int64)
        return Dataset(Tensor._wrap(features), labels, classes, teacher=teacher)
    raise ConfigError(
        f"unknown synthetic kind {kind!r} (expected blobs, spirals, or teacher_net)"
    )


def synthetic_split(
    kind: str,
    n_train: int,
    n_valid: int,
    n_test: int,
    classes: int,
    seed: int,
    dim: int = 16,
    spread: float = 0.35,
    shape: tuple[int, ...] | None = None,
) -> DatasetSplit:
    """Three disjoint synthetic datasets drawn from one distribution.

    All three parts share the same teacher (teacher_net kind) or the same
    cluster geometry (blobs), with independent sample draws per part.
    """
    for key, size in (("n_train", n_train), ("n_valid", n_valid), ("n_test", n_test)):
        if size < 1:
            raise ConfigError(f"{key} must be >= 1, got {size}")
    total = make_synthetic(
        kind,
        n_train + n_valid + n_test,
        classes,
        seed,
        dim=dim,
        spread=spread,
        shape=shape,
    )
    a, b = n_train, n_train + n_valid
    return DatasetSplit(
        train=total.subset(np.arange(0, a)),
        valid=total.subset(np.arange(a, b)),
        test=total.subset(np.arange(b, n_train + n_valid + n_test)),
    )


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def batches(
    ds: Dataset, batch_size: int, shuffle: bool = False, rng: Rng | None = None
) -> Iterator[tuple[Tensor, np.ndarray]]:
    """Yield (features, labels) covering every sample exactly once.

    The final short batch is included. Shuffling consumes the supplied rng;
    shuffle=True without an rng is a usage error.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if shuffle:
        if rng is None:
            raise ConfigError("shuffle=True requires an rng")
        order = rng.permutation(ds.size)
    else:
        order = np.arange(ds.size)
    feats = ds.features.ndarray
    for start in range(0, ds.size, batch_size):
        idx = order[start : start + batch_size]
        yield Tensor._wrap(feats[idx]), ds.labels[idx]
