"""Binary network checkpoints.

All integers little-endian. The network spec is the only place that names
the weight groups and gives their order and array shapes:

    bytes 0-7   magic "QNETCKPT"
    u32         format version (currently 2; version 1 is not read)
    u32 + bytes network spec as canonical UTF-8 JSON
    per group of the spec, in ``group_shapes(spec)`` order:
        f64 array   weights, spec shape
        f64 array   bias, spec shape
        u8          quantizer flag, 0 or 1
        if flag 1:  u32 M, f64 delta, i8 codes (one per weight)
    u32         CRC-32 of every byte after the version word

For a quantized group the float array stores the shadow (pre-quantization)
weights and the codes reconstruct the quantized values as code * delta, which
is bit-exact with what the quantizer produced. Round-trips are bit-exact.
M <= 255 keeps every code in a signed byte; ``QuantizerSpec`` enforces it on
save and load alike. Loading rejects a checksum mismatch, a code outside
+/-(M-1)/2 and any non-finite float, read or reconstructed: a step size at
which code * delta overflows is rejected too.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import zlib

import numpy as np

from .errors import ConfigError, DataFormatError
from .nn import Network, NetworkSpec, WeightGroup, group_shapes
from .quantizer import QuantizerSpec, codes
from .tensor import Tensor

MAGIC = b"QNETCKPT"
FORMAT_VERSION = 2


def _canonical_spec_json(spec: NetworkSpec) -> bytes:
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


class _Reader:
    """Reads a checkpoint from its file, each array straight into its own
    buffer, and keeps the CRC-32 of what it has read since ``crc`` was 0."""

    def __init__(self, fh: io.BufferedReader, path: str):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        self.crc = 0
        self.path = path

    def read(self, shape: tuple, dtype) -> np.ndarray:
        n = np.dtype(dtype).itemsize * math.prod(shape)
        # Checked before allocating, since a corrupt spec may claim any size;
        # a short read means the file shrank after it was opened.
        out = np.empty(shape, dtype=dtype) if self.pos + n <= self.size else None
        if out is None or self.fh.readinto(memoryview(out).cast("B")) != n:
            raise DataFormatError(
                f"{self.path}: checkpoint truncated at byte {self.pos} "
                f"(wanted {n} more bytes)"
            )
        self.pos += n
        self.crc = zlib.crc32(out, self.crc)
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.read((struct.calcsize(fmt),), np.uint8))


def save_checkpoint(net: Network, path: str) -> None:
    """Write the network (spec, weights, quantizer state) to ``path``. A
    network that cannot be saved is refused before ``path`` is opened."""
    groups = []
    for name, (w_shape, b_shape) in group_shapes(net.spec).items():
        group = net.groups[name]
        if group.quantizer is not None and group.shadow_weights is None:
            raise DataFormatError(
                f"group {name!r} is quantized but has no shadow weights"
            )
        floats = group.weights if group.quantizer is None else group.shadow_weights
        shapes = (floats.shape, group.weights.shape, group.bias.shape)
        if shapes != (w_shape, w_shape, b_shape):
            raise DataFormatError(
                f"group {name!r} array shapes {shapes} do not match spec shape "
                f"{(w_shape, w_shape, b_shape)}"
            )
        groups.append((group, floats))
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", FORMAT_VERSION))
        crc = 0

        def put(data) -> None:
            nonlocal crc
            fh.write(data)
            crc = zlib.crc32(data, crc)

        spec = _canonical_spec_json(net.spec)
        put(struct.pack("<I", len(spec)) + spec)
        for group, floats in groups:
            quantizer = group.quantizer
            # Each array's own buffer, not a copy.
            put(np.ascontiguousarray(floats.ndarray, dtype="<f8"))
            put(np.ascontiguousarray(group.bias.ndarray, dtype="<f8"))
            if quantizer is None:
                put(b"\x00")
            else:
                put(struct.pack("<BId", 1, quantizer.M, quantizer.delta))
                put(codes(group.weights.ndarray, quantizer).astype(np.int8))
        fh.write(struct.pack("<I", crc))


def load_checkpoint(path: str) -> Network:
    """Read a checkpoint written by ``save_checkpoint``; bit-exact round-trip."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        return _load(_Reader(fh, path), path)


def _load(r: _Reader, path: str) -> Network:
    if r.read((len(MAGIC),), np.uint8).tobytes() != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported checkpoint format version {version} "
            f"(expected {FORMAT_VERSION})"
        )
    r.crc = 0  # the checksum covers every byte after the version word
    try:
        spec_json = r.read(r.unpack("<I"), np.uint8).tobytes()
        spec = NetworkSpec.from_dict(json.loads(spec_json.decode("utf-8")))
        shapes = group_shapes(spec)
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors.
        raise DataFormatError(f"{path}: invalid network spec: {exc!r}") from exc
    groups: dict[str, WeightGroup] = {}
    for name, (w_shape, b_shape) in shapes.items():
        floats = r.read(w_shape, "<f8")
        bias = r.read(b_shape, "<f8")
        if not (np.isfinite(floats).all() and np.isfinite(bias).all()):
            raise DataFormatError(f"{path}: group {name!r} has non-finite values")
        group = WeightGroup(name=name, weights=Tensor._wrap(floats),
                            bias=Tensor._wrap(bias))
        (flag,) = r.unpack("<B")
        if flag not in (0, 1):
            raise DataFormatError(
                f"{path}: group {name!r} has quantizer flag {flag}, not 0 or 1"
            )
        if flag:
            m, delta = r.unpack("<Id")
            try:
                quantizer = QuantizerSpec(M=m, delta=delta)
            except ConfigError as exc:
                raise DataFormatError(
                    f"{path}: group {name!r} carries an invalid quantizer "
                    f"(M={m}, delta={delta}): {exc}"
                ) from exc
            q = r.read((floats.size,), np.int8).astype(np.float64)
            top = float(np.abs(q).max(initial=0.0))
            if top > quantizer.max_code:
                raise DataFormatError(
                    f"{path}: group {name!r} has a code beyond "
                    f"+/-{quantizer.max_code} (M={m})"
                )
            # A Python float product overflows to inf without a warning, and
            # |code| * delta is largest at the largest code.
            if not math.isfinite(top * delta):
                raise DataFormatError(
                    f"{path}: group {name!r} has non-finite values "
                    f"(code {top:g} x delta {delta!r})"
                )
            group.shadow_weights = group.weights
            q *= delta
            group.weights = Tensor._wrap(q.reshape(w_shape))
            group.quantizer = quantizer
        groups[name] = group
    crc = r.crc
    if r.unpack("<I") != (crc,):
        raise DataFormatError(f"{path}: checksum mismatch (file is corrupt)")
    if r.pos != r.size:
        raise DataFormatError(
            f"{path}: {r.size - r.pos} trailing bytes after the checksum"
        )
    return Network(spec, groups)
