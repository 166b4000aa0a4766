"""Binary network checkpoints.

Self-describing container, all integers little-endian:

    bytes 0-7   magic "QNETCKPT"
    u32         format version (currently 1)
    u32 + bytes network spec as canonical UTF-8 JSON
    u32         weight-group count
    per group:
        u32 + bytes   group name (UTF-8)
        u32           weight ndim, then u32 per dim, then f64 array
        u32           bias ndim, then u32 per dim, then f64 array
        u8            quantizer flag
        if flag == 1: u32 M, f64 delta, i8 codes (one per weight)

For a quantized group the float array stores the shadow (pre-quantization)
weights and the codes reconstruct the quantized values as code * delta, which
is bit-exact with what the quantizer produced. Round-trips are bit-exact.
Loading rejects a code outside +/-(M-1)/2 and any non-finite float, read or
reconstructed: a step size at which code * delta overflows is rejected too.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct

import numpy as np

from .errors import ConfigError, DataFormatError
from .nn import Network, NetworkSpec, WeightGroup, group_shapes
from .quantizer import QuantizerSpec, codes
from .tensor import Tensor

MAGIC = b"QNETCKPT"
FORMAT_VERSION = 1


def _canonical_spec_json(spec: NetworkSpec) -> bytes:
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _write_bytes(out: io.BufferedIOBase, data: bytes) -> None:
    out.write(struct.pack("<I", len(data)))
    out.write(data)


def _write_array(out: io.BufferedIOBase, arr: np.ndarray) -> None:
    out.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        out.write(struct.pack("<I", dim))
    out.write(np.ascontiguousarray(arr, dtype="<f8"))  # its buffer, not a copy


class _Reader:
    """Reads a checkpoint from its file, each array straight into its own buffer."""

    def __init__(self, fh: io.BufferedReader, path: str):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        self.path = path

    def read(self, shape: tuple, dtype) -> np.ndarray:
        n = np.dtype(dtype).itemsize * math.prod(shape)
        # Checked before allocating, since a corrupt header may claim any
        # size; a short read means the file shrank after it was opened.
        out = np.empty(shape, dtype=dtype) if self.pos + n <= self.size else None
        if out is None or self.fh.readinto(memoryview(out).cast("B")) != n:
            raise DataFormatError(
                f"{self.path}: checkpoint truncated at byte {self.pos} "
                f"(wanted {n} more bytes)"
            )
        self.pos += n
        return out

    def take(self, n: int) -> bytes:
        return self.read((n,), np.uint8).tobytes()

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def array(self, what: str, spec_shape: tuple) -> np.ndarray:
        ndim = self.u32()
        if ndim > 8:
            raise DataFormatError(f"{self.path}: implausible array rank {ndim}")
        shape = tuple(self.u32() for _ in range(ndim))
        if shape != spec_shape:
            raise DataFormatError(
                f"{self.path}: {what} shape {shape} does not match spec shape "
                f"{spec_shape}"
            )
        return self.read(shape, "<f8").astype(np.float64, copy=False)


def save_checkpoint(net: Network, path: str) -> None:
    """Write the network (spec, weights, quantizer state) to ``path``."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        _write_bytes(fh, _canonical_spec_json(net.spec))
        fh.write(struct.pack("<I", len(net.groups)))
        for group in net.groups.values():
            _write_bytes(fh, group.name.encode("utf-8"))
            if group.quantizer is not None:
                master = group.shadow_weights
                if master is None:
                    raise DataFormatError(
                        f"group {group.name!r} is quantized but has no shadow weights"
                    )
                if group.quantizer.M > 255:
                    raise DataFormatError(
                        f"group {group.name!r}: M={group.quantizer.M} exceeds the "
                        f"signed-byte code range of the checkpoint format (M <= 255)"
                    )
                _write_array(fh, master.ndarray)
                _write_array(fh, group.bias.ndarray)
                fh.write(struct.pack("<B", 1))
                fh.write(struct.pack("<I", group.quantizer.M))
                fh.write(struct.pack("<d", group.quantizer.delta))
                q = codes(group.weights.ndarray, group.quantizer)
                fh.write(np.ascontiguousarray(q, dtype=np.int8))
            else:
                _write_array(fh, group.weights.ndarray)
                _write_array(fh, group.bias.ndarray)
                fh.write(struct.pack("<B", 0))


def load_checkpoint(path: str) -> Network:
    """Read a checkpoint written by ``save_checkpoint``; bit-exact round-trip."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataFormatError(f"cannot read checkpoint {path}: {exc}") from exc
    with fh:
        return _load(_Reader(fh, path), path)


def _load(r: _Reader, path: str) -> Network:
    if r.take(len(MAGIC)) != MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: unsupported checkpoint format version {version} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        spec_dict = json.loads(r.blob().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: malformed network spec block: {exc}") from exc
    try:
        spec = NetworkSpec.from_dict(spec_dict)
        shapes = group_shapes(spec)
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise DataFormatError(f"{path}: invalid network spec: {exc!r}") from exc
    n_groups = r.u32()
    if n_groups != len(shapes):
        raise DataFormatError(
            f"{path}: checkpoint has {n_groups} weight groups, "
            f"spec defines {len(shapes)}"
        )
    groups: dict[str, WeightGroup] = {}
    for _ in range(n_groups):
        name = r.blob().decode("utf-8")
        if name not in shapes or name in groups:
            raise DataFormatError(f"{path}: unknown or repeated weight group {name!r}")
        w_shape, b_shape = shapes[name]
        floats = r.array(f"group {name!r} weight", w_shape)
        bias = r.array(f"group {name!r} bias", b_shape)
        if not (np.isfinite(floats).all() and np.isfinite(bias).all()):
            raise DataFormatError(f"{path}: group {name!r} has non-finite values")
        group = WeightGroup(name=name, weights=Tensor._wrap(floats),
                            bias=Tensor._wrap(bias))
        if r.u8() == 1:
            m = r.u32()
            delta = r.f64()
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
    if r.pos != r.size:
        raise DataFormatError(
            f"{path}: {r.size - r.pos} trailing bytes after last group"
        )
    return Network(spec, {name: groups[name] for name in shapes})
