"""The data types: the immutable float64 ``Tensor``, the deterministic
counter-based ``Rng``, and ``derive_seed`` for stable sub-seeds.

Layer math (the conv patch layout and the pool windows) lives in ``nn``.
All arithmetic is carried out in 64-bit floats; reduced precision in this
package only ever applies to stored weight values, never to arithmetic. The
one integer computation, the ``Rng`` mixing, runs on uint64 arrays, which
wrap modulo 2^64.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)


class Tensor:
    """Immutable dense N-dimensional array of float64 values.

    Data is stored flat in row-major (C) order. Constructing from existing
    values always copies, so a Tensor never aliases caller-owned memory.
    """

    __slots__ = ("_a",)

    def __init__(self, values, shape: Sequence[int] | None = None):
        a = np.array(values, dtype=np.float64, order="C", copy=True)
        if shape is not None:
            a = a.reshape(tuple(shape))
        self._a = a
        self._a.flags.writeable = False

    @classmethod
    def _wrap(cls, array: np.ndarray) -> "Tensor":
        # No-copy constructor for arrays we exclusively own.
        t = object.__new__(cls)
        a = np.ascontiguousarray(array, dtype=np.float64)
        a.flags.writeable = False
        t._a = a
        return t

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "Tensor":
        return cls._wrap(np.zeros(tuple(shape), dtype=np.float64))

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def size(self) -> int:
        return self._a.size

    @property
    def ndarray(self) -> np.ndarray:
        """Read-only ndarray view of the values."""
        return self._a

    def tolist(self):
        return self._a.tolist()

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Rng:
    """Deterministic counter-based pseudo-random generator.

    The i-th raw output (i starting at 1) is ``mix(seed + i * GAMMA) mod 2^64``
    with ``GAMMA = 0x9E3779B97F4A7C15`` and ``mix`` the finalizer

        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31

    (all operations modulo 2^64: uint64 array arithmetic wraps, so the mixing
    runs in place with no mask). This is pure integer arithmetic, so a given
    seed reproduces the identical sequence on every platform; the platform
    default generator is never used. Counter-based output also lets a block of
    draws be produced in one vectorized call.
    """

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._counter = 0

    def next_u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        z = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        # In place; uint64 array arithmetic wraps modulo 2^64 without a warning.
        z *= _GAMMA
        z += np.uint64(self.seed)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def _unit(self, n: int) -> np.ndarray:
        # Next n draws as 53-bit floats in [0, 1), k * 2^-53.
        u = (self.next_u64(n) >> np.uint64(11)).astype(np.float64)
        u *= 2.0**-53
        return u

    def uniform(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform float64 draws in [low, high), shaped ``shape``."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return (low + (high - low) * self._unit(n)).reshape(shape)

    def normal(self, shape) -> np.ndarray:
        """Standard normal draws via the Box-Muller transform."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        half = (n + 1) // 2
        u = self._unit(2 * half)
        u1 = 1.0 - u[:half]  # (0, 1]; keeps log() finite
        u2 = u[half:]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting raw 64-bit keys."""
        keys = self.next_u64(n)
        return np.argsort(keys, kind="stable")

    def spawn(self, tag: str) -> "Rng":
        """Independent child stream derived from this seed and a string tag."""
        return Rng(derive_seed(self.seed, tag))


def derive_seed(seed: int, tag: str) -> int:
    """Stable 64-bit sub-seed from a base seed and a label.

    Uses FNV-1a over the tag bytes folded into the seed; avoids Python's
    salted hash() so derived seeds are identical across runs and platforms.
    """
    h = 0xCBF29CE484222325
    for b in tag.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    z = (seed ^ h) & 0xFFFFFFFFFFFFFFFF
    # One mixing round so tag/seed bits diffuse.
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)

