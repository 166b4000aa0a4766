"""Output checks. Each holds for any correct program, whatever its speed.

Every check counts one attempted operation; a failed check counts one failed
operation. The grid rule and the distortion are computed here from their
definitions, not through the program's own functions.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# The fit reports its own distortion; recomputing it here sums in another
# order, so the comparison allows float64 rounding on top of the exact bound.
FIT_RTOL = 1e-9


def naive_error(w: np.ndarray, M: int) -> float:
    """Distortion 1/2 * sum((q(w) - w)^2) at the naive step 2*max|w|/(M-1)."""
    max_code = (M - 1) // 2
    delta = 2.0 * float(np.max(np.abs(w))) / (M - 1)
    q = np.sign(w) * np.minimum(np.floor(np.abs(w) / delta + 0.5), max_code) * delta
    d = (q - w).reshape(-1)
    return 0.5 * float(d @ d)


def digest(*parts) -> str:
    """sha256 over byte strings, ndarrays (raw bytes) and reprs of anything else."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def net_digest(net) -> str:
    parts = []
    for name, g in net.groups.items():
        parts += [name, g.weights.ndarray, g.bias.ndarray]
        if g.quantizer is not None:
            parts += [g.shadow_weights.ndarray, g.quantizer.M, g.quantizer.delta]
    return digest(*parts)


class Checks:
    """Counts attempted and failed output checks and keeps the failures' labels."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)
        return ok

    def raised(self, label: str) -> None:
        """An operation raised instead of returning an output."""
        self.check(False, label)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def on_grid(self, net, label: str) -> None:
        """Every quantized group: codes * delta == weights and |code| <= (M-1)/2."""
        for name, g in net.groups.items():
            if g.quantizer is None:
                continue
            w, delta = g.weights.ndarray, g.quantizer.delta
            q = np.rint(w / delta)
            self.check(
                bool(np.abs(q).max(initial=0.0) <= (g.quantizer.M - 1) // 2)
                and np.array_equal(q * delta, w),
                f"{label}: group {name} off its grid",
            )

    def fit(self, qnet, reports, label: str) -> None:
        """Each fit is no worse than the naive step and matches the group's grid."""
        for r in reports:
            g = qnet.groups[r.group]
            w = g.shadow_weights.ndarray
            bound = naive_error(w, r.M)
            self.check(
                math.isfinite(r.l2_error)
                and r.l2_error <= bound * (1.0 + FIT_RTOL)
                and g.quantizer.delta == r.delta,
                f"{label}: fit of {r.group} at M={r.M} worse than naive "
                f"({r.l2_error!r} > {bound!r})",
            )

    def same_net(self, a, b, label: str) -> None:
        """Checkpoint round trip: same spec and grids; float arrays identical bit
        for bit; quantized weights exactly equal as numbers. The format stores
        those as int8 codes, which carry no sign of zero, so a weight the
        quantizer rounded to -0.0 loads as +0.0."""
        ok = a.spec == b.spec and list(a.groups) == list(b.groups)
        for name in a.groups if ok else ():
            ga, gb = a.groups[name], b.groups[name]
            ok = ok and ga.quantizer == gb.quantizer
            ok = ok and np.array_equal(ga.weights.ndarray, gb.weights.ndarray)
            ok = ok and _bytes(ga.bias) == _bytes(gb.bias)
            ok = ok and _bytes(ga.shadow_weights) == _bytes(gb.shadow_weights)
        self.check(ok, f"{label}: checkpoint round trip not exact")

    def finite(self, values, label: str, positive: bool = False) -> None:
        vals = [float(v) for v in values]
        ok = bool(vals) and all(math.isfinite(v) and (v > 0 or not positive) for v in vals)
        self.check(ok, f"{label}: non-finite{' or non-positive' if positive else ''} value")

    def error_rate(self, value: float, label: str) -> None:
        self.check(0.0 <= value <= 100.0, f"{label}: error rate {value!r} outside [0, 100]")

    def train_log(self, log, label: str) -> None:
        self.finite([r.train_loss for r in log.records], f"{label}: train loss")

    def same(self, first, value, label: str) -> None:
        self.check(first == value, f"{label}: {value} differs from {first}")


def _bytes(t) -> bytes | None:
    return None if t is None else t.ndarray.tobytes()
