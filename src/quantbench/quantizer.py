"""Symmetric uniform weight quantizer with per-group L2-optimal step size.

A quantizer maps a real weight w onto an odd-sized symmetric grid

    q(w) = sgn(w) * delta * min(floor(|w| / delta + 0.5), (M - 1) / 2)

so the representable values are {-(M-1)/2 * delta, ..., -delta, 0, delta,
..., (M-1)/2 * delta}. M must be odd because weights carry either sign.
The step size delta is fitted per weight group to minimize the L2 distortion

    E = 1/2 * sum_i (q(w_i) - w_i)^2

by alternating code assignment with the closed-form least-squares step size
for fixed codes. Biases are never quantized.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError
from .tensor import Tensor

_DELTA_REL_TOL = 1e-8
_MAX_FIT_ITERATIONS = 100


@dataclass(frozen=True)
class QuantizerSpec:
    """Grid description for one weight group: M levels spaced delta apart."""

    M: int
    delta: float

    def __post_init__(self):
        if self.M < 3 or self.M % 2 == 0:
            raise ConfigError(f"level count must be odd and >= 3, got {self.M}")
        if not 0.0 < self.delta < float("inf"):
            raise ConfigError(f"step size must be positive and finite, got {self.delta}")

    @property
    def max_code(self) -> int:
        return (self.M - 1) // 2


@dataclass(frozen=True)
class QuantizationReport:
    """Outcome of fitting one weight group."""

    group: str
    M: int
    delta: float
    l2_error: float
    iterations: int
    saturated_fraction: float
    degenerate: bool = False  # all-zero input group


def bits_to_levels(n_bits: int) -> int:
    """Odd level count representable in n_bits: M = 2**n_bits - 1.

    2 bits give the ternary grid {-delta, 0, +delta}; 3 bits give 7 levels.
    """
    if not isinstance(n_bits, int) or n_bits < 2:
        raise ConfigError(f"bit width must be an integer >= 2, got {n_bits!r}")
    if n_bits > 8:
        raise ConfigError(f"bit width must be <= 8, got {n_bits}")
    return 2**n_bits - 1


def _grid_codes(w: np.ndarray, delta: float, max_code: float) -> np.ndarray:
    """sgn(w) * min(floor(|w|/delta + 0.5), max_code) as float64; the grid rule.

    This is the only place the rounding is written. A zero code is +0.0, so
    the grid has a single zero whatever the sign of the weight.
    """
    q = np.abs(w)
    q /= delta
    q += 0.5
    np.floor(q, out=q)
    np.minimum(q, max_code, out=q)
    q *= np.sign(w)
    q += 0.0  # -0.0 + 0.0 == +0.0
    return q


def codes(w: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Integer grid codes of w on the grid of ``spec``, as int64."""
    w = np.asarray(w, dtype=np.float64)
    q = _grid_codes(w.reshape(-1), spec.delta, spec.max_code)
    return q.astype(np.int64).reshape(w.shape)


def apply(w, spec: QuantizerSpec):
    """Quantize w onto the grid of ``spec``: codes(w) * delta.

    Accepts a scalar, ndarray, or Tensor and returns the same kind. Total
    function: saturates at +/- max_code * delta and is odd-symmetric as
    numbers (apply(-w) == -apply(w)); zero is +0.0.
    """
    if isinstance(w, Tensor):
        return Tensor._wrap(apply(w.ndarray, spec))
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim == 0:
        return float(apply(arr.reshape(1), spec)[0])
    out = _grid_codes(arr, spec.delta, spec.max_code)
    out *= spec.delta
    return out


def l2_error(w: np.ndarray, spec: QuantizerSpec) -> float:
    """Distortion 1/2 * sum((apply(w) - w)^2) at the given grid."""
    d = apply(np.asarray(w, dtype=np.float64), spec) - w
    return 0.5 * float(np.dot(d.reshape(-1), d.reshape(-1)))


def _best_vertex_delta(flat: np.ndarray, max_code: int) -> float:
    """Globally minimizing step size for quantizing ``flat`` to the code range.

    The distortion as a function of the step is piecewise quadratic: the code
    assignment only changes where some |w| crosses a threshold (k - 0.5) *
    delta, and between crossings it is a parabola whose vertex is the
    least-squares step sum(q*|w|) / sum(q^2) for the frozen codes. Scanning
    the O(N * max_code) threshold intervals from large steps to small, with
    running sums updated per crossing, therefore finds the exact minimizer.
    """
    absw = np.abs(flat)
    absw = absw[absw > 0.0]
    # Thresholds where a weight's code steps from k-1 up to k as delta shrinks.
    ks = np.arange(1, max_code + 1, dtype=np.float64)
    events_t = (absw[:, None] / (ks - 0.5)).reshape(-1)
    events_s1 = np.broadcast_to(absw[:, None], (absw.size, max_code)).reshape(-1)
    events_s2 = np.broadcast_to(2.0 * ks - 1.0, (absw.size, max_code)).reshape(-1)
    order = np.argsort(-events_t, kind="stable")
    t_sorted = events_t[order]

    # After the j-th crossing the codes stay fixed down to the next threshold.
    s1 = np.cumsum(events_s1[order])
    s2 = np.cumsum(events_s2[order])
    hi = t_sorted
    lo = np.concatenate([t_sorted[1:], [0.0]])
    vertex = s1 / s2
    clamped = np.minimum(np.maximum(vertex, lo), hi)
    w_sq = float(np.dot(absw, absw))
    errors = 0.5 * (w_sq - 2.0 * clamped * s1 + clamped * clamped * s2)
    pick = int(np.argmin(errors))
    return float(clamped[pick])


def optimize_delta(w, M: int, group: str = "") -> tuple[float, QuantizationReport]:
    """Fit the step size minimizing L2 distortion of quantizing ``w`` to M levels.

    The candidate step comes from an exact scan of the piecewise-quadratic
    distortion (see _best_vertex_delta); alternating descent then polishes
    it: (a) assign integer codes at the current delta and (b) set delta to
    the least-squares value sum(q*w)/sum(q^2) for those codes, until the
    relative delta change falls below 1e-8 or 100 iterations. Both half-steps
    are non-increasing in the distortion, so the reported l2_error never
    exceeds the error at the scan's pick nor at 2*max|w|/(M-1). Deterministic
    given the input order.

    An all-zero group is degenerate: delta 1.0, all codes 0, zero error,
    flagged in the report.
    """
    arr = np.asarray(w if not isinstance(w, Tensor) else w.ndarray, dtype=np.float64)
    flat = arr.reshape(-1)
    if flat.size == 0:
        raise ConfigError("cannot fit a step size to an empty weight group")
    if M < 3 or M % 2 == 0:
        raise ConfigError(f"level count must be odd and >= 3, got {M}")

    w_max = float(np.max(np.abs(flat)))
    if w_max == 0.0:
        report = QuantizationReport(
            group=group, M=M, delta=1.0, l2_error=0.0,
            iterations=0, saturated_fraction=0.0, degenerate=True,
        )
        return 1.0, report

    max_code = (M - 1) // 2
    delta = _best_vertex_delta(flat, max_code)
    iterations = 0
    for _ in range(_MAX_FIT_ITERATIONS):
        iterations += 1
        q = _grid_codes(flat, delta, max_code)
        qq = float(np.dot(q, q))
        if qq == 0.0:
            break  # every weight rounds to zero; no least-squares update exists
        new_delta = float(np.dot(q, flat)) / qq
        if abs(new_delta - delta) <= _DELTA_REL_TOL * delta:
            delta = new_delta
            break
        delta = new_delta

    spec = QuantizerSpec(M=M, delta=delta)
    unclipped = _grid_codes(flat, delta, np.inf)
    saturated = float(np.mean(np.abs(unclipped) > max_code))
    report = QuantizationReport(
        group=group, M=M, delta=delta, l2_error=l2_error(flat, spec),
        iterations=iterations, saturated_fraction=saturated,
    )
    return delta, report


def direct_quantize(net, n_bits: int, groups="all"):
    """Quantize the selected weight groups of a trained network.

    Returns a new network plus one report per selected group; the input
    network is not modified. Each selected group gets its own fitted step
    size, its weights replaced by their quantized values, and its original
    float weights kept as the shadow copy used by retraining. Unselected
    groups and all biases are untouched.
    """
    M = bits_to_levels(n_bits)
    selected = _resolve_groups(net, groups)
    out = net.copy()
    reports = []
    for name in selected:
        group = out.groups[name]
        delta, report = optimize_delta(group.weights.ndarray, M, group=name)
        spec = QuantizerSpec(M=M, delta=delta)
        group.shadow_weights = group.weights
        group.weights = apply(group.weights, spec)
        group.quantizer = spec
        reports.append(report)
    return out, reports


def _resolve_groups(net, groups) -> list[str]:
    known = list(net.groups.keys())
    if groups == "all" or groups is None:
        return known
    names = list(groups)
    unknown = [g for g in names if g not in net.groups]
    if unknown:
        raise ConfigError(
            f"unknown weight group(s) {unknown}; this network has {known}"
        )
    return names


REPORT_FIELDS = ["group", "M", "delta", "l2_error", "iterations", "saturated_fraction"]


def write_reports(reports: Iterable[QuantizationReport], path) -> None:
    """Serialize fit reports as CSV, one row per weight group."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_FIELDS)
        for r in reports:
            writer.writerow(
                [r.group, r.M, repr(r.delta), repr(r.l2_error),
                 r.iterations, repr(r.saturated_fraction)]
            )
