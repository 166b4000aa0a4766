"""Symmetric uniform weight quantizer with per-group L2-optimal step size.

A quantizer maps a real weight w onto an odd-sized symmetric grid

    q(w) = sgn(w) * delta * min(floor(|w| / delta + 0.5), (M - 1) / 2)

so the representable values are {-(M-1)/2 * delta, ..., -delta, 0, delta,
..., (M-1)/2 * delta}. M must be odd because weights carry either sign.
The step size delta is fitted per weight group to minimize the L2 distortion

    E = 1/2 * sum_i (q(w_i) - w_i)^2

by an exact search of this piecewise-quadratic function of delta, polished by
alternating code assignment with the closed-form least-squares step size for
fixed codes. Biases are never quantized.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, reject_repeats
from .tensor import Tensor

_DELTA_REL_TOL = 1e-8
_MAX_FIT_ITERATIONS = 100
# Events (a weight crossing a code threshold) per chunk of the step axis.
_EVENTS_PER_CHUNK = 16384


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


def _first_at_or_above(absw: np.ndarray, divisors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Per step in ``deltas`` (rows) and divisor c (columns): the index of the
    first weight in the sorted ``absw`` whose threshold |w| / c is >= the step.

    The rounded threshold fl(|w| / c) is monotone in |w|, so the smallest |w|
    reaching a step is found by moving c * step one unit in the last place at
    a time, and the index by one binary search. Ties in |w| need no care.
    """
    d = deltas[:, None]
    a = d * divisors
    while True:
        short = a / divisors < d
        if not short.any():
            break
        a[short] = np.nextafter(a[short], np.inf)
    while True:
        prev = np.nextafter(a, 0.0)
        reach = prev / divisors >= d
        if not reach.any():
            break
        a[reach] = prev[reach]
    return np.searchsorted(absw, a, side="left")


def _parabola_min(w_sq, s1, s2, lo, hi):
    """Step in [lo, hi] minimizing 1/2 * (w_sq - 2*step*s1 + step^2*s2), and
    that minimum. With s2 = 0 the line falls as the step grows: take hi."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.where(s2 > 0, s1 / s2, hi)
    step = np.minimum(np.maximum(vertex, lo), hi)
    return step, 0.5 * (w_sq - 2.0 * step * s1 + step * step * s2)


def _best_vertex_delta(flat: np.ndarray, max_code: int) -> float:
    """Globally minimizing step size for quantizing ``flat`` to the code range.

    The distortion as a function of the step is piecewise quadratic: the code
    assignment only changes at the N * max_code thresholds (events) where some
    |w| crosses (k - 0.5) * delta, and between events it is a parabola
    1/2 * (sum w^2 - 2*delta*s1 + delta^2*s2), s1 = sum(q*|w|), s2 = sum(q^2),
    whose least-squares vertex s1 / s2 is clamped to the interval.

    No event list is built. Over |w| sorted once, with suffix sums, s1 and s2
    at any step are max_code lookups. The step axis above the smallest event
    is cut into geometric chunks, about one per _EVENTS_PER_CHUNK events, and
    each chunk gets a lower bound on its distortion: the exact parabola of the
    weights whose code is fixed on the chunk (the others count as zero), or,
    when a weight can cross twice in the chunk, s1 at the chunk's low end
    against s2 at its high end. Below the smallest event every code saturates,
    one parabola. Chunks are taken in order of their bound until the bound
    reaches the best distortion found: a chunk holding more than
    _EVENTS_PER_CHUNK events is halved, any other has its events sorted and
    each interval's clamped vertex evaluated. So the global minimum is kept,
    and memory is O(N + one chunk): the lookups at the chunk edges hold
    n_chunks * max_code indices, fewer than N + max_code as max_code <= 127.
    """
    absw = np.abs(flat)
    absw = absw[absw > 0.0]
    w_sq = float(np.dot(absw, absw))
    absw.sort()
    n = absw.size
    levels = np.arange(1, max_code + 1)
    divisors = levels - 0.5
    steps_sq = 2 * levels - 1  # q^2 grows by 2k - 1 as a code moves to k
    below = levels - 1  # code just above a level-k event
    tail1 = np.zeros(n + 1)
    tail1[:n] = np.cumsum(absw[::-1])[::-1]
    tail2 = np.zeros(n + 1)
    tail2[:n] = np.cumsum((absw * absw)[::-1])[::-1]

    def sums_at(deltas):
        """Event indices, s1 and s2 at each step: events at or above count."""
        idx = _first_at_or_above(absw, divisors, deltas)
        return idx, tail1[idx].sum(axis=-1), ((n - idx) * steps_sq).sum(axis=-1)

    def bound(lo, hi, lo_i, hi_i, s1_lo, s1_hi, s2_hi):
        """Lower bound on the distortion over each chunk [lo, hi]."""
        moved = hi_i - lo_i
        s1_fixed = s1_hi - (below * (tail1[lo_i] - tail1[hi_i])).sum(axis=-1)
        s2_fixed = s2_hi - (below * below * moved).sum(axis=-1)
        w_sq_fixed = w_sq - (tail2[lo_i] - tail2[hi_i]).sum(axis=-1)
        # A weight crosses twice when the slices of levels k and k + 1 overlap;
        # the fixed sums then mean nothing, and the loose bound is taken.
        twice = np.any(hi_i[..., :-1] > lo_i[..., 1:], axis=-1)
        return _parabola_min(
            np.where(twice, w_sq, w_sq_fixed), np.where(twice, s1_lo, s1_fixed),
            np.where(twice, s2_hi, s2_fixed), lo, hi,
        )[1]

    n_chunks = max(1, -(-n * max_code // _EVENTS_PER_CHUNK))
    # Steps stay positive, though a subnormal |w| / c may round to 0.
    tiny = np.nextafter(0.0, 1.0)
    t_min = max(absw[0] / divisors[-1], tiny)
    t_max = absw[-1] / divisors[0]
    edges = np.geomspace(t_min, t_max, n_chunks + 1)
    edges[0], edges[-1] = t_min, t_max
    edges = np.maximum.accumulate(edges)  # rounding must not reorder them
    idx, s1, s2 = sums_at(edges)

    best_delta, best_err = _parabola_min(w_sq, s1[0], s2[0], tiny, t_min)
    bounds = bound(edges[:-1], edges[1:], idx[:-1], idx[1:], s1[:-1], s1[1:], s2[1:])
    heap = [
        (bounds[c], c, (edges[c], edges[c + 1], idx[c], idx[c + 1], s1[c], s1[c + 1], s2[c + 1]))
        for c in range(n_chunks)
    ]
    heapq.heapify(heap)
    tiebreak = itertools.count(n_chunks)
    while heap and heap[0][0] < best_err:
        lo, hi, lo_i, hi_i, s1_lo, s1_hi, s2_hi = heapq.heappop(heap)[2]
        moved = hi_i - lo_i
        m = int(moved.sum())
        mid = np.sqrt(lo) * np.sqrt(hi)
        if m > _EVENTS_PER_CHUNK and lo < mid < hi:
            (mid_i,), (s1_mid,), (s2_mid,) = sums_at(np.array([mid]))
            for half in ((lo, mid, lo_i, mid_i, s1_lo, s1_mid, s2_mid),
                         (mid, hi, mid_i, hi_i, s1_mid, s1_hi, s2_hi)):
                heapq.heappush(heap, (bound(*half), next(tiebreak), half))
            continue
        # Events in [lo, hi): per level k, a slice of the sorted |w|.
        pos = np.arange(m) + np.repeat(lo_i - (np.cumsum(moved) - moved), moved)
        ev_w = absw[pos]
        ev_t = ev_w / np.repeat(divisors, moved)
        by_step = np.argsort(-ev_t, kind="stable")
        ev_t = ev_t[by_step]
        # After the j-th event the codes stay fixed down to the next one.
        run_s1 = np.cumsum(np.concatenate(([s1_hi], ev_w[by_step])))
        run_s2 = np.cumsum(np.concatenate(([s2_hi], np.repeat(steps_sq, moved)[by_step])))
        step, err = _parabola_min(
            w_sq, run_s1, run_s2, np.concatenate((ev_t, [lo])), np.concatenate(([hi], ev_t))
        )
        j = int(np.argmin(err))
        if err[j] < best_err:
            best_delta, best_err = step[j], err[j]
    return float(best_delta)


def optimize_delta(w, M: int, group: str = "") -> tuple[float, QuantizationReport]:
    """Fit the step size minimizing L2 distortion of quantizing ``w`` to M levels.

    The candidate step is the global minimizer of the piecewise-quadratic
    distortion, found by a search over chunks of the step axis that skips
    every chunk whose lower bound cannot beat the best step found, in memory
    O(N + one chunk) (see _best_vertex_delta). Alternating descent then
    polishes it: (a) assign integer codes at the current delta and (b) set
    delta to the least-squares value sum(q*w)/sum(q^2) for those codes, until
    the relative delta change falls below 1e-8 or 100 iterations. Both
    half-steps are non-increasing in the distortion, so the reported l2_error
    never exceeds the error at the search's pick nor at 2*max|w|/(M-1).
    Deterministic given the input order.

    An all-zero group is degenerate: delta 1.0, all codes 0, zero error,
    flagged in the report. A group with N * max_code * max|w|^2 above
    float max / 8, or a non-finite weight, raises ConfigError.
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
    # Steps reach 2 * max|w| and the search sums up to max_code slices of |w|
    # and w^2, so no term it forms exceeds 4 * N * max_code * max|w|^2: at
    # most float max / 2 each, no sum overflows. Compared without squaring,
    # so the check cannot overflow.
    limit = np.sqrt(np.finfo(np.float64).max / (8 * flat.size * max_code))
    if not w_max <= limit:
        raise ConfigError(
            f"max |w| must be finite and below sqrt(float max / (8 * N * max_code)) "
            f"= {limit:.3g} for N = {flat.size} weights at M = {M}, got {w_max}"
        )
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
    reject_repeats(names, "quant.groups")
    return names
