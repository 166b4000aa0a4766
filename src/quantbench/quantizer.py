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
# Adjacent chunks bounded as one block before their own bounds are made. A
# multiple of 4, so a block's batch of chunk bounds rounds as a batch of every
# chunk would: a matrix-vector product may work in blocks of 4 rows.
_CHUNKS_PER_BLOCK = 16
# A chunk is searched while its bound is within this share of sum(w^2) of the
# best distortion: rounding in sums of N + _EVENTS_PER_CHUNK terms, N <= 2**20.
_BOUND_SLACK = 2.0**-32


@dataclass(frozen=True)
class QuantizerSpec:
    """Grid description for one weight group: M levels spaced delta apart.

    M <= 255, so every code fits the signed byte a checkpoint stores it in.
    """

    M: int
    delta: float

    def __post_init__(self):
        if self.M < 3 or self.M % 2 == 0:
            raise ConfigError(f"level count must be odd and >= 3, got {self.M}")
        if self.M > 255:
            raise ConfigError(f"level count must be <= 255, got {self.M}")
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


def _grid_codes(w: np.ndarray, delta: float, max_code: float, out=None, count_clamped=False):
    """sgn(w) * min(floor(|w|/delta + 0.5), max_code) as float64; the grid rule.

    This is the only place the rounding is written. A zero code is +0.0, so
    the grid has a single zero whatever the sign of the weight. With ``out``
    (not overlapping w) the codes are written there. With ``count_clamped``
    it returns the codes and how many of them the max_code clamp moved.
    """
    q = np.abs(w, out=out)
    q /= delta
    q += 0.5
    np.floor(q, out=q)
    if count_clamped:
        clamped = int(np.count_nonzero(q > max_code))
    np.minimum(q, max_code, out=q)
    np.copysign(q, w, out=q)
    q += 0.0  # -0.0 + 0.0 == +0.0
    return (q, clamped) if count_clamped else q


def codes(w: np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Integer grid codes of w on the grid of ``spec``, as int64."""
    w = np.asarray(w, dtype=np.float64)
    q = _grid_codes(w.reshape(-1), spec.delta, spec.max_code)
    return q.astype(np.int64).reshape(w.shape)


def apply(w, spec: QuantizerSpec, out=None):
    """Quantize w onto the grid of ``spec``: codes(w) * delta.

    Returns a float for a scalar and an ndarray otherwise, written into
    ``out`` (a float64 array of w's shape, not overlapping it) when given.
    Total function: saturates at +/- max_code * delta and is odd-symmetric as
    numbers (apply(-w) == -apply(w)); zero is +0.0.
    """
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim == 0:
        return float(apply(arr.reshape(1), spec)[0])
    out = _grid_codes(arr, spec.delta, spec.max_code, out=out)
    out *= spec.delta
    return out


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by numpy's pairwise summation. Its order is numpy's, so the
    bits do not depend on the BLAS thread count, as a long 1-D np.dot's do."""
    return float(np.multiply(a, b).sum())


def l2_error(w: np.ndarray, spec: QuantizerSpec) -> float:
    """Distortion 1/2 * sum((apply(w) - w)^2) at the given grid."""
    d = apply(np.asarray(w, dtype=np.float64), spec) - w
    return 0.5 * _dot(d, d)


def _first_at_or_above(absw: np.ndarray, divisors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Per step in ``deltas`` (rows) and divisor c (columns): the index of the
    first weight in the sorted ``absw`` whose threshold |w| / c is >= the step.

    The rounded threshold fl(|w| / c) is monotone in |w|, so the smallest |w|
    reaching a step is found by moving c * step one unit in the last place at
    a time, and the index by one binary search. Each pass touches only the
    entries still moving. Ties in |w| need no care.
    """
    d = deltas[:, None]
    a = d * divisors
    flat = a.reshape(-1)
    k = divisors.size
    i = np.flatnonzero(a / divisors < d)
    while i.size:
        flat[i] = np.nextafter(flat[i], np.inf)
        i = i[flat[i] / divisors[i % k] < deltas[i // k]]
    prev = np.nextafter(flat, 0.0)
    i = np.flatnonzero(prev.reshape(a.shape) / divisors >= d)
    while i.size:
        flat[i] = prev[i]
        prev[i] = np.nextafter(prev[i], 0.0)
        i = i[prev[i] / divisors[i % k] >= deltas[i // k]]
    return np.searchsorted(absw, a, side="left")


def _parabola_min(w_sq, s1, s2, lo, hi):
    """Step in [lo, hi] minimizing 1/2 * (w_sq - 2*step*s1 + step^2*s2), and
    that minimum, as 1-D arrays. With s2 = 0 the line falls as the step grows:
    take hi. Makes two arrays; overwrites ``s1`` when it is a float64 array."""
    s1, s2 = np.atleast_1d(s1, s2)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = np.divide(s1, s2)
    np.copyto(step, hi, where=s2 <= 0)
    np.maximum(step, lo, out=step)
    np.minimum(step, hi, out=step)
    err = np.multiply(2.0, step)
    err *= s1
    np.subtract(w_sq, err, out=err)
    sq = np.multiply(step, step, out=s1)
    sq *= s2
    err += sq
    err *= 0.5
    return step, err


def _step_order(ev_t: np.ndarray, runs: int) -> tuple[np.ndarray, np.ndarray]:
    """Descending order of ``ev_t`` (ties in index order) and the sorted steps. ``ev_t``
    is ``runs`` ascending runs: the stable sort merges up to 6 fastest, while past that the
    SIMD argsort is faster and gives the same order when no two steps are equal."""
    order = np.argsort(-ev_t, kind="stable" if runs <= 6 else None)
    sorted_t = ev_t[order]
    if runs > 6 and (sorted_t[1:] == sorted_t[:-1]).any():
        order = np.argsort(-ev_t, kind="stable")
    return order, sorted_t


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
    each chunk gets a lower bound on its distortion. The weights whose code
    changes on the chunk are the disjoint pieces [max(lo_i[k], hi_i[k-1]),
    hi_i[k]) of the level slices; the rest keep their code, an exact parabola.
    In piece k, |w| / step stays within (k - 1/2) * [lo/hi, hi/lo] on the
    chunk, so at least the floor max(0, 1/2 - (k - 1/2) * (hi/lo - 1)) steps
    from any code; each floor, squared, joins s2. Below the smallest event
    every code saturates, one parabola. Chunks are taken in order of their
    bound while it is below the best distortion found plus a slack of
    _BOUND_SLACK * sum(w^2): a tight bound may round a few ulps past its
    chunk's minimum, and a chunk that ties the best must still be searched. A
    chunk holding more than _EVENTS_PER_CHUNK events is halved, any other has
    its events sorted and each interval's clamped vertex evaluated in place.

    Bounds are made on demand (unless all chunks fit in one block, when all
    are bounded at once). Blocks of _CHUNKS_PER_BLOCK adjacent chunks are
    bounded first, by the same formula over the whole block less twice
    the slack: the block's pieces hold every member's and its floors are
    lower, so that is below each member's bound, with room for both
    roundings. Only when a block reaches the top of the heap are its inner
    edges looked up and its members bounded, in one batch, so each bound
    keeps the bits a batch of every chunk gives it. A block sorts just before
    its first chunk, so chunks pop in (bound, index) order as if all were
    bounded at once. So the global minimum is kept, and memory is O(N + one
    chunk): the lookups at the block edges hold about n_chunks /
    _CHUNKS_PER_BLOCK * max_code indices, fewer than N + max_code.
    """
    absw = flat[flat != 0.0]
    np.abs(absw, out=absw)
    w_sq = _dot(absw, absw)
    absw.sort()
    n = absw.size
    levels = np.arange(1, max_code + 1)
    divisors = levels - 0.5
    steps_sq = 2.0 * levels - 1.0  # q^2 grows by 2k - 1 as a code moves to k
    below = levels - 1  # code just above a level-k event
    tail1 = np.zeros(n + 1)
    np.cumsum(absw[::-1], out=tail1[n - 1::-1])
    tail2 = np.zeros(n + 1)
    np.multiply(absw, absw, out=tail2[:n])
    np.cumsum(tail2[n - 1::-1], out=tail2[n - 1::-1])

    def sums_at(deltas):
        """Event indices, s1 and s2 at each step: events at or above count."""
        idx = _first_at_or_above(absw, divisors, deltas)
        return idx, tail1[idx].sum(axis=-1), ((n - idx) * steps_sq).sum(axis=-1)

    def bound(lo, hi, lo_i, hi_i, s1_hi, s2_hi):
        """Lower bound on the distortion over each chunk [lo, hi]."""
        start = lo_i.copy()  # piece k starts at max(lo_i[k], hi_i[k-1])
        np.maximum(start[..., 1:], hi_i[..., :-1], out=start[..., 1:])
        s1_fixed = s1_hi - (tail1[start] - tail1[hi_i]) @ below
        w_sq_fixed = w_sq - (tail2[start] - tail2[hi_i]).sum(axis=-1)
        moved = np.subtract(hi_i, start, out=start)
        # The floor is 0 once hi passes 2 * lo, where hi / lo may overflow.
        spread = (np.minimum(hi, 2.0 * lo) / lo - 1.0)[..., None]
        floor = np.maximum(0.5 - spread * divisors, 0.0)
        floor_sq = np.einsum("...k,...k,...k->...", moved, floor, floor)
        s2_fixed = s2_hi - moved @ (below * below) + floor_sq
        return _parabola_min(w_sq_fixed, s1_fixed, s2_fixed, lo, hi)[1]

    n_chunks = max(1, -(-n * max_code // _EVENTS_PER_CHUNK))
    # Steps stay positive, though a subnormal |w| / c may round to 0.
    tiny = np.nextafter(0.0, 1.0)
    t_min = max(absw[0] / divisors[-1], tiny)
    t_max = absw[-1] / divisors[0]
    edges = np.geomspace(t_min, t_max, n_chunks + 1)
    edges[0], edges[-1] = t_min, t_max
    edges = np.maximum.accumulate(edges)  # rounding must not reorder them
    # With no more chunks than a block holds, every chunk is bounded at once.
    per_block = _CHUNKS_PER_BLOCK if n_chunks > _CHUNKS_PER_BLOCK else 1
    firsts = np.append(np.arange(0, n_chunks, per_block), n_chunks)
    idx, s1, s2 = sums_at(edges[firsts])

    (best_delta,), (best_err,) = _parabola_min(w_sq, s1[0], s2[0], tiny, t_min)
    slack = max(_BOUND_SLACK * w_sq, np.finfo(np.float64).tiny)  # subnormals round absolutely
    heap = []

    def push_chunks(first, e, e_i, e_s1, e_s2):
        """Bound the chunks between edges ``e``, chunk ``first`` the lowest,
        from the sums at those edges, and push them."""
        bounds = bound(e[:-1], e[1:], e_i[:-1], e_i[1:], e_s1[1:], e_s2[1:])
        for c in range(e.size - 1):
            chunk = (e[c], e[c + 1], e_i[c], e_i[c + 1], e_s1[c + 1], e_s2[c + 1])
            heapq.heappush(heap, (bounds[c], first + c, chunk))

    if per_block == 1:
        push_chunks(0, edges, idx, s1, s2)
    else:
        block_bounds = bound(edges[firsts[:-1]], edges[firsts[1:]], idx[:-1], idx[1:],
                             s1[1:], s2[1:])
        # A block's entry holds its number b; a chunk's holds its edges and sums.
        heap.extend((block_bounds[b] - 2.0 * slack, first - 0.5, b)
                    for b, first in enumerate(firsts[:-1]))
        heapq.heapify(heap)
    tiebreak = itertools.count(n_chunks)
    while heap and heap[0][0] < best_err + slack:
        item = heapq.heappop(heap)[2]
        if isinstance(item, int):  # a block: look up its inner edges
            b, first, last = item, firsts[item], firsts[item + 1]
            inner_i, inner_s1, inner_s2 = sums_at(edges[first + 1:last])
            push_chunks(first, edges[first:last + 1],
                        np.concatenate((idx[b:b + 1], inner_i, idx[b + 1:b + 2])),
                        np.concatenate((s1[b:b + 1], inner_s1, s1[b + 1:b + 2])),
                        np.concatenate((s2[b:b + 1], inner_s2, s2[b + 1:b + 2])))
            continue
        lo, hi, lo_i, hi_i, s1_hi, s2_hi = item
        moved = hi_i - lo_i
        m = int(moved.sum())
        mid = np.sqrt(lo) * np.sqrt(hi)
        if m > _EVENTS_PER_CHUNK and lo < mid < hi:
            (mid_i,), (s1_mid,), (s2_mid,) = sums_at(np.array([mid]))
            for half in ((lo, mid, lo_i, mid_i, s1_mid, s2_mid),
                         (mid, hi, mid_i, hi_i, s1_hi, s2_hi)):
                heapq.heappush(heap, (bound(*half)[0], next(tiebreak), half))
            continue
        # Events in [lo, hi): per level k, a slice of the sorted |w|.
        pos = np.repeat(lo_i - (np.cumsum(moved) - moved), moved)
        pos += np.arange(m)
        ev_w = absw[pos]
        ev_t = ev_w / np.repeat(divisors, moved)
        by_step, ev_t = _step_order(ev_t, np.count_nonzero(moved))
        # After the j-th event the codes stay fixed down to the next one.
        run_s1 = np.empty(m + 1)
        run_s1[0] = s1_hi
        np.take(ev_w, by_step, out=run_s1[1:])
        np.cumsum(run_s1, out=run_s1)
        run_s2 = np.empty(m + 1)
        run_s2[0] = s2_hi
        np.take(np.repeat(steps_sq, moved), by_step, out=run_s2[1:])
        np.cumsum(run_s2, out=run_s2)
        t = np.concatenate(([hi], ev_t, [lo]))  # interval j is [t[j + 1], t[j]]
        step, err = _parabola_min(w_sq, run_s1, run_s2, t[1:], t[:-1])
        j = int(np.argmin(err))
        if err[j] < best_err:
            best_delta, best_err = step[j], err[j]
    return float(best_delta)


def optimize_delta(w, M: int, group: str = "") -> tuple[float, QuantizationReport]:
    """Fit the step size minimizing L2 distortion of quantizing ``w`` to M levels.

    The candidate step is the global minimizer of the piecewise-quadratic
    distortion, found by a search over chunks of the step axis that bounds
    chunks only as the search reaches them and skips every chunk whose lower
    bound cannot beat the best step found, in memory O(N + one chunk) (see
    _best_vertex_delta). Alternating descent then polishes it: (a) assign
    integer codes at the current delta and (b) set delta to the
    least-squares value sum(q*w)/sum(q^2) for those codes, until the relative
    delta change falls below 1e-8 or 100 iterations. Both half-steps are
    non-increasing in the distortion, so the reported l2_error never exceeds
    the error at the search's pick nor at 2*max|w|/(M-1). One grid pass at
    the fitted step then gives the report's l2_error and saturated fraction.
    Deterministic given the input order.

    An all-zero group is degenerate: delta 1.0, all codes 0, zero error,
    flagged in the report. A group with N * max_code * max|w|^2 above
    float max / 8, or a non-finite weight, raises ConfigError.
    """
    report, _ = _fit(w, M, group)
    return report.delta, report


def _fit(w, M: int, group: str) -> tuple[QuantizationReport, np.ndarray]:
    """optimize_delta's report, and ``w`` quantized at the fitted step (its
    shape, the bytes of ``apply``), both from one final grid pass."""
    arr = np.asarray(w, dtype=np.float64)
    flat = arr.reshape(-1)
    if flat.size == 0:
        raise ConfigError("cannot fit a step size to an empty weight group")
    max_code = QuantizerSpec(M=M, delta=1.0).max_code  # checks the level count

    w_max = float(np.max(np.abs(flat)))
    if w_max == 0.0:
        report = QuantizationReport(
            group=group, M=M, delta=1.0, l2_error=0.0,
            iterations=0, saturated_fraction=0.0, degenerate=True,
        )
        return report, np.zeros(arr.shape)
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
        qq = _dot(q, q)
        if qq == 0.0:
            break  # every weight rounds to zero; no least-squares update exists
        new_delta = _dot(q, flat) / qq
        if abs(new_delta - delta) <= _DELTA_REL_TOL * delta:
            delta = new_delta
            break
        delta = new_delta

    QuantizerSpec(M=M, delta=delta)  # checks the fitted step
    quantized, clamped = _grid_codes(flat, delta, max_code, out=q, count_clamped=True)
    quantized *= delta
    d = quantized - flat
    report = QuantizationReport(
        group=group, M=M, delta=delta, l2_error=0.5 * _dot(d, d),
        iterations=iterations, saturated_fraction=clamped / flat.size,
    )
    return report, quantized.reshape(arr.shape)


def direct_quantize(net, n_bits: int, groups="all"):
    """Quantize the selected weight groups of a trained network.

    Returns a new network plus one report per selected group; the input
    network is not modified. Each selected group gets its own fitted step
    size, its weights replaced by their quantized values, and its original
    float weights kept as the shadow copy used by retraining. Unselected
    groups and all biases are untouched. ``groups`` is "all" or a non-empty
    list of distinct names of this network's groups (check_groups).
    """
    M = bits_to_levels(n_bits)
    selected = _resolve_groups(net, groups)
    out = net.copy()
    reports = []
    for name in selected:
        group = out.groups[name]
        report, quantized = _fit(group.weights.ndarray, M, name)
        group.shadow_weights = group.weights
        group.weights = Tensor._wrap(quantized)
        group.quantizer = QuantizerSpec(M=M, delta=report.delta)
        reports.append(report)
    return out, reports


def check_groups(groups):
    """The group selection: "all", or a non-empty list of names none of
    which is listed twice; anything else is a ConfigError naming quant.groups."""
    if groups == "all":
        return groups
    names = list(groups)
    if not names:
        raise ConfigError('quant.groups: expected "all" or a non-empty list of names')
    reject_repeats(names, "quant.groups")
    return names


def _resolve_groups(net, groups) -> list[str]:
    known = list(net.groups.keys())
    if groups == "all" or groups is None:
        return known
    names = check_groups(groups)
    unknown = [g for g in names if g not in net.groups]
    if unknown:
        raise ConfigError(
            f"unknown weight group(s) {unknown}; this network has {known}"
        )
    return names
