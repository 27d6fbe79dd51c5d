"""Spectral quantities and joint approximate eigenvectors.

All matrix inputs are square nonnegative integer matrices; the two
matrices of a pair must share dimensions and a state order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import (INT64_MAX, BimodalError, _scc, adjacency,
                     adjacency_pair)

# perron's power iteration stops once the estimate and every vector
# entry move by less than this in one step
_PERRON_STEP = 5e-10
_PERRON_MAX_ITER = 10 ** 6


class DimensionMismatch(BimodalError):
    pass


class NotFoundWithin(BimodalError):
    def __init__(self, cap):
        self.cap = cap
        super().__init__("no nonzero vector with entries <= %d" % cap)


@dataclass(frozen=True)
class ApproxEigenvector:
    entries: tuple
    n0: int
    n1: int


@dataclass(frozen=True)
class RatePoint:
    n0: int
    n1: int
    witness: tuple


def _as_int_matrix(a):
    m = np.asarray(a, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    if (m < 0).any():
        raise ValueError("matrix entries must be nonnegative")
    return m


def _check_pair(a0, a1):
    """The checked pair with its bounds, (a0, a1, r0, r1, limit): r_b is
    the largest row sum of A_b, which bounds any feasible n_b (n_b x_u <=
    (A_b x)_u <= rowsum_u x_u at x's top entry u), and limit the largest
    cap whose products with both fit int64."""
    a0 = _as_int_matrix(a0)
    a1 = _as_int_matrix(a1)
    if a0.shape != a1.shape:
        raise DimensionMismatch("matrix pair shapes differ")
    r0, r1 = (max(map(sum, a.tolist()), default=0) for a in (a0, a1))
    return a0, a1, r0, r1, INT64_MAX // max(r0, r1, 1)


def perron(a):
    """Largest eigenvalue of a nonnegative integer matrix.

    Power iteration on A + I, which is aperiodic whenever A is
    irreducible; nilpotent matrices short-circuit to 0.
    """
    a = _as_int_matrix(a)
    if not a.any():
        return 0.0
    # the spectral radius is attained on some strongly connected
    # component, and A+I restricted to one is primitive, so the
    # iteration converges geometrically there
    succ = [np.flatnonzero(row).tolist() for row in a]
    best = 0.0
    for comp in _scc(range(a.shape[0]), succ):
        comp = sorted(comp)
        m = a[np.ix_(comp, comp)].astype(float) + np.eye(len(comp))
        v = np.ones(len(comp))
        est = 0.0
        for _ in range(_PERRON_MAX_ITER):
            w = m @ v
            new = w.max()
            w = w / new
            done = (abs(new - est) < _PERRON_STEP
                    and np.abs(w - v).max() < _PERRON_STEP)
            v, est = w, new
            if done:
                break
        best = max(best, est - 1.0)
    return float(best)


def capacity(g):
    """log2 of the Perron eigenvalue of the full adjacency matrix."""
    lam = perron(adjacency(g))
    if lam <= 0.0:
        return float("-inf")
    return math.log2(lam)


def _ae_holds(a, x, n):
    """A x >= n x entrywise, in exact integer arithmetic."""
    x = [int(v) for v in x]
    return all(sum(r * v for r, v in zip(row, x)) >= n * xu
               for row, xu in zip(np.asarray(a).tolist(), x))


def _largest(test, lo, hi):
    """(n, test(n)) for the largest n in lo..hi with test(n) not None,
    or None; test must hold on a prefix of the range."""
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        got = test(mid)
        if got is None:
            hi = mid - 1
        else:
            best, lo = (mid, got), mid + 1
    return best


def franaszek_joint(a0, a1, n0, n1, xi):
    """Largest x <= xi with A0 x >= n0 x and A1 x >= n1 x, elementwise.

    The iteration starts from the ceiling vector xi and repeatedly
    clamps with the floor-divided images until it stabilizes; the all
    zero vector means no nonzero solution fits under xi.  A zero n_b
    drops that side's constraint, and an n_b above the largest row sum
    of A_b gives the zero vector at once.  Raises BimodalError when the
    largest row sum times the largest ceiling entry leaves int64,
    checked in Python ints before any int64 ceiling is built.
    """
    pair = _check_pair(a0, a1)
    xi = np.asarray(xi)
    if xi.shape != (len(pair[0]),):
        raise DimensionMismatch("ceiling vector length mismatch")
    return _sweep(pair, n0, n1, xi)


def _sweep(pair, n0, n1, xi):
    """franaszek_joint on a checked pair; a search checks its pair once."""
    a0, a1, r0, r1, limit = pair
    cap = int(xi.max(initial=0))
    if cap > limit:
        raise BimodalError("cap %d times row sum %d overflows int64"
                           % (cap, max(r0, r1)))
    xi = xi.astype(np.int64)
    if n0 < 0 or n1 < 0:
        raise ValueError("out-degree targets must be nonnegative")
    if n0 > r0 or n1 > r1:
        return np.zeros_like(xi)
    y = xi.copy()
    x = np.zeros_like(xi)
    while not np.array_equal(x, y):
        x = y
        y = x
        if n0 > 0:
            y = np.minimum(y, (a0 @ x) // n0)
        if n1 > 0:
            y = np.minimum(y, (a1 @ x) // n1)
    return x


def joint_ae_exists(a0, a1, n0, n1, xi_cap=64):
    """Nonzero joint approximate eigenvector under the cap, or None.

    None only means no solution with entries <= xi_cap exists; larger
    solutions may still exist, so absence is not a disproof.  Raises
    BimodalError when the cap times the largest row sum leaves int64.
    """
    return _exists(_check_pair(a0, a1), n0, n1, xi_cap)


def _exists(pair, n0, n1, xi_cap):
    """joint_ae_exists on a checked pair."""
    x = _sweep(pair, n0, n1, np.asarray([xi_cap] * len(pair[0])))
    if not x.any():
        return None
    return ApproxEigenvector(tuple(int(v) for v in x), n0, n1)


def min_infnorm_ae(a0, a1, n0, n1, xi_cap=64):
    """Smallest ceiling value admitting a solution, with a witness.

    Returns (norm, vector); raises NotFoundWithin when even xi_cap
    admits nothing.  The caps that fit int64 are bisected; above them
    franaszek_joint's overflow error is raised instead.
    """
    pair = _, _, _, _, limit = _check_pair(a0, a1)
    top = min(xi_cap, limit)
    # a solution under one cap is one under any larger cap, so index i
    # standing for cap top - i makes the feasible indices a prefix
    best = _largest(lambda i: _exists(pair, n0, n1, top - i), 0, top - 1)
    if best is not None:
        return top - best[0], best[1]
    if xi_cap > limit:
        _exists(pair, n0, n1, limit + 1)  # raises
    raise NotFoundWithin(xi_cap)


def anticipation_lower_bound(a0, a1, n0, n1, xi_cap=64):
    """log_n of the minimal solution norm, n the larger class degree."""
    norm, _ = min_infnorm_ae(a0, a1, n0, n1, xi_cap=xi_cap)
    n = max(n0, n1)
    if norm <= 1:
        return 0.0
    if n <= 1:
        return float("inf")
    return math.log(norm, n)


def rate_region(g, t, xi_cap=64):
    """Achievable (n0, n1) pairs for block length t, one point per n0.

    Feasibility is monotone decreasing in both degrees, so n0 walks up
    until no n1 is feasible, each point's n1 at most the last one found
    (first the largest class-1 row sum).  The greatest solution under
    the cap at (n0 - 1, n1) bounds the one at (n0, n1), so each n0 first
    sweeps down from the last witness at the last n1; only when that
    gives the zero vector does it bisect the smaller n1 from the cap.
    Every witness is the greatest solution under the cap at its point.
    """
    a0, a1, _ = adjacency_pair(g, t)
    pair = _, _, r0, hi, _ = _check_pair(a0, a1)
    points = []
    x = np.asarray([xi_cap] * len(a0))
    for n0 in range(r0 + 1):
        x = _sweep(pair, n0, hi, x)
        if not x.any():
            best = _largest(lambda n1: _exists(pair, n0, n1, xi_cap),
                            0, hi - 1)
            if best is None:
                break
            hi, got = best
            x = np.asarray(got.entries)
        points.append(RatePoint(n0, hi, tuple(int(v) for v in x)))
    return points


def coding_ratio(g, t, xi_cap=64):
    """(n_max, ratio): best symmetric degree and its per-step rate.

    n_max is the largest n with a joint approximate eigenvector at
    (n, n) within the cap; the ratio is log2(2 n_max) / t, or -inf when
    even n = 1 is out of reach.
    """
    a0, a1, _ = adjacency_pair(g, t)
    pair = _, _, r0, r1, _ = _check_pair(a0, a1)
    best = _largest(lambda n: _exists(pair, n, n, xi_cap), 1, min(r0, r1))
    if best is None:
        return 0, float("-inf")
    return best[0], math.log2(2 * best[0]) / t
