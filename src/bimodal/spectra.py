"""Spectral quantities and joint approximate eigenvectors.

All matrix inputs are square nonnegative integer matrices; the two
matrices of a pair must share dimensions and a state order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import _scc, adjacency, adjacency_pair, power


class DimensionMismatch(Exception):
    pass


class NotFoundWithin(Exception):
    def __init__(self, cap):
        self.cap = cap
        super().__init__("no nonzero vector with entries <= %d" % cap)


@dataclass(frozen=True)
class ApproxEigenvector:
    entries: tuple
    n0: int
    n1: int

    @property
    def inf_norm(self):
        return max(self.entries)

    @property
    def one_norm(self):
        return sum(self.entries)


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
    a0 = _as_int_matrix(a0)
    a1 = _as_int_matrix(a1)
    if a0.shape != a1.shape:
        raise DimensionMismatch("matrix pair shapes differ")
    return a0, a1


def perron(a, tol=1e-9, max_iter=10 ** 6):
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
        for _ in range(max_iter):
            w = m @ v
            new = w.max()
            w = w / new
            done = (abs(new - est) < tol * 0.5
                    and np.abs(w - v).max() < tol * 0.5)
            v, est = w, new
            if done:
                break
        best = max(best, est - 1.0)
    return float(best)


def capacity(g, tol=1e-9):
    """log2 of the Perron eigenvalue of the full adjacency matrix."""
    lam = perron(adjacency(g), tol=tol)
    if lam <= 0.0:
        return float("-inf")
    return math.log2(lam)


def franaszek_joint(a0, a1, n0, n1, xi):
    """Largest x <= xi with A0 x >= n0 x and A1 x >= n1 x, elementwise.

    The iteration starts from the ceiling vector xi and repeatedly
    clamps with the floor-divided images until it stabilizes; the all
    zero vector means no nonzero solution fits under xi.  A zero n_b
    drops that side's constraint.
    """
    a0, a1 = _check_pair(a0, a1)
    xi = np.asarray(xi, dtype=np.int64)
    if xi.shape != (a0.shape[0],):
        raise DimensionMismatch("ceiling vector length mismatch")
    if n0 < 0 or n1 < 0:
        raise ValueError("out-degree targets must be nonnegative")
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
    solutions may still exist, so absence is not a disproof.
    """
    a0, a1 = _check_pair(a0, a1)
    xi = np.full(a0.shape[0], xi_cap, dtype=np.int64)
    x = franaszek_joint(a0, a1, n0, n1, xi)
    if not x.any():
        return None
    return ApproxEigenvector(tuple(int(v) for v in x), n0, n1)


def min_infnorm_ae(a0, a1, n0, n1, xi_cap=64):
    """Smallest ceiling value admitting a solution, with a witness.

    Returns (norm, vector); raises NotFoundWithin when even xi_cap
    admits nothing.
    """
    a0, a1 = _check_pair(a0, a1)
    for cap in range(1, xi_cap + 1):
        got = joint_ae_exists(a0, a1, n0, n1, xi_cap=cap)
        if got is not None:
            return cap, got
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


def rate_region(g, t, xi_cap=64, tol=1e-9):
    """Achievable (n0, n1) pairs for block length t, one point per n0.

    For each n0 up to the class-0 Perron bound the largest n1 admitting
    a joint approximate eigenvector within the cap is located by binary
    search (feasibility is monotone decreasing in n1).
    """
    pw = g if t == 1 else power(g, t)
    a0, a1, _ = adjacency_pair(pw)
    lam0 = perron(a0, tol=tol)
    lam1 = perron(a1, tol=tol)
    points = []
    for n0 in range(0, int(math.floor(lam0 + 1e-9)) + 1):
        lo, hi = 0, int(math.floor(lam1 + 1e-9))
        best = None
        while lo <= hi:
            mid = (lo + hi) // 2
            got = joint_ae_exists(a0, a1, n0, mid, xi_cap=xi_cap)
            if got is not None:
                best = (mid, got)
                lo = mid + 1
            else:
                hi = mid - 1
        if best is not None:
            points.append(RatePoint(n0, best[0], best[1].entries))
    return points


def coding_ratio(g, t, xi_cap=64, tol=1e-9):
    """(n_max, ratio): best symmetric degree and its per-step rate.

    n_max is the largest n with a joint approximate eigenvector at
    (n, n) within the cap; the ratio is log2(2 n_max) / t, or -inf when
    even n = 1 is out of reach.
    """
    pw = g if t == 1 else power(g, t)
    a0, a1, _ = adjacency_pair(pw)
    bound = int(math.floor(min(perron(a0, tol=tol),
                               perron(a1, tol=tol)) + 1e-9))
    lo, hi = 1, bound
    n_max = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        if joint_ae_exists(a0, a1, mid, mid, xi_cap=xi_cap) is not None:
            n_max = mid
            lo = mid + 1
        else:
            hi = mid - 1
    if n_max == 0:
        return 0, float("-inf")
    return n_max, math.log2(2 * n_max) / t
