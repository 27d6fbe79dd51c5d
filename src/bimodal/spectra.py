"""Spectral quantities and joint approximate eigenvectors.

All matrix inputs are square nonnegative integer matrices; the two
matrices of a pair must share dimensions and a state order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import le, lt

import numpy as np

from .graphs import (POWER_BUDGET, BimodalError, _ints, _scc, adjacency,
                     adjacency_pair)


# the default entry cap of the vector searches and of the CLI's --cap
XI_CAP = 64


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
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    m = _ints(m)
    if (m < 0).any():
        raise ValueError("matrix entries must be nonnegative")
    return m


def _check_pair(a0, a1):
    """The checked pair stacked, with its bounds, (rows, k, r0, r1):
    rows is the 2k x k matrix of A0 over A1, so one product gives both
    images, and r_b is the largest row sum of A_b, which bounds any
    feasible n_b (n_b x_u <= (A_b x)_u <= rowsum_u x_u at x's top entry
    u)."""
    a0 = _as_int_matrix(a0)
    a1 = _as_int_matrix(a1)
    if a0.shape != a1.shape:
        raise DimensionMismatch("matrix pair shapes differ")
    r0, r1 = (max(map(sum, a.tolist()), default=0) for a in (a0, a1))
    return np.concatenate((a0, a1)), len(a0), r0, r1


def perron(a):
    """Largest eigenvalue of a nonnegative integer matrix.

    The largest Perron root of its strongly connected components with
    a cycle, 0 when none has one.  A block's Perron root is real and no
    smaller than the real part of any of its eigenvalues, so it is the
    largest real part numpy finds.  Raises BimodalError when an entry
    or the root is past the largest float.
    """
    a = _as_int_matrix(a)
    try:
        m = a.astype(float)
    except OverflowError:
        raise _past_float("matrix entry") from None
    succ = [np.flatnonzero(row).tolist() for row in a]
    best = 0.0
    for comp in _scc(range(len(a)), succ):
        comp = sorted(comp)
        if len(comp) > 1 or comp[0] in succ[comp[0]]:
            block = m[np.ix_(comp, comp)]
            best = max(best, np.linalg.eigvals(block).real.max())
    if not math.isfinite(best):
        raise _past_float("Perron root")
    return float(best)


def _past_float(what):
    return BimodalError("%s past the largest float, %g"
                        % (what, sys.float_info.max))


def capacity(g):
    """log2 of the Perron eigenvalue of the full adjacency matrix."""
    lam = perron(adjacency(g))
    if lam <= 0.0:
        return float("-inf")
    return math.log2(lam)


def _reach(a, x):
    """The largest n with A x >= n x, x a nonnegative integer vector:
    the least (A x)_u // x_u over the support of x, in exact ints, and
    infinity for the zero vector, which satisfies every n.  So x
    satisfies degree n exactly when _reach(a, x) >= n."""
    x = [int(v) for v in x]
    return min((sum(r * v for r, v in zip(row, x)) // xu
                for row, xu in zip(np.asarray(a).tolist(), x) if xu),
               default=math.inf)


def _largest(test, lo, hi, reach):
    """(n, w): the largest n in lo..hi with a witness, and w, the
    witness there; None when no n in the range has one.

    test(n) is the witness at n or None, and must hold on a prefix of
    the range.  A witness w found at n is also the witness at every n'
    from n to reach(w), at most hi.  So lo is probed first, and a
    failure there ends the search; each probe that holds moves lo past
    its reach, and the rest of the range is bisected.
    """
    best, mid = None, lo
    while lo <= hi:
        got = test(mid)
        if got is None:
            hi = mid - 1
        else:
            best = reach(got), got
            lo = best[0] + 1
        mid = (lo + hi) // 2
    return best


def franaszek_joint(a0, a1, n0, n1, xi):
    """Largest x <= xi with A0 x >= n0 x and A1 x >= n1 x, elementwise.

    Franaszek's iteration starts from the ceiling vector xi and clamps
    it with the floor-divided images min(x, A0 x // n0, A1 x // n1),
    both images from one product of the stacked pair, until no entry
    falls; the all zero vector means no nonzero solution fits under xi.
    It is returned once certain (see _sweep).  A zero n_b drops that
    side's constraint, and an n_b above the largest row sum of A_b gives
    the zero vector at once.  Exact: int64 when the ceiling's top entry
    times the largest row sum (or 1) fits, Python ints otherwise.
    Raises ValueError for a negative or non-integer degree or ceiling.
    """
    pair = _check_pair(a0, a1)
    xi = np.asarray(xi, dtype=object)
    if xi.shape != (pair[1],):
        raise DimensionMismatch("ceiling vector length mismatch")
    if not _nonnegative_ints(xi.tolist()):
        raise ValueError("ceiling entries must be nonnegative integers")
    return _sweep(pair, n0, n1, xi)


def _sweep(pair, n0, n1, xi):
    """franaszek_joint on a checked pair; a search checks its pair once.

    Each round is one product of the stacked rows (only the halves whose
    n_b is nonzero), floor-divided in place by n0 on the first k entries
    and n1 on the last k.  The iterate never rises, so it is the
    fixpoint once no entry falls.  Each iterate x bounds the greatest
    solution x*, which is surely zero once (a) x <= xi // 2: 2 x* <= xi
    solves too, so x* >= 2 x*; or (b) every entry falls in a round: an
    integer x_u falls exactly when (A_b x)_u < n_b x_u, so the monotone,
    homogeneous L(v) = min(v, A0 v / n0, A1 v / n1) has L(x) <= lam x,
    lam < 1, and x* = L^m(x*) <= lam^m x -> 0.
    """
    rows, k, r0, r1 = pair
    if not _nonnegative_ints((n0, n1)):
        raise ValueError("out-degree targets must be nonnegative integers")
    # A_b x <= rowsum * cap bounds every product the sweep forms, and
    # the cap itself when both matrices are zero
    bound = max(r0, r1, 1) * int(np.max(xi, initial=0))
    x = _ints(xi, bound)
    if n0 > r0 or n1 > r1:
        return np.zeros_like(x)
    xl = x.tolist()
    # with no constraint, or from the zero vector, x is the fixpoint
    if not (n0 or n1) or not any(xl):
        return x
    lo, hi = (0 if n0 else k), (2 * k if n1 else k)
    rows = _ints(rows[lo:hi], bound)
    div = _ints(([n0] * k + [n1] * k)[lo:hi], bound)
    both = hi - lo > k
    half = [v // 2 for v in xl]
    while True:
        z = rows @ x
        z //= div
        y = np.minimum(x, z[:k])
        if both:
            np.minimum(y, z[k:], out=y)
        yl = y.tolist()
        if yl == xl:
            return x
        if all(map(le, yl, half)) or all(map(lt, yl, xl)):
            return np.zeros_like(y)
        x, xl = y, yl


def joint_ae_exists(a0, a1, n0, n1, xi_cap=XI_CAP):
    """Nonzero joint approximate eigenvector under the cap, or None.

    None only means no solution with entries <= xi_cap exists; larger
    solutions may still exist, so absence is not a disproof.
    """
    _check_cap(xi_cap)
    return _exists(_check_pair(a0, a1), n0, n1, xi_cap)


def _nonnegative_ints(values):
    return all(isinstance(v, (int, np.integer)) and v >= 0 for v in values)


def _check_cap(xi_cap):
    """Refuse a cap that is negative or not an integer; cap 0 admits
    only the zero vector."""
    if not _nonnegative_ints((xi_cap,)):
        raise ValueError("entry cap must be a nonnegative integer, got %r"
                         % xi_cap)


def _exists(pair, n0, n1, xi_cap):
    """joint_ae_exists on a checked pair."""
    x = _sweep(pair, n0, n1, [xi_cap] * pair[1])
    if not x.any():
        return None
    return ApproxEigenvector(tuple(int(v) for v in x), n0, n1)


def min_infnorm_ae(a0, a1, n0, n1, xi_cap=XI_CAP):
    """Smallest ceiling value admitting a solution, with a witness.

    Returns (norm, vector); raises NotFoundWithin when even xi_cap
    admits nothing.  The first probe is the cap itself, so that case
    costs one sweep.  The greatest solution w under a cap c is also the
    greatest under every cap from max(w) to c (it fits under them, and
    the greatest solution only falls with the cap), so each probe that
    finds w moves the search down to max(w) at once; the caps below it
    are bisected, and the answer is the last witness's max.
    """
    _check_cap(xi_cap)
    pair = _check_pair(a0, a1)
    # a solution under one cap is one under any larger cap, so index i
    # standing for cap xi_cap - i makes the feasible indices a prefix
    best = _largest(lambda i: _exists(pair, n0, n1, xi_cap - i),
                    0, xi_cap - 1, lambda w: xi_cap - max(w.entries))
    if best is None:
        raise NotFoundWithin(xi_cap)
    return xi_cap - best[0], best[1]


def anticipation_lower_bound(a0, a1, n0, n1, xi_cap=XI_CAP):
    """The least integer a >= 0 with n**a >= the minimal solution norm,
    n the larger class degree, in exact ints: ceil(log_n(norm)), or
    math.inf when n <= 1 < norm."""
    norm, _ = min_infnorm_ae(a0, a1, n0, n1, xi_cap=xi_cap)
    n = max(n0, n1)
    if n <= 1 < norm:
        return math.inf
    a, reach = 0, 1
    while reach < norm:
        a, reach = a + 1, reach * n
    return a


def rate_region(g, t, xi_cap=XI_CAP):
    """Achievable (n0, n1) pairs for block length t, one point per n0.

    Feasibility is monotone decreasing in both degrees, so n0 walks up
    until no n1 is feasible, each point's n1 at most the last one found
    (first the largest class-1 row sum).  Every witness is the greatest
    solution under the cap at its point.  The greatest solution w at
    (n0, n1) is also the greatest at every (n0', n1') with
    n0 <= n0' <= rho0(w) and n1 <= n1' <= rho1(w), rho_b = _reach(A_b, w):
    it only falls as the degrees rise, and w meets the larger ones.  So
    one witness emits the rows n0..rho0(w), and the next n0 first
    sweeps down from it at the last n1, since it bounds the greatest
    solution there.  Only when that gives the zero vector is the smaller
    n1 searched from the cap by _largest, each witness answering up to
    its rho1, n1 = 0 first: if that fails, the table ends.

    A table of more than POWER_BUDGET rows (one per n0 up to the largest
    class-0 row sum) raises BimodalError naming t and the budget before
    the walk.
    """
    _check_cap(xi_cap)
    a0, a1, _ = adjacency_pair(g, t)
    pair = rows, k, r0, hi = _check_pair(a0, a1)
    if r0 + 1 > POWER_BUDGET:
        raise BimodalError("rate table at t=%d would hold more than %d "
                           "rows" % (t, POWER_BUDGET))
    points = []
    x = [xi_cap] * k
    n0 = 0
    while n0 <= r0:
        x = _sweep(pair, n0, hi, x)
        if not x.any():
            best = _largest(lambda n1: _exists(pair, n0, n1, xi_cap),
                            0, hi - 1, lambda w: _reach(rows[k:], w.entries))
            if best is None:
                break
            hi, x = best[0], best[1].entries
        x = tuple(int(v) for v in x)
        top = _reach(rows[:k], x)
        points += [RatePoint(n, hi, x) for n in range(n0, top + 1)]
        n0 = top + 1
    return points


def coding_ratio(g, t, xi_cap=XI_CAP):
    """(n_max, ratio): best symmetric degree and its per-step rate.

    n_max is the largest n with a joint approximate eigenvector at
    (n, n) within the cap; the ratio is log2(2 n_max) / t, or -inf when
    even n = 1 is out of reach.  n = 1 is probed first, and a witness w
    at n holds at every n' up to min(rho0(w), rho1(w)) (see
    rate_region), so each probe that holds moves the search past that.
    """
    _check_cap(xi_cap)
    a0, a1, _ = adjacency_pair(g, t)
    pair = rows, k, r0, r1 = _check_pair(a0, a1)
    best = _largest(lambda n: _exists(pair, n, n, xi_cap), 1, min(r0, r1),
                    lambda w: min(_reach(rows[:k], w.entries),
                                  _reach(rows[k:], w.entries)))
    if best is None:
        return 0, float("-inf")
    return best[0], math.log2(2 * best[0]) / t
