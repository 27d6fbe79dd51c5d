"""Encoder construction from joint approximate eigenvectors.

Four routes are provided: direct extraction from a 0-1 vector, one
round of weight-consistent state splitting per parity class followed by
a merge of the two split graphs, stethering (each state's candidate
lists cut into one block per copy, the two classes agreeing on shared
symbols), and punctured stethering which builds one degree higher and
deletes the top tag slot.
"""

from __future__ import annotations

import numpy as np

from .graphs import (
    BimodalError,
    Edge,
    LabeledGraph,
    NotDeterministic,
    POWER_BUDGET,
    TaggedEncoder,
    _drop_zero_weight,
    adjacency,
    adjacency_pair,
)
from .spectra import _reach

STATE_SEP = "@"


class InfeasibleVector(BimodalError):
    pass


class SplitInfeasible(BimodalError):
    pass


class TooManyCopies(BimodalError):
    pass


def _copy_name(parent, idx):
    """The 'parent@index' name of copy ``idx`` of state ``parent``."""
    return "%s%s%d" % (parent, STATE_SEP, idx)


def split_state(name):
    """Parse a 'parent@index' state name back into its parts."""
    parent, _, idx = name.rpartition(STATE_SEP)
    return parent, int(idx)


def _assemble(states, parity, tagged, n0, n1):
    """Encoder from (edge, tag) pairs: each edge kept once, in first-seen
    order, with its tags in the order given."""
    tags = {}
    for e, t in tagged:
        tags.setdefault(e, []).append(t)
    return TaggedEncoder(LabeledGraph(states, list(tags), parity),
                         {e: tuple(t) for e, t in tags.items()}, n0, n1)


def _check_vector(g, x, bounds, positive=False):
    """x as Python ints, once it has one entry per state of g, positive
    entries (``positive``) or nonnegative ones not all zero, and A x >=
    n x for each (A, n, failure) in ``bounds``; else InfeasibleVector.
    A sum past POWER_BUDGET, the state copies an encoder would name,
    raises TooManyCopies, naming the budget."""
    xv = np.asarray(x)
    if xv.shape != (len(g.states),):
        raise InfeasibleVector("vector length does not match state count")
    xv = [int(v) for v in xv.tolist()]
    if positive and min(xv, default=1) < 1:
        raise InfeasibleVector("splitting needs strictly positive weights")
    if not positive and (min(xv, default=0) < 0 or not any(xv)):
        raise InfeasibleVector("vector must be nonnegative and nonzero")
    for a, n, failure in bounds:
        if _reach(a, xv) < n:
            raise InfeasibleVector(failure)
    total = sum(xv)
    if total > POWER_BUDGET:
        # a sum too long to print is named by its size
        size = total if total.bit_length() <= 128 else (
            "of %d bits" % total.bit_length())
        raise TooManyCopies("vector sum %s passes the budget of %d state "
                            "copies" % (size, POWER_BUDGET))
    return xv


def _check_ae(g, x, n0, n1):
    a0, a1, _ = adjacency_pair(g)
    return _check_vector(g, x, ((a0, n0, "class-0 inequality fails"),
                                (a1, n1, "class-1 inequality fails")))


def extract_deterministic(g, x, n0, n1):
    """Encoder on the support of a 0-1 joint approximate eigenvector.

    Keeps the weight-1 states, and at each of them the first n_b
    surviving out-edges of class b in canonical order.  The result is
    deterministic whenever g is, hence has anticipation 0.
    """
    xv = _check_ae(g, x, n0, n1)
    if not set(xv) <= {0, 1}:
        raise InfeasibleVector("vector entries must be 0 or 1")
    keep = {s for s, v in zip(g.states, xv) if v == 1}
    tagged = []
    for u in g.states:
        if u not in keep:
            continue
        for b, n in ((0, n0), (1, n1)):
            cls = g.parity.class0 if b == 0 else g.parity.class1
            cands = [e for e in g.sorted_out_edges(u)
                     if e.label in cls and e.dst in keep]
            if len(cands) < n:
                raise InfeasibleVector(
                    "state %r has only %d class-%d survivors" %
                    (u, len(cands), b))
            tagged += [(Edge(e.src, e.label, e.dst), (b, slot))
                       for slot, e in enumerate(cands[:n])]
    return _assemble([s for s in g.states if s in keep], g.parity, tagged,
                     n0, n1)


def _cover_bins(weights, k, target):
    """Partition indices 0..len-1 into k >= 1 bins, each of weight >= target.

    Greedy prefix fill first; exact backtracking (largest weights first,
    empty-bin symmetry broken) as fallback.  Returns a bin index per
    item, or None after exhaustive search.
    """
    total = sum(weights)
    if total < k * target:
        return None
    # greedy: fill bins left to right from the canonical order
    assign = [0] * len(weights)
    b, acc = 0, 0
    remaining = total
    for i, w in enumerate(weights):
        assign[i] = b
        acc += w
        remaining -= w
        if b < k - 1 and acc >= target and remaining >= (k - 1 - b) * target:
            b += 1
            acc = 0
    if b == k - 1 and acc >= target:
        return assign
    # exact search
    order = sorted(range(len(weights)), key=lambda i: -weights[i])
    fills = [0] * k
    assign = [None] * len(weights)
    suffix = [0] * (len(order) + 1)
    for pos in range(len(order) - 1, -1, -1):
        suffix[pos] = suffix[pos + 1] + weights[order[pos]]

    def deficit():
        return sum(max(0, target - f) for f in fills)

    def rec(pos):
        if deficit() > suffix[pos]:
            return False
        if pos == len(order):
            return all(f >= target for f in fills)
        i = order[pos]
        tried_empty = False
        for b in range(k):
            if fills[b] == 0:
                if tried_empty:
                    continue
                tried_empty = True
            fills[b] += weights[i]
            assign[i] = b
            if rec(pos + 1):
                return True
            fills[b] -= weights[i]
            assign[i] = None
        return False

    if rec(0):
        return assign
    return None


def split_one_round(g_b, x, n_b):
    """One round of weight-consistent splitting down to unit weights.

    Each state u becomes x_u copies u@0..; its out-edges are divided
    into x_u groups whose target weights each sum to at least n_b, every
    edge into u is replicated to all copies, and each copy keeps exactly
    n_b out-edges: the first n_b by (label, target copy name), a string
    order, not the declaration order of the targets.  Raises
    SplitInfeasible when some state admits no such division, after
    exhaustive search.
    """
    xv = _check_vector(g_b, x, ((adjacency(g_b), n_b,
                                 "inequality fails for the split class"),),
                       positive=True)
    w = dict(zip(g_b.states, xv))
    edges = []
    for u in g_b.states:
        out = g_b.sorted_out_edges(u)
        assign = _cover_bins([w[e.dst] for e in out], w[u], n_b)
        if assign is None:
            raise SplitInfeasible(
                "no weight-consistent division of the out-edges of %r "
                "into %d groups of weight >= %d" % (u, w[u], n_b))
        copies = [[] for _ in range(w[u])]
        for e, i in zip(out, assign):
            copies[i] += (Edge(_copy_name(u, i), e.label, _copy_name(e.dst, j))
                          for j in range(w[e.dst]))
        for cp in copies:
            edges += sorted(cp, key=lambda e: (e.label, e.dst))[:n_b]
    return LabeledGraph([_copy_name(u, i) for u in g_b.states
                         for i in range(w[u])], edges, g_b.parity)


def merge_split_pair(e0, e1, x, matching=None):
    """Union of two per-class split graphs over shared state copies.

    Both inputs use 'parent@index' state names derived from the same
    weight vector; ``matching`` optionally renames the copies of the
    class-1 graph, as a dict parent -> permutation tuple (copy i of the
    class-1 graph becomes copy matching[parent][i]).  Edges of e0 are
    tagged class 0, edges of e1 class 1, slots in (label, target copy
    name) order per state, a string order, not the declaration order of
    the targets; identical triples arising on both sides carry both
    tags.
    """
    matching = matching or {}

    def rename(name):
        parent, idx = split_state(name)
        perm = matching.get(parent)
        if perm is not None:
            idx = perm[idx]
        return _copy_name(parent, idx)

    if {rename(s) for s in e1.states} != set(e0.states):
        raise InfeasibleVector("split graphs disagree on state copies")
    n, tagged = [0, 0], []
    for b, e_b, name in ((0, e0, lambda s: s), (1, e1, rename)):
        for s in e_b.states:
            out = sorted((Edge(name(e.src), e.label, name(e.dst))
                          for e in e_b.out_edges(s)),
                         key=lambda e: (e.label, e.dst))
            n[b] = max(n[b], len(out))
            tagged += [(e, (b, slot)) for slot, e in enumerate(out)]
    parity = e0.parity
    if e1.parity is not parity:
        parity = type(parity)(
            parity.class0 | e1.parity.class0,
            parity.class1 | e1.parity.class1,
        )
    return _assemble(e0.states, parity, tagged, *n)


def _blocks(cands, x_u, n, home):
    """x_u blocks of n candidates: an element ``home`` names goes to
    that block, ahead of the rest, which fill the blocks in order;
    surplus dropped."""
    groups = [[] for _ in range(x_u)]
    free = []
    for el in cands:
        i = home.get(el)
        (free if i is None else groups[i]).append(el)
    pos = 0
    for grp in groups:
        k = n - len(grp)
        grp += free[pos:pos + k]
        pos += k
    return groups


def stether(g, x, n0, n1):
    """Encoder with x_u copies per state, driven by candidate blocks.

    The class-b candidates of u are its class-b symbols in sorted order,
    each expanded to one element (a, j) per copy j of the symbol's
    target.  The class with the smaller degree (class 0 on a tie) is cut
    into consecutive blocks of n_b, and copy i of u takes block i; the
    other class pins each shared element to the block the first gave
    it, then fills its blocks from its remaining candidates in order.
    Element (a, j) in block i becomes an edge from copy i to copy j of
    the symbol's target, tagged (b, position in block), so a shared
    symbol is one edge carrying a tag of each class.
    """
    if not g.deterministic:
        raise NotDeterministic("stethering needs a deterministic graph")
    xv = _check_ae(g, x, n0, n1)
    w = dict(zip(g.states, xv))
    g = _drop_zero_weight(g, xv)
    copies = {u: [_copy_name(u, i) for i in range(w[u])] for u in g.states}
    n = (n0, n1)
    lo, hi = (0, 1) if n0 <= n1 else (1, 0)
    classes = (g.parity.class0, g.parity.class1)
    tagged = []
    for u in g.states:
        out = sorted(g.out_edges(u), key=lambda e: e.label)
        cands = [[(e, j) for e in out if e.label in cls
                  for j in range(w[e.dst])] for cls in classes]
        blocks = {lo: _blocks(cands[lo], w[u], n[lo], {})}
        home = {el: i for i, grp in enumerate(blocks[lo]) for el in grp}
        blocks[hi] = _blocks(cands[hi], w[u], n[hi], home)
        for b in (0, 1):
            for src, grp in zip(copies[u], blocks[b]):
                tagged += [(Edge(src, e.label, copies[e.dst][j]), (b, slot))
                           for slot, (e, j) in enumerate(grp)]
    return _assemble([s for u in g.states for s in copies[u]], g.parity,
                     tagged, n0, n1)


def stether_punctured(g, x_plus, n0, n1):
    """Stether one degree up, then delete the top tag slot of each class.

    x_plus must be a joint approximate eigenvector at (n0+1, n1+1); the
    deleted slots remove one out-edge per class per state, leaving a
    (n0, n1) encoder.  On a strict cover its anticipation obeys the
    stethering bound at the smaller degrees.  On an overlapping cover it
    may be infinite; like every route, this one returns what it builds
    and leaves that verdict to verify.
    """
    wide = stether(g, x_plus, n0 + 1, n1 + 1)
    tagged = [(e, t) for e in wide.graph.edges for t in wide.tags[e]
              if t not in ((0, n0), (1, n1))]
    return _assemble(wide.graph.states, wide.graph.parity, tagged, n0, n1)
