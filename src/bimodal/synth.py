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
    _positive_states,
)

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


def _check_vector(g, x, bounds, positive=False):
    """x as Python ints, once it has one entry per state of g, positive
    entries (``positive``) or nonnegative ones not all zero, and A x >=
    n x for each (out, n, failure) in ``bounds``; else InfeasibleVector.
    (A x)_u sums mult * x_dst over the edges out[u] that A counts, in
    exact ints and with no matrix: on a deterministic graph, u's (edge,
    target copy) candidates.  A sum past POWER_BUDGET, the state copies
    an encoder would name, raises TooManyCopies, naming the budget."""
    xv = np.asarray(x)
    if xv.shape != (len(g.states),):
        raise InfeasibleVector("vector length does not match state count")
    xv = [int(v) for v in xv.tolist()]
    if positive and min(xv, default=1) < 1:
        raise InfeasibleVector("splitting needs strictly positive weights")
    if not positive and (min(xv, default=0) < 0 or not any(xv)):
        raise InfeasibleVector("vector must be nonnegative and nonzero")
    w = dict(zip(g.states, xv))
    for out, n, failure in bounds:
        if any(sum([e.mult * w[e.dst] for e in out[u]]) < n * xu
               for u, xu in w.items() if xu):
            raise InfeasibleVector(failure)
    total = sum(xv)
    if total > POWER_BUDGET:
        # a sum too long to print is named by its size
        size = total if total.bit_length() <= 128 else (
            "of %d bits" % total.bit_length())
        raise TooManyCopies("vector sum %s passes the budget of %d state "
                            "copies" % (size, POWER_BUDGET))
    return xv


def _check_ae(g, x, n0, n1, key):
    """(xv, out): x once _check_vector accepts it at degrees (n0, n1),
    and out[b], each state's class-b out-edges sorted by ``key``, which
    (A_b x)_u counts; each state's out-edges are read once."""
    srt = {u: sorted(g.out_edges(u), key=key) for u in g.states}
    out = [{u: [e for e in es if e.label in cls] for u, es in srt.items()}
           for cls in (g.parity.class0, g.parity.class1)]
    return _check_vector(g, x, ((out[0], n0, "class-0 inequality fails"),
                                (out[1], n1, "class-1 inequality fails"))), out


def extract_deterministic(g, x, n0, n1):
    """Encoder on the support of a 0-1 joint approximate eigenvector.

    Keeps the weight-1 states, and at each of them the first n_b
    surviving out-edges of class b in canonical order.  The result is
    deterministic whenever g is, hence has anticipation 0.
    """
    xv, out = _check_ae(g, x, n0, n1, g.edge_key)
    if not set(xv) <= {0, 1}:
        raise InfeasibleVector("vector entries must be 0 or 1")
    states = [s for s, v in zip(g.states, xv) if v == 1]
    keep = set(states)
    tags = {}
    for u in states:
        for b, n in ((0, n0), (1, n1)):
            cands = [e for e in out[b][u] if e.dst in keep]
            if len(cands) < n:
                raise InfeasibleVector(
                    "state %r has only %d class-%d survivors" %
                    (u, len(cands), b))
            for slot, e in enumerate(cands[:n]):
                e = Edge(e.src, e.label, e.dst)
                tags[e] = tags.get(e, ()) + ((b, slot),)
    return TaggedEncoder(LabeledGraph(states, tags, g.parity), tags, n0, n1)


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
    out = {u: g_b.out_edges(u) for u in g_b.states}
    xv = _check_vector(g_b, x, ((out, n_b,
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
    n, tags = [0, 0], {}
    for b, e_b, name in ((0, e0, lambda s: s), (1, e1, rename)):
        for s in e_b.states:
            out = sorted((Edge(name(e.src), e.label, name(e.dst))
                          for e in e_b.out_edges(s)),
                         key=lambda e: (e.label, e.dst))
            n[b] = max(n[b], len(out))
            for slot, e in enumerate(out):
                tags[e] = tags.get(e, ()) + ((b, slot),)
    parity = e0.parity
    if e1.parity is not parity:
        parity = type(parity)(
            parity.class0 | e1.parity.class0,
            parity.class1 | e1.parity.class1,
        )
    return TaggedEncoder(LabeledGraph(e0.states, tags, parity), tags, *n)


def _blocks(cands, x_u, n, home):
    """x_u blocks of n candidates: an element ``home`` names goes to
    that block, ahead of the rest, which fill the blocks in order;
    surplus dropped."""
    groups = [[] for _ in range(x_u)]
    free = cands
    if home:
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

    On a deterministic graph u has (A_b x)_u class-b candidates, so x is
    checked on the out-edges listed for them.  A zero-weight state gets
    no copy, with a warning naming it, and no candidate leads to it.
    """
    if not g.deterministic:
        raise NotDeterministic("stethering needs a deterministic graph")
    xv, out = _check_ae(g, x, n0, n1, lambda e: e.label)
    live = _positive_states(g.states, xv)
    copies = {u: [_copy_name(u, i) for i in range(v)]
              for u, v in zip(g.states, xv)}
    lo, hi = (0, 1) if n0 <= n1 else (1, 0)
    n = (n0, n1)
    # the tag tuples ((b, slot),), one per class and slot
    slots = [[((b, i),) for i in range(n[b])] for b in (0, 1)]
    shared = g.parity.class0 & g.parity.class1
    new = tuple.__new__
    tags = {}
    for u in live:
        x_u = len(copies[u])
        cands = [[(e.label, c) for e in out[b][u] for c in copies[e.dst]]
                 for b in (0, 1)]
        blocks = {lo: _blocks(cands[lo], x_u, n[lo], {})}
        home = {el: i for i, grp in enumerate(blocks[lo])
                for el in grp} if shared else {}
        blocks[hi] = _blocks(cands[hi], x_u, n[hi], home)
        for b in (0, 1):
            for src, grp in zip(copies[u], blocks[b]):
                for held, (a, dst) in zip(slots[b], grp):
                    e = new(Edge, (src, a, dst, 1))
                    tags[e] = tags.get(e, ()) + held
    states = [s for u in live for s in copies[u]]
    return TaggedEncoder(LabeledGraph(states, tags, g.parity), tags, n0, n1)


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
    top = ((0, n0), (1, n1))
    tags = {}
    for e, held in wide.tags.items():
        if top[0] in held or top[1] in held:
            held = tuple(t for t in held if t not in top)
        if held:
            tags[e] = held
    return TaggedEncoder(LabeledGraph(wide.graph.states, tags,
                                      wide.graph.parity), tags, n0, n1)
