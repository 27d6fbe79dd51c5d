"""Encoder construction from joint approximate eigenvectors.

Four routes are provided: direct extraction from a 0-1 vector, one
round of weight-consistent state splitting per parity class followed by
a merge of the two split graphs, stethering (tag-slot offsets computed
from running positions in the per-state candidate lists), and punctured
stethering which builds one degree higher and deletes the top tag slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    Edge,
    LabeledGraph,
    NotDeterministic,
    _drop_zero_weight,
    adjacency,
    adjacency_pair,
    is_deterministic,
)

STATE_SEP = "@"


class InfeasibleVector(Exception):
    pass


class SplitInfeasible(Exception):
    pass


class InsufficientWeight(Exception):
    pass


class ArityMismatch(Exception):
    pass


@dataclass(frozen=True)
class DeltaSet:
    """Ordered out-edge candidates (symbol, target copy) for one class."""

    state: str
    parity: int
    elements: tuple


@dataclass(frozen=True)
class DeltaPartition:
    state: str
    parity: int
    groups: tuple


class TaggedEncoder:
    """Labeled graph plus input tags: (class, slot) per edge.

    Every state carries exactly n_b out-edges tagged with class b; with
    an overlapping symbol cover a single edge may hold one tag of each
    class.
    """

    def __init__(self, graph, tags, n0, n1):
        self.graph = graph
        self.tags = dict(tags)
        self.n0 = n0
        self.n1 = n1

    def tag_list(self, edge):
        return self.tags.get(edge, ())

    def class_edges(self, state, b):
        """Edges tagged with class b at state, in slot order."""
        found = []
        for e in self.graph.out_edges(state):
            for (cls, slot) in self.tags.get(e, ()):
                if cls == b:
                    found.append((slot, e))
        return [e for _, e in sorted(found)]

    def out_degrees_ok(self):
        for s in self.graph.states:
            for b, n in ((0, self.n0), (1, self.n1)):
                edges = self.class_edges(s, b)
                if len(edges) != n:
                    return False
                slots = sorted(
                    slot
                    for e in self.graph.out_edges(s)
                    for (cls, slot) in self.tags.get(e, ())
                    if cls == b
                )
                if slots != list(range(n)):
                    return False
        return True

    def __repr__(self):
        return "TaggedEncoder(%d states, n0=%d, n1=%d)" % (
            len(self.graph.states), self.n0, self.n1,
        )


def split_state(name):
    """Parse a 'parent@index' state name back into its parts."""
    parent, _, idx = name.rpartition(STATE_SEP)
    return parent, int(idx)


def _check_ae(g, x, n0, n1):
    a0, a1, _ = adjacency_pair(g)
    xv = np.asarray(x, dtype=np.int64)
    if xv.shape != (len(g.states),):
        raise InfeasibleVector("vector length does not match state count")
    if (xv < 0).any() or not xv.any():
        raise InfeasibleVector("vector must be nonnegative and nonzero")
    if n0 > 0 and not (a0 @ xv >= n0 * xv).all():
        raise InfeasibleVector("class-0 inequality fails")
    if n1 > 0 and not (a1 @ xv >= n1 * xv).all():
        raise InfeasibleVector("class-1 inequality fails")
    return xv


def extract_deterministic(g, x, n0, n1):
    """Encoder on the support of a 0-1 joint approximate eigenvector.

    Keeps the weight-1 states, and at each of them the first n_b
    surviving out-edges of class b in canonical order.  The result is
    deterministic whenever g is, hence has anticipation 0.
    """
    xv = _check_ae(g, x, n0, n1)
    if not set(int(v) for v in xv) <= {0, 1}:
        raise InfeasibleVector("vector entries must be 0 or 1")
    keep = {s for s, v in zip(g.states, xv) if v == 1}
    tags = {}
    edges = []
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
            for slot, e in enumerate(cands[:n]):
                ne = Edge(e.src, e.label, e.dst)
                if ne not in tags:
                    edges.append(ne)
                    tags[ne] = []
                tags[ne].append((b, slot))
    graph = LabeledGraph([s for s in g.states if s in keep], edges, g.parity)
    return TaggedEncoder(graph, {e: tuple(t) for e, t in tags.items()}, n0, n1)


def _cover_bins(weights, k, target):
    """Partition indices 0..len-1 into k bins, each of weight >= target.

    Greedy prefix fill first; exact backtracking (largest weights first,
    empty-bin symmetry broken) as fallback.  Returns a bin index per
    item, or None after exhaustive search.
    """
    total = sum(weights)
    if k <= 0:
        return None
    if total < k * target:
        return None
    if k == 1:
        return [0] * len(weights)
    # greedy: fill bins left to right from the canonical order
    assign = [0] * len(weights)
    b, acc = 0, 0
    remaining = total
    ok = True
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
    n_b out-edges (surplus dropped in canonical order).  Raises
    SplitInfeasible when some state admits no such division, after
    exhaustive search.
    """
    xv = np.asarray(x, dtype=np.int64)
    if xv.shape != (len(g_b.states),):
        raise InfeasibleVector("vector length does not match state count")
    if (xv <= 0).any():
        raise InfeasibleVector("splitting needs strictly positive weights")
    a = adjacency(g_b)
    if not (a @ xv >= n_b * xv).all():
        raise InfeasibleVector("inequality fails for the split class")
    w = dict(zip(g_b.states, (int(v) for v in xv)))
    groups = {}
    for u in g_b.states:
        out = g_b.sorted_out_edges(u)
        weights = [w[e.dst] for e in out]
        assign = _cover_bins(weights, w[u], n_b)
        if assign is None:
            raise SplitInfeasible(
                "no weight-consistent division of the out-edges of %r "
                "into %d groups of weight >= %d" % (u, w[u], n_b))
        per = [[] for _ in range(w[u])]
        for e, b in zip(out, assign):
            per[b].append(e)
        groups[u] = per
    states = ["%s%s%d" % (u, STATE_SEP, i)
              for u in g_b.states for i in range(w[u])]
    edges = []
    for u in g_b.states:
        for i, grp in enumerate(groups[u]):
            expanded = []
            for e in grp:
                for j in range(w[e.dst]):
                    expanded.append(Edge(
                        "%s%s%d" % (u, STATE_SEP, i),
                        e.label,
                        "%s%s%d" % (e.dst, STATE_SEP, j),
                    ))
            expanded.sort(key=lambda e: (e.label, e.dst))
            edges.extend(expanded[:n_b])
    return LabeledGraph(states, edges, g_b.parity)


def merge_split_pair(e0, e1, x, matching=None):
    """Union of two per-class split graphs over shared state copies.

    Both inputs use 'parent@index' state names derived from the same
    weight vector; ``matching`` optionally renames the copies of the
    class-1 graph, as a dict parent -> permutation tuple (copy i of the
    class-1 graph becomes copy matching[parent][i]).  Edges of e0 are
    tagged class 0, edges of e1 class 1, slots in canonical order per
    state; identical triples arising on both sides carry both tags.
    """
    matching = matching or {}

    def rename(name):
        parent, idx = split_state(name)
        perm = matching.get(parent)
        if perm is not None:
            idx = perm[idx]
        return "%s%s%d" % (parent, STATE_SEP, idx)

    states = list(e0.states)
    order = {s: i for i, s in enumerate(states)}
    e1_states = sorted((rename(s) for s in e1.states),
                       key=lambda s: order.get(s, len(order)))
    if set(e1_states) != set(states):
        raise InfeasibleVector("split graphs disagree on state copies")
    n0 = max((len(e0.out_edges(s)) for s in e0.states), default=0)
    n1 = max((len(e1.out_edges(s)) for s in e1.states), default=0)
    tags = {}
    edges = []

    def add(e, tag):
        if e not in tags:
            tags[e] = []
            edges.append(e)
        tags[e].append(tag)

    for s in e0.states:
        for slot, e in enumerate(
                sorted(e0.out_edges(s), key=lambda e: (e.label, e.dst))):
            add(Edge(e.src, e.label, e.dst), (0, slot))
    for s in e1.states:
        renamed = [Edge(rename(e.src), e.label, rename(e.dst))
                   for e in e1.out_edges(s)]
        renamed.sort(key=lambda e: (e.label, e.dst))
        for slot, e in enumerate(renamed):
            add(e, (1, slot))
    parity = e0.parity
    if e1.parity is not parity:
        parity = type(parity)(
            parity.class0 | e1.parity.class0,
            parity.class1 | e1.parity.class1,
        )
    graph = LabeledGraph(states, edges, parity)
    return TaggedEncoder(graph, {e: tuple(t) for e, t in tags.items()},
                         n0, n1)


def build_delta(g, x, u, b):
    """Candidate list for state u and class b: (symbol, target copy).

    Symbols of class b leaving u in sorted order, each expanded to one
    element per copy of its target; g must be deterministic so the
    symbol determines the target.
    """
    if not is_deterministic(g):
        raise NotDeterministic("candidate lists need a deterministic graph")
    w = dict(zip(g.states, (int(v) for v in x)))
    cls = g.parity.class0 if b == 0 else g.parity.class1
    elements = []
    for e in sorted(g.out_edges(u), key=lambda e: e.label):
        if e.label in cls:
            for j in range(w[e.dst]):
                elements.append((e.label, j))
    return DeltaSet(u, b, tuple(elements))


def stether_partition(delta, x, n_b):
    """Divide a candidate list into consecutive blocks of size n_b.

    Copy i of the state receives elements [i*n_b, (i+1)*n_b); surplus
    elements past x_u * n_b are discarded.
    """
    x_u = int(x[delta.state]) if isinstance(x, dict) else int(x)
    if len(delta.elements) < n_b * x_u:
        raise InsufficientWeight(
            "state %r class %d has %d candidates, needs %d" %
            (delta.state, delta.parity, len(delta.elements), n_b * x_u))
    groups = tuple(
        tuple(delta.elements[i * n_b:(i + 1) * n_b]) for i in range(x_u)
    )
    return DeltaPartition(delta.state, delta.parity, groups)


def stether(g, x, n0, n1, partitions=None):
    """Encoder with x_u copies per state, driven by candidate blocks.

    Copy i of u gets, for each class b, the i-th block of the class-b
    candidate list; element (a, j) becomes an edge to copy j of the
    symbol's target, tagged (b, position in block).  Custom
    ``partitions`` (a dict keyed by (state, class)) override the
    consecutive-block default; with an overlapping cover they must agree
    on shared symbols for the result to keep one edge per element.
    """
    if not is_deterministic(g):
        raise NotDeterministic("stethering needs a deterministic graph")
    xv = _check_ae(g, x, n0, n1)
    w = dict(zip(g.states, (int(v) for v in xv)))
    g = _drop_zero_weight(g, xv)
    xv = [w[u] for u in g.states]
    states = ["%s%s%d" % (u, STATE_SEP, i)
              for u in g.states for i in range(w[u])]
    tags = {}
    edges = []
    for u in g.states:
        for b, n in ((0, n0), (1, n1)):
            part = None
            if partitions is not None:
                part = partitions.get((u, b))
            if part is None:
                part = stether_partition(build_delta(g, xv, u, b), w[u], n)
            for i, grp in enumerate(part.groups):
                for slot, (a, j) in enumerate(grp):
                    e = Edge("%s%s%d" % (u, STATE_SEP, i), a,
                             "%s%s%d" % (g.by_label[u][a][0].dst,
                                         STATE_SEP, j))
                    if e not in tags:
                        tags[e] = []
                        edges.append(e)
                    tags[e].append((b, slot))
    graph = LabeledGraph(states, edges, g.parity)
    return TaggedEncoder(graph, {e: tuple(t) for e, t in tags.items()},
                         n0, n1)


def stether_punctured(g, x_plus, n0, n1):
    """Stether one degree up, then delete the top tag slot of each class.

    x_plus must be a joint approximate eigenvector at (n0+1, n1+1); the
    deleted slots remove one out-edge per class per state, leaving a
    (n0, n1) encoder whose anticipation obeys the stethering bound at
    the smaller degrees.
    """
    wide = stether(g, x_plus, n0 + 1, n1 + 1)
    tags = {}
    edges = []
    for e in wide.graph.edges:
        kept = tuple(t for t in wide.tags[e]
                     if t not in ((0, n0), (1, n1)))
        if kept:
            edges.append(e)
            tags[e] = kept
    graph = LabeledGraph(wide.graph.states, edges, wide.graph.parity)
    return TaggedEncoder(graph, tags, n0, n1)


def cover_consistent_partition(g, x, n0, n1):
    """Block divisions agreeing on shared symbols, for overlapping covers.

    The class with the smaller degree is divided into consecutive blocks
    first; every shared element is then pinned to the same block index
    on the other class, whose blocks are filled up to size from the
    untaken elements in order.  Returns a dict keyed by (state, class).
    """
    if not is_deterministic(g):
        raise NotDeterministic("partitioning needs a deterministic graph")
    xv = _check_ae(g, x, n0, n1)
    w = dict(zip(g.states, (int(v) for v in xv)))
    lo, hi = (0, 1) if n0 <= n1 else (1, 0)
    n_lo, n_hi = (n0, n1) if n0 <= n1 else (n1, n0)
    out = {}
    for u in g.states:
        if w[u] == 0:
            continue
        d_lo = build_delta(g, xv, u, lo)
        p_lo = stether_partition(d_lo, w[u], n_lo)
        out[(u, lo)] = p_lo
        d_hi = build_delta(g, xv, u, hi)
        hi_set = set(d_hi.elements)
        groups = []
        pinned = set()
        for grp in p_lo.groups:
            forced = [el for el in grp if el in hi_set]
            groups.append(list(forced))
            pinned.update(forced)
        free = [el for el in d_hi.elements if el not in pinned]
        pos = 0
        for grp in groups:
            while len(grp) < n_hi:
                if pos >= len(free):
                    raise InsufficientWeight(
                        "state %r cannot fill class-%d blocks" % (u, hi))
                grp.append(free[pos])
                pos += 1
        out[(u, hi)] = DeltaPartition(
            u, hi, tuple(tuple(grp) for grp in groups))
    return out


def assign_block_tags(e, p):
    """Bind p-bit input blocks to edges: block parity = tag class.

    Requires n0 = n1 = 2^(p-1).  At each state the even-parity blocks in
    ascending binary order map to the class-0 slots, odd to class-1.
    Returns state -> block string -> edge.
    """
    n = 2 ** (p - 1)
    if e.n0 != n or e.n1 != n:
        raise ArityMismatch(
            "block width %d needs out-degrees %d, encoder has (%d, %d)" %
            (p, n, e.n0, e.n1))
    blocks = [format(i, "0%db" % p) for i in range(2 ** p)]
    even = [b for b in blocks if b.count("1") % 2 == 0]
    odd = [b for b in blocks if b.count("1") % 2 == 1]
    table = {}
    for s in e.graph.states:
        m = {}
        for b, blist in ((0, even), (1, odd)):
            for slot, edge in enumerate(e.class_edges(s, b)):
                m[blist[slot]] = edge
        table[s] = m
    return table
