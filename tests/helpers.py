"""Shared fixture graphs and frozen golden values for the test suite."""

import gc
import os
import warnings

import numpy as np

import pytest

from bimodal import (
    Edge,
    InfeasibleVector,
    LabeledGraph,
    NotDeterministic,
    ParityPartition,
    SplitInfeasible,
    TaggedEncoder,
    UnknownTag,
    adjacency,
    adjacency_pair,
    encode_stream,
    power,
    split_state,
    validate_graph,
)
from bimodal import graphs
from bimodal.construct import rll_graph
from bimodal.io import ParseError, parse_graph_file
from bimodal.spectra import _reach
from bimodal.synth import TooManyCopies, _cover_bins

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def cyclic_garbage(fn, *args):
    """(fn(*args), the number of unreachable objects it left): the call
    runs with the cyclic collector off, after a collection, so what
    gc.collect() finds afterwards is the cyclic garbage of the call."""
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        got = fn(*args)
        return got, gc.collect()
    finally:
        if collecting:
            gc.enable()


def out_edges(g, s):
    """The per-state out-edge index LabeledGraph kept before by_label
    became its one index, frozen as a reference: s's out-edges in edge
    order, as a tuple; built in one pass and kept on the graph."""
    idx = vars(g).get("_reference_out")
    if idx is None:
        grouped = {v: [] for v in g.states}
        for e in g.edges:
            grouped[e.src].append(e)
        idx = vars(g)["_reference_out"] = {v: tuple(es)
                                           for v, es in grouped.items()}
    return idx[s]


def load(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return parse_graph_file(fh.read())


def two_state():
    """Two-state graph, strict split {a,b} / {c,d}."""
    return load("twostate.cg")


def two_state_alt():
    """Same graph, alternative split {a} / {b,c,d}."""
    return validate_graph(
        ["alpha", "beta"],
        [("alpha", "a", "alpha"), ("alpha", "b", "beta"),
         ("alpha", "c", "beta"), ("beta", "d", "alpha")],
        ["a"], ["b", "c", "d"])


def quad():
    """Out-degree (2,2) encoder shape on two states."""
    return load("quad.cg")


def mixed():
    return load("mixed.cg")


def trisplit():
    return load("trisplit.cg")


def hexchain():
    return load("hexchain.cg")


def rll_16():
    """16th power of the (2,10) run-length limited graph."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return power(rll_graph(2, 10), 16)


# 11x11 per-class adjacency matrices of the 16-bit run-length graph,
# frozen as goldens (independently recomputed by rll_16 in the tests)
RLL16_A0 = np.array([
    [42, 28, 19, 12,  8,  6,  5,  4,  3,  2,  1],
    [62, 42, 28, 19, 12,  8,  6,  5,  4,  3,  2],
    [90, 62, 42, 28, 19, 12,  8,  6,  5,  4,  3],
    [89, 61, 41, 27, 18, 12,  8,  6,  5,  4,  3],
    [88, 60, 40, 26, 17, 11,  8,  6,  5,  4,  3],
    [86, 59, 39, 25, 16, 10,  7,  6,  5,  4,  3],
    [82, 57, 38, 24, 15,  9,  6,  5,  5,  4,  3],
    [75, 53, 36, 23, 14,  8,  5,  4,  4,  4,  3],
    [65, 46, 32, 21, 13,  7,  4,  3,  3,  3,  3],
    [50, 36, 25, 17, 11,  6,  3,  2,  2,  2,  2],
    [29, 21, 15, 10,  7,  4,  2,  1,  1,  1,  1],
], dtype=np.int64)

RLL16_A1 = np.array([
    [41, 29, 21, 15, 10,  7,  4,  2,  1,  1,  1],
    [60, 41, 29, 21, 15, 10,  7,  4,  2,  1,  1],
    [87, 60, 41, 29, 21, 15, 10,  7,  4,  2,  1],
    [85, 59, 41, 29, 21, 15, 10,  6,  4,  2,  1],
    [82, 57, 40, 29, 21, 15, 10,  6,  3,  2,  1],
    [78, 54, 38, 28, 21, 15, 10,  6,  3,  1,  1],
    [73, 50, 35, 26, 20, 15, 10,  6,  3,  1,  0],
    [67, 45, 31, 23, 18, 14, 10,  6,  3,  1,  0],
    [59, 39, 26, 19, 15, 12,  9,  6,  3,  1,  0],
    [47, 31, 20, 14, 11,  9,  7,  5,  3,  1,  0],
    [28, 19, 12,  8,  6,  5,  4,  3,  2,  1,  0],
], dtype=np.int64)

RLL16_X = (1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 0)

MERGED_A0 = np.array([
    [42, 28, 45, 14],
    [62, 42, 67, 18],
    [86, 59, 90, 22],
    [50, 36, 59, 9],
], dtype=np.int64)

MERGED_A1 = np.array([
    [41, 29, 53, 8],
    [60, 41, 75, 14],
    [78, 54, 102, 20],
    [47, 31, 54, 16],
], dtype=np.int64)

MERGED_X = (1, 1, 2, 1)

HEX_X = (1, 2, 3, 3)


def _hex_split(edges):
    g = hexchain()
    states = ["qa@0", "qb@0", "qb@1",
              "qc@0", "qc@1", "qc@2", "qd@0", "qd@1", "qd@2"]
    return LabeledGraph(states, [Edge(*e) for e in edges], g.parity)


def hex_split_0():
    """Class-0 split graph of the hex fixture, out-degree 2, unit weights."""
    return _hex_split([
        ("qa@0", "0", "qb@0"), ("qa@0", "0", "qb@1"),
        ("qb@0", "2", "qa@0"), ("qb@0", "4", "qc@0"),
        ("qb@1", "4", "qc@1"), ("qb@1", "4", "qc@2"),
        ("qc@0", "6", "qd@0"), ("qc@0", "8", "qd@0"),
        ("qc@1", "6", "qd@1"), ("qc@1", "6", "qd@2"),
        ("qc@2", "8", "qd@1"), ("qc@2", "8", "qd@2"),
        ("qd@0", "c", "qb@0"), ("qd@0", "c", "qb@1"),
        ("qd@1", "a", "qd@1"), ("qd@1", "a", "qd@2"),
        ("qd@2", "a", "qd@0"), ("qd@2", "e", "qa@0"),
    ])


def hex_split_1():
    """Class-1 split graph of the hex fixture (roles of qc, qd swapped)."""
    return _hex_split([
        ("qa@0", "1", "qb@0"), ("qa@0", "1", "qb@1"),
        ("qb@0", "3", "qa@0"), ("qb@0", "5", "qd@0"),
        ("qb@1", "5", "qd@1"), ("qb@1", "5", "qd@2"),
        ("qd@0", "7", "qc@0"), ("qd@0", "9", "qc@0"),
        ("qd@1", "7", "qc@1"), ("qd@1", "7", "qc@2"),
        ("qd@2", "9", "qc@1"), ("qd@2", "9", "qc@2"),
        ("qc@0", "d", "qb@0"), ("qc@0", "d", "qb@1"),
        ("qc@1", "b", "qc@1"), ("qc@1", "b", "qc@2"),
        ("qc@2", "b", "qc@0"), ("qc@2", "f", "qa@0"),
    ])


def random_graph(rng, max_states=4, strict=True, max_out=3):
    """Small random labeled graph with every state having an out-edge."""
    n = rng.integers(1, max_states + 1)
    states = ["n%d" % i for i in range(n)]
    syms = list("abcdef")
    k0 = rng.integers(1, 4)
    k1 = rng.integers(1, 3)
    p0 = syms[:k0]
    p1 = syms[k0:k0 + k1] if strict else syms[k0 - 1:k0 + k1]
    alphabet = sorted(set(p0) | set(p1))
    edges = set()
    for s in states:
        for _ in range(rng.integers(1, max_out + 1)):
            edges.add((s, alphabet[rng.integers(len(alphabet))],
                       states[rng.integers(n)]))
    return validate_graph(states, sorted(edges), p0, p1)


def random_shuffled_graph(rng, strict):
    """A graph whose state names sort unlike their indices (s10 < s2),
    with edges in random order, random multiplicities and labels that
    repeat at a state."""
    names = ["s%d" % k for k in rng.permutation(12)]
    states = names[:rng.integers(1, 6)]
    syms = list("abcdef")
    k0 = int(rng.integers(1, 4))
    p0 = syms[:k0]
    p1 = syms[k0:k0 + 2] if strict else syms[k0 - 1:k0 + 2]
    alphabet = sorted(set(p0) | set(p1))
    edges = {(u, alphabet[rng.integers(len(alphabet))],
              states[rng.integers(len(states))]): int(rng.integers(1, 4))
             for u in states for _ in range(rng.integers(1, 7))}
    order = rng.permutation(len(edges))
    listed = list(edges.items())
    return validate_graph(states, [listed[i][0] + (listed[i][1],)
                                   for i in order], p0, p1)


def random_det_graph(rng, max_states=3, strict=True):
    """Small random deterministic graph: each state reads a random
    nonempty set of distinct symbols; ``strict`` picks a strict cover,
    else one symbol is shared by both classes."""
    n = rng.integers(1, max_states + 1)
    states = ["n%d" % i for i in range(n)]
    syms = list("abcdef")
    k0 = rng.integers(1, 4)
    k1 = rng.integers(1, 3)
    p0 = syms[:k0]
    p1 = syms[k0:k0 + k1] if strict else syms[k0 - 1:k0 + k1]
    alphabet = sorted(set(p0) | set(p1))
    edges = []
    for s in states:
        for a in rng.permutation(alphabet)[:rng.integers(1, len(alphabet) + 1)]:
            edges.append((s, str(a), states[rng.integers(n)]))
    return validate_graph(states, edges, p0, p1)


def reference_check_vector(g, x, bounds, positive=False):
    """synth's vector check as it stood while it read matrices: x as
    Python ints, refused for its shape, then its signs, then _reach(a,
    x) < n for each (a, n, failure) in ``bounds`` in turn, then a sum
    past POWER_BUDGET."""
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
    if total > graphs.POWER_BUDGET:
        size = total if total.bit_length() <= 128 else (
            "of %d bits" % total.bit_length())
        raise TooManyCopies("vector sum %s passes the budget of %d state "
                            "copies" % (size, graphs.POWER_BUDGET))
    return xv


def reference_merge_states(g, weights=None):
    """merge_states as it stood before its one-pass rules: follower-set
    equality (at equal weight when weighted) to the earliest such state,
    then, per weight group of the states left, each non-minimal state to
    the first follower-minimal state strictly below it, targets resolved
    through chains of merges."""
    if not g.deterministic:
        raise NotDeterministic("merge_states needs a deterministic graph")
    wmap = None
    if weights is not None:
        if len(weights) != len(g.states):
            raise ValueError("weight vector length mismatch")
        wmap = dict(zip(g.states, (int(w) for w in weights)))
        zero = [s for s in g.states if wmap[s] == 0]
        if zero:
            warnings.warn("dropping zero-weight states: %s" % ", ".join(zero))
            g = graphs._induced(g, [s for s in g.states if wmap[s] > 0])
    g = graphs._essential(g)
    if not g.states:
        return g
    rel = graphs.follower_le(g, g)
    target = {}

    def resolve(s):
        while s in target:
            s = target[s]
        return s

    for u in g.states:
        for v in g.states:
            if v == u:
                break
            if (u, v) in rel and (v, u) in rel:
                if wmap is None or wmap[u] == wmap[v]:
                    target[u] = v
                    break
    if wmap is not None:
        groups = {}
        for s in g.states:
            if s not in target:
                groups.setdefault(wmap[s], []).append(s)
        for members in groups.values():
            if len(members) < 2:
                continue
            strictly_below = {
                u: [v for v in members if v != u
                    and (v, u) in rel and (u, v) not in rel]
                for u in members
            }
            minimal = [u for u in members if not strictly_below[u]]
            for u in members:
                if u in minimal:
                    continue
                for v in minimal:
                    if v in strictly_below[u]:
                        target[u] = v
                        break
    if not target:
        return g
    survivors = [s for s in g.states if s not in target]
    edges = [Edge(e.src, e.label, resolve(e.dst), e.mult) for e in g.edges
             if e.src not in target]
    return graphs._essential(LabeledGraph(survivors, edges, g.parity))


def reference_split_one_round(g_b, x, n_b):
    """split_one_round as it stood before its one loop per state: every
    state's division first, then each copy's first n_b edges by (label,
    target copy name)."""
    xv = reference_check_vector(
        g_b, x, ((adjacency(g_b), n_b, "inequality fails for the split "
                  "class"),), positive=True)
    w = dict(zip(g_b.states, xv))
    groups = {}
    for u in g_b.states:
        out = sorted(out_edges(g_b, u),
                     key=lambda e: (e.label, g_b.state_index(e.dst)))
        assign = _cover_bins([w[e.dst] for e in out], w[u], n_b)
        if assign is None:
            raise SplitInfeasible(
                "no weight-consistent division of the out-edges of %r "
                "into %d groups of weight >= %d" % (u, w[u], n_b))
        per = [[] for _ in range(w[u])]
        for e, b in zip(out, assign):
            per[b].append(e)
        groups[u] = per
    states = ["%s@%d" % (u, i) for u in g_b.states for i in range(w[u])]
    edges = []
    for u in g_b.states:
        for i, grp in enumerate(groups[u]):
            expanded = sorted(
                (Edge("%s@%d" % (u, i), e.label, "%s@%d" % (e.dst, j))
                 for e in grp for j in range(w[e.dst])),
                key=lambda e: (e.label, e.dst))
            edges.extend(expanded[:n_b])
    return LabeledGraph(states, edges, g_b.parity)


def reference_cover_bins(weights, k, target):
    """synth._cover_bins as it stood before equal weights shared one bin
    order: greedy prefix fill, then backtracking by falling weight with
    only the empty-bin symmetry broken."""
    total = sum(weights)
    if total < k * target:
        return None
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


def reference_merge_split_pair(e0, e1, x, matching=None):
    """merge_split_pair as it stood before its one loop over both
    classes: class-1 copies renamed by ``matching`` and sorted into
    class-0 state order for the copy check, then each class tagged in
    its own loop, slots in (label, target copy name) order."""
    matching = matching or {}

    def rename(name):
        parent, idx = split_state(name)
        perm = matching.get(parent)
        if perm is not None:
            idx = perm[idx]
        return "%s@%d" % (parent, idx)

    states = list(e0.states)
    order = {s: i for i, s in enumerate(states)}
    e1_states = sorted((rename(s) for s in e1.states),
                       key=lambda s: order.get(s, len(order)))
    if set(e1_states) != set(states):
        raise InfeasibleVector("split graphs disagree on state copies")
    n0 = max((len(out_edges(e0, s)) for s in e0.states), default=0)
    n1 = max((len(out_edges(e1, s)) for s in e1.states), default=0)
    tags = {}
    for s in e0.states:
        for slot, e in enumerate(
                sorted(out_edges(e0, s), key=lambda e: (e.label, e.dst))):
            tags.setdefault(Edge(e.src, e.label, e.dst), []).append((0, slot))
    for s in e1.states:
        renamed = sorted((Edge(rename(e.src), e.label, rename(e.dst))
                          for e in out_edges(e1, s)),
                         key=lambda e: (e.label, e.dst))
        for slot, e in enumerate(renamed):
            tags.setdefault(e, []).append((1, slot))
    parity = e0.parity
    if e1.parity is not parity:
        parity = ParityPartition(parity.class0 | e1.parity.class0,
                                 parity.class1 | e1.parity.class1)
    return TaggedEncoder(LabeledGraph(states, list(tags), parity),
                         {e: tuple(t) for e, t in tags.items()}, n0, n1)


def with_multiplicities(rng, g, top=3):
    """g with each edge given a random multiplicity from 1 to ``top``."""
    return validate_graph(g.states, [ed[:3] + (int(rng.integers(1, top + 1)),)
                                     for ed in g.edges],
                          g.parity.class0, g.parity.class1)


def label_steps(g, reached):
    """One step from ``reached`` (state -> path count), grouped by label:
    label -> {target: path count}, labels in sorted order."""
    steps = {}
    for v, m in reached.items():
        for a, es in g.by_label[v].items():
            d = steps.setdefault(a, {})
            for e in es:
                d[e.dst] = d.get(e.dst, 0) + m * e.mult
    return {a: steps[a] for a in sorted(steps)}


def reference_label_power(g, t):
    """power(g, t) by label steps alone: from each state, depth first
    over label_steps, so the words come in sorted-symbol order; a word's
    parity set folds its symbols' classes by XOR."""
    classes = (g.parity.class0, g.parity.class1)
    class0, class1, edges = set(), set(), []

    def walk(u, word, parities, reached):
        if len(word) == t:
            label = ".".join(word)
            if 0 in parities:
                class0.add(label)
            if 1 in parities:
                class1.add(label)
            edges.extend(Edge(u, label, v, reached[v])
                         for v in sorted(reached, key=g.state_index))
            return
        for a, nxt in label_steps(g, reached).items():
            walk(u, word + (a,), {p ^ b for p in parities
                                  for b, cls in enumerate(classes)
                                  if a in cls}, nxt)

    for u in g.states:
        walk(u, (), {0}, {u: 1})
    return LabeledGraph(g.states, edges,
                        ParityPartition(frozenset(class0), frozenset(class1)))


def reference_determinize(g):
    """determinize by label steps: each subset steps once with all its
    labels, in sorted order, breadth first from the singletons."""
    seen = [frozenset([v]) for v in g.states]
    index = set(seen)
    edges = []
    for z in seen:
        for a, reached in label_steps(g, dict.fromkeys(z, 1)).items():
            z2 = frozenset(reached)
            if z2 not in index:
                index.add(z2)
                seen.append(z2)
            edges.append((z, a, z2))
    names = {z: "{%s}" % ",".join(sorted(z, key=g.state_index))
             for z in seen}
    return LabeledGraph([names[z] for z in seen],
                        [Edge(names[a], lbl, names[b])
                         for (a, lbl, b) in edges],
                        g.parity, members={names[z]: z for z in seen})


def reference_iterates(a0, a1, n0, n1, xi):
    """Franaszek's iterates as two per-class products a round, in Python
    ints and with no early exit: the lists from xi down to the fixpoint,
    the largest x <= xi with A0 x >= n0 x and A1 x >= n1 x (a zero n_b
    drops its side), each list once."""
    rows0, rows1 = ([[int(v) for v in row] for row in np.asarray(a).tolist()]
                    for a in (a0, a1))
    x = [int(v) for v in xi]
    out = [x]
    while True:
        y = x
        for rows, n in ((rows0, n0), (rows1, n1)):
            if n > 0:
                y = [min(yu, sum(r * v for r, v in zip(row, x)) // n)
                     for yu, row in zip(y, rows)]
        if y == x:
            return out
        out.append(y)
        x = y


def reference_sweep(a0, a1, n0, n1, xi):
    """The last of reference_iterates, and zero at once for an n_b above
    A_b's largest row sum.  The array is int64 when the larger of the
    largest row sum and 1 times the largest ceiling entry fits
    graphs.INT64_MAX, object otherwise."""
    r0, r1 = (max(map(sum, np.asarray(a).tolist()), default=0)
              for a in (a0, a1))
    x = [int(v) for v in xi]
    bound = max(r0, r1, 1) * max(x, default=0)
    dtype = np.int64 if bound <= graphs.INT64_MAX else object
    if n0 > r0 or n1 > r1:
        return np.array([0] * len(x), dtype=dtype)
    return np.array(reference_iterates(a0, a1, n0, n1, x)[-1], dtype=dtype)


def reference_tables(g, t, xi_cap=64):
    """(points, n_max) of rate_region and coding_ratio from
    reference_sweep alone: each n0's n1 walks down from the last one
    (first the largest class-1 row sum) to the first with a nonzero
    greatest solution under the cap, which is the point's witness; n
    walks up while (n, n) has one."""
    a0, a1, _ = adjacency_pair(g, t)
    cap = [xi_cap] * len(a0)
    r0, n1 = (max(map(sum, a.tolist()), default=0) for a in (a0, a1))
    points = []
    for n0 in range(r0 + 1):
        while n1 >= 0:
            x = reference_sweep(a0, a1, n0, n1, cap)
            if x.any():
                break
            n1 -= 1
        else:
            break
        points.append((n0, n1, tuple(int(v) for v in x)))
    n = 0
    while reference_sweep(a0, a1, n + 1, n + 1, cap).any():
        n += 1
    return points, n


def random_matrix(rng, max_n=4, max_entry=3):
    n = rng.integers(1, max_n + 1)
    return rng.integers(0, max_entry + 1, size=(n, n)).astype(np.int64)


def block_of(tag, p):
    """The p-bit block of a (class, slot) tag: the slot's bits, then the
    bit that makes the block's parity the class."""
    cls, slot = tag
    return bin(2 * slot + (slot.bit_count() + cls) % 2)[2:].zfill(p)


def reference_block_table(e, p):
    """The even/odd construction: at each state the even-parity blocks in
    ascending binary order take the class-0 slots, the odd ones class 1.
    A tag on two edges of a state binds the first; a slot past the
    class's blocks binds none."""
    blocks = [format(i, "0%db" % p) for i in range(2 ** p)]
    lists = ([b for b in blocks if b.count("1") % 2 == 0],
             [b for b in blocks if b.count("1") % 2 == 1])
    table = {s: {} for s in e.graph.states}
    for ed in e.graph.edges:
        for cls, slot in e.tags.get(ed, ()):
            if slot < len(lists[cls]):
                table[ed.src].setdefault(lists[cls][slot], ed)
    return table


def reference_encode(e, blocks, start, policy, p):
    """encode_stream's documented rule over reference_block_table: the
    policy sends the block itself (as-tagged), the block with its first
    bit set to make it even (fixed-parity), or whichever of the two
    first bits leaves the running digital sum nearer zero, 0 on a tie
    (rds-min).  A label's channel bit keeps the level in class 0 and
    flips it otherwise.  Returns (word, end_state, rds_trace)."""
    table = reference_block_table(e, p)
    class0 = e.graph.parity.class0
    state, level, rds, word, trace = start, 1, 0, [], [0]
    for b in blocks:
        if len(b) != p or set(b) - {"0", "1"}:
            raise UnknownTag("not a %d-bit block: %r" % (p, b))
        rest = b[1:]
        sent = {"as-tagged": [b],
                "fixed-parity": [str(rest.count("1") % 2) + rest],
                "rds-min": ["0" + rest, "1" + rest]}[policy]
        best = None
        for k in sent:
            ed = table[state].get(k)
            if ed is not None:
                lv = level if ed.label in class0 else -level
                if best is None or abs(rds + lv) < abs(rds + best[1]):
                    best = (ed, lv)
        if best is None:
            raise UnknownTag("no edge for block %r at %r" % (b, state))
        ed, level = best
        rds += level
        word.append(ed.label)
        trace.append(rds)
        state = ed.dst
    return word, state, trace


def block_tag(block, p):
    """The (class, slot) tag of a p-bit block string, class its parity
    and slot the block without its last bit; None when it is not a p-bit
    string."""
    if len(block) != p or block.strip("01"):
        return None
    v = int(block, 2)
    return v.bit_count() % 2, v >> 1


def reference_encodes(e, p):
    """verify._encodes' map as it stood before it tested the slot range:
    a tag is sent when the round trip block_of -> block_tag gives it
    back, and each twin's two rows are written once per twin."""
    class0 = e.graph.parity.class0
    rows = {s: {} for s in e.graph.states}
    move = {ed: (ed.label, 1 if ed.label in class0 else -1, ed.dst,
                 rows[ed.dst]) for ed in e.graph.edges}
    for s, by_class in e._slots.items():
        held = {}
        for cls, pairs in by_class.items():
            for slot, ed in pairs:
                held.setdefault((cls, slot), move[ed])
        if p is None:
            rows[s].update((t, (mv,)) for t, mv in held.items())
            continue
        sent = {b: mv for t, mv in held.items()
                for b in (block_of(t, p),) if block_tag(b, p) == t}
        for b in sent:
            rest = b[1:]
            ks = [r + rest for r in "01"]
            twins = tuple(map(sent.get, ks))
            even = twins[rest.count("1") % 2]
            for k, own in zip(ks, twins):
                rows[s][k] = (own, even) + twins
    return rows


def encode_rows(rows):
    """An encode map as plain data, rows and entries in insertion order,
    each move as (label, sign, dst) once it is checked to hold the dst's
    own row of the map."""
    flat = []
    for s, row in rows.items():
        for k, sent in row.items():
            assert all(mv is None or mv[3] is rows[mv[2]] for mv in sent)
            flat.append((s, k, tuple(mv and mv[:3] for mv in sent)))
    return flat


def by_tag(e):
    """The tag index TaggedEncoder kept before its one slot index, frozen
    as a reference: state -> (class, slot) -> the out-edges carrying
    that tag, in out-edge order."""
    idx = {}
    for s in e.graph.states:
        d = idx[s] = {}
        for ed in out_edges(e.graph, s):
            for t in e.tags.get(ed, ()):
                d.setdefault(t, []).append(ed)
    return idx


def table_encode(e, tags, start, policy="as-tagged", p=None):
    """encode_stream over a send table and the by_tag rows.  The table
    maps each input to the tags the policy may send for it: a raw tag
    itself, or the block (as-tagged), its even twin (fixed-parity) or
    both reserved-bit twins (rds-min), the inputs being the blocks of the
    encoder's tags and their twins.  At each block the move is the first
    edge by_tag lists for a sent tag, and rds-min takes the 1 twin only
    when it leaves the running digital sum strictly nearer zero.  Skips
    encode_stream's argument checks.  Returns (word, end_state,
    rds_trace), or raises UnknownTag with encode_stream's message."""
    tags = list(tags)
    if not tags:
        return [], start, [0]
    block_mode = isinstance(tags[0], str)
    if block_mode and p is None:
        p = len(tags[0])

    def tag_of(block):
        return block_tag(block, p)

    rows = by_tag(e)
    known = {t for row in rows.values() for t in row}
    if block_mode:
        policies = {
            "as-tagged": lambda k: (k,),
            "fixed-parity": lambda k: (str(k[1:].count("1") % 2) + k[1:],),
            "rds-min": lambda k: ("0" + k[1:], "1" + k[1:])}
        inputs = {r + b[1:] for t in known for b in (block_of(t, p),)
                  if tag_of(b) == t for r in "01"}
        sends = {k: tuple(map(tag_of, policies[policy](k))) for k in inputs}
    else:
        sends = {t: (t,) for t in known}
    class0 = e.graph.parity.class0
    state, level, rds, word, trace = start, 1, 0, [], [0]
    for t in tags:
        row = rows[state]
        move = None
        for tag in sends.get(t, ()):
            edges = row.get(tag)
            if edges:
                lv = level if edges[0].label in class0 else -level
                if move is None or abs(rds + lv) < abs(move[2]):
                    move = (edges[0], lv, rds + lv)
        if move is None:
            raise UnknownTag("no edge for %s %r at %r"
                             % ("block" if block_mode else "tag", t, state))
        edge, level, rds = move
        word.append(edge.label)
        trace.append(rds)
        state = edge.dst
    return word, state, trace


def check_block_table(e, p):
    """reference_block_table(e, p), after checking that encode_stream
    agrees with reference_encode: on every p-bit block at every state
    under each policy, on a random block stream from every state, and in
    refusing blocks that are not p-bit binary strings."""
    table = reference_block_table(e, p)
    rng = np.random.default_rng(0)
    blocks = [format(i, "0%db" % p) for i in range(2 ** p)]
    stream = [blocks[i] for i in rng.integers(2 ** p, size=64)]
    bad = ["2" + "0" * (p - 1), "x" * p, "0" * (p + 1), "0" * (p - 1),
           " " + "1" * (p - 1)]
    for s in e.graph.states:
        for block in blocks:
            ed = table[s][block]
            assert encode_stream(e, [block], s)[:2] == ([ed.label], ed.dst)
        for policy in ("as-tagged", "fixed-parity", "rds-min"):
            for block in blocks:
                assert (encode_stream(e, [block], s, policy=policy)
                        == reference_encode(e, [block], s, policy, p))
            assert (encode_stream(e, stream, s, policy=policy)
                    == reference_encode(e, stream, s, policy, p))
            for block in bad:
                with pytest.raises(UnknownTag):
                    encode_stream(e, [block], s, policy=policy, p=p)
    return table


def reference_decode(e, word, start, a, p=None):
    """decode_stream's documented rule by plain set stepping.

    At each position the candidates are the edges leaving the current
    state with the position's label whose targets can go on to read the
    next a labels, a the encoder's anticipation (fewer at the end of the
    word).  Several remain only in a truncated window: the one with the
    least raw tag is taken (untagged last, then out-edge order) and
    flagged provisional.  The decoded tag is the edge's least raw tag,
    or its least block in reference_block_table.  Returns (the
    (tag, provisional) pairs, the position where decoding stops or
    None): it stops where no edge matches or the edge taken is
    untagged.
    """
    g = e.graph
    table = reference_block_table(e, p) if p is not None else None
    state = start
    out = []
    for i, label in enumerate(word):
        cands = []
        for ed in out_edges(g, state):
            reach = {ed.dst} if ed.label == label else set()
            for b in word[i + 1:i + 1 + a]:
                reach = {x.dst for z in reach for x in out_edges(g, z)
                         if x.label == b}
            if reach:
                cands.append(ed)
        if not cands:
            return out, i
        edge = min(cands, key=lambda ed: min(e.tags.get(ed) or [(2, 0)]))
        tags = e.tags.get(edge)
        if not tags:
            return out, i
        if table is not None:
            tags = [b for b, ed in table[state].items() if ed == edge]
        out.append((min(tags), len(cands) > 1))
        state = edge.dst
    return out, None


# The encoder file reader, writer and checks as they were before the
# one-pass reader, frozen as references: one generator of stripped
# lines, the directive branches in grammar order, tags collected into
# lists and all sorted; the writer sorts the edges once for the graph
# lines and once more for the tag lines; presents_subset keys its word
# memo by (state set, label); the degree rule reads by_tag.


def _reference_lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def reference_parse(text):
    """io._parse before the one-pass reader."""
    states = []
    parity0 = []
    parity1 = []
    edges = []
    tags = []
    seen = set()
    for no, line in _reference_lines(text):
        if ":" not in line:
            raise ParseError(no, "missing ':' directive")
        key, _, rest = line.partition(":")
        key = key.strip()
        fields = rest.split()
        if key == "states":
            states.extend(fields)
        elif key == "parity0":
            parity0.extend(fields)
        elif key == "parity1":
            parity1.extend(fields)
        elif key == "edge":
            if len(fields) not in (3, 4):
                raise ParseError(no, "edge needs 3 or 4 fields")
            mult = 1
            if len(fields) == 4:
                try:
                    mult = int(fields[3])
                except ValueError:
                    raise ParseError(no, "bad multiplicity %r" % fields[3])
            edges.append((fields[0], fields[1], fields[2], mult))
        elif key == "tag":
            if len(fields) != 5:
                raise ParseError(no, "tag needs 5 fields")
            try:
                cls, slot = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(no, "bad tag class/slot")
            if cls not in (0, 1) or slot < 0:
                raise ParseError(no, "bad tag class/slot")
            if (fields[0], cls, slot) in seen:
                raise ParseError(no, "duplicate tag %s %d %d"
                                 % (fields[0], cls, slot))
            seen.add((fields[0], cls, slot))
            tags.append((fields[0], cls, slot, fields[3], fields[4]))
        else:
            raise ParseError(no, "unknown directive %r" % key)
    return states, parity0, parity1, edges, tags


def _reference_validated(states, p0, p1, edges):
    try:
        return validate_graph(states, edges, p0, p1)
    except graphs.ValidationError as exc:
        raise ParseError(0, str(exc))


def reference_parse_graph_file(text):
    """io.parse_graph_file before the one-pass reader."""
    states, p0, p1, edges, tags = reference_parse(text)
    if tags:
        raise ParseError(0, "file contains tag lines; use the encoder parser")
    return _reference_validated(states, p0, p1, edges)


def reference_parse_encoder_file(text):
    """io.parse_encoder_file before the one-pass reader."""
    states, p0, p1, edges, tags = reference_parse(text)
    g = _reference_validated(states, p0, p1, edges)
    index = {(e.src, e.label, e.dst): e for e in g.edges}
    tag_map = {}
    n = [0, 0]
    for (src, cls, slot, label, dst) in tags:
        e = index.get((src, label, dst))
        if e is None:
            raise ParseError(0, "tag refers to missing edge %s %s %s"
                             % (src, label, dst))
        tag_map.setdefault(e, []).append((cls, slot))
        n[cls] = max(n[cls], slot + 1)
    return TaggedEncoder(g, {e: tuple(sorted(t)) for e, t in tag_map.items()},
                         n[0], n[1])


def reference_serialize_encoder(enc):
    """io.serialize_encoder before the one sort: graph lines, then the
    tag lines from a second sort of the edges."""
    g = enc.graph
    out = ["states: %s" % " ".join(g.states),
           "parity0: %s" % " ".join(sorted(g.parity.class0)),
           "parity1: %s" % " ".join(sorted(g.parity.class1))]
    def key(e):
        return g.state_index(e.src), e.label, g.state_index(e.dst)

    for e in sorted(g.edges, key=key):
        mult = "" if e.mult == 1 else " %d" % e.mult
        out.append("edge: %s %s %s%s" % (e.src, e.label, e.dst, mult))
    for e in sorted(g.edges, key=key):
        for (cls, slot) in sorted(enc.tags.get(e, ())):
            out.append("tag: %s %d %d %s %s"
                       % (e.src, cls, slot, e.label, e.dst))
    return "\n".join(out) + "\n"


def read_outcome(parse, text):
    """What a reader makes of ``text``: the encoder's graph key, tags
    and degrees (or the graph key), else the error's kind, line number
    and message."""
    try:
        got = parse(text)
    except Exception as exc:
        return (type(exc).__name__, getattr(exc, "line_no", None), str(exc))
    if isinstance(got, TaggedEncoder):
        return got.graph._key, got.tags, got.n0, got.n1
    return got._key


