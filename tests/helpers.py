"""Shared fixture graphs and frozen golden values for the test suite."""

import os
import warnings

import numpy as np

import pytest

from bimodal import (
    Edge,
    LabeledGraph,
    NotDeterministic,
    ParityPartition,
    TaggedEncoder,
    UnknownTag,
    adjacency_pair,
    encode_stream,
    power,
    validate_graph,
)
from bimodal import graphs
from bimodal.construct import rll_graph
from bimodal.io import parse_graph_file
from bimodal.synth import _check_ae

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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


def _candidates(g, w, u, b):
    """Class-b symbols leaving u in sorted order, each expanded to one
    (symbol, target copy) element per copy of its target."""
    cls = g.parity.class0 if b == 0 else g.parity.class1
    return tuple((e.label, j)
                 for e in sorted(g.out_edges(u), key=lambda e: e.label)
                 if e.label in cls for j in range(w[e.dst]))


def _consecutive(elements, x_u, n_b):
    """x_u consecutive blocks of n_b elements, surplus dropped."""
    return tuple(elements[i * n_b:(i + 1) * n_b] for i in range(x_u))


def _cover_consistent(g, w, u, n0, n1):
    """Both classes' blocks at u: the smaller-degree class cut into
    consecutive blocks, then each shared element pinned to the same
    block of the other class, whose blocks fill up from its untaken
    elements in order."""
    lo, hi = (0, 1) if n0 <= n1 else (1, 0)
    n_hi = max(n0, n1)
    p_lo = _consecutive(_candidates(g, w, u, lo), w[u], min(n0, n1))
    d_hi = _candidates(g, w, u, hi)
    groups = [[el for el in grp if el in d_hi] for grp in p_lo]
    pinned = {el for grp in groups for el in grp}
    free = iter([el for el in d_hi if el not in pinned])
    for grp in groups:
        while len(grp) < n_hi:
            grp.append(next(free))
    return {lo: p_lo, hi: tuple(tuple(grp) for grp in groups)}


def reference_stether(g, x, n0, n1, consistent=True):
    """Stethering by its two historical block rules: each class cut into
    consecutive blocks on its own, or (``consistent``) the cover-
    consistent division; copy i of u takes block i, element (a, j)
    becomes an edge to copy j of a's target, tagged (class, position in
    block), emitted class 0 then class 1 at each state.  Zero-weight
    states are left out."""
    if not g.deterministic:
        raise NotDeterministic("stethering needs a deterministic graph")
    w = dict(zip(g.states, _check_ae(g, x, n0, n1)))
    states = [u for u in g.states if w[u]]
    tags = {}
    for u in states:
        succ = {e.label: e.dst for e in g.out_edges(u)}
        if consistent:
            parts = _cover_consistent(g, w, u, n0, n1)
        else:
            parts = {b: _consecutive(_candidates(g, w, u, b), w[u], n)
                     for b, n in ((0, n0), (1, n1))}
        for b in (0, 1):
            for i, grp in enumerate(parts[b]):
                for slot, (a, j) in enumerate(grp):
                    e = Edge("%s@%d" % (u, i), a, "%s@%d" % (succ[a], j))
                    tags.setdefault(e, []).append((b, slot))
    graph = LabeledGraph(["%s@%d" % (u, i) for u in states
                          for i in range(w[u])], list(tags), g.parity)
    return TaggedEncoder(graph, {e: tuple(t) for e, t in tags.items()},
                         n0, n1)


def reference_punctured(g, x_plus, n0, n1, consistent=True):
    """reference_stether at (n0 + 1, n1 + 1) with the top slot of each
    class deleted."""
    wide = reference_stether(g, x_plus, n0 + 1, n1 + 1, consistent)
    tags = {}
    for e in wide.graph.edges:
        for t in wide.tags[e]:
            if t not in ((0, n0), (1, n1)):
                tags.setdefault(e, []).append(t)
    graph = LabeledGraph(wide.graph.states, list(tags), g.parity)
    return TaggedEncoder(graph, {e: tuple(t) for e, t in tags.items()},
                         n0, n1)


def reference_pair_succ(g):
    """PairGraph.succ by listing every equally labelled edge pair: (p, q)
    -> the target pairs of the pairs of edges from p and from q that
    share a label."""
    idx = g.by_label
    return {(p, q): {(e1.dst, e2.dst) for a, es1 in idx[p].items()
                     for e1 in es1 for e2 in idx[q].get(a, ())}
            for p in g.states for q in g.states}


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


def reference_follower_le(g1, g2):
    """follower_le by an edge loop: a pair whose g2 state lacks one of
    its g1 labels fails with no successors, any other pair steps each g1
    edge by the g2 edge with its label; a component fails when a member
    lacks a label or reaches a failed pair.  Returns (the relation, the
    pairs that lack a label)."""
    if not g2.deterministic:
        raise NotDeterministic("containment target must be deterministic")
    succ2 = {s: {e.label: e.dst for e in g2.out_edges(s)}
             for s in g2.states}
    succ, lacks = {}, set()
    for u in g1.states:
        es = g1.out_edges(u)
        for v, d in succ2.items():
            if all(e.label in d for e in es):
                succ[(u, v)] = {(e.dst, d[e.label]) for e in es}
            else:
                succ[(u, v)] = ()
                lacks.add((u, v))
    failed = set()
    for comp in graphs._scc(succ, succ):
        if any(n in lacks or not failed.isdisjoint(succ[n]) for n in comp):
            failed |= comp
    return set(succ) - failed, lacks


def reference_symbols(label, t, k):
    """The t symbols of k dotted parts each that ``label`` reads as a
    word of power(g, t), for g whose symbols all have k parts; none when
    it has other than t·k parts.  At t=1 the label is the symbol."""
    if t == 1:
        return (label,)
    parts = label.split(".")
    if len(parts) != t * k:
        return ()
    if k == 1:
        return parts
    return [".".join(parts[i:i + k]) for i in range(0, t * k, k)]


def random_matrix(rng, max_n=4, max_entry=3):
    n = rng.integers(1, max_n + 1)
    return rng.integers(0, max_entry + 1, size=(n, n)).astype(np.int64)


def reference_block_table(e, p):
    """The even/odd construction: at each state the even-parity blocks in
    ascending binary order take the class-0 slots, the odd ones class 1."""
    blocks = [format(i, "0%db" % p) for i in range(2 ** p)]
    lists = ([b for b in blocks if b.count("1") % 2 == 0],
             [b for b in blocks if b.count("1") % 2 == 1])
    table = {s: {} for s in e.graph.states}
    for ed in e.graph.edges:
        for cls, slot in e.tags.get(ed, ()):
            table[ed.src][lists[cls][slot]] = ed
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
        for ed in g.out_edges(state):
            reach = {ed.dst} if ed.label == label else set()
            for b in word[i + 1:i + 1 + a]:
                reach = {x.dst for z in reach for x in g.out_edges(z)
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
