"""Labeled directed graphs whose alphabet carries a two-class parity cover.

The graph model underlies everything else in the package: subgraph
restriction by parity class, graph powers with word labels, adjacency
matrices split by class, and the structural procedures (determinization,
irreducibility, period, memory, state merging) used by the encoder
construction and verification layers.  The shared primitives live here
once: strongly connected components, the per-state label index and
subset step, the synchronized pair graph, and induced subgraphs.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

WORD_SEP = "."


class ValidationError(Exception):
    """Raised with the full list of structural violations found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NotIrreducible(Exception):
    pass


class NotDeterministic(Exception):
    pass


@dataclass(frozen=True)
class Finite:
    value: int


@dataclass(frozen=True)
class Infinite:
    # certificate is advisory; two Infinite results compare equal regardless
    certificate: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class Unknown:
    bound: int


class Edge(NamedTuple):
    src: str
    label: str
    dst: str
    mult: int = 1


@dataclass(frozen=True)
class ParityPartition:
    """Cover of the alphabet by two symbol classes.

    The cover is strict (a partition) when the classes are disjoint;
    overlapping covers are allowed and a shared symbol belongs to both
    classes.
    """

    class0: frozenset
    class1: frozenset

    @property
    def alphabet(self):
        return self.class0 | self.class1

    @property
    def strict(self):
        return not (self.class0 & self.class1)

    def classes_of(self, symbol):
        """Parity bits the symbol may carry, as a tuple drawn from (0, 1)."""
        out = []
        if symbol in self.class0:
            out.append(0)
        if symbol in self.class1:
            out.append(1)
        return tuple(out)


class LabeledGraph:
    """Immutable labeled graph with a fixed state order.

    States keep their declaration order; matrices and canonical edge
    orderings are derived from it.  Parallel edges with the same source,
    label and target are modeled by the ``mult`` field of a single Edge
    (only graph powers produce multiplicities greater than one).
    """

    def __init__(self, states, edges, parity, members=None):
        self.states = tuple(states)
        self.edges = tuple(edges)
        self.parity = parity
        # subset-construction provenance: state name -> frozenset of
        # original states; None for graphs not built by determinize()
        self.members = members
        self._index = {s: i for i, s in enumerate(self.states)}
        out = {s: [] for s in self.states}
        for e in self.edges:
            out[e.src].append(e)
        self._out = {s: tuple(v) for s, v in out.items()}
        self._key = (self.states, self.edges, self.parity)

    @property
    def alphabet(self):
        return self.parity.alphabet

    def state_index(self, s):
        return self._index[s]

    def out_edges(self, s):
        return self._out[s]

    def edge_key(self, e):
        return (self._index[e.src], e.label, self._index[e.dst])

    def sorted_out_edges(self, s):
        return sorted(self._out[s], key=self.edge_key)

    @functools.cached_property
    def by_label(self):
        """Label index: state -> label -> its out-edges with that label,
        labels in first-seen order, edges in out-edge order."""
        idx = {}
        for s, es in self._out.items():
            d = idx[s] = {}
            for e in es:
                d.setdefault(e.label, []).append(e)
        return idx

    def __eq__(self, other):
        return isinstance(other, LabeledGraph) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "LabeledGraph(%d states, %d edges)" % (
            len(self.states),
            len(self.edges),
        )


def validate_graph(states, edges, parity0, parity1, allow_mult=False,
                   allow_words=False):
    """Build a LabeledGraph, collecting every violation before failing.

    ``edges`` is an iterable of (src, label, dst) or (src, label, dst,
    mult) tuples.  Duplicate (src, label, dst) triples are rejected;
    multiplicities above one are rejected unless ``allow_mult`` is set
    (graph powers are the sanctioned producer of multiplicities), and
    dotted word symbols unless ``allow_words`` is set (for reloading a
    serialized power graph).
    """
    violations = []
    states = list(states)
    seen = set()
    for s in states:
        if s in seen:
            violations.append("duplicate state %r" % s)
        seen.add(s)
    p0 = frozenset(parity0)
    p1 = frozenset(parity1)
    if not p0:
        violations.append("parity class 0 is empty")
    if not p1:
        violations.append("parity class 1 is empty")
    if not allow_words:
        for a in p0 | p1:
            if WORD_SEP in a:
                violations.append(
                    "symbol %r contains reserved %r" % (a, WORD_SEP))
    alphabet = p0 | p1
    built = []
    triples = set()
    for raw in edges:
        e = Edge(*raw)
        if e.src not in seen:
            violations.append("edge source %r is not a state" % e.src)
        if e.dst not in seen:
            violations.append("edge target %r is not a state" % e.dst)
        if e.label not in alphabet:
            violations.append("edge label %r is not in either class" % e.label)
        if e.mult < 1:
            violations.append("edge %s has non-positive multiplicity" % (e,))
        if e.mult > 1 and not allow_mult:
            violations.append("edge %s has multiplicity > 1" % (e,))
        t = (e.src, e.label, e.dst)
        if t in triples:
            violations.append("duplicate edge %s %s %s" % t)
        triples.add(t)
        built.append(e)
    if violations:
        raise ValidationError(violations)
    return LabeledGraph(states, built, ParityPartition(p0, p1))


def parity_subgraph(g, b):
    """Restriction of g to the edges whose label lies in class b."""
    cls = g.parity.class0 if b == 0 else g.parity.class1
    return LabeledGraph(
        g.states, [e for e in g.edges if e.label in cls], g.parity
    )


def _word_parities(parity, word):
    ps = {0}
    for a in word:
        cs = parity.classes_of(a)
        ps = {p ^ c for p in ps for c in cs}
    return ps


def power(g, t):
    """t-th graph power: edges are t-step paths labeled by their words.

    Word labels join the step symbols with ".".  A word's parity is the
    XOR of its symbol parities; with an overlapping cover a word can land
    in both classes.  Parallel paths with the same word and endpoints are
    folded into the multiplicity field.
    """
    if t < 1:
        raise ValueError("power exponent must be >= 1")
    agg = {}
    for u in g.states:
        frontier = {(u, ()): 1}
        for _ in range(t):
            nxt = {}
            for (v, word), m in frontier.items():
                for e in g.out_edges(v):
                    key = (e.dst, word + (e.label,))
                    nxt[key] = nxt.get(key, 0) + m * e.mult
            frontier = nxt
        for (v, word), m in frontier.items():
            agg[(u, word, v)] = agg.get((u, word, v), 0) + m
    class0 = set()
    class1 = set()
    edges = []
    for (u, word, v), m in sorted(
        agg.items(), key=lambda kv: (g.state_index(kv[0][0]), kv[0][1],
                                     g.state_index(kv[0][2]))
    ):
        label = WORD_SEP.join(word)
        ps = _word_parities(g.parity, word)
        if 0 in ps:
            class0.add(label)
        if 1 in ps:
            class1.add(label)
        edges.append(Edge(u, label, v, m))
    parity = ParityPartition(frozenset(class0), frozenset(class1))
    return LabeledGraph(g.states, edges, parity)


@dataclass(frozen=True)
class AdjacencyPair:
    a0: np.ndarray
    a1: np.ndarray
    states: tuple

    def __iter__(self):
        return iter((self.a0, self.a1, self.states))


def adjacency(g):
    """Full adjacency matrix (all edges, multiplicities counted)."""
    n = len(g.states)
    m = np.zeros((n, n), dtype=np.int64)
    for e in g.edges:
        m[g.state_index(e.src), g.state_index(e.dst)] += e.mult
    return m


def adjacency_pair(g):
    """Per-class adjacency matrices; a shared symbol counts in both."""
    n = len(g.states)
    a0 = np.zeros((n, n), dtype=np.int64)
    a1 = np.zeros((n, n), dtype=np.int64)
    for e in g.edges:
        i, j = g.state_index(e.src), g.state_index(e.dst)
        if e.label in g.parity.class0:
            a0[i, j] += e.mult
        if e.label in g.parity.class1:
            a1[i, j] += e.mult
    return AdjacencyPair(a0, a1, g.states)


def is_deterministic(g):
    for s in g.states:
        seen = set()
        for e in g.out_edges(s):
            if e.mult > 1 or e.label in seen:
                return False
            seen.add(e.label)
    return True


def _step(g, states, label):
    """States reached from ``states`` along one edge labelled ``label``."""
    idx = g.by_label
    return frozenset(e.dst for s in states for e in idx[s].get(label, ()))


def _scc(states, succ):
    """Iterative Tarjan over ``succ[v]``; components come out in reverse
    topological order, so every component after those it reaches."""
    index = {}
    low = {}
    onstack = {}
    stack = []
    comps = []
    counter = [0]
    for root in states:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                elif onstack.get(w):
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
    return comps


def irreducible_components(g):
    """Strongly connected components as induced subgraphs.

    Returns a list of (subgraph, is_sink) pairs in state-declaration
    order of their first member.  A component is a sink when no edge
    leaves it.  Trivial components (single state, no self-loop) are
    included.
    """
    succs = {s: sorted({e.dst for e in g.out_edges(s)},
                       key=g.state_index) for s in g.states}
    comps = _scc(g.states, succs)
    comps.sort(key=lambda c: min(g.state_index(s) for s in c))
    return [(_induced(g, comp),
             all(e.dst in comp for s in comp for e in g.out_edges(s)))
            for comp in comps]


def period(g):
    """gcd of cycle lengths; the graph must be irreducible with edges."""
    comps = irreducible_components(g)
    if len(comps) != 1 or not g.edges:
        raise NotIrreducible("period is defined for irreducible graphs")
    # a single trivial component with no self-loop has no cycles at all
    level = {g.states[0]: 0}
    queue = [g.states[0]]
    while queue:
        v = queue.pop()
        for e in g.out_edges(v):
            if e.dst not in level:
                level[e.dst] = level[v] + 1
                queue.append(e.dst)
    p = 0
    for e in g.edges:
        p = math.gcd(p, level[e.src] + 1 - level[e.dst])
    return p


def _same_edge(e1, e2):
    """One path, not two: equal edges of multiplicity one."""
    return e1 == e2 and e1.mult == 1


class PairGraph:
    """Synchronized product of a graph with itself, over ordered pairs.

    Transitions pair up equally labeled edges.  ``ext`` gives, per pair,
    the longest synchronized walk length leaving it (math.inf when a
    cycle is reachable).
    """

    def __init__(self, g):
        self.g = g
        idx = g.by_label
        self.nodes = [(p, q) for p in g.states for q in g.states]
        self.succ = {
            (p, q): [(a, e1, e2) for a, es1 in idx[p].items()
                     for e1 in es1 for e2 in idx[q].get(a, ())]
            for (p, q) in self.nodes
        }
        self._ext = None

    def edge_pairs(self, p, q):
        """Distinct equally labeled edge pairs leaving (p, q).

        When p == q a pair must use two genuinely different edges; an
        edge of multiplicity > 1 counts as its own partner.
        """
        return [(e1, e2) for (_, e1, e2) in self.succ[(p, q)]
                if not _same_edge(e1, e2)]

    def ext(self):
        if self._ext is None:
            kids = {n: [(e1.dst, e2.dst) for (_, e1, e2) in step]
                    for n, step in self.succ.items()}
            longest = {}
            # sinks come first, so every child is settled before its
            # parent; a component with a cycle is unbounded
            for comp in _scc(self.nodes, kids):
                n = next(iter(comp))
                if len(comp) > 1 or n in kids[n]:
                    v = math.inf
                else:
                    v = 1 + max((longest[k] for k in kids[n]), default=-1)
                longest.update(dict.fromkeys(comp, v))
            self._ext = longest
        return self._ext

    def reach_sets(self):
        """Decreasing chain R(0) ⊇ R(1) ⊇ ... of pairs reachable by
        synchronized walks of each length, listed up to its fixpoint."""
        sets = [frozenset(self.nodes)]
        while True:
            cur = sets[-1]
            nxt = frozenset(
                (e1.dst, e2.dst)
                for n in cur
                for (_, e1, e2) in self.succ[n]
            )
            if nxt == cur:
                break
            sets.append(nxt)
        return sets


def memory(g, mu_max=64):
    """Smallest m such that equal words of length m force equal endpoints.

    Scans the pair graph's reach chain: the set of state pairs reachable
    by equal-word walks of length k shrinks with k; memory is the first
    k at which no distinct pair remains.  A surviving distinct pair at
    the fixpoint means the memory is infinite.
    """
    sets = PairGraph(g).reach_sets()
    for k, pairs in enumerate(sets):
        if all(p == q for (p, q) in pairs):
            return Finite(k)
        if k >= mu_max:
            return Unknown(mu_max)
    bad = sorted((p, q) for (p, q) in sets[-1] if p != q)
    return Infinite(tuple(bad[:4]))


def _subset_name(g, members):
    return "{%s}" % ",".join(sorted(members, key=g.state_index))


def determinize(g):
    """Subset construction over all single-state starts.

    Output states are the distinct nonempty sets of states reachable
    from some singleton by a common word; each records its member set in
    ``members``.  The result is deterministic and presents the same
    words.
    """
    seen = []
    queue = []
    index = set()
    for v in g.states:
        z = frozenset([v])
        if z not in index:
            index.add(z)
            seen.append(z)
            queue.append(z)
    edges = []
    while queue:
        z = queue.pop(0)
        for a in sorted({a for v in z for a in g.by_label[v]}):
            z2 = _step(g, z, a)
            if not z2:
                continue
            if z2 not in index:
                index.add(z2)
                seen.append(z2)
                queue.append(z2)
            edges.append((z, a, z2))
    names = {z: _subset_name(g, z) for z in seen}
    members = {names[z]: z for z in seen}
    return LabeledGraph(
        [names[z] for z in seen],
        [Edge(names[a], lbl, names[b]) for (a, lbl, b) in edges],
        g.parity,
        members=members,
    )


def follower_le(g1, g2):
    """Pairs (u, v) with every word from u in g1 readable from v in g2.

    g2 must be deterministic; the relation is then exactly follower-set
    containment and is computed as a greatest fixpoint.
    """
    if not is_deterministic(g2):
        raise NotDeterministic("containment target must be deterministic")
    succ2 = {
        s: {e.label: e.dst for e in g2.out_edges(s)} for s in g2.states
    }
    rel = {(u, v) for u in g1.states for v in g2.states}
    changed = True
    while changed:
        changed = False
        for (u, v) in list(rel):
            ok = True
            for e in g1.out_edges(u):
                t = succ2[v].get(e.label)
                if t is None or (e.dst, t) not in rel:
                    ok = False
                    break
            if not ok:
                rel.discard((u, v))
                changed = True
    return rel


def _induced(g, keep):
    """Subgraph on the states in ``keep`` and the edges between them."""
    keep = set(keep)
    return LabeledGraph(
        [s for s in g.states if s in keep],
        [e for e in g.edges if e.src in keep and e.dst in keep],
        g.parity,
        members=g.members,
    )


def _essential(g):
    """Iteratively drop states with no outgoing edges."""
    keep = set(g.states)
    while True:
        dead = {s for s in keep
                if not any(e.dst in keep for e in g.out_edges(s))}
        if not dead:
            break
        keep -= dead
    if keep == set(g.states):
        return g
    return _induced(g, keep)


def _drop_zero_weight(g, weights):
    """Induced subgraph on the states of positive weight (``weights``
    aligned with g.states), warning the caller's caller about any
    zero-weight state dropped."""
    zero = [s for s, w in zip(g.states, weights) if w == 0]
    if not zero:
        return g
    warnings.warn("dropping zero-weight states: %s" % ", ".join(zero),
                  stacklevel=3)
    return _induced(g, [s for s, w in zip(g.states, weights) if w > 0])


def merge_states(g, weights=None):
    """Collapse redundant states of a deterministic graph.

    Always merges states whose follower sets are equal.  When a weight
    vector (aligned with g.states) is supplied, zero-weight states are
    removed first with a warning, and within each group of equal-weight
    states a state whose follower set strictly contains another's is
    absorbed into the follower-minimal member of the group: its outgoing
    edges are dropped and its incoming edges are retargeted.  Dead-end
    states are pruned afterwards.
    """
    if not is_deterministic(g):
        raise NotDeterministic("merge_states needs a deterministic graph")
    wmap = None
    if weights is not None:
        if len(weights) != len(g.states):
            raise ValueError("weight vector length mismatch")
        wmap = dict(zip(g.states, (int(w) for w in weights)))
        g = _drop_zero_weight(g, [wmap[s] for s in g.states])
    g = _essential(g)
    if not g.states:
        return g
    rel = follower_le(g, g)

    target = {}

    def resolve(s):
        while s in target:
            s = target[s]
        return s

    # follower-set equality: representative is the earliest state
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
    edges = []
    for e in g.edges:
        if e.src in target:
            continue
        edges.append(Edge(e.src, e.label, resolve(e.dst), e.mult))
    merged = LabeledGraph(survivors, edges, g.parity)
    return _essential(merged)
