"""Labeled directed graphs whose alphabet carries a two-class parity cover.

The graph model underlies everything else in the package: subgraph
restriction by parity class, graph powers with word labels, adjacency
matrices split by class, and the structural procedures (determinization,
irreducibility, period, memory, state merging) used by the encoder
construction and verification layers.  The shared primitives live here
once: strongly connected components, longest walks, the per-state
label index and subset step, the edge id arrays and the synchronized
pair graph built from them, and induced subgraphs.  The
tagged encoder type lives here too, so that verification and the file
format read encoders without importing their construction.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

WORD_SEP = "."
INT64_MAX = int(np.iinfo(np.int64).max)


class BimodalError(Exception):
    """Base of the domain failures: infeasible, ill-posed, undecodable."""


class ValidationError(Exception):
    """Raised with the full list of structural violations found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _whole(values, what, lo=0):
    """The one integer rule: ``values``, a count or array-like of counts,
    each an int or numpy integer >= lo (None: any), as a Python int or an
    array of exact ints; anything else, 2.0 too, raises ValueError."""
    if isinstance(values, (int, np.integer)) and (lo is None or values >= lo):
        return operator.index(values)
    # a list is read as objects: numpy reads an int past int64 as a float
    values = np.asarray(values, dtype=getattr(values, "dtype", object))
    # an integer array can fail only at its least entry, below lo
    for v in ((values.min(initial=lo or 0),) if values.dtype.kind in "iu"
              else values.flat):
        if not isinstance(v, (int, np.integer)) or lo is not None and v < lo:
            raise ValueError("%s must be an integer%s, got %s" % (
                what, "" if lo is None else " >= %d" % lo, v))
    if values.dtype == object:
        # numpy integers held as objects become Python ints: no sum wraps
        values = np.frompyfunc(operator.index, 1, 1)(values)
    return values


class NotIrreducible(BimodalError):
    pass


class NotDeterministic(BimodalError):
    pass


@dataclass(frozen=True)
class Finite:
    value: int


@dataclass(frozen=True)
class Infinite:
    # certificate is advisory; two Infinite results compare equal regardless
    certificate: tuple = field(default=(), compare=False)


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
        self._key = (self.states, self.edges, self.parity)

    def state_index(self, s):
        return self._index[s]

    @functools.cached_property
    def by_label(self):
        """The one per-state edge index: state -> label -> its out-edges
        with that label, labels in first-seen order, edges in edge
        order; one pass over the edges, on first use."""
        idx = {s: {} for s in self.states}
        for e in self.edges:
            idx[e.src].setdefault(e.label, []).append(e)
        return idx

    def canonical_edges(self, s):
        """s's out-edges in canonical order: labels sorted, then edges
        sharing a label by target index."""
        at = self.by_label[s]
        index = self._index

        def target(e):
            return index[e.dst]

        out = []
        for a in sorted(at):
            es = at[a]
            out += es if len(es) == 1 else sorted(es, key=target)
        return out

    @functools.cached_property
    def edge_ids(self):
        """(src, dst, label, multi, labels): per edge, in edge order, its
        source and target state indices and its label id as int64
        arrays, and whether its multiplicity is other than 1 as a bool
        array; ``labels`` names the label ids, in first-seen order."""
        src, label, dst, mult = map(operator.itemgetter, range(4))
        edges = self.edges
        labels = tuple(dict.fromkeys(map(label, edges)))
        ids = {a: i for i, a in enumerate(labels)}
        m = len(edges)

        def ints(values):
            return np.fromiter(values, np.int64, m)

        index = self._index.__getitem__
        return (ints(map(index, map(src, edges))),
                ints(map(index, map(dst, edges))),
                ints(map(ids.__getitem__, map(label, edges))),
                np.fromiter(map((1).__ne__, map(mult, edges)), bool, m),
                labels)

    @functools.cached_property
    def deterministic(self):
        """No state has two out-edges with one label, and no edge has
        multiplicity above one: as many label groups as edges."""
        return (sum(map(len, self.by_label.values())) == len(self.edges)
                and all(e.mult <= 1 for e in self.edges))

    def __eq__(self, other):
        return isinstance(other, LabeledGraph) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "LabeledGraph(%d states, %d edges)" % (
            len(self.states),
            len(self.edges),
        )


class TaggedEncoder:
    """Labeled graph plus input tags: (class, slot) per edge.

    Every state carries exactly n_b out-edges tagged with class b; with
    an overlapping symbol cover a single edge may hold one tag of each
    class.  The tags are fixed once the encoder is built.
    """

    def __init__(self, graph, tags, n0, n1):
        self.graph = graph
        self.tags = dict(tags)
        self.n0 = _whole(n0, "out-degree n0")
        self.n1 = _whole(n1, "out-degree n1")

    @functools.cached_property
    def _slots(self):
        """The one tag index: state -> class -> (slot, edge) pairs, one
        per tag an out-edge holds, sorted by slot, edges sharing a slot
        in edge order; one pass over the edges, then one stable sort of
        each list."""
        idx = {s: {} for s in self.graph.states}
        tags = self.tags
        for e in self.graph.edges:
            held = tags.get(e)
            if held:
                at = idx[e.src]
                for cls, slot in held:
                    at.setdefault(cls, []).append((slot, e))
        first = operator.itemgetter(0)
        for at in idx.values():
            for pairs in at.values():
                pairs.sort(key=first)
        return idx

    def class_edges(self, state, b):
        """Edges tagged with class b at state, in slot order."""
        return [e for _, e in self._slots[state].get(b, ())]

    def slots_ok(self, state, b, n):
        """``state`` holds slots 0..n-1 of class b, one edge each."""
        held = self._slots[state].get(b, ())
        return [slot for slot, _ in held] == list(range(n))

    def out_degrees_ok(self):
        """Each state holds slots 0..n_b-1 of class b, one edge each."""
        return all(self.slots_ok(s, b, n) for s in self.graph.states
                   for b, n in ((0, self.n0), (1, self.n1)))

    def __repr__(self):
        return "TaggedEncoder(%d states, n0=%d, n1=%d)" % (
            len(self.graph.states), self.n0, self.n1,
        )


def _empty_classes(parity):
    """Violations for each empty class of a cover; a graph file needs
    both classes, so such a graph can be neither read nor written."""
    return ["parity class %d is empty" % b
            for b, cls in enumerate((parity.class0, parity.class1))
            if not cls]


def validate_graph(states, edges, parity0, parity1):
    """Build a LabeledGraph, collecting every violation before failing.

    ``edges`` is an iterable of (src, label, dst) or (src, label, dst,
    mult) tuples.  Duplicate (src, label, dst) triples are rejected and
    multiplicities must be positive.  State names and symbols must be
    nonempty and hold no whitespace and no '#', so that a written graph
    file reads back.  Symbols may be words joined with "." (as graph
    powers write them) only when every symbol splits into the same
    number of parts, so that a joined word decodes one way.
    """
    return _validated(states, edges, parity0, parity1)[0]


def _validated(states, edges, parity0, parity1):
    """validate_graph's graph, and its duplicate check's (src, label,
    dst) -> edge table, which also resolves an encoder file's tags."""
    violations = []
    states = list(states)
    seen = set()
    for s in states:
        if s in seen:
            violations.append("duplicate state %r" % s)
        seen.add(s)
    parity = ParityPartition(frozenset(parity0), frozenset(parity1))
    violations += _empty_classes(parity)
    alphabet = parity.alphabet
    # a graph file splits its lines on whitespace and cuts them at '#'
    violations += ["%s %r is empty or holds whitespace or '#'" % (kind, s)
                   for kind, names in (("state", states),
                                       ("symbol", sorted(alphabet)))
                   for s in names if s.split() != [s] or "#" in s]
    if len({a.count(WORD_SEP) for a in alphabet}) > 1:
        violations.append("symbols split into differing numbers of %r parts"
                          % WORD_SEP)
    index = {}
    for raw in edges:
        e = Edge(*raw)
        if e.src not in seen:
            violations.append("edge source %r is not a state" % e.src)
        if e.dst not in seen:
            violations.append("edge target %r is not a state" % e.dst)
        if e.label not in alphabet:
            violations.append("edge label %r is not in either class" % e.label)
        try:
            _whole(e.mult, "multiplicity", 1)
        except ValueError as exc:
            violations.append("edge %s %s %s: %s" % (*e[:3], exc))
        t = (e.src, e.label, e.dst)
        if t in index:
            violations.append("duplicate edge %s %s %s" % t)
        else:
            index[t] = e
    if violations:
        raise ValidationError(violations)
    return LabeledGraph(states, index.values(), parity), index


def parity_subgraph(g, b):
    """Restriction of g to the edges whose label lies in class b."""
    cls = g.parity.class0 if b == 0 else g.parity.class1
    return LabeledGraph(
        g.states, [e for e in g.edges if e.label in cls], g.parity
    )


# most word rows (or edges) one power may hold, and state copies one
# encoder may name: the sixth power of the dense tests/fixtures/mixed.cg,
# 2^19 edges, is still built, and the largest the bench builds,
# RLL(2,10) at t=18, has 9755 edges
POWER_BUDGET = 2 ** 19

# a word's parity set as a bit mask (bit p: the word can have parity p);
# _XOR[m][k] is the mask of {p ^ q} over p in m and q in k
_XOR = [[sum({1 << (p ^ q) for p in (0, 1) for q in (0, 1)
              if m >> p & 1 and k >> q & 1}) for k in range(4)]
        for m in range(4)]


def _join(first, second, u):
    """(k1, w1, xor, c, rows) per row of ``first`` at state index u, in
    word order: its key, its word + ".", the _XOR line of its mask, and
    the rows of ``second`` that follow it, their counts times c.

    A table holds, per state index, rows (key, word, mask, counts): key
    the word's symbol ranks read as one number, so keys order like rank
    tuples; word its label, mask its parity set and counts {target
    index: path count} in state order, the rows sorted by key.  A row
    with one target v continues with second[v], c its path count; with
    several, their rows are merged per word and sorted by key, never by
    the joined label, c = 1.
    """
    for k1, w1, m1, r1 in first[u]:
        w1 += WORD_SEP
        if len(r1) == 1:
            (v, c), = r1.items()
            yield k1, w1, _XOR[m1], c, second[v]
            continue
        merged = {}
        for v, c in r1.items():
            for k2, w2, m2, r2 in second[v]:
                row = merged.get(k2)
                if row is None:
                    row = merged[k2] = (k2, w2, m2, {})
                d = row[3]
                for x, n in r2.items():
                    d[x] = d.get(x, 0) + c * n
        yield k1, w1, _XOR[m1], 1, [
            (k2, w2, m2, {x: d[x] for x in sorted(d)})
            for k2, w2, m2, d in map(merged.get, sorted(merged))]


def _held(first, second):
    """Rows a join would hold, counted up to one past POWER_BUDGET: a row
    of ``first`` with one target v adds second[v]'s rows, one with
    several the distinct keys of their rows."""
    held = 0
    for rows in first:
        for r1 in rows:
            targets = r1[3]
            if len(targets) == 1:
                held += len(second[next(iter(targets))])
            else:
                held += len({r[0] for v in targets for r in second[v]})
            if held > POWER_BUDGET:
                return held
    return held


def _split_words(g, t, labels):
    """label -> the t symbols of g that it reads as a word of power(g,
    t), for each of ``labels``: its dotted parts cut into t runs of k,
    the parts of each symbol of g (validate_graph makes k the same for
    all), undoing _join; none when it has other than t·k parts, as
    such a label is no word there."""
    k = g.edges[0].label.count(WORD_SEP) + 1 if g.edges else 1
    out = {}
    for label in labels:
        parts = label.split(WORD_SEP)
        out[label] = (list(map(WORD_SEP.join, zip(*[iter(parts)] * k)))
                      if len(parts) == t * k else ())
    return out


def _too_big(t):
    return BimodalError("power at t=%d holds more than %d word rows"
                        % (t, POWER_BUDGET))


def _doubling(t, one, join):
    """The value at t of a sequence whose value at k joins those at
    ceil(k/2) and floor(k/2): join(first, second, k) gives it from them,
    down to ``one`` at 1.  Each value is computed once, bottom-up over
    the lengths the halving reaches, ceil(t/2^i) and floor(t/2^i) for
    2^i <= t."""
    values = {1: one}
    for k in sorted({h for i in range(t.bit_length())
                     for h in (t >> i, -(-t >> i))} - {1}):
        values[k] = join(values[k - k // 2], values[k // 2], k)
    return values[t]


def _counts(index, edges):
    """{target index: path count} over ``edges``, in state order."""
    counts = {}
    for e in edges:
        x = index(e.dst)
        counts[x] = counts.get(x, 0) + e.mult
    return dict(sorted(counts.items()))


def _power_rows(g, t):
    """Per state index u, _join's (k1, w1, xor, c, rows) holding the
    length-t words from u, in word order.  Each join is counted (_held)
    and refused past POWER_BUDGET rows before it is built; the last is
    left lazy, the shorter tables kept only until it ends."""
    index = g.state_index
    symbols = sorted({e.label for e in g.edges})
    rank = {a: i for i, a in enumerate(symbols)}
    c0, c1 = g.parity.class0, g.parity.class1
    one = [[(rank[a], a, (a in c0) | (a in c1) << 1, _counts(index, es))
            for a, es in sorted(g.by_label[u].items())]
           for u in g.states]
    # each summed multiplicity is checked once, where it is formed
    _whole([n for rows in one for row in rows for n in row[3].values()],
           "summed multiplicity")
    if t == 1:
        # the words of length 1 follow the empty word, of parity 0
        return [[(0, "", _XOR[1], 1, rows)] for rows in one]

    def join(first, second, k):
        if _held(first, second) > POWER_BUDGET:
            raise _too_big(t)
        heads = [_join(first, second, u) for u in range(len(one))]
        if k == t:
            return heads
        scale = len(symbols) ** (k // 2)
        return [[(k1 * scale + k2, w1 + w2, xor[m2],
                  r2 if c == 1 else {x: c * n for x, n in r2.items()})
                 for k1, w1, xor, c, rows in at for k2, w2, m2, r2 in rows]
                for at in heads]

    return _doubling(t, one, join)


def power(g, t):
    """t-th graph power: edges are t-step paths labeled by their words.

    Word labels join the step symbols with ".".  A word's parity is the
    XOR of its symbol parities; with an overlapping cover a word can land
    in both classes, and a symbol in neither class leaves it in none.
    Parallel paths with the same word and endpoints are folded into the
    multiplicity field.  Edges come out sorted by source, word (by the
    ranks of its symbols in sorted-symbol order, not by the joined
    label) and target.

    Built on the doubling schedule from tables of word rows (see _join),
    each join's rows counted off the two tables it reads (_held) before
    it is built, the last written straight into edges.  Past
    POWER_BUDGET rows or edges, BimodalError names t.
    """
    t = _whole(t, "power exponent", 1)
    states = g.states
    class0, class1, edges = set(), set(), []
    new = tuple.__new__
    for src, heads in zip(states, _power_rows(g, t)):
        for _, w1, xor, c, rows in heads:
            for _, w2, m2, counts in rows:
                word = w1 + w2
                mask = xor[m2]
                if mask & 1:
                    class0.add(word)
                if mask & 2:
                    class1.add(word)
                for x, n in counts.items():
                    edges.append(new(Edge, (src, word, states[x], c * n)))
            if len(edges) > POWER_BUDGET:
                raise _too_big(t)
    parity = ParityPartition(frozenset(class0), frozenset(class1))
    return LabeledGraph(states, edges, parity)


def _ints(values, bound=None):
    """``values`` as exact ints: an int64 array when ``bound`` fits
    int64, else an object array of Python ints.  ``bound`` must bound
    every entry and every sum of products the caller forms from them;
    by default it is the largest entry, enough for a matrix, and an
    int64 array is returned as it is."""
    if bound is None:
        if getattr(values, "dtype", None) == np.int64:
            return values
        values = np.asarray(values, dtype=object)
        bound = max(values.flat, default=0)
    return np.asarray(values, dtype=np.int64 if bound <= INT64_MAX
                      else object)


def adjacency(g):
    """Full adjacency matrix (all edges, multiplicities counted)."""
    n = len(g.states)
    m = np.zeros((n, n), dtype=object)
    for e in g.edges:
        m[g.state_index(e.src), g.state_index(e.dst)] += e.mult
    return _ints(_whole(m, "summed multiplicity"))


def _join_counts(first, second, _k):
    """Class counts (E, O, B) of the words of length a + b from those of
    lengths a and b (see adjacency_pair):

        E = Ea Eb + Oa Ob,   O = Ea Ob + Oa Eb,
        B = Ba (Eb + Ob + Bb) + (Ea + Oa) Bb.
    """
    (ea, oa, ba), (eb, ob, bb) = first, second
    return (ea @ eb + oa @ ob, ea @ ob + oa @ eb,
            ba @ (eb + ob + bb) + (ea + oa) @ bb)


def adjacency_pair(g, t=1):
    """(A0, A1, states): the per-class adjacency matrices of power(g, t)
    in the order of ``states``, counted without building the word graph.

    The edges split by their label's classes into S0 (class 0 only), S1
    (class 1 only) and S2 (both); a label in neither class is dropped,
    as ``power`` leaves its words in neither class.  E and O count the
    words of strict symbols with even and odd parity, B the words with
    a shared symbol, which ``power`` puts in both classes.  They start
    from E, O, B = S0, S1, S2 and double on power's schedule
    (_join_counts); A0 = E + B and A1 = O + B, in exact ints (int64
    arrays when every entry fits, Python ints past it).

    The doubling runs in int64 when r^t fits, r the largest row sum of
    S0 + S1 + S2: each count at a level k <= t, and each partial sum
    forming it, is at most an entry of (S0 + S1 + S2)^k, so at most r^t.
    """
    t = _whole(t, "power exponent", 1)
    n = len(g.states)
    class0, class1, index = g.parity.class0, g.parity.class1, g._index
    # {(0, 1 or 2 for S0, S1 or S2, src index, dst index): count}
    counts = {}
    for src, label, dst, mult in g.edges:
        in0, in1 = label in class0, label in class1
        if in0 or in1:
            key = (in0 + 2 * in1 - 1, index[src], index[dst])
            counts[key] = counts.get(key, 0) + mult
    _whole(list(counts.values()), "summed multiplicity")
    s = np.zeros((3, n, n), dtype=object)
    for key, count in counts.items():
        s[key] = count
    rowsum = max(s.sum(axis=(0, 2)), default=0)
    # r^t fits int64 iff r^min(t, 64) does, as r >= 2 gives r^64 > 2^63
    bound = rowsum ** min(t, 64)
    ev, od, both = _doubling(t, tuple(_ints(s, bound)), _join_counts)
    return _ints(ev + both), _ints(od + both), g.states


def _step(g, states, label):
    """States reached from ``states`` along one edge labelled ``label``."""
    idx = g.by_label
    return frozenset(e.dst for s in states for e in idx[s].get(label, ()))


def _scc(states, succ):
    """Iterative Tarjan over ``succ[v]``; components come out in reverse
    topological order, so every component after those it reaches."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        onstack.add(v)
        return v, iter(succ[v])

    for root in states:
        if root in index:
            continue
        work = [visit(root)]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    work.append(visit(w))
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while not comp or comp[-1] != v:
                        w = stack.pop()
                        onstack.discard(w)
                        comp.append(w)
                    comps.append(frozenset(comp))
    return comps


def _successors(g):
    """State -> the set of states one edge away."""
    return {s: {e.dst for es in at.values() for e in es}
            for s, at in g.by_label.items()}


def _runs(a):
    """(values, counts): the distinct values of the int array ``a``,
    sorted, and how often each occurs; ``a`` is sorted in place."""
    a.sort()
    first = np.flatnonzero(np.concatenate(([a.size > 0], a[1:] != a[:-1])))
    return a[first], np.diff(first, append=len(a))


def _grouped(keys, n):
    """(order, start): the positions of ``keys`` (ints below n) sorted
    stably by key, key v's positions at order[start[v]:start[v + 1]];
    the order comes from one sort of key·m + position over the m keys."""
    m = len(keys)
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=n), out=start[1:])
    order = keys * m + np.arange(m)
    order.sort()
    order %= max(m, 1)
    return order, start


def _ranges(lo, cnt):
    """lo[i], lo[i] + 1, ..., lo[i] + cnt[i] - 1 for each i in turn, as
    one index array: ones, each run's first entry set to its step from
    the run before, summed in place."""
    runs = cnt > 0
    lo, cnt = lo[runs], cnt[runs]
    total = int(cnt.sum())
    out = np.ones(total, dtype=np.int64)
    if total:
        out[0] = lo[0]
        out[cnt[:-1].cumsum()] = lo[1:] - lo[:-1] - cnt[:-1] + 1
        out.cumsum(out=out)
    return out


def _gather(start, nodes):
    """The positions start[v] .. start[v + 1] - 1 of each of ``nodes``."""
    lo = start[nodes]
    return _ranges(lo, start[nodes + 1] - lo)


def _frontiers(start, targets, seeds):
    """Breadth-first frontiers from ``seeds`` over the edges v ->
    targets[k] for k in _gather(start, [v]): each frontier as a sorted
    array of the nodes first reached there."""
    seen = np.zeros(len(start) - 1, dtype=bool)
    front = _runs(np.array(seeds))[0]
    while front.size:
        seen[front] = True
        yield front
        nxt = targets[_gather(start, front)]
        front = _runs(nxt[~seen[nxt]])[0]


def _walk_lengths(n, src, dst):
    """Length of the longest walk leaving each of n nodes along the
    edges src[k] -> dst[k], as floats, inf where a cycle is reachable.

    Peeled by levels: level 0 holds the nodes with no edge out, and a
    node joins level k + 1 once its last unsettled successor settles at
    level k.  A node's longest walk is its level; a node never settled
    reaches a cycle.
    """
    length = np.full(n, np.inf)
    left = np.bincount(src, minlength=n)
    order, start = _grouped(dst, n)
    into = src[order]
    level = np.flatnonzero(left == 0)
    k = 0
    while level.size:
        length[level] = k
        k += 1
        preds, hits = _runs(into[_gather(start, level)])
        left[preds] -= hits
        level = preds[left[preds] == 0]
    return length


def irreducible_components(g):
    """Strongly connected components as induced subgraphs.

    Returns a list of (subgraph, is_sink) pairs in state-declaration
    order of their first member.  A component is a sink when no edge
    leaves it.  Trivial components (single state, no self-loop) are
    included.
    """
    succ = _successors(g)
    comps = _scc(g.states, succ)
    comps.sort(key=lambda c: min(g.state_index(s) for s in c))
    return [(_induced(g, comp), all(succ[s] <= comp for s in comp))
            for comp in comps]


def period(g):
    """gcd of cycle lengths; the graph must be irreducible with edges.
    Levels are the breadth-first frontiers from the first state, and an
    edge u -> v closes a cycle length of level u + 1 - level v."""
    if len(_scc(g.states, _successors(g))) != 1 or not g.edges:
        raise NotIrreducible("period is defined for irreducible graphs")
    # a single trivial component with no self-loop has no cycles at all
    src, dst = g.edge_ids[:2]
    order, start = _grouped(src, len(g.states))
    level = np.zeros(len(g.states), dtype=np.int64)
    for k, front in enumerate(_frontiers(start, dst[order], [0])):
        level[front] = k
    return int(np.gcd.reduce(level[src] + 1 - level[dst]))


def _shared_labels(g1, g2):
    """The label ids of the edges of g1 and of g2, both in g1's
    numbering of its L labels; a label of g2 that g1 lacks gets L."""
    l1, labels1 = g1.edge_ids[2], g1.edge_ids[4]
    if g2 is g1:
        return l1, l1
    ids = {a: i for i, a in enumerate(labels1)}
    relabel = np.array([ids.get(a, len(ids)) for a in g2.edge_ids[4]],
                       dtype=np.int64)
    return l1, relabel[g2.edge_ids[2]]


# edge pairs listed at once: each block's index arrays stay small, so a
# long listing never holds full-length temporaries
LISTING_BLOCK = 2 ** 14


def _matches(k1, k2, n, *values):
    """Every pair (i, j) of positions with k1[i] == k2[j], keys being
    ints below n, in blocks of about LISTING_BLOCK pairs: per block, the
    positions i as a slice, cnt[i] the number of partners j of each, and
    per array of ``values`` (aligned with k2) its entries at those
    partners, the partners of i listed together, i by i."""
    order, start = _grouped(k2, n)
    values = [v[order] for v in values]
    lo = start[k1]
    cnt = start[k1 + 1] - lo
    block = cnt.cumsum() // LISTING_BLOCK
    cuts = [0, *(np.flatnonzero(block[1:] != block[:-1]) + 1), len(k1)]
    for a, b in zip(cuts, cuts[1:]):
        at = _ranges(lo[a:b], cnt[a:b])
        yield slice(a, b), cnt[a:b], [v[at] for v in values]


def _pair_arrays(g1, g2):
    """(src, dst): the synchronized product of g1 and g2 over pair ids,
    the pair of state indices p in g1 and q in g2 being p·n2 + q; pair
    dst[k] follows src[k] by one pair of equally labeled edges, each
    (src, dst) once, sorted by src and then dst.

    Within each label's group every g1 edge meets every g2 edge, so
    Σ_a c1_a·c2_a edge pairs are listed, c_a the edges with label a,
    block by block (_matches); each is one key src·N + dst over the N
    pairs, and the keys are de-duplicated per block and once more at the
    end.
    """
    s1, d1 = g1.edge_ids[:2]
    s2, d2 = g2.edge_ids[:2]
    n2 = len(g2.states)
    size = len(g1.states) * n2
    head = s1 * n2 * size + d1 * n2
    keys = []
    for rows, cnt, (key,) in _matches(*_shared_labels(g1, g2),
                                      len(g1.edge_ids[4]) + 1,
                                      s2 * size + d2):
        key += head[rows].repeat(cnt)
        keys.append(_runs(key)[0])
    return np.divmod(_runs(np.concatenate(keys))[0], size)


class PairGraph:
    """Synchronized product of a graph with itself, over ordered pairs.

    ``nodes`` ranges over the pair ids p·n + q of state indices p and q,
    named back by divmod(id, n); pair dst[k] follows src[k] by a pair of
    equally labeled edges (_pair_arrays), which ``steps`` lists.  ``ext``
    gives per pair id its longest synchronized walk (_walk_lengths),
    ``parting`` how long two walks from it stay together once they part,
    and ``reach_sets`` the pairs reachable by walks of each length.
    """

    def __init__(self, g):
        self.g = g
        self.nodes = range(len(g.states) ** 2)
        self.src, self.dst = _pair_arrays(g, g)
        self._ext = None

    @functools.cached_property
    def diagonal(self):
        """Mask of the pairs (s, s)."""
        n = len(self.g.states)
        return np.arange(n * n) % (n + 1) == 0

    def steps(self, node):
        """Equally labeled edge pairs (label, e1, e2) leaving ``node``."""
        p, q = node
        idx = self.g.by_label
        return [(a, e1, e2) for a, es1 in idx[p].items()
                for e1 in es1 for e2 in idx[q].get(a, ())]

    def parting(self, key=None):
        """(kids, delays): two walks part at an equally labeled edge pair
        whose keys differ, ``key`` holding an int per edge; the edges of
        each label are matched across the states.  kids are the pair ids
        parting edge pairs reach, and delays[v] is 1 + the longest walk
        (ext) after one leaving pair v, 0 when none does.  No key is the
        edge rule: the key is the edge id, and an edge of multiplicity
        other than 1 parts from itself.  Every edge pair leaving (p, q),
        p != q, then parts, so those pairs take ext, and only the label
        groups of each state are listed."""
        src, dst, label, multi, labels = self.g.edge_ids
        n = len(self.g.states)
        ext = self.ext()
        if key is None:
            key, group = np.arange(len(src)), src * len(labels) + label
            delays = np.where(self.diagonal, 0, ext)
        else:
            group, multi = label, np.zeros_like(multi)
            delays = np.zeros_like(ext)
        kids = []
        for rows, cnt, (p, y, k) in _matches(group, group, n * len(labels),
                                             src, dst, key):
            keep = (key[rows].repeat(cnt) != k) | multi[rows].repeat(cnt)
            kids.append(dst[rows].repeat(cnt)[keep] * n + y[keep])
            np.maximum.at(delays, (src[rows].repeat(cnt) * n + p)[keep],
                          ext[kids[-1]] + 1)
        return np.concatenate(kids), delays

    def ext(self):
        if self._ext is None:
            self._ext = _walk_lengths(len(self.nodes), self.src, self.dst)
        return self._ext

    def reach_sets(self):
        """Decreasing chain R(0) ⊇ R(1) ⊇ ... of pairs reachable by
        synchronized walks of each length, as masks over the pair ids,
        listed up to its fixpoint."""
        sets = [np.ones(len(self.nodes), dtype=bool)]
        while True:
            nxt = np.zeros_like(sets[-1])
            nxt[self.dst[sets[-1][self.src]]] = True
            if np.array_equal(nxt, sets[-1]):
                return sets
            sets.append(nxt)


def memory(g):
    """Smallest m such that equal words of length m force equal endpoints.

    Scans the pair graph's reach chain: the set of state pairs reachable
    by equal-word walks of length k shrinks with k; memory is the first
    k at which no distinct pair remains.  A surviving distinct pair at
    the fixpoint means the memory is infinite.
    """
    pg = PairGraph(g)
    sets = pg.reach_sets()
    for k, pairs in enumerate(sets):
        if not (pairs & ~pg.diagonal).any():
            return Finite(k)
    bad = sorted((g.states[p], g.states[q]) for p, q in zip(*np.divmod(
        np.flatnonzero(sets[-1] & ~pg.diagonal), len(g.states))))
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
    seen = [frozenset([v]) for v in g.states]
    index = set(seen)
    edges = []
    # breadth first: the loop walks ``seen`` as it grows
    for z in seen:
        for a in sorted({a for v in z for a in g.by_label[v]}):
            z2 = _step(g, z, a)
            if z2 not in index:
                index.add(z2)
                seen.append(z2)
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

    g2 must be deterministic, so that each g1 edge leaves a pair for one
    successor pair (_pair_arrays).  A pair fails when it has a g1 label
    that its g2 state lacks, read off the two graphs' label incidence,
    or when it reaches such a pair: the failures close backwards over
    the pair arrays.
    """
    if not g2.deterministic:
        raise NotDeterministic("containment target must be deterministic")
    src, dst = _pair_arrays(g1, g2)
    n1, n2 = len(g1.states), len(g2.states)
    l1, l2 = _shared_labels(g1, g2)
    width = len(g1.edge_ids[4])
    has1 = np.zeros((n1, width), dtype=bool)
    has1[g1.edge_ids[0], l1] = True
    lacks2 = np.ones((n2, width + 1), dtype=bool)
    lacks2[g2.edge_ids[0], l2] = False
    lacks2 = lacks2[:, :width]
    order, start = _grouped(dst, n1 * n2)
    failed = np.zeros(n1 * n2, dtype=bool)
    for front in _frontiers(start, src[order],
                            np.flatnonzero(has1 @ lacks2.T)):
        failed[front] = True
    u, v = np.divmod(np.flatnonzero(~failed), max(n2, 1))
    return set(zip(map(g1.states.__getitem__, u.tolist()),
                   map(g2.states.__getitem__, v.tolist())))


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
    """Induced subgraph on the states with an infinite walk, dropping
    the dead ends and the states that lead only to them."""
    longest = _walk_lengths(len(g.states), *g.edge_ids[:2])
    keep = [s for s, x in zip(g.states, longest) if x == math.inf]
    if len(keep) == len(g.states):
        return g
    return _induced(g, keep)


def _positive_states(states, weights):
    """The states of positive weight (``weights`` aligned with
    ``states``), warning the caller's caller about any zero-weight state
    dropped."""
    zero = [s for s, w in zip(states, weights) if w == 0]
    if zero:
        warnings.warn("dropping zero-weight states: %s" % ", ".join(zero),
                      stacklevel=3)
    return [s for s, w in zip(states, weights) if w > 0]


def merge_states(g, weights=None):
    """Collapse redundant states of a deterministic graph.

    Always merges states whose follower sets are equal.  When a weight
    vector (aligned with g.states, integers >= 0 by _whole) is supplied,
    zero-weight states are removed first with a warning, equal followers
    merge only at equal weight, and a state whose follower set strictly
    contains that of another state of its weight is absorbed as well.  A
    state goes to the first state, in state order, of those it may merge
    into that absorb no other state: its outgoing edges are dropped and
    its incoming edges are retargeted.  Dead-end states are pruned
    afterwards.
    """
    if not g.deterministic:
        raise NotDeterministic("merge_states needs a deterministic graph")
    wmap = None
    if weights is not None:
        if len(weights) != len(g.states):
            raise ValueError("weight vector length mismatch")
        wmap = dict(zip(g.states, _whole(weights, "state weight").tolist()))
        keep = _positive_states(g.states, [wmap[s] for s in g.states])
        g = g if len(keep) == len(g.states) else _induced(g, keep)
    g = _essential(g)
    if not g.states:
        return g
    rel = follower_le(g, g)

    def below(v, u):
        # v's followers lie within u's, at u's weight, or, unweighted,
        # v's followers equal u's
        return (v, u) in rel and (wmap[v] == wmap[u] if wmap is not None
                                  else (u, v) in rel)

    # the states with none strictly below them; the first of these below
    # a state is its target, and such a target goes to itself, so no
    # chain of merges is left to follow
    bottoms = [v for v in g.states
               if all(below(v, s) for s in g.states if below(s, v))]
    target = {}
    for u in g.states:
        v = next(v for v in bottoms if below(v, u))
        if v != u:
            target[u] = v
    if not target:
        return g
    survivors = [s for s in g.states if s not in target]
    edges = [Edge(e.src, e.label, target.get(e.dst, e.dst), e.mult)
             for e in g.edges if e.src not in target]
    return _essential(LabeledGraph(survivors, edges, g.parity))
