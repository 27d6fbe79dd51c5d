"""Structural verification of encoders and tagged stream coding.

The checks are built on synchronized pair walks: two walks reading the
same word at once.  Losslessness asks whether diverged walks can
reconverge, anticipation how long two walks with distinct first edges
can stay word-synchronized, definiteness the same question after an
arbitrary synchronized prefix, and decodability substitutes tag
equality for edge equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .graphs import (
    Finite,
    Infinite,
    PairGraph,
    Unknown,
    _same_edge,
    _step,
    adjacency_pair,
    determinize,
    follower_le,
    irreducible_components,
    is_deterministic,
)
from .spectra import ApproxEigenvector
from .synth import TaggedEncoder, assign_block_tags


class PreconditionFailed(Exception):
    pass


class NotDecodable(Exception):
    def __init__(self, position, reason):
        self.position = position
        super().__init__("position %d: %s" % (position, reason))


class UnknownTag(Exception):
    pass


@dataclass
class VerifyReport:
    out_degree_ok: tuple
    containment_ok: bool
    lossless: bool
    anticipation: object
    definiteness: Optional[tuple]
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return (all(self.out_degree_ok) and self.containment_ok
                and self.lossless and isinstance(self.anticipation, Finite))

    def __str__(self):
        if isinstance(self.anticipation, Finite):
            ant = str(self.anticipation.value)
        elif isinstance(self.anticipation, Infinite):
            ant = "infinite"
        else:
            ant = "unknown (> %d)" % self.anticipation.bound
        lines = [
            "out-degrees: %s" % ("ok" if all(self.out_degree_ok) else "BAD"),
            "containment: %s" % ("ok" if self.containment_ok else "BAD"),
            "lossless:    %s" % ("yes" if self.lossless else "NO"),
            "anticipation: %s" % ant,
            "definiteness: %s" % (
                "(%d, %d)" % self.definiteness if self.definiteness
                else "none found"),
        ]
        lines += ["violation: %s" % v for v in self.violations]
        return "\n".join(lines)


def _graph_of(e):
    return e.graph if isinstance(e, TaggedEncoder) else e


def _pair_graph_of(e):
    """The pair checks take an encoder, a graph or a prebuilt PairGraph."""
    return e if isinstance(e, PairGraph) else PairGraph(_graph_of(e))


def losslessness(e):
    """No two distinct equally labeled paths share both endpoints.

    Explores pairs of word-synchronized walks from a common start,
    tracking whether they have diverged; a diverged pair meeting again
    on the diagonal is a violation.
    """
    pg = _pair_graph_of(e)
    start = [((s, s), False) for s in pg.g.states]
    seen = set(start)
    queue = list(start)
    while queue:
        (p, q), diverged = queue.pop()
        if diverged and p == q:
            return False
        for (_, e1, e2) in pg.succ[(p, q)]:
            node = ((e1.dst, e2.dst), diverged or not _same_edge(e1, e2))
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return True


def _infinite_certificate(pg, start_pair):
    """Word-synchronized walk from an ambiguous pair into a cycle."""
    ext = pg.ext()
    prefix = []
    node = start_pair
    visited = []
    while node not in visited:
        visited.append(node)
        for (a, e1, e2) in pg.succ[node]:
            kid = (e1.dst, e2.dst)
            if ext.get(kid) == math.inf or kid in visited:
                prefix.append((node, a))
                node = kid
                break
        else:  # pragma: no cover - unbounded node always has such a child
            break
    return (tuple(prefix), node)


def anticipation(e, cap=32):
    """Lookahead needed to pin down the first edge from the word.

    Finite(a): every two paths with distinct first edges from a common
    state disagree within a symbols after the first.  Infinite carries a
    certificate walk into a synchronized cycle.
    """
    pg = _pair_graph_of(e)
    starts = []
    for s in pg.g.states:
        for (e1, e2) in pg.edge_pairs(s, s):
            starts.append((e1.dst, e2.dst))
    if not starts:
        return Finite(0)
    ext = pg.ext()
    worst = -1
    for n in starts:
        v = ext[n]
        if v == math.inf:
            return Infinite(_infinite_certificate(pg, n))
        worst = max(worst, v)
    a = 1 + worst
    if a > cap:
        return Unknown(cap)
    return Finite(a)


def _fails_definite(pg, reach, m, a, compare):
    ext = pg.ext()
    r = reach[min(m, len(reach) - 1)]
    for (p, q) in r:
        for (e1, e2) in pg.edge_pairs(p, q):
            if compare(e1, e2):
                continue
            if ext[(e1.dst, e2.dst)] >= a:
                return True
    return False


def is_definite(e, m, a):
    """Equal words of length m+a+1 force an equal edge at position m+1."""
    pg = _pair_graph_of(e)
    return not _fails_definite(pg, pg.reach_sets(), m, a, _same_edge)


def definiteness(e, m_max=8, a_max=8):
    """Smallest (m, a) by total window then memory, or None in bounds."""
    pg = _pair_graph_of(e)
    reach = pg.reach_sets()
    for total in range(0, m_max + a_max + 1):
        for m in range(0, min(total, m_max) + 1):
            a = total - m
            if a > a_max:
                continue
            if not _fails_definite(pg, reach, m, a, _same_edge):
                return (m, a)
    return None


def sliding_block_decodable(e, m, a):
    """Equal words of length m+a+1 force equal tags at position m+1."""
    if not isinstance(e, TaggedEncoder):
        raise TypeError("tag comparison needs a TaggedEncoder")
    pg = PairGraph(e.graph)
    return not _fails_definite(
        pg, pg.reach_sets(), m, a,
        lambda e1, e2: set(e.tags.get(e1, ())) == set(e.tags.get(e2, ())))


def presents_subset(e, g):
    """Every word generated by e is generated somewhere in g.

    g must be deterministic; tracks, per encoder state reached, the set
    of g-states still able to read the word.
    """
    if not is_deterministic(g):
        raise PreconditionFailed("containment target must be deterministic")
    eg = _graph_of(e)
    full = frozenset(g.states)
    seen = set()
    queue = []
    for v in eg.states:
        node = (v, full)
        seen.add(node)
        queue.append(node)
    while queue:
        v, u = queue.pop()
        for ed in eg.out_edges(v):
            u2 = _step(g, u, ed.label)
            if not u2:
                return False
            node = (ed.dst, u2)
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return True


def check_encoder(e, g, n0, n1, cap=32):
    """Aggregate structural report for a tagged encoder against g."""
    violations = []
    deg0 = deg1 = True
    for s in e.graph.states:
        if len(e.class_edges(s, 0)) != n0:
            deg0 = False
            violations.append("state %r class-0 degree != %d" % (s, n0))
        if len(e.class_edges(s, 1)) != n1:
            deg1 = False
            violations.append("state %r class-1 degree != %d" % (s, n1))
    contain = presents_subset(e, g)
    if not contain:
        violations.append("encoder generates a word outside the constraint")
    pg = PairGraph(e.graph)
    lossless = losslessness(pg)
    if not lossless:
        violations.append("two distinct equally labeled paths reconverge")
    ant = anticipation(pg, cap=cap)
    if isinstance(ant, Infinite):
        violations.append("anticipation is infinite")
    defin = None
    if isinstance(ant, Finite):
        defin = definiteness(pg, m_max=8, a_max=max(8, ant.value))
    return VerifyReport((deg0, deg1), contain, lossless, ant, defin,
                        violations)


def witness_ae(e, g, n0, n1):
    """Joint approximate eigenvector extracted from an encoder.

    Determinizes the encoder, takes its irreducible sink containing the
    least state name, checks that member-set sizes form an exact joint
    eigenvector there, and lifts them to g by follower containment.
    """
    eg = _graph_of(e)
    h = determinize(eg)
    comps = irreducible_components(h)
    sinks = [sub for (sub, is_sink) in comps if is_sink]
    if not sinks:
        raise PreconditionFailed("determinized encoder has no sink")
    sinks.sort(key=lambda sub: min(sub.states))
    hp = sinks[0]
    members = {s: h.members[s] for s in hp.states}
    c = np.asarray([len(members[s]) for s in hp.states], dtype=np.int64)
    a0, a1, _ = adjacency_pair(hp)
    if not (np.array_equal(a0 @ c, n0 * c)
            and np.array_equal(a1 @ c, n1 * c)):
        raise PreconditionFailed(
            "member counts are not an exact joint eigenvector")
    rel = follower_le(hp, g)
    x = []
    for u in g.states:
        vals = [len(members[z]) for z in hp.states if (z, u) in rel]
        x.append(max(vals, default=0))
    xv = np.asarray(x, dtype=np.int64)
    if not xv.any():
        raise PreconditionFailed("lifted vector is zero")
    ag0, ag1, _ = adjacency_pair(g)
    if not ((ag0 @ xv >= n0 * xv).all() and (ag1 @ xv >= n1 * xv).all()):
        raise PreconditionFailed("lifted vector fails the inequalities")
    return ApproxEigenvector(tuple(int(v) for v in xv), n0, n1)


class DecodedTag(NamedTuple):
    tag: object
    provisional: bool


def _channel_bits(g, label):
    """One bit per word component: its parity class (class 1 wins only
    when the symbol is not in class 0).

    A reloaded power graph only declares whole-word parities, so when
    the components are not classifiable the label contributes a single
    bit carrying its overall parity.
    """
    parts = label.split(".")
    known = g.parity.class0 | g.parity.class1
    if all(sym in known for sym in parts):
        return [0 if sym in g.parity.class0 else 1 for sym in parts]
    return [0 if label in g.parity.class0 else 1]


def _edge_tag_tables(e, p):
    table = assign_block_tags(e, p)
    inverse = {}
    for s, m in table.items():
        inv = {}
        for block, edge in m.items():
            inv.setdefault(edge, []).append(block)
        inverse[s] = {edge: tuple(sorted(bs)) for edge, bs in inv.items()}
    return table, inverse


def _force_parity(block, parity):
    rest = block[1:]
    bit = (rest.count("1") + parity) % 2
    return str(bit) + rest


def _check_start(g, start):
    if start not in set(g.states):
        raise ValueError("unknown start state %r" % start)


def encode_stream(e, tags, start, policy="as-tagged", p=None):
    """Drive the encoder from ``start`` over a tag sequence.

    Tags are p-bit block strings (p inferred from the first tag when not
    given) or raw (class, slot) pairs with the as-tagged policy.  The
    first bit of each block is the reserved parity bit: fixed-parity
    forces every block even, rds-min picks the parity whose codeword
    keeps the running digital sum closest to zero (ties go to a 0
    reserved bit).  Returns (word, end_state, rds_trace); the trace
    starts at 0 and appends one value per emitted label.
    """
    tags = list(tags)
    g = e.graph
    _check_start(g, start)
    block_mode = not tags or isinstance(tags[0], str)
    if block_mode:
        if p is None:
            if not tags:
                return [], start, [0]
            p = len(tags[0])
        table, _ = _edge_tag_tables(e, p)
    elif policy != "as-tagged":
        raise ValueError("raw (class, slot) tags require as-tagged policy")
    state = start
    level = 1
    rds = 0
    trace = [0]
    word = []

    def run_bits(bits, lv, s):
        for b in bits:
            if b == 1:
                lv = -lv
            s += lv
        return lv, s

    for t in tags:
        if block_mode:
            if policy == "as-tagged":
                block = t
            elif policy == "fixed-parity":
                block = _force_parity(t, 0)
            elif policy == "rds-min":
                cands = []
                for parity in (0, 1):
                    blk = _force_parity(t, parity)
                    edge = table[state].get(blk)
                    if edge is None:
                        continue
                    lv, s = run_bits(_channel_bits(g, edge.label),
                                     level, rds)
                    cands.append((abs(s), blk, edge, lv, s))
                if not cands:
                    raise UnknownTag("no edge for block %r at %r"
                                     % (t, state))
                cands.sort(key=lambda c: (c[0], c[1]))
                _, block, edge, level, rds = cands[0]
                word.append(edge.label)
                trace.append(rds)
                state = edge.dst
                continue
            else:
                raise ValueError("unknown policy %r" % policy)
            edge = table[state].get(block)
            if edge is None:
                raise UnknownTag("no edge for block %r at %r"
                                 % (block, state))
        else:
            edge = None
            for cand in g.out_edges(state):
                if t in e.tags.get(cand, ()):
                    edge = cand
                    break
            if edge is None:
                raise UnknownTag("no edge for tag %r at %r" % (t, state))
        level, rds = run_bits(_channel_bits(g, edge.label), level, rds)
        word.append(edge.label)
        trace.append(rds)
        state = edge.dst
    return word, state, trace


def _candidates(g, states, label, ahead):
    """Edges labelled ``label`` leaving ``states`` whose targets can go
    on to read the labels ``ahead``."""
    out = []
    for s in states:
        for ed in g.by_label[s].get(label, ()):
            z = {ed.dst}
            for b in ahead:
                z = _step(g, z, b)
            if z:
                out.append(ed)
    return out


def decode_stream(e, word, start, p=None, cap=32):
    """Recover the tag sequence from a word, tracking the state.

    Uses the encoder's anticipation as lookahead: the upcoming a+1
    labels determine the edge taken.  Within the last a positions the
    lookahead may be truncated; if several edges remain possible there,
    the canonically first is chosen and the output flagged provisional.
    """
    word = list(word)
    g = e.graph
    _check_start(g, start)
    ant = anticipation(e, cap=cap)
    if not isinstance(ant, Finite):
        raise PreconditionFailed("decoding needs finite anticipation")
    a = ant.value
    inverse = None
    if p is not None:
        _, inverse = _edge_tag_tables(e, p)
    state = start
    out = []
    for i, label in enumerate(word):
        cands = _candidates(g, (state,), label, word[i + 1:i + 1 + a])
        if not cands:
            raise NotDecodable(i, "no edge matches the upcoming labels")
        provisional = False
        if len(cands) > 1:
            # only possible when the lookahead window was truncated
            cands.sort(key=lambda ed: min(e.tags.get(ed, ((2, 0),))))
            provisional = True
        edge = cands[0]
        if inverse is not None:
            blocks = inverse[state].get(edge, ())
            if not blocks:
                raise NotDecodable(i, "edge has no block tag")
            out.append(DecodedTag(blocks[0], provisional))
        else:
            tag = min(e.tags.get(edge, ())) if e.tags.get(edge) else None
            out.append(DecodedTag(tag, provisional))
        state = edge.dst
    return out


def decode_sliding(e, word, m, a, p=None):
    """Stateless window decoding: tag at i from word[i-m : i+a+1].

    Returns one entry per position; None where the window is truncated
    or does not pin the tag down.  Needs the encoder to be sliding-block
    decodable at (m, a); a corrupted symbol then disturbs at most
    m + a + 1 outputs.
    """
    word = list(word)
    g = e.graph
    inverse = None
    if p is not None:
        _, inverse = _edge_tag_tables(e, p)
    n = len(word)
    out = []
    for i in range(n):
        if i < m or i + a >= n:
            out.append(None)
            continue
        z = g.states
        for lbl in word[i - m:i]:
            z = _step(g, z, lbl)
        tags = set()
        for ed in _candidates(g, z, word[i], word[i + 1:i + a + 1]):
            if inverse is not None:
                tags.update(inverse[ed.src].get(ed, ()))
            else:
                tags.add(min(e.tags.get(ed, ((None, None),))))
        out.append(next(iter(tags)) if len(tags) == 1 else None)
    return out
