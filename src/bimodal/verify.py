"""Structural verification of encoders and tagged stream coding.

The checks are built on synchronized pair walks: two walks reading the
same word at once.  Losslessness asks whether walks that part can
reconverge; anticipation, definiteness and decodability read how long
two walks stay word-synchronized after they part off one delay per pair
(PairGraph.parting), where walks part when their edges differ, or, for
decodability, their tag sets.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .graphs import (
    BimodalError,
    Finite,
    Infinite,
    PairGraph,
    TaggedEncoder,
    _frontiers,
    _grouped,
    _split_words,
    _step,
    _whole,
    adjacency_pair,
    determinize,
    follower_le,
    irreducible_components,
)
from .spectra import ApproxEigenvector, _reach


class PreconditionFailed(BimodalError):
    pass


class NotDecodable(BimodalError):
    def __init__(self, position, reason):
        self.position = position
        super().__init__("position %d: %s" % (position, reason))


class UnknownTag(BimodalError):
    pass


class ArityMismatch(BimodalError):
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
        lines = [
            "out-degrees: %s" % ("ok" if all(self.out_degree_ok) else "BAD"),
            "containment: %s" % ("ok" if self.containment_ok else "BAD"),
            "lossless:    %s" % ("yes" if self.lossless else "NO"),
            "anticipation: %s" % (
                self.anticipation.value
                if isinstance(self.anticipation, Finite) else "infinite"),
            "definiteness: %s" % (
                "(%d, %d)" % self.definiteness if self.definiteness
                else "none found"),
        ]
        lines += ["violation: %s" % v for v in self.violations]
        return "\n".join(lines)


def _graph_of(e):
    return e.graph if isinstance(e, TaggedEncoder) else e


def _on_pairs(e, name, check):
    """check(pg) on e's pair graph: e itself if it is one, else one built
    once for e and not kept, the answer then kept on e (_kept)."""
    if isinstance(e, PairGraph):
        return check(e)
    return _kept(e, name, lambda: check(PairGraph(_graph_of(e))))


def _number(x):
    """A walk length read off the pair arrays as an int, or math.inf."""
    return math.inf if x == math.inf else int(x)


def _parted(pg):
    """pg's parting by the edge rule, kept on it: every pair check of
    one pair graph reads it."""
    return _kept(pg, "_parted", pg.parting)


def _delays(pg, key=None):
    """Largest delay d_m over each R(m) of the reach chain, two walks
    parting by the edge rule or by ``key`` (see PairGraph.parting)."""
    delays = (_parted(pg) if key is None else pg.parting(key))[1]
    return [_number(delays[r].max(initial=0)) for r in pg.reach_sets()]


def losslessness(e):
    """No two distinct equally labeled paths share both endpoints.

    Two such paths part with a distinct edge pair leaving some diagonal
    pair (s, s); the graph is lossy iff a pair reached that way walks,
    word-synchronized, back onto the diagonal.
    """
    return _on_pairs(e, "_lossless", _lossless)


def _lossless(pg):
    out = _grouped(pg.src, len(pg.nodes))[1]
    return not any(pg.diagonal[front].any()
                   for front in _frontiers(out, pg.dst, _parted(pg)[0]))


def _infinite_certificate(pg):
    """Word-synchronized walk into a cycle from the first pair in
    by_label order reached by a parting edge pair (the edge rule of
    PairGraph.parting, read off ``steps``) whose walks are unbounded."""
    ext = pg.ext()
    index = pg.g.state_index
    n = len(pg.g.states)

    def unbounded(node):
        return ext[index(node[0]) * n + index(node[1])] == math.inf

    node = next((e1.dst, e2.dst) for s in pg.g.states
                for (_, e1, e2) in pg.steps((s, s))
                if (e1 != e2 or e1.mult != 1)
                and unbounded((e1.dst, e2.dst)))
    prefix = []
    visited = set()
    while node not in visited:
        visited.add(node)
        a, kid = next((a, kid) for (a, e1, e2) in pg.steps(node)
                      for kid in ((e1.dst, e2.dst),)
                      if unbounded(kid) or kid in visited)
        prefix.append((node, a))
        node = kid
    return (tuple(prefix), node)


def anticipation(e):
    """Lookahead needed to pin down the first edge from the word.

    Finite(a): every two paths with distinct first edges from a common
    state disagree within a symbols after the first; a is the largest
    delay over the diagonal pairs.  Infinite carries a certificate walk
    into a synchronized cycle, from the first parted pair attaining it.
    """
    return _on_pairs(e, "_anticipation", _anticipation)


def _anticipation(pg):
    a = _number(_parted(pg)[1][pg.diagonal].max(initial=0))
    return Finite(a) if a < math.inf else Infinite(_infinite_certificate(pg))


def is_definite(e, m, a):
    """Equal words of length m+a+1 force an equal edge at position m+1:
    the delay d_m over the pairs R(m) reached by m symbols is at most a
    (every m past the end L of the reach chain sees R(L))."""
    _whole([m, a], "window side")
    d = _on_pairs(e, "_edge_delays", _delays)
    return d[min(m, len(d) - 1)] <= a


def definiteness(e):
    """Smallest (m, a) with is_definite(e, m, a), by total window m + a
    and then by m; None when no window pins the edge down.

    The delay d_m never grows with m, and every m past the end L of the
    reach chain sees R(L), so the least total is the least m + d_m over
    m <= L, and no window exists when it is infinite.
    """
    delays = _on_pairs(e, "_edge_delays", _delays)
    total, m = min((m + d, m) for m, d in enumerate(delays))
    return None if total == math.inf else (m, total - m)


def sliding_block_decodable(e, m, a):
    """Equal words of length m+a+1 force equal tags at position m+1: the
    delay d_m is at most a when two walks part as their tag sets differ,
    an untagged edge holding the empty set.  The delays are read off one
    pair graph per encoder and kept on it (_kept)."""
    if not isinstance(e, TaggedEncoder):
        raise TypeError("tag comparison needs a TaggedEncoder")
    _whole([m, a], "window side")

    def build():
        ids = {}
        key = [ids.setdefault(frozenset(e.tags.get(ed, ())), len(ids))
               for ed in e.graph.edges]
        return _delays(PairGraph(e.graph), np.array(key, dtype=np.int64))
    d = _kept(e, "_tag_delays", build)
    return d[min(m, len(d) - 1)] <= a


def _walk(u, keys, memo, move):
    """The state set u read through ``keys`` in order: each key's move
    is memo[key][u], computed by move(u, key) once; an empty set stops
    the walk."""
    for k in keys:
        row = memo[k]
        nxt = row.get(u)
        if nxt is None:
            nxt = row[u] = move(u, k)
        u = nxt
        if not u:
            break
    return u


def presents_subset(e, g, t=1):
    """Every word generated by e is generated somewhere in power(g, t).

    Tracks, per encoder state reached, the set of g-states still able to
    read the word, so g may be nondeterministic.  No word graph is
    built: the edges of power(g, t) are the t-step paths of g, so an
    encoder label is read as t symbols of g (see _split_words), stepped
    one at a time through g.  g's symbols must all split into the same
    number of dotted parts, as validate_graph and power make them.

    Each step is computed once per call: a word from a state set is
    memoized in that set's row, and read as two halves (its first
    ceil(t/2) symbols and the rest; words share halves far more often
    than whole words), each half memoized per state set and stepped
    through a memo per symbol.
    """
    _whole(t, "power exponent", 1)
    eg = _graph_of(e)
    cut = (t + 1) // 2
    # label -> its nonempty halves, each a tuple of symbols that all
    # labels with that half share; a label that is no word of
    # power(g, t) is left out
    shared = {}
    halves = {label: tuple(shared.setdefault(h, h)
                           for h in (tuple(s[:cut]), tuple(s[cut:])) if h)
              for label, s in _split_words(
                  g, t, {ed.label for ed in eg.edges}).items() if s}
    # state set -> label, half -> state set and symbol -> state set,
    # each to the state set after it
    words, runs, steps = (collections.defaultdict(dict) for _ in range(3))
    symbol = functools.partial(_step, g)

    def run(u, symbols):
        return _walk(u, symbols, steps, symbol)

    empty = frozenset()
    full = frozenset(g.states)
    queue = [(v, full) for v in eg.states]
    seen = set(queue)
    while queue:
        v, u = queue.pop()
        row = words[u]
        for label, es in eg.by_label[v].items():
            u2 = row.get(label)
            if u2 is None:
                word = halves.get(label)
                u2 = row[label] = _walk(u, word, runs, run) if word else empty
            if not u2:
                return False
            for ed in es:
                node = (ed.dst, u2)
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
    return True


def check_encoder(e, g, n0, n1, t=1):
    """Aggregate structural report for a tagged encoder against
    power(g, t), which is never built (see presents_subset)."""
    _whole([n0, n1], "out-degree")
    bad = [(s, b, n) for s in e.graph.states for b, n in ((0, n0), (1, n1))
           if not e.slots_ok(s, b, n)]
    violations = ["state %r class-%d degree != %d" % v for v in bad]
    degrees = tuple(all(c != b for _, c, _ in bad) for b in (0, 1))
    contain = presents_subset(e, g, t)
    if not contain:
        violations.append("encoder generates a word outside the constraint")
    pg = PairGraph(e.graph)
    lossless = losslessness(pg)
    if not lossless:
        violations.append("two distinct equally labeled paths reconverge")
    ant = anticipation(pg)
    if isinstance(ant, Infinite):
        violations.append("anticipation is infinite")
    return VerifyReport(degrees, contain, lossless, ant,
                        definiteness(pg), violations)


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
    if not any(x):
        raise PreconditionFailed("lifted vector is zero")
    ag0, ag1, _ = adjacency_pair(g)
    if _reach(ag0, x) < n0 or _reach(ag1, x) < n1:
        raise PreconditionFailed("lifted vector fails the inequalities")
    return ApproxEigenvector(tuple(x), n0, n1)


class DecodedTag(NamedTuple):
    tag: object
    provisional: bool


def _check_start(g, start):
    if start not in g._index:
        raise ValueError("unknown start state %r" % start)


def _check_block_width(e, p):
    """p-bit blocks need out-degrees n0 = n1 = 2^(p-1), a power of two
    of bit length p, so no power of two is built past the degrees."""
    _whole(p, "block width", 1)
    n = e.n0
    if n != e.n1 or n & (n - 1) or n.bit_length() != p:
        need = 2 ** (p - 1) if p <= 64 else "2^%d" % (p - 1)
        raise ArityMismatch(
            "block width %d needs out-degrees %s, encoder has (%d, %d)" %
            (p, need, e.n0, e.n1))


def _tag_block(tag, p):
    """The block of a (class, slot) tag: the slot's bits, then the bit
    that makes the block's parity the class.  It is a p-bit block
    exactly when the class is 0 or 1 and 0 <= slot < 2^p // 2."""
    cls, slot = tag
    return bin(2 * slot + (slot.bit_count() + cls) % 2)[2:].zfill(p)


def _kept(e, name, build):
    """build(), computed on the first call that needs it and kept on
    ``e`` (an encoder or a pair graph) as ``name``: neither changes once
    it is built, and constructing an encoder builds nothing."""
    try:
        return e.__dict__[name]
    except KeyError:
        value = e.__dict__[name] = build()
        return value


# the slot of an input's move tuple each policy takes; rds-min takes
# slot 2 or 3
_SLOT = {"as-tagged": 0, "fixed-parity": 1, "rds-min": 2}


def _encodes(e, p):
    """state -> input -> the moves the policies may take for it, kept on
    the encoder.  A move is (label, sign, dst, the dst's row), sign +1
    when the label is in class 0 and -1 otherwise, one move per edge; a
    tag's move is that of the first edge in the slot index holding it,
    the first in edge order.  A raw tag (p None) holds its own move; a
    p-bit block holds four, None where the state has no edge for the
    tag: its own (as-tagged), its even twin's (fixed-parity) and its two
    reserved-bit twins' (rds-min).  A state's inputs are the blocks of
    its tags and their twins, so at most twice as many as its tags,
    whatever p."""
    def build():
        class0 = e.graph.parity.class0
        rows = {s: {} for s in e.graph.states}
        move = {ed: (ed.label, 1 if ed.label in class0 else -1, ed.dst,
                     rows[ed.dst]) for ed in e.graph.edges}
        blocks = {}  # one key string per block, shared by the states
        slots = 2 ** p // 2 if p else 0  # per class of a p-bit block
        for s, by_class in e._slots.items():
            held = {}
            for cls, pairs in by_class.items():
                for slot, ed in pairs:
                    held.setdefault((cls, slot), move[ed])
            if p is None:
                rows[s].update((t, (mv,)) for t, mv in held.items())
                continue
            sent = {_tag_block(t, p): mv for t, mv in held.items()
                    if t[0] in (0, 1) and 0 <= t[1] < slots}
            for rest in dict.fromkeys(b[1:] for b in sent):
                ks = [blocks.setdefault(r + rest, r + rest) for r in "01"]
                twins = tuple(map(sent.get, ks))
                even = twins[rest.count("1") % 2]
                rows[s].update((k, (own, even) + twins)
                               for k, own in zip(ks, twins))
        return rows
    return _kept(e, "_encode_%s" % p, build)


def _moves(e, p):
    """state -> label -> its out-edges as moves (edge, decoded tag or
    None, the target's row), kept on the encoder: one move per edge."""
    if p is not None:
        _check_block_width(e, p)

    def build():
        # an edge decodes to its least raw tag (p None) or least p-bit
        # block, one DecodedTag object per tag
        shared = {}
        key = (lambda t: t) if p is None else (lambda t: _tag_block(t, p))
        decoded = {ed: shared.setdefault(tag, DecodedTag(tag, False))
                   for ed, ts in e.tags.items() if ts
                   for tag in (min(map(key, ts)),)}
        rows = {s: {} for s in e.graph.states}
        for s, by_label in e.graph.by_label.items():
            rows[s].update({
                lbl: tuple((ed, decoded.get(ed), rows[ed.dst]) for ed in es)
                for lbl, es in by_label.items()})
        return rows
    return _kept(e, "_moves_%s" % p, build)


def encode_stream(e, tags, start, policy="as-tagged", p=None):
    """Drive the encoder from ``start`` over a tag sequence.

    Tags are p-bit block strings (p inferred from the first tag when not
    given) or raw (class, slot) pairs with the as-tagged policy and no p.  The
    first bit of each block is the reserved parity bit: fixed-parity
    forces every block even, rds-min picks the parity whose codeword
    keeps the running digital sum closest to zero (ties go to a 0
    reserved bit).  Every policy refuses a block that is not a p-bit
    binary string.  Returns (word, end_state, rds_trace); the trace
    starts at 0 and appends one value per emitted label.  Each block
    reads one entry of a row of _encodes, which the policies share.
    """
    tags = list(tags)
    _check_start(e.graph, start)
    if policy not in _SLOT:
        raise ValueError("unknown policy %r" % policy)
    block_mode = not tags or isinstance(tags[0], str)
    if block_mode:
        if p is None and tags:
            p = len(tags[0])
        if p is not None:
            _check_block_width(e, p)
    elif p is not None:
        raise ArityMismatch("block width %s given with raw (class, slot) "
                            "tags" % p)
    elif policy != "as-tagged":
        raise ValueError("raw (class, slot) tags require as-tagged policy")
    if not tags:
        return [], start, [0]
    row = _encodes(e, p)[start]
    slot = _SLOT[policy]
    rds_min = policy == "rds-min"
    unsent = (None,) * 4
    state = start
    level = 1
    rds = 0
    trace = [0]
    word = []
    for t in tags:
        sent = row.get(t, unsent)
        mv = sent[slot]
        # strict: a 0 reserved bit wins ties
        if rds_min and sent[3] is not None and (
                mv is None
                or abs(rds + level * sent[3][1]) < abs(rds + level * mv[1])):
            mv = sent[3]
        if mv is None:
            raise UnknownTag("no edge for %s %r at %r"
                             % ("block" if block_mode else "tag", t, state))
        label, sign, state, row = mv
        # each emitted label carries one channel bit, its class
        level *= sign
        rds += level
        word.append(label)
        trace.append(rds)
    return word, state, trace


def _reads(g, move, ahead):
    """A move's target reads ``ahead``: one label is a key of its row."""
    if len(ahead) < 2:
        return not ahead or ahead[0] in move[2]
    z = (move[0].dst,)
    for b in ahead:
        z = _step(g, z, b)
    return bool(z)


def decode_stream(e, word, start, p=None):
    """Recover the tag sequence from a word, tracking the state.

    Uses the encoder's anticipation as lookahead: the upcoming a+1
    labels determine the edge taken.  Within the last a positions the
    lookahead may be truncated; if several edges remain possible there,
    the canonically first is chosen and the output flagged provisional.
    Each symbol reads a row of _moves, kept with one move per edge.
    """
    word = list(word)
    g = e.graph
    _check_start(g, start)
    ant = anticipation(e)
    if isinstance(ant, Infinite):
        raise PreconditionFailed("decoding needs finite anticipation")
    a = ant.value
    here = _moves(e, p)[start]
    out = []
    # a full window of a + 1 labels leaves at most one edge, whose
    # target reads the rest of the window: the first label ahead is a
    # key of the target's row
    full = zip(word, *(itertools.islice(word, j, None)
                       for j in range(1, a + 1)))
    for i, w in enumerate(full):
        for mv in here.get(w[0], ()):
            if a == 0 or w[1] in mv[2] and (a == 1 or _reads(g, mv, w[1:])):
                break
        else:
            raise NotDecodable(i, "no edge matches the upcoming labels")
        _, tag, here = mv
        if tag is None:
            raise NotDecodable(i, "edge has no tag")
        out.append(tag)
    for i in range(max(len(word) - a, 0), len(word)):
        cands = [mv for mv in here.get(word[i], ())
                 if _reads(g, mv, word[i + 1:])]
        if not cands:
            raise NotDecodable(i, "no edge matches the upcoming labels")
        # a truncated window: the edge with the least raw tag is taken
        _, tag, here = min(
            cands, key=lambda mv: min(e.tags.get(mv[0], ((2, 0),))))
        if tag is None:
            raise NotDecodable(i, "edge has no tag")
        out.append(tag if len(cands) == 1 else DecodedTag(tag.tag, True))
    return out


def decode_sliding(e, word, m, a, p=None):
    """Stateless window decoding: tag at i from word[i-m : i+a+1].

    Returns one entry per position; None where the window is truncated
    or does not pin the tag down.  Tags are read as decode_stream reads
    them, so an untagged edge leaves its position undecided.  Needs the
    encoder to be sliding-block decodable at (m, a); a corrupted symbol
    then disturbs at most m + a + 1 outputs.
    """
    _whole([m, a], "window side")
    word = list(word)
    g = e.graph
    moves = _moves(e, p)
    # label -> the states it enters from every state, the first step of
    # each window's m-label prefix; equal state sets share one frozenset
    shared = {}
    entered = _kept(e, "_entered", lambda: {
        lbl: shared.setdefault(z, z) for lbl in {ed.label for ed in g.edges}
        for z in (_step(g, g.states, lbl),)})
    n = len(word)
    out = []
    for i in range(n):
        if i < m or i + a >= n:
            out.append(None)
            continue
        z = entered.get(word[i - m], ()) if m else g.states
        for lbl in word[i - m + 1:i]:
            z = _step(g, z, lbl)
        tags = {mv[1] for s in z for mv in moves[s].get(word[i], ())
                if _reads(g, mv, word[i + 1:i + a + 1])}
        out.append(tags.pop().tag if len(tags) == 1 and None not in tags
                   else None)
    return out
