"""Structural verification of encoders and tagged stream coding.

The checks are built on synchronized pair walks: two walks reading the
same word at once.  Losslessness asks whether diverged walks can
reconverge, anticipation how long two walks with distinct first edges
can stay word-synchronized, definiteness the same question after an
arbitrary synchronized prefix, and decodability substitutes tag
equality for edge equality.
"""

from __future__ import annotations

import collections
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
    _split_words,
    _step,
    adjacency_pair,
    determinize,
    follower_le,
    irreducible_components,
)
from .spectra import ApproxEigenvector, _ae_holds
from .synth import TaggedEncoder


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


def _pair_graph_of(e):
    """The pair checks take an encoder, a graph or a prebuilt PairGraph."""
    return e if isinstance(e, PairGraph) else PairGraph(_graph_of(e))


def _parting(pg, states):
    """(d, kid): d is 1 + the longest synchronized walk after a distinct
    edge pair leaving some (s, s), s in ``states`` (math.inf when a cycle
    is reachable), kid the first parted pair attaining it; (0, None)
    when none leaves."""
    ext, parted = pg.ext(), pg.parted
    return max(((ext[kid] + 1, kid) for s in states for kid in parted[s]),
               key=lambda dk: dk[0], default=(0, None))


def _delays(pg):
    """Largest delay d_m over each R(m) of the reach chain: (p, q) with
    p != q delays the edge by ext[(p, q)], as every edge pair leaving it
    is distinct, and (s, s) by its parting."""
    ext = pg.ext()
    parting = {s: _parting(pg, (s,))[0] for s in pg.g.states}
    return [max((parting[p] if p == q else ext[(p, q)] for (p, q) in r),
                default=0)
            for r in pg.reach_sets()]


def _check_window(m, a):
    if m < 0 or a < 0:
        raise ValueError("window (%d, %d) has a negative side" % (m, a))


def losslessness(e):
    """No two distinct equally labeled paths share both endpoints.

    Two such paths part with a distinct edge pair leaving some diagonal
    pair (s, s); the graph is lossy iff a pair reached that way walks,
    word-synchronized, back onto the diagonal.
    """
    pg = _pair_graph_of(e)
    queue = [kid for s in pg.g.states for kid in pg.parted[s]]
    seen = set(queue)
    while queue:
        p, q = queue.pop()
        if p == q:
            return False
        for kid in pg.succ[(p, q)]:
            if kid not in seen:
                seen.add(kid)
                queue.append(kid)
    return True


def _infinite_certificate(pg, start_pair):
    """Word-synchronized walk from an ambiguous pair into a cycle."""
    ext = pg.ext()
    prefix = []
    node = start_pair
    visited = set()
    while node not in visited:
        visited.add(node)
        for (a, e1, e2) in pg.steps(node):
            kid = (e1.dst, e2.dst)
            if ext[kid] == math.inf or kid in visited:
                prefix.append((node, a))
                node = kid
                break
        else:  # pragma: no cover - unbounded node always has such a child
            break
    return (tuple(prefix), node)


def anticipation(e):
    """Lookahead needed to pin down the first edge from the word.

    Finite(a): every two paths with distinct first edges from a common
    state disagree within a symbols after the first; a is the largest
    parting over the states.  Infinite carries a certificate walk into a
    synchronized cycle, from the first parted pair attaining it.
    """
    pg = _pair_graph_of(e)
    a, kid = _parting(pg, pg.g.states)
    if a == math.inf:
        return Infinite(_infinite_certificate(pg, kid))
    return Finite(a)


def is_definite(e, m, a):
    """Equal words of length m+a+1 force an equal edge at position m+1:
    the delay d_m over the pairs R(m) reached by m symbols is at most a
    (every m past the end L of the reach chain sees R(L))."""
    _check_window(m, a)
    d = _delays(_pair_graph_of(e))
    return d[min(m, len(d) - 1)] <= a


def definiteness(e):
    """Smallest (m, a) with is_definite(e, m, a), by total window m + a
    and then by m; None when no window pins the edge down.

    The delay d_m never grows with m, and every m past the end L of the
    reach chain sees R(L), so the least total is the least m + d_m over
    m <= L, and no window exists when it is infinite.
    """
    delays = _delays(_pair_graph_of(e))
    total, m = min((m + d, m) for m, d in enumerate(delays))
    if total == math.inf:
        return None
    return (m, total - m)


def sliding_block_decodable(e, m, a):
    """Equal words of length m+a+1 force equal tags at position m+1."""
    if not isinstance(e, TaggedEncoder):
        raise TypeError("tag comparison needs a TaggedEncoder")
    _check_window(m, a)
    pg = PairGraph(e.graph)
    ext = pg.ext()
    reach = pg.reach_sets()
    return not any(
        ext[(e1.dst, e2.dst)] >= a
        and set(e.tags.get(e1, ())) != set(e.tags.get(e2, ()))
        for pair in reach[min(m, len(reach) - 1)]
        for (_, e1, e2) in pg.steps(pair))


def presents_subset(e, g, t=1):
    """Every word generated by e is generated somewhere in power(g, t).

    Tracks, per encoder state reached, the set of g-states still able to
    read the word, so g may be nondeterministic.  No word graph is
    built: the edges of power(g, t) are the t-step paths of g, so an
    encoder label is read as t symbols of g (see _split_words), stepped
    one at a time through g.  g's symbols must all split into the same
    number of dotted parts, as validate_graph and power make them.  Each
    distinct (state set, label) and (state set, symbol) step is computed
    once per call.
    """
    if t < 1:
        raise ValueError("power exponent must be >= 1")
    eg = _graph_of(e)
    reads = _split_words(g, t, {ed.label for ed in eg.edges})
    # (state set, label) -> state set, and symbol -> state set -> state set
    words, steps = {}, collections.defaultdict(dict)
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
            key = (u, ed.label)
            u2 = words.get(key)
            if u2 is None:
                symbols = reads[ed.label]
                u2 = u if symbols else frozenset()
                for a in symbols:
                    row = steps[a]
                    nxt = row.get(u2)
                    if nxt is None:
                        nxt = row[u2] = _step(g, u2, a)
                    u2 = nxt
                    if not u2:
                        break
                words[key] = u2
            if not u2:
                return False
            node = (ed.dst, u2)
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return True


def check_encoder(e, g, n0, n1, t=1):
    """Aggregate structural report for a tagged encoder against
    power(g, t), which is never built (see presents_subset)."""
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
    if not (_ae_holds(ag0, x, n0) and _ae_holds(ag1, x, n1)):
        raise PreconditionFailed("lifted vector fails the inequalities")
    return ApproxEigenvector(tuple(x), n0, n1)


class DecodedTag(NamedTuple):
    tag: object
    provisional: bool


def _check_start(g, start):
    if start not in set(g.states):
        raise ValueError("unknown start state %r" % start)


def _check_block_width(e, p):
    """p-bit blocks need out-degrees n0 = n1 = 2^(p-1)."""
    n = 2 ** (p - 1)
    if e.n0 != n or e.n1 != n:
        raise ArityMismatch(
            "block width %d needs out-degrees %d, encoder has (%d, %d)" %
            (p, n, e.n0, e.n1))


def _block_tag(block, p):
    """Tag of a p-bit block string: class its parity, slot the block
    without its last bit; None when it is not a p-bit string."""
    if len(block) != p or block.strip("01"):
        return None
    v = int(block, 2)
    return v.bit_count() % 2, v >> 1


def _tag_block(tag, p):
    """Inverse of _block_tag: the last bit restores the class parity."""
    cls, slot = tag
    return bin(2 * slot + (slot.bit_count() + cls) % 2)[2:].zfill(p)


def _kept(e, name, build):
    """build(), computed on the first codec call that needs it and kept
    on the encoder as ``name``: an encoder's graph and tags never change
    once it is built, and constructing one builds nothing."""
    try:
        return e.__dict__[name]
    except KeyError:
        value = e.__dict__[name] = build()
        return value


# the blocks each policy may send for an input block: the reserved
# first bit is the policy's
_SENDS = {
    "as-tagged": lambda t: (t,),
    "fixed-parity": lambda t: (str(t[1:].count("1") % 2) + t[1:],),
    "rds-min": lambda t: ("0" + t[1:], "1" + t[1:]),
}


def _sends(e, p, policy):
    """input -> the tags the policy may send for it, in the order _SENDS
    lists their blocks, kept on the encoder.  The inputs are the
    encoder's raw tags (p None, as-tagged) or the p-bit blocks that can
    send one of its tags, a block sending its _block_tag: the blocks of
    the tags and their reserved-bit twins, so at most twice as many as
    tags, whatever p.  A state's move is the first edge carrying a sent
    tag there (by_tag); with two, the policy picks."""
    def build():
        tags = {t for row in e.by_tag.values() for t in row}
        if p is None:
            return {t: (t,) for t in tags}
        blocks = [_tag_block(t, p) for t in tags]
        inputs = {r + b[1:] for b, t in zip(blocks, tags)
                  if _block_tag(b, p) == t for r in "01"}
        return {k: tuple(_block_tag(b, p) for b in _SENDS[policy](k))
                for k in inputs}
    return _kept(e, "_sends_%s_%s" % (p, policy), build)


def _decoded_tags(e, p):
    """Each tagged edge -> its least raw tag (p None) or least p-bit
    block, kept on the encoder."""
    def build():
        blocks = {}  # one string per block, however many edges carry it
        key = (lambda t: t) if p is None else (
            lambda t: blocks.setdefault(t, _tag_block(t, p)))
        return {ed: min(map(key, ts)) for ed, ts in e.tags.items() if ts}
    return _kept(e, "_decoded_%s" % p, build)


def encode_stream(e, tags, start, policy="as-tagged", p=None):
    """Drive the encoder from ``start`` over a tag sequence.

    Tags are p-bit block strings (p inferred from the first tag when not
    given) or raw (class, slot) pairs with the as-tagged policy.  The
    first bit of each block is the reserved parity bit: fixed-parity
    forces every block even, rds-min picks the parity whose codeword
    keeps the running digital sum closest to zero (ties go to a 0
    reserved bit).  Every policy refuses a block that is not a p-bit
    binary string.  Returns (word, end_state, rds_trace); the trace
    starts at 0 and appends one value per emitted label.
    """
    tags = list(tags)
    g = e.graph
    _check_start(g, start)
    if policy not in _SENDS:
        raise ValueError("unknown policy %r" % policy)
    block_mode = not tags or isinstance(tags[0], str)
    if block_mode:
        if p is None and tags:
            p = len(tags[0])
        if p is not None:
            _check_block_width(e, p)
    elif policy != "as-tagged":
        raise ValueError("raw (class, slot) tags require as-tagged policy")
    if not tags:
        return [], start, [0]
    sends = _sends(e, p if block_mode else None, policy)
    by_tag = e.by_tag
    class0 = g.parity.class0
    state = start
    level = 1
    rds = 0
    trace = [0]
    word = []
    for t in tags:
        row = by_tag[state]
        move = None
        for tag in sends.get(t, ()):
            edges = row.get(tag)
            if edges:
                # each emitted label carries one channel bit, its class
                lv = level if edges[0].label in class0 else -level
                s = rds + lv
                # strict: a 0 reserved bit wins ties
                if move is None or abs(s) < abs(move[2]):
                    move = (edges[0], lv, s)
        if move is None:
            raise UnknownTag("no edge for %s %r at %r"
                             % ("block" if block_mode else "tag", t, state))
        edge, level, rds = move
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


def _decode_step(e, decoded, state, window):
    """(DecodedTag, next state) for the edge leaving ``state`` that reads
    the window of upcoming labels, or the reason none decodes."""
    cands = _candidates(e.graph, (state,), window[0], window[1:])
    if not cands:
        return "no edge matches the upcoming labels"
    provisional = len(cands) > 1
    if provisional:
        # only possible when the lookahead window was truncated
        cands.sort(key=lambda ed: min(e.tags.get(ed, ((2, 0),))))
    edge = cands[0]
    if edge not in decoded:
        return "edge has no tag"
    return DecodedTag(decoded[edge], provisional), edge.dst


def decode_stream(e, word, start, p=None):
    """Recover the tag sequence from a word, tracking the state.

    Uses the encoder's anticipation as lookahead: the upcoming a+1
    labels determine the edge taken.  Within the last a positions the
    lookahead may be truncated; if several edges remain possible there,
    the canonically first is chosen and the output flagged provisional.
    Each (state, window) is resolved once per call.
    """
    word = list(word)
    g = e.graph
    _check_start(g, start)
    ant = _kept(e, "_anticipation", lambda: anticipation(e))
    if isinstance(ant, Infinite):
        raise PreconditionFailed("decoding needs finite anticipation")
    a = ant.value
    if p is not None:
        _check_block_width(e, p)
    decoded = _decoded_tags(e, p)
    # the upcoming a + 1 labels at each position, truncated at the end
    n = len(word)
    windows = itertools.chain(
        zip(word, *(itertools.islice(word, j, None) for j in range(1, a + 1))),
        (tuple(word[i:]) for i in range(max(n - a, 0), n)))
    steps = {}
    state = start
    out = []
    for i, window in enumerate(windows):
        key = (state, window)
        step = steps.get(key)
        if step is None:
            step = steps[key] = _decode_step(e, decoded, *key)
        if isinstance(step, str):
            raise NotDecodable(i, step)
        tag, state = step
        out.append(tag)
    return out


def decode_sliding(e, word, m, a, p=None):
    """Stateless window decoding: tag at i from word[i-m : i+a+1].

    Returns one entry per position; None where the window is truncated
    or does not pin the tag down.  Tags are read as decode_stream reads
    them, so an untagged edge leaves its position undecided.  Needs the
    encoder to be sliding-block decodable at (m, a); a corrupted symbol
    then disturbs at most m + a + 1 outputs.
    """
    _check_window(m, a)
    word = list(word)
    g = e.graph
    if p is not None:
        _check_block_width(e, p)
    decoded = _decoded_tags(e, p)
    n = len(word)
    out = []
    for i in range(n):
        if i < m or i + a >= n:
            out.append(None)
            continue
        z = g.states
        for lbl in word[i - m:i]:
            z = _step(g, z, lbl)
        tags = {decoded.get(ed) for ed in
                _candidates(g, z, word[i], word[i + 1:i + a + 1])}
        out.append(tags.pop() if len(tags) == 1 else None)
    return out
