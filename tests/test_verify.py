import functools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from bimodal import graphs, verify
from bimodal import (
    ArityMismatch,
    Edge,
    Finite,
    Infinite,
    NotDecodable,
    PairGraph,
    PreconditionFailed,
    TaggedEncoder,
    UnknownTag,
    anticipation,
    check_encoder,
    decode_sliding,
    decode_stream,
    determinize,
    definiteness,
    encode_stream,
    extract_deterministic,
    is_definite,
    LabeledGraph,
    adjacency_pair,
    losslessness,
    memory,
    merge_split_pair,
    min_infnorm_ae,
    parity_subgraph,
    power,
    presents_subset,
    sliding_block_decodable,
    split_one_round,
    stether,
    stether_punctured,
    validate_graph,
    witness_ae,
)


def _pair_succ(g, p, q):
    for e1 in helpers.out_edges(g, p):
        for e2 in helpers.out_edges(g, q):
            if e1.label == e2.label:
                yield e1, e2


def oracle_lossless(g):
    """Level-by-level enumeration of word-synchronized path pairs."""
    n = len(g.states)
    level = {(s, s, False) for s in g.states}
    for _ in range(2 * n * n + 1):
        nxt = set()
        for p, q, div in level:
            for e1, e2 in _pair_succ(g, p, q):
                d = div or e1 != e2
                if d and e1.dst == e2.dst:
                    return False
                nxt.add((e1.dst, e2.dst, d))
        level = nxt
    return True


def oracle_anticipation(g):
    """Longest word shared by two paths with distinct first edges."""
    frontier = set()
    for u in g.states:
        for e1, e2 in _pair_succ(g, u, u):
            if e1 != e2:
                frontier.add((e1.dst, e2.dst))
    n = len(g.states)
    t = 0
    while frontier:
        t += 1
        if t > n * n + 1:
            return math.inf
        frontier = {(e1.dst, e2.dst)
                    for p, q in frontier
                    for e1, e2 in _pair_succ(g, p, q)}
    return t


def test_losslessness_oracle_agreement():
    rng = np.random.default_rng(47)
    for _ in range(200):
        g = helpers.random_graph(rng)
        assert losslessness(g) == oracle_lossless(g), g.edges


def test_anticipation_oracle_agreement():
    rng = np.random.default_rng(53)
    for _ in range(200):
        g = helpers.random_graph(rng)
        want = oracle_anticipation(g)
        got = anticipation(g)
        if want == math.inf:
            assert isinstance(got, Infinite), g.edges
        else:
            assert isinstance(got, Finite) and got.value == want, g.edges


def test_anticipation_certificate_is_synchronized_cycle():
    g = power(helpers.two_state(), 3)
    e = stether(g, (3, 1), 3, 3)
    got = anticipation(e)
    assert isinstance(got, Infinite)
    prefix, node = got.certificate
    assert prefix
    # the certificate ends in a pair that reappears along the walk
    assert node in [p for p, _ in prefix] + [node]
    states = set(e.graph.states)
    for (p, q), label in prefix:
        assert p in states and q in states
        assert any(ed.label == label for ed in helpers.out_edges(e.graph, p))
        assert any(ed.label == label for ed in helpers.out_edges(e.graph, q))


def test_definiteness_and_memory_cases():
    assert memory(helpers.two_state()) == Finite(1)
    g = helpers.quad()
    # state 'alpha,beta' vs 'beta,alpha' cycles on shared labels
    assert isinstance(memory(g), Infinite)
    e = extract_deterministic(g, (1, 1), 2, 2)
    assert anticipation(e) == Finite(0)
    # no window ever pins the edge down, only the tag
    assert definiteness(e) is None
    assert not is_definite(e, 2, 2)
    assert sliding_block_decodable(e, 0, 0)


def _paths(g, length):
    """Every path of ``length`` edges, as a tuple of edges."""
    paths = [(ed,) for ed in g.edges]
    for _ in range(length - 1):
        paths = [p + (ed,) for p in paths
                 for ed in helpers.out_edges(g, p[-1].dst)]
    return paths


def test_definiteness_matches_path_enumeration():
    # windows of up to 7 symbols: (m, a) is definite when all paths
    # reading one word of m + a + 1 symbols share their edge at m
    rng = np.random.default_rng(67)
    kinds = set()
    for i in range(80):
        g = helpers.random_graph(rng, max_states=3, strict=bool(i % 2),
                                 max_out=2)
        window = {}
        for total in range(7):
            by_word = {}
            for path in _paths(g, total + 1):
                by_word.setdefault(tuple(ed.label for ed in path),
                                   []).append(path)
            for m in range(total + 1):
                want = all(len({p[m] for p in ps}) == 1
                           for ps in by_word.values())
                assert is_definite(g, m, total - m) == want, (g.edges, m)
                window[m, total - m] = want
        first = next((ma for ma, ok in window.items() if ok), None)
        got = definiteness(g)
        if first is not None:
            assert got == first, g.edges
        else:
            # nothing definite within the window
            assert got is None or sum(got) > 6, g.edges
        kinds.add("none" if got is None else
                  "m > 0" if got[0] else "a > 0" if got[1] else "(0, 0)")
    assert kinds == {"none", "m > 0", "a > 0", "(0, 0)"}


def _chain_encoder(k=40):
    """Lossless encoder at (1, 1) whose anticipation is exactly k: from
    s, x enters one of two k-state y-chains by its tag's class, and the
    chains return to s by z and by w."""
    states = (["s"] + ["a%d" % i for i in range(1, k + 1)]
              + ["b%d" % i for i in range(1, k + 1)])
    both = ((0, 0), (1, 0))
    tagged = [(("s", "x", "a1"), ((0, 0),)), (("s", "x", "b1"), ((1, 0),))]
    for c in "ab":
        tagged += [(("%s%d" % (c, i), "y", "%s%d" % (c, i + 1)), both)
                   for i in range(1, k)]
    tagged += [(("a%d" % k, "z", "s"), both), (("b%d" % k, "w", "s"), both)]
    g = validate_graph(states, [ed for ed, _ in tagged], "xyzw", "xyzw")
    return TaggedEncoder(g, {ed: tags for ed, (_, tags)
                             in zip(g.edges, tagged)}, 1, 1)


def test_long_anticipation_is_exact():
    e = _chain_encoder()
    g = validate_graph(["o"], [("o", c, "o") for c in "xyzw"],
                       "xyzw", "xyzw")
    rep = check_encoder(e, g, 1, 1)
    assert rep.ok, str(rep)
    assert rep.anticipation == Finite(40)
    assert rep.definiteness == (0, 40)
    assert "anticipation: 40" in str(rep)
    # three laps round the chains, then the 40 symbols settling the last
    tags = [t for c in (1, 0, 1, 0) for t in [(c, 0)] + [(0, 0)] * 40][:163]
    word, _, _ = encode_stream(e, tags, "s")
    assert len(word) >= 83
    decoded = decode_stream(e, word, "s")
    assert [d.tag for d in decoded[:3 * 41]] == tags[:3 * 41]
    assert not any(d.provisional for d in decoded[:3 * 41])


def test_untagged_edge_does_not_decode():
    g = helpers.two_state()
    e = TaggedEncoder(g, {}, 1, 1)
    word = ["a", "b", "d"]
    for p in (None, 1):
        with pytest.raises(NotDecodable, match="no tag"):
            decode_stream(e, word, "alpha", p=p)
        assert decode_sliding(e, word, 0, 0, p=p) == [None] * 3


def test_punctured_definiteness():
    g = power(helpers.two_state(), 3)
    e = stether_punctured(g, (2, 1), 2, 2)
    e2 = anticipation(e)
    # within the construction bound of 1 + ceil(log3 2)
    assert e2 == Finite(1) and e2.value <= 2
    assert definiteness(e) == (0, 1)
    assert is_definite(e, 1, 2)
    assert sliding_block_decodable(e, 0, 1)


def test_presents_subset():
    g = helpers.quad()
    e = extract_deterministic(g, (1, 1), 2, 2)
    assert presents_subset(e, g)
    # quad generates every word over the alphabet
    assert presents_subset(helpers.two_state(), g)
    assert not presents_subset(e, helpers.two_state())


def _labelled(rng, labels, parity, n=3):
    """Random graph on n states whose labels are drawn from ``labels``,
    which need not be symbols of one length or words at all."""
    states = ["v%d" % i for i in range(n)]
    edges = {(s, labels[rng.integers(len(labels))], states[rng.integers(n)])
             for s in states for _ in range(rng.integers(1, 4))}
    return LabeledGraph(states, [Edge(*ed) for ed in sorted(edges)], parity)


def _words(g, j):
    return sorted({ed.label for ed in power(g, j).edges})


def test_presents_subset_reads_words_through_base_graph():
    # reading a label as t symbols of g is containment in power(g, t):
    # g's symbols are single letters or, in a power, dotted words; the
    # encoders read g's words of t, t - 1 and t + 1 symbols, words of
    # other graphs, and labels that are no words at all
    rng = np.random.default_rng(79)
    seen = set()
    for i in range(36):
        base = helpers.random_graph(rng, max_states=3, strict=bool(i % 2),
                                    max_out=2)
        g = base if i % 3 else power(base, 2)
        other = power(helpers.random_graph(rng, max_states=2), 1 if i % 3
                      else 2)
        for t in (1, 2, 3):
            pw = power(g, t)
            words = _words(g, t)
            w = words[0]
            junk = ["zz", w + ".", "." + w, w + ".." + w,
                    ".".join(["q"] * len(w.split(".")))]
            keep = [ed for ed in g.edges if rng.random() < 0.7]
            encoders = [
                power(LabeledGraph(g.states, keep, g.parity), t),
                _labelled(rng, words, g.parity),
                _labelled(rng, words + _words(other, t), g.parity),
                _labelled(rng, words + _words(g, t + 1), g.parity),
                _labelled(rng, words + junk, g.parity),
            ]
            if t > 1:
                encoders.append(_labelled(rng, _words(g, t - 1), g.parity))
            for e in encoders:
                got = presents_subset(e, g, t)
                assert got == presents_subset(e, pw), (g.edges, t, e.edges)
                seen.add(got)
    assert seen == {True, False}
    with pytest.raises(ValueError, match="exponent"):
        presents_subset(g, g, 0)
    # synthesized encoders, against the base graph of their power
    import test_acceptance
    bases = {"det quad": (helpers.quad(), 1),
             "det square": (helpers.two_state(), 2)}
    for name, _, e, _, _, _ in test_acceptance._fixture_encoders():
        base, own = bases.get(name, (helpers.two_state(), 3))
        for t in (1, 2, 3):
            got = presents_subset(e, base, t)
            assert got == presents_subset(e, power(base, t)), (name, t)
            assert got == (t == own), (name, t)


def _outside_word(g, t, rng):
    """A word of t symbols of g that no path of g reads, or None."""
    words = set(_words(g, t))
    symbols = sorted(g.parity.alphabet)
    for _ in range(50):
        w = ".".join(symbols[rng.integers(len(symbols))] for _ in range(t))
        if w not in words:
            return w
    return None


def _relabelled(g, edge, label):
    return LabeledGraph(g.states, [Edge(ed.src, label, ed.dst, ed.mult)
                                   if ed == edge else ed for ed in g.edges],
                        g.parity)


def test_presents_subset_matches_frozen_walk():
    # the word memo per state set and per half gives the verdicts of the
    # memo keyed by (state set, label): nondeterministic bases whose
    # symbols are letters or dotted words (a power of a power), t = 1-3,
    # encoders inside the constraint, encoders of its words and others',
    # and encoders that leave it on the first edge the walk takes (the
    # first out-edge of the last state, as the walk pops the last state
    # queued) or on a late one (the last out-edge of the first state)
    rng = np.random.default_rng(97)
    verdicts = {}
    nondeterministic = 0
    for i in range(60):
        base = helpers.random_graph(rng, max_states=3, strict=bool(i % 2),
                                    max_out=3)
        g = base if i % 3 else power(base, 2)
        nondeterministic += not g.deterministic
        for t in (1, 2, 3):
            keep = [ed for ed in g.edges if rng.random() < 0.8] or g.edges
            inside = power(LabeledGraph(g.states, keep, g.parity), t)
            other = _words(helpers.random_graph(rng, max_states=2), t)
            encoders = {"inside": inside,
                        "words": _labelled(rng, _words(g, t), g.parity),
                        "others": _labelled(rng, _words(g, t) + other,
                                            g.parity)}
            out = _outside_word(g, t, rng)
            tails = [v for v in inside.states if helpers.out_edges(inside, v)]
            if out is not None and tails:
                first = helpers.out_edges(inside, tails[-1])[0]
                late = helpers.out_edges(inside, tails[0])[-1]
                encoders["first"] = _relabelled(inside, first, out)
                encoders["late"] = _relabelled(inside, late, out)
            for kind, e in encoders.items():
                got = presents_subset(e, g, t)
                assert got == helpers.reference_presents_subset(e, g, t), (
                    kind, g.edges, t, e.edges)
                verdicts.setdefault(kind, set()).add(got)
    assert verdicts == {"inside": {True}, "words": {True, False},
                        "others": {True, False}, "first": {False},
                        "late": {False}}
    assert nondeterministic >= 20


def test_word_split_matches_branched_reference(monkeypatch):
    # the one word split reads each word as the branched split did, and
    # presents_subset gives the same verdicts through either, on bases
    # whose symbols are letters or words, strict and overlapping, with
    # multiplicities up to 3
    from bimodal import verify
    from bimodal.graphs import _split_words

    def branched(g, t, labels):
        k = g.edges[0].label.count(".") + 1
        return {a: helpers.reference_symbols(a, t, k) for a in labels}

    rng = np.random.default_rng(89)
    verdicts = set()
    for i in range(48):
        base = helpers.random_graph(rng, max_states=3, strict=bool(i % 2),
                                    max_out=2)
        if i % 4 == 0:
            base = helpers.with_multiplicities(rng, base)
        g = base if i % 3 else power(base, 2)
        k = g.edges[0].label.count(".") + 1
        for t in (1, 2, 3):
            words = _words(g, t)
            w = words[0]
            labels = (words + _words(g, t + 1)
                      + ["zz", w + ".", w + ".." + w])
            split = _split_words(g, t, labels)
            for a in labels:
                if len(a.split(".")) == t * k:
                    assert split[a] == list(
                        helpers.reference_symbols(a, t, k))
                else:
                    assert split[a] == ()
            keep = [ed for ed in g.edges if rng.random() < 0.7]
            for e in (power(LabeledGraph(g.states, keep, g.parity), t),
                      _labelled(rng, words, g.parity),
                      _labelled(rng, labels, g.parity)):
                got = presents_subset(e, g, t)
                with monkeypatch.context() as m:
                    m.setattr(verify, "_split_words", branched)
                    assert presents_subset(e, g, t) == got
                verdicts.add(got)
    assert verdicts == {True, False}


def _pair_checks(e):
    """Every answer read off the pair graph, certificates by repr; the
    edge checks share one prebuilt pair graph."""
    windows = [(m, a) for m in range(3) for a in range(3)]
    pg = PairGraph(e.graph)
    return (losslessness(pg), repr(anticipation(pg)), definiteness(pg),
            [is_definite(pg, m, a) for m, a in windows],
            repr(memory(e.graph)),
            [sliding_block_decodable(e, m, a) for m, a in windows])


def test_pair_graph_matches_reference(monkeypatch):
    # the pair arrays hold the relation of the edge-pair listing on
    # nondeterministic graphs, edges of multiplicity 2 and the fixture
    # encoders, and every pair check answers as it does from the listing
    # put in their place
    import test_acceptance
    rng = np.random.default_rng(83)
    encoders = [e for _, _, e, _, _, _ in test_acceptance._fixture_encoders()]
    for i in range(150):
        g = helpers.random_graph(rng, strict=bool(i % 2))
        if i % 3 == 0:
            g = validate_graph(g.states, [
                (ed.src, ed.label, ed.dst, int(rng.integers(1, 3)))
                for ed in g.edges], g.parity.class0, g.parity.class1)
        encoders.append(TaggedEncoder(g, {
            ed: ((int(rng.integers(2)), int(rng.integers(2))),)
            for ed in g.edges}, 1, 1))
    init = PairGraph.__init__

    def listed(g):
        return helpers.pair_arrays_of(g, helpers.reference_pair_succ(g))

    def reference(self, g):
        init(self, g)
        self.src, self.dst = listed(g)

    kinds = set()
    for e in encoders:
        pg = PairGraph(e.graph)
        src, dst = listed(e.graph)
        assert np.array_equal(pg.src, src) and np.array_equal(pg.dst, dst)
        got = _pair_checks(e)
        with monkeypatch.context() as m:
            m.setattr(PairGraph, "__init__", reference)
            assert _pair_checks(e) == got, e.graph.edges
        kinds.add((got[0], got[1].startswith("Infinite"),
                   any(ed.mult > 1 for ed in e.graph.edges)))
    # (lossless, infinite anticipation, multiplicity > 1); an edge of
    # multiplicity 2 parts from itself and rejoins, so it is lossy
    assert kinds == {(True, False, False), (True, True, False),
                     (False, True, False), (False, True, True)}


def test_pair_layer_matches_mask_reference(monkeypatch):
    # every answer read off the pair arrays equals the one read off the
    # label-mask successors and Tarjan walks they replaced:
    # nondeterministic graphs of 1-6 states, multiplicities 1-3, strict
    # and overlapping covers; follower_le into deterministic graphs and
    # merge_states, weighted and unweighted, on those
    rng = np.random.default_rng(89)
    windows = [(m, a) for m in range(3) for a in range(3)]
    kinds = set()
    for i in range(1000):
        strict = bool(i % 2)
        g = helpers.random_graph(rng, max_states=6, strict=strict)
        if i % 3 == 0:
            g = helpers.with_multiplicities(rng, g)
        e = TaggedEncoder(g, {
            ed: ((int(rng.integers(2)), int(rng.integers(2))),)
            for ed in g.edges}, 1, 1)
        got = _pair_checks(e)
        assert got == helpers.mask_pair_checks(e, windows), g.edges
        h = helpers.random_det_graph(rng, max_states=6, strict=strict)
        for a, b in ((g, h), (h, h)):
            assert graphs.follower_le(a, b) == helpers.mask_follower_le(a, b)
        merged = []
        for w in (None, [int(v) for v in rng.integers(0, 3, len(h.states))]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = graphs.merge_states(h, w)
                with monkeypatch.context() as m:
                    m.setattr(graphs, "_essential", helpers.tarjan_essential)
                    m.setattr(graphs, "follower_le", helpers.mask_follower_le)
                    assert graphs.merge_states(h, w) == want, (h.edges, w)
            merged.append(len(want.states) < len(h.states))
        kinds.add((got[0], got[1].startswith("Infinite"), got[2] is None,
                   got[4].startswith("Infinite")) + tuple(merged))
    # (lossless, infinite anticipation, no window, infinite memory); a
    # lossless graph with infinite anticipation keeps an off-diagonal
    # cycle in every R(m), so it has no window and infinite memory
    assert {k[:4] for k in kinds} == {
        (True, False, False, False), (True, False, False, True),
        (True, False, True, True), (True, True, True, True),
        (False, True, False, False), (False, True, False, True),
        (False, True, True, False), (False, True, True, True)}
    # (merged unweighted, merged weighted)
    assert {k[4:] for k in kinds} == {(False, False), (True, True),
                                      (False, True), (True, False)}
    # the same comparison where edge order and tag ids can slip: state
    # names that sort unlike their indices, shuffled edges,
    # multiplicities 1-3 on half the draws, overlapping covers, and tag
    # sets that are absent or hold one or two tags
    kinds = set()
    for i in range(300):
        g = helpers.random_shuffled_graph(rng, strict=bool(i % 2))
        if i % 4 < 2:
            g = validate_graph(g.states, [ed[:3] for ed in g.edges],
                               g.parity.class0, g.parity.class1)
        e = TaggedEncoder(g, {
            ed: tuple((int(rng.integers(2)), int(rng.integers(2)))
                      for _ in range(rng.integers(1, 3)))
            for ed in g.edges if rng.integers(4)}, 1, 1)
        got = _pair_checks(e)
        assert got == helpers.mask_pair_checks(e, windows), (g.edges, e.tags)
        kinds.add((got[0], got[1].startswith("Infinite"), any(got[5]),
                   all(got[5])))
    # (lossless, infinite anticipation, some window decodes the tags,
    # every window does)
    assert kinds == {
        (True, False, True, True), (True, False, True, False),
        (True, False, False, False), (True, True, False, False),
        (False, True, True, True), (False, True, True, False),
        (False, True, False, False)}


def test_pair_graph_of_a_long_ring_stays_small():
    # a 300-state ring has 90 000 pairs; a dense matrix over them would
    # take 8.1 GB, the pair arrays and the checks on them about 5.6 MiB
    # at peak, with no per-pair Python object
    import tracemalloc
    n = 300
    states = ["r%d" % i for i in range(n)]
    g = validate_graph(states, [(states[i], "a", states[(i + 1) % n])
                                for i in range(n)], ["a"], ["b"])
    tracemalloc.start()
    try:
        pg = PairGraph(g)
        answers = (losslessness(pg), anticipation(pg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pg.diagonal.size == n * n and len(pg.src) == n * n
    assert answers == (True, Finite(0))
    assert peak < 8 * 2 ** 20


def test_check_encoder_report():
    g = helpers.quad()
    e = extract_deterministic(g, (1, 1), 2, 2)
    rep = check_encoder(e, g, 2, 2)
    assert rep.ok
    assert rep.anticipation == Finite(0)
    assert "anticipation" in str(rep)
    bad = check_encoder(e, g, 3, 2)
    assert not bad.ok and bad.violations


def test_definiteness_reported_when_anticipation_is_infinite():
    # the two x-paths from s stay synchronized forever, but every path
    # is on the loop at v after two symbols
    g = validate_graph("stuv", [("s", "x", "t"), ("s", "x", "u"),
                                ("t", "y", "v"), ("u", "y", "v"),
                                ("v", "z", "v")], "xz", "y")
    e = TaggedEncoder(g, {}, 0, 0)
    one = validate_graph(["o"], [("o", c, "o") for c in "xyz"], "xz", "y")
    rep = check_encoder(e, one, 0, 0)
    assert isinstance(rep.anticipation, Infinite)
    assert not rep.ok
    assert rep.definiteness == (2, 0)
    assert "definiteness: (2, 0)" in str(rep)


def test_check_encoder_builds_one_pair_graph(monkeypatch):
    built = []
    init = PairGraph.__init__

    def counting(self, g):
        built.append(g)
        init(self, g)

    g = power(helpers.two_state(), 3)
    e = stether_punctured(g, (2, 1), 2, 2)
    monkeypatch.setattr(PairGraph, "__init__", counting)
    rep = check_encoder(e, g, 2, 2)
    assert rep.ok and rep.definiteness is not None
    assert built == [e.graph]
    # one synchronized product, which follower_le builds the same way
    monkeypatch.undo()
    listed = []
    pair_arrays = graphs._pair_arrays

    def counting_arrays(g1, g2):
        listed.append((g1, g2))
        return pair_arrays(g1, g2)

    monkeypatch.setattr(graphs, "_pair_arrays", counting_arrays)
    check_encoder(e, g, 2, 2)
    assert listed == [(e.graph, e.graph)]
    h = determinize(e.graph)
    graphs.follower_le(e.graph, h)
    assert listed[1:] == [(e.graph, h)]
    assert not hasattr(graphs, "_pair_succ")
    assert not hasattr(graphs, "_longest")
    # the pair checks give the same answers from a prebuilt pair graph
    monkeypatch.undo()
    pg = PairGraph(e.graph)
    assert losslessness(pg) == losslessness(e)
    assert anticipation(pg) == anticipation(e)
    assert definiteness(pg) == definiteness(e)
    assert is_definite(pg, 1, 1) == is_definite(e, 1, 1)


def test_decode_stream_builds_one_pair_graph(monkeypatch):
    built = []
    init = PairGraph.__init__

    def counting(self, g):
        built.append(g)
        init(self, g)

    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    start = e.graph.states[0]
    word, _, _ = encode_stream(e, ["00", "11", "01", "10", "00"], start)
    monkeypatch.setattr(PairGraph, "__init__", counting)
    for _ in range(3):
        decoded = decode_stream(e, word, start, p=2)
    assert [d.tag for d in decoded[:4]] == ["00", "11", "01", "10"]
    assert built == [e.graph]


def test_witness_ae_quad():
    g = helpers.quad()
    e = extract_deterministic(g, (1, 1), 2, 2)
    w = witness_ae(e, g, 2, 2)
    assert w.entries == (1, 1)


def test_witness_ae_rejects_wrong_degrees():
    g = helpers.quad()
    e = extract_deterministic(g, (1, 1), 2, 2)
    with pytest.raises(PreconditionFailed):
        witness_ae(e, g, 2, 1)


def test_witness_ae_refusals():
    # the three refusals after the degree check: no sink, a lifted
    # vector of zeros, and one failing g's inequalities
    from bimodal.io import parse_encoder_file
    g = helpers.two_state()
    empty = TaggedEncoder(LabeledGraph([], [], g.parity), {}, 1, 1)
    with pytest.raises(PreconditionFailed,
                       match="^determinized encoder has no sink$"):
        witness_ae(empty, g, 1, 1)
    # an encoder whose labels p, q g never reads
    foreign = parse_encoder_file(
        "states: z\nparity0: p\nparity1: q\nedge: z p z\nedge: z q z\n"
        "tag: z 0 0 p z\ntag: z 1 0 q z\n")
    with pytest.raises(PreconditionFailed, match="^lifted vector is zero$"):
        witness_ae(foreign, g, 1, 1)
    # the file puts a in class 1, where g has it in class 0: the lifted
    # vector (1, 0) has no class-1 edge into its support at alpha
    swapped = parse_encoder_file(
        "states: z\nparity0: b\nparity1: a\nedge: z a z\n"
        "tag: z 1 0 a z\n")
    assert (swapped.n0, swapped.n1) == (0, 1)
    with pytest.raises(PreconditionFailed,
                       match="^lifted vector fails the inequalities$"):
        witness_ae(swapped, g, 0, 1)


def test_sliding_block_decodable_needs_tags():
    with pytest.raises(TypeError,
                       match="^tag comparison needs a TaggedEncoder$"):
        sliding_block_decodable(helpers.quad(), 0, 0)


def _ex3_t2_encoder():
    g = power(helpers.two_state(), 2)
    return extract_deterministic(g, (1, 1), 1, 1)


def _round_trip_fixtures():
    yield _ex3_t2_encoder(), 1
    yield extract_deterministic(helpers.quad(), (1, 1), 2, 2), 2
    yield stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2), 2


def test_round_trip_all_policies():
    rng = random.Random(7)
    for e, p in _round_trip_fixtures():
        a = anticipation(e).value
        start = e.graph.states[0]
        blocks = ["".join(rng.choice("01") for _ in range(p))
                  for _ in range(1000)]
        pad = ["0" * p] * a
        for policy in ("as-tagged", "fixed-parity", "rds-min"):
            word, end, trace = encode_stream(e, blocks + pad, start,
                                             policy=policy)
            assert len(word) == 1000 + len(pad)
            assert len(trace) == len(word) + 1
            decoded = decode_stream(e, word, start, p=p)
            got = [d.tag for d in decoded[:1000]]
            assert not any(d.provisional for d in decoded[:1000])
            if policy == "as-tagged":
                assert got == blocks
            else:
                # the reserved first bit belongs to the policy
                assert [b[1:] for b in got] == [b[1:] for b in blocks]


def test_round_trip_raw_tags():
    rng = random.Random(11)
    e, _ = next(_round_trip_fixtures())
    tags = [(rng.randrange(2), 0) for _ in range(500)]
    word, end, _ = encode_stream(e, tags, e.graph.states[0])
    decoded = decode_stream(e, word, e.graph.states[0])
    assert [d.tag for d in decoded] == tags


def test_encode_stream_edge_cases():
    e, p = next(_round_trip_fixtures())
    word, end, trace = encode_stream(e, [], e.graph.states[0])
    assert word == [] and trace == [0]
    with pytest.raises(ValueError):
        encode_stream(e, ["0"], "nope")
    with pytest.raises(ValueError):
        encode_stream(e, [(0, 0)], e.graph.states[0], policy="rds-min")


def _twostate_cube_encoder():
    """The (3, 3) stether encoder of the two-state graph at t=3, whose
    degrees take no p-bit blocks, as ``bimodal synth`` builds it."""
    g = helpers.two_state()
    a0, a1, _ = adjacency_pair(g, 3)
    _, x = min_infnorm_ae(a0, a1, 3, 3)
    return stether(power(g, 3), x.entries, 3, 3)


def test_encode_stream_refuses_width_with_raw_tags():
    # a block width says the input is p-bit blocks, so raw tags beside
    # it are refused, whatever the encoder's degrees
    e = _twostate_cube_encoder()
    assert encode_stream(e, [(0, 0), (1, 2)], "alpha@0")[0] == [
        "a.a.a", "a.b.d"]
    for p in (1, 2, 7):
        with pytest.raises(ArityMismatch, match="raw"):
            encode_stream(e, [(0, 0), (1, 2)], "alpha@0", p=p)
    q, _ = next(_round_trip_fixtures())
    with pytest.raises(ArityMismatch):
        encode_stream(q, [(0, 0)], q.graph.states[0], p=2)


def test_encode_stream_unknown_policy_refused_on_empty_input():
    e, p = next(_round_trip_fixtures())
    s = e.graph.states[0]
    for tags in ([], ["0" * p], [(0, 0)]):
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            encode_stream(e, tags, s, policy="bogus")


def test_decode_stream_errors_and_tail():
    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    start = e.graph.states[0]
    word, _, _ = encode_stream(e, ["00", "11", "01", "10"], start)
    with pytest.raises(NotDecodable):
        decode_stream(e, word[:1] + ["zzz"], start, p=2)
    decoded = decode_stream(e, word, start, p=2)
    assert len(decoded) == 4
    assert not decoded[0].provisional


def test_decode_stream_rejects_unknown_start():
    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    start = e.graph.states[0]
    word, _, _ = encode_stream(e, ["00", "11"], start)
    with pytest.raises(ValueError, match="unknown start"):
        decode_stream(e, word, "nope", p=2)


def test_rds_min_bound_ex3():
    e = _ex3_t2_encoder()
    rng = random.Random(3)
    blocks = [rng.choice("01") for _ in range(1000)]
    word, _, trace = encode_stream(e, blocks, e.graph.states[0],
                                   policy="rds-min")
    # worst disparity any single label can contribute; power-graph
    # labels carry their whole-word parity as one channel bit
    disparities = []
    for ed in e.graph.edges:
        for lv in (1, -1):
            s = 0
            if ed.label not in e.graph.parity.class0:
                lv = -lv
            s += lv
            disparities.append(abs(s))
    bound = max(disparities)
    assert abs(trace[-1]) <= bound
    assert max(abs(v) for v in trace) <= 2 * bound


def test_rds_policies_differ():
    e = _ex3_t2_encoder()
    blocks = ["1", "1", "1", "1"]
    w1, _, t1 = encode_stream(e, blocks, e.graph.states[0],
                              policy="fixed-parity")
    w2, _, t2 = encode_stream(e, blocks, e.graph.states[0],
                              policy="rds-min")
    assert abs(t2[-1]) <= abs(t1[-1])


def test_decode_sliding_and_error_propagation():
    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    m, a = 0, 2
    assert sliding_block_decodable(e, m, a)
    rng = random.Random(19)
    blocks = ["".join(rng.choice("01") for _ in range(2))
              for _ in range(60)]
    start = e.graph.states[0]
    word, _, _ = encode_stream(e, blocks, start)
    clean = decode_sliding(e, word, m, a, p=2)
    for i, got in enumerate(clean):
        if got is not None:
            assert got == blocks[i]
    # corrupt one symbol: at most m+a+1 outputs may change
    pos = 30
    alt = sorted(set(ed.label for ed in e.graph.edges) - {word[pos]})[0]
    bad = list(word)
    bad[pos] = alt
    dirty = decode_sliding(e, bad, m, a, p=2)
    diffs = [i for i in range(len(word)) if clean[i] != dirty[i]]
    assert all(pos - m - a <= i <= pos + m + a for i in diffs)
    assert len(diffs) <= m + a + 1


def oracle_sliding(e, word, m, a, tag_of):
    """Tag at position i by enumerating every path that reads
    word[i-m : i+a+1] and collecting the tags of its edge at offset m."""
    out = []
    for i in range(len(word)):
        if i < m or i + a >= len(word):
            out.append(None)
            continue
        window = word[i - m:i + a + 1]
        paths = [[ed] for ed in e.graph.edges if ed.label == window[0]]
        for lbl in window[1:]:
            paths = [path + [ed] for path in paths
                     for ed in helpers.out_edges(e.graph, path[-1].dst)
                     if ed.label == lbl]
        tags = set()
        for path in paths:
            tags.update(tag_of(path[m]))
        out.append(tags.pop() if len(tags) == 1 else None)
    return out


def _random_word(rng, g, n):
    """A walk's word of length n, with one symbol sometimes replaced."""
    state = g.states[rng.integers(len(g.states))]
    word = []
    for _ in range(n):
        out = helpers.out_edges(g, state)
        ed = out[rng.integers(len(out))]
        word.append(ed.label)
        state = ed.dst
    if rng.random() < 0.5:
        alphabet = sorted(g.parity.alphabet)
        word[rng.integers(n)] = alphabet[rng.integers(len(alphabet))]
    return word


def _random_tagged(rng, strict):
    """Random graph whose edges mostly carry one (class, slot) tag."""
    g = helpers.random_graph(rng, strict=strict)
    tags = {}
    for s in g.states:
        for slot, ed in enumerate(helpers.out_edges(g, s)):
            if rng.random() < 0.8:
                tags[ed] = ((int(rng.integers(2)), slot % 2),)
    return TaggedEncoder(g, tags, 1, 1)


def test_decode_sliding_matches_path_enumeration():
    rng = np.random.default_rng(61)
    for i in range(60):
        e = _random_tagged(rng, strict=bool(i % 2))
        g, tags = e.graph, e.tags
        word = _random_word(rng, g, 10)
        for m in range(3):
            for a in range(3):
                want = oracle_sliding(
                    e, word, m, a,
                    lambda ed: [min(tags[ed]) if ed in tags else None])
                assert decode_sliding(e, word, m, a) == want, (g.edges, m, a)
    # block tags: the blocks bound to the edge at its source state
    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    table = helpers.check_block_table(e, 2)
    blocks_of = lambda ed: [b for b, x in table[ed.src].items() if x == ed]
    for _ in range(20):
        word = _random_word(rng, e.graph, 12)
        for m in range(3):
            for a in range(3):
                want = oracle_sliding(e, word, m, a, blocks_of)
                assert decode_sliding(e, word, m, a, p=2) == want


def _decode_outcome(e, word, start, p=None):
    """decode_stream as reference_decode reports it."""
    try:
        return [tuple(d) for d in decode_stream(e, word, start, p=p)], None
    except NotDecodable as exc:
        return None, exc.position


def _check_against_reference(e, word, start, a, p=None):
    want, stop = helpers.reference_decode(e, word, start, a, p)
    got, got_stop = _decode_outcome(e, word, start, p)
    assert got_stop == stop, (e.graph.edges, e.tags, word, start)
    assert stop is not None or got == want, (e.graph.edges, e.tags, word)
    return want, stop


def test_decode_stream_matches_reference_decoder():
    rng = np.random.default_rng(83)
    seen = set()
    cases = [(_random_tagged(rng, strict=bool(i % 2)), None)
             for i in range(300)]
    cases += [(_chain_encoder(), None)]
    cube = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    cases += [(cube, None), (cube, 2)]
    for e, p in cases:
        a = anticipation(e)
        if isinstance(a, Infinite):
            continue
        g = e.graph
        n = 2 * a.value + 12
        alphabet = sorted(g.parity.alphabet)
        for start in g.states[:4]:
            # an encoder walk, then one symbol replaced; each cut short
            # too, inside the last lookahead window and before it
            clean, state = [], start
            for _ in range(n):
                out = helpers.out_edges(g, state)
                out = [ed for ed in out if ed in e.tags] or out
                ed = out[rng.integers(len(out))]
                clean.append(ed.label)
                state = ed.dst
            dirty = list(clean)
            dirty[rng.integers(n)] = alphabet[rng.integers(len(alphabet))]
            cuts = {n, n - 1, n - a.value, n - a.value // 2,
                    int(rng.integers(1, n + 1))}
            for word in (clean, dirty):
                for cut in sorted(cuts):
                    want, stop = _check_against_reference(
                        e, word[:cut], start, a.value, p)
                    seen.add(("a=%d" % min(a.value, 2), "strict"
                              if g.parity.class0.isdisjoint(g.parity.class1)
                              else "overlapping"))
                    seen.add("stop" if stop is not None else "decoded")
                    if any(flag for _, flag in want):
                        seen.add("provisional")
    assert seen >= {(a, c) for a in ("a=0", "a=1", "a=2")
                    for c in ("strict", "overlapping")}
    assert {"stop", "decoded", "provisional"} <= seen


def _random_block_encoder(rng, strict):
    """Random graph at (2, 2) whose edges carry none, one or two (class,
    slot) tags, slots 0 and 1 and distinct at each state, so raw tags
    and 2-bit blocks both decode."""
    g = helpers.random_graph(rng, strict=strict)
    tags = {}
    for s in g.states:
        pool = [(c, k) for c in (0, 1) for k in (0, 1)]
        pool = [pool[j] for j in rng.permutation(4)]
        for ed in helpers.out_edges(g, s):
            n = min(len(pool), int(rng.choice(3, p=(0.15, 0.7, 0.15))))
            if n:
                tags[ed] = tuple(pool[:n])
                del pool[:n]
    return TaggedEncoder(g, tags, 2, 2)


def _outcome(decode, *args):
    """A decoder's tags and flags, or where and why it stops."""
    try:
        return [tuple(d) for d in decode(*args)]
    except NotDecodable as exc:
        return exc.position, str(exc)


def test_decoders_match_their_references():
    # decode_stream against the plain set-stepping rule and the memo
    # decoder, decode_sliding against path enumeration, on words that
    # leave the encoder (foreign and off-path labels), run through an
    # untagged edge or stop short; raw-tag and block calls interleave
    # on each encoder
    rng = np.random.default_rng(89)
    seen = set()
    for i in range(160):
        e = _random_block_encoder(rng, strict=bool(i % 2))
        g = e.graph
        table = helpers.reference_block_table(e, 2)
        tag_of = {
            None: lambda ed: [min(e.tags[ed]) if ed in e.tags else None],
            2: lambda ed: [min((b for b, x in table[ed.src].items()
                                if x == ed), default=None)]}
        ant = anticipation(e)
        a = ant.value if isinstance(ant, Finite) else None
        alphabet = sorted(g.parity.alphabet)
        for start in g.states[:3]:
            word, state = [], start
            for _ in range(2 * (a or 0) + 10):
                out = helpers.out_edges(g, state)
                ed = out[rng.integers(len(out))]
                word.append(ed.label)
                state = ed.dst
                seen.add("untagged" if ed not in e.tags else "tagged")
            words = [word]
            for bad in (alphabet[rng.integers(len(alphabet))], "zz"):
                words.append(list(word))
                words[-1][rng.integers(len(word))] = bad
            words += [w[:int(rng.integers(1, len(w) + 1))] for w in words]
            for w in words:
                for p in (None, 2, None):
                    for m, b in ((0, 0), (1, 0), (1, 1), (2, 1)):
                        want = oracle_sliding(e, w, m, b, tag_of[p])
                        assert decode_sliding(e, w, m, b, p) == want
                    if a is None:
                        with pytest.raises(PreconditionFailed):
                            decode_stream(e, w, start, p)
                        continue
                    got = _outcome(decode_stream, e, w, start, p)
                    assert got == _outcome(helpers.memo_decode,
                                           e, w, start, p), (g.edges, w)
                    want, stop = helpers.reference_decode(e, w, start, a, p)
                    if stop is None:
                        assert got == want
                        seen.add("provisional" if want and want[-1][1]
                                 else "decoded")
                    else:
                        assert got[0] == stop
                        seen.add(got[1].split(": ", 1)[1])
                    seen.add("a=0" if a == 0 else "a>=1")
    assert seen >= {"a=0", "a>=1", "untagged", "decoded", "provisional",
                    "edge has no tag", "no edge matches the upcoming labels"}


def test_decoders_step_no_state_set_with_no_lookahead(monkeypatch):
    # anticipation 0: each symbol reads one kept row, and a (1, 0)
    # sliding window reads its first step from a kept map
    e = extract_deterministic(helpers.quad(), (1, 1), 2, 2)
    assert anticipation(e) == Finite(0)
    start = e.graph.states[0]
    rng = random.Random(3)
    blocks = ["".join(rng.choice("01") for _ in range(2))
              for _ in range(1024)]
    word, _, _ = encode_stream(e, blocks, start)
    decode_sliding(e, word[:4], 1, 0, p=2)  # builds the kept maps
    calls = []
    real = graphs._step

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graphs, "_step", counted)
    monkeypatch.setattr(verify, "_step", counted)
    assert [d.tag for d in decode_stream(e, word, start, p=2)] == blocks
    assert decode_sliding(e, word, 1, 0, p=2)[1:] == blocks[1:]
    assert decode_stream(e, word, start)
    assert not calls


def test_decoders_keep_no_more_than_an_entry_per_edge():
    # whatever the words, what the decoders keep is indexed by the
    # encoder: a move per edge, a first step per label
    def entries(v):
        return sum(entries(x) if isinstance(x, dict) else
                   len(x) if isinstance(x, tuple) else 1
                   for x in v.values())

    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    assert anticipation(e).value >= 1
    g = e.graph
    labels = sorted(g.parity.alphabet) + ["zz", "a", "zz.zz.zz"]
    rng = random.Random(13)
    for k in range(100):
        word = [rng.choice(labels) for _ in range(rng.randrange(1, 40))]
        p = (None, 2)[k % 2]
        try:
            decode_stream(e, word, rng.choice(g.states), p=p)
        except NotDecodable:
            pass
        decode_sliding(e, word, rng.randrange(3), rng.randrange(3), p=p)
    kept = {k: v for k, v in vars(e).items() if k.startswith("_")}
    assert {"_moves_None", "_moves_2", "_entered"} <= set(kept)
    for name, v in kept.items():
        if isinstance(v, dict):
            assert entries(v) <= len(g.edges), name


def test_codec_tables_do_not_grow():
    # everything a codec call keeps on the encoder is indexed by the
    # graph, so a long stream leaves it the size a one-symbol call does
    def held(e):
        def size(v):
            return (sum(1 + size(x) for x in v.values())
                    if isinstance(v, dict) else 0)
        return {k: size(v) for k, v in vars(e).items()}

    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    assert set(vars(e)) == {"graph", "tags", "n0", "n1"}
    start = e.graph.states[0]
    rng = random.Random(5)
    sizes = []
    for n in (1, 4096):
        blocks = ["".join(rng.choice("01") for _ in range(2))
                  for _ in range(n)]
        for policy in ("as-tagged", "fixed-parity", "rds-min"):
            word, _, _ = encode_stream(e, blocks, start, policy=policy)
            decode_stream(e, word, start, p=2)
            decode_sliding(e, word, 0, 1, p=2)
        decode_stream(e, word, start)
        sizes.append(held(e))
    assert sizes[0] == sizes[1]
    assert len(sizes[0]) > 4


def test_codec_tables_follow_the_tags_not_the_width():
    # two tags at the last slots make 16-bit blocks; what the codec
    # keeps is sized by the two tags, not by the 2^16 blocks
    slot = 2 ** 15 - 1
    g = validate_graph(["s"], [("s", "a", "s"), ("s", "b", "s")], "a", "b")
    e = TaggedEncoder(g, {g.edges[0]: ((0, slot),),
                          g.edges[1]: ((1, slot),)}, 2 ** 15, 2 ** 15)
    blocks = [format(2 * slot + (15 + cls) % 2, "016b") for cls in (0, 1)]
    for policy in ("as-tagged", "rds-min"):
        word, _, _ = encode_stream(e, blocks, "s", policy=policy)
        assert word == ["a", "b"]
    with pytest.raises(UnknownTag):
        encode_stream(e, blocks, "s", policy="fixed-parity")
    decoded = decode_stream(e, ["a", "b", "a"], "s", p=16)
    assert [d.tag for d in decoded] == blocks + blocks[:1]
    assert decode_sliding(e, ["b", "a"], 0, 0, p=16) == blocks[::-1]
    assert max(len(v) for v in vars(e).values() if isinstance(v, dict)) <= 4


POLICIES = ("as-tagged", "fixed-parity", "rds-min")


def _random_encode_case(rng, strict):
    """Random graph at (2, 2) whose edges carry up to two distinct tags,
    slots 0 to 2 and drawn per edge, so a state may lack a tag, give one
    tag to two edges, or hold a slot no 2-bit block names."""
    g = helpers.random_graph(rng, strict=strict, max_out=4)
    pool = [(c, k) for k in (0, 1, 2) for c in (0, 1)]
    tags = {}
    for ed in g.edges:
        n = int(rng.choice(3, p=(0.2, 0.5, 0.3)))
        if n:
            picks = rng.choice(6, size=n, replace=False,
                               p=(0.22, 0.22, 0.22, 0.22, 0.06, 0.06))
            tags[ed] = tuple(pool[j] for j in picks)
    return TaggedEncoder(g, tags, 2, 2)


def _encode_features(e):
    """Which of the cases the encode references must agree on e has."""
    c0, c1 = e.graph.parity.class0, e.graph.parity.class1
    found = set()
    for row in helpers.by_tag(e).values():
        if len(row) < 6:
            found.add("a state lacks a tag")
        if any(len(es) > 1 for es in row.values()):
            found.add("a tag on two edges")
    for ed, ts in e.tags.items():
        if {c for c, _ in ts} == {0, 1}:
            found.add("a tag of each class")
        if ed.label in c0 and ed.label in c1:
            found.add("a shared symbol")
        if any(k > 1 for _, k in ts):
            found.add("a slot past the blocks")
    return found


def _encode_outcome(encode, e, tags, *args):
    """An encoder's (word, end, trace), or the block where it refuses the
    input and its UnknownTag message."""
    try:
        return encode(e, tags, *args)
    except UnknownTag as exc:
        for i in range(len(tags)):
            try:
                encode(e, tags[:i + 1], *args)
            except UnknownTag:
                return i, str(exc)
        raise


def test_random_encode_cases_cover_the_encode_rules():
    rng = np.random.default_rng(0)
    found = set()
    for i in range(100):
        found |= _encode_features(_random_encode_case(rng, bool(i % 2)))
    assert found == {"a state lacks a tag", "a tag on two edges",
                     "a tag of each class", "a shared symbol",
                     "a slot past the blocks"}


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
def test_encode_stream_matches_table_and_reference(seed, strict):
    # the kept encode map against the send-table loop it replaced and
    # the block-table rule, raw-tag and 2-bit calls interleaved on one
    # encoder, refusals compared by block and message
    rng = np.random.default_rng(seed)
    e = _random_encode_case(rng, strict)
    g = e.graph
    raw = [(c, k) for c in (0, 1) for k in range(4)]
    blocks = ["00", "01", "10", "11", "0", "x1", "100", (0, 0)]
    for _ in range(6):
        start = g.states[int(rng.integers(len(g.states)))]
        n = int(rng.integers(0, 12))
        if rng.random() < 0.4:
            tags = [raw[j] for j in rng.integers(len(raw), size=n)]
            got = _encode_outcome(encode_stream, e, tags, start)
            assert got == _encode_outcome(helpers.table_encode,
                                          e, tags, start), (e.tags, tags)
            continue
        tags = [blocks[j] for j in rng.choice(
            len(blocks), size=n, p=(0.23,) * 4 + (0.02,) * 4)]
        if tags and not isinstance(tags[0], str):
            tags[0] = "11"  # a leading raw tag would make the call raw
        for policy in POLICIES:
            args = (start, policy, 2)
            got = _encode_outcome(encode_stream, e, tags, *args)
            assert got == _encode_outcome(helpers.table_encode,
                                          e, tags, *args), (e.tags, tags)
            want = _encode_outcome(helpers.reference_encode, e, tags, *args)
            if isinstance(want[0], int):
                assert got[0] == want[0], (e.tags, tags, policy)
            else:
                assert got == want, (e.tags, tags, policy)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=4))
def test_encodes_matches_round_trip_build(seed, strict, p):
    # the range test on (class, slot) keeps the tags the block round trip
    # kept, and writing each twin pair once gives the same rows in the
    # same order; tags out of range are drawn by hand: a slot past the
    # class's blocks, a negative slot and class 2
    rng = np.random.default_rng(seed)
    g = helpers.random_graph(rng, strict=strict, max_out=4)
    half = 2 ** (p - 1)
    inside = [(c, k) for c in (0, 1) for k in range(half)]
    outside = [(0, half), (1, half + 1), (1, -1), (2, 0), (2, half - 1)]
    tags = {}
    for ed in g.edges:
        picks = {inside[int(rng.integers(len(inside)))]
                 if rng.random() < 0.8
                 else outside[int(rng.integers(len(outside)))]
                 for _ in range(int(rng.integers(0, 4)))}
        if picks:
            tags[ed] = tuple(sorted(picks))
    e = TaggedEncoder(g, tags, half, half)
    for q in (p, None):
        assert helpers.encode_rows(verify._encodes(e, q)) == \
            helpers.encode_rows(helpers.reference_encodes(e, q))


def test_slots_ok_matches_by_tag_rule():
    # the one-pass slot index answers as the by_tag rule did: by hand,
    # one tag on two edges of a state, a missing slot, a gapped slot and
    # n = 0; then random tags, repeated and gapped ones among them, where
    # class_edges also lists the edges the by_tag rows give
    g = validate_graph("st", [("s", "a", "s"), ("s", "b", "t"),
                              ("s", "c", "t"), ("t", "a", "s"),
                              ("t", "c", "s")], "ab", "c")
    sa, sb, sc, ta, tc = g.edges
    cases = [
        # tags, then (state, class, n, slots_ok)
        ({sa: ((0, 0),), sb: ((0, 1),), sc: ((1, 0),), ta: ((0, 0),),
          tc: ((1, 0),)},
         [("s", 0, 2, True), ("s", 1, 1, True), ("t", 0, 1, True),
          ("t", 0, 2, False), ("t", 1, 1, True), ("s", 1, 0, False)]),
        # one tag on two edges of s
        ({sa: ((0, 0),), sb: ((0, 0),), sc: ((1, 0),)},
         [("s", 0, 1, False), ("s", 0, 2, False), ("s", 1, 1, True)]),
        # slot 0 missing
        ({sb: ((0, 1),), sc: ((1, 0),)},
         [("s", 0, 1, False), ("s", 0, 2, False), ("s", 0, 0, False)]),
        # slot 1 gapped
        ({sa: ((0, 0),), sb: ((0, 2),)},
         [("s", 0, 2, False), ("s", 0, 3, False), ("s", 0, 1, False)]),
        # n = 0: no tags of the class, or some
        ({sa: ((0, 0),), sc: ((0, 1), (1, 0))},
         [("t", 0, 0, True), ("t", 1, 0, True), ("s", 1, 0, False),
          ("s", 0, 2, True)]),
    ]
    for tags, rows in cases:
        e = TaggedEncoder(g, tags, 1, 1)
        for s, b, n, want in rows:
            assert e.slots_ok(s, b, n) is want, (tags, s, b, n)
            assert helpers.by_tag_slots_ok(e, s, b, n) is want
    rng = np.random.default_rng(101)
    for i in range(300):
        e = _random_tagged(rng, strict=bool(i % 2))
        tags = {ed: ts + ((int(rng.integers(2)), int(rng.integers(3))),)
                if rng.random() < 0.2 else ts for ed, ts in e.tags.items()}
        for e in (e, TaggedEncoder(e.graph, tags, int(rng.integers(3)),
                                   int(rng.integers(3)))):
            rows = helpers.by_tag(e)
            for s in e.graph.states:
                for b in (0, 1):
                    for n in range(4):
                        assert e.slots_ok(s, b, n) == helpers.by_tag_slots_ok(
                            e, s, b, n), (e.tags, s, b, n)
                    assert e.class_edges(s, b) == [
                        ed for (c, _), es in sorted(rows[s].items())
                        if c == b for ed in es], (e.tags, s, b)
            assert e.out_degrees_ok() == all(
                helpers.by_tag_slots_ok(e, s, b, n) for s in e.graph.states
                for b, n in ((0, e.n0), (1, e.n1)))


def test_check_encoder_builds_slot_index_once_and_no_codec_map(monkeypatch):
    # the degree check reads the one slot index: verifying a parsed
    # encoder builds it once and no codec map; the codec's encode map
    # then reads the same index without building it again
    from bimodal.io import parse_encoder_file, serialize_encoder
    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    text = serialize_encoder(e)
    calls = []
    real = TaggedEncoder.__dict__["_slots"].func

    def counted(self):
        calls.append(self)
        return real(self)

    kept = functools.cached_property(counted)
    kept.__set_name__(TaggedEncoder, "_slots")
    monkeypatch.setattr(TaggedEncoder, "_slots", kept)
    parsed = parse_encoder_file(text)
    report = check_encoder(parsed, helpers.two_state(), 2, 2, 3)
    assert report.ok and report.out_degree_ok == (True, True)
    bad = check_encoder(parsed, helpers.two_state(), 3, 2, 3)
    assert bad.out_degree_ok == (False, True)
    assert calls == [parsed]
    assert not [k for k in vars(parsed) if k.startswith(("_encode_",
                                                          "_moves_"))]
    assert encode_stream(parsed, ["00", "11"], parsed.graph.states[0])
    assert calls == [parsed] and "_encode_2" in vars(parsed)


def test_encode_keeps_one_move_per_edge_and_no_per_block_work(monkeypatch):
    # one warm-up call builds the map all three policies read; a long
    # stream then converts no tag to a block and reads no slot index
    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    g = e.graph
    start = g.states[0]
    rng = random.Random(23)
    blocks = ["".join(rng.choice("01") for _ in range(2))
              for _ in range(4096)]
    want = {policy: helpers.table_encode(e, blocks, start, policy)
            for policy in POLICIES}
    encode_stream(e, blocks[:1], start)
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    monkeypatch.setattr(verify, "_tag_block",
                        counted("_tag_block", verify._tag_block))
    monkeypatch.setattr(TaggedEncoder, "_slots", property(counted(
        "_slots", TaggedEncoder.__dict__["_slots"].func)))
    for policy in POLICIES:
        assert encode_stream(e, blocks, start, policy=policy) == want[policy]
    assert not calls
    monkeypatch.undo()
    # one entry per (state, sendable input): the blocks of the state's
    # tags and their reserved-bit twins, four slots each
    rows = vars(e)["_encode_2"]
    sendable = {(ed.src, r + helpers.block_of(t, 2)[1:])
                for ed, ts in e.tags.items() for t in ts for r in "01"}
    assert {(s, k) for s, row in rows.items() for k in row} == sendable
    assert set(rows) == set(g.states)
    moves = [mv for row in rows.values() for sent in row.values()
             for mv in sent if mv is not None]
    assert {len(sent) for row in rows.values() for sent in row.values()} == {4}
    assert len({id(mv) for mv in moves}) <= len(g.edges)
    edges = {(ed.label, ed.dst) for ed in g.edges}
    for label, sign, dst, row in moves:
        assert (label, dst) in edges and row is rows[dst]
        assert sign == (1 if label in g.parity.class0 else -1)


def test_every_policy_refuses_malformed_blocks():
    e = extract_deterministic(helpers.quad(), (1, 1), 2, 2)
    s = e.graph.states[0]
    for policy in ("as-tagged", "fixed-parity", "rds-min"):
        for bad in (["x1"], ["21"], ["00", "2"], ["00", "011"], ["00", ""],
                    ["00", (0, 0)], ["10", " 1"]):
            with pytest.raises(UnknownTag):
                encode_stream(e, bad, s, policy=policy)
        with pytest.raises(UnknownTag):
            encode_stream(e, ["1"], s, policy=policy, p=2)


def test_decode_sliding_reads_decode_stream_tags():
    # an edge carrying a tag of each class decodes to its least block,
    # as in decode_stream
    g = helpers.load("overlap.cg")
    e = stether(g, (1,), 2, 2)
    start = e.graph.states[0]
    word, _, _ = encode_stream(e, ["00", "01", "11", "10"], start)
    for p in (None, 2):
        want = [d.tag for d in decode_stream(e, word, start, p=p)]
        assert decode_sliding(e, word, 0, 0, p=p) == want
    assert want == ["00", "00", "11", "10"]
    # an untagged edge among the candidates leaves the position open
    g = validate_graph("st", [("s", "x", "s"), ("s", "x", "t"),
                              ("t", "y", "s")], "x", "y")
    e = TaggedEncoder(g, {g.edges[0]: ((0, 0),)}, 1, 1)
    for p in (None, 1):
        assert decode_sliding(e, ["x", "x", "y"], 0, 0, p=p) == [None] * 3


def test_sliding_block_decodable_matches_path_enumeration():
    # (m, a) decodes when all paths reading one word of m + a + 1
    # symbols carry one tag set on their edge at m; untagged is empty
    rng = np.random.default_rng(71)
    seen = set()
    for i in range(60):
        e = _random_tagged(rng, strict=bool(i % 2))
        for m in range(3):
            for a in range(3):
                by_word = {}
                for path in _paths(e.graph, m + a + 1):
                    word = tuple(ed.label for ed in path)
                    tag_set = frozenset(e.tags.get(path[m], ()))
                    by_word.setdefault(word, set()).add(tag_set)
                want = all(len(ts) == 1 for ts in by_word.values())
                assert sliding_block_decodable(e, m, a) == want, (
                    e.graph.edges, e.tags, m, a)
                seen.add(want)
    assert seen == {True, False}


def test_sliding_block_decodable_keeps_one_pair_graph(monkeypatch):
    # the nine windows of one encoder read one pair graph, kept on the
    # encoder on the first call (their verdicts are checked against path
    # enumeration above)
    built = []
    init = PairGraph.__init__

    def counted(self, g):
        built.append(g)
        init(self, g)

    monkeypatch.setattr(PairGraph, "__init__", counted)
    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    got = [sliding_block_decodable(e, m, a)
           for m in range(3) for a in range(3)]
    assert built == [e.graph]
    assert any(got) and not all(got)


def test_quad_det_decodes_by_tags_but_not_by_edges():
    # the two parting rules differ on the quad-det encoder: each label
    # holds one tag wherever it is read, so the symbol itself gives the
    # tag, but walks from alpha and from beta read every word together,
    # so no window pins the edge down
    e = extract_deterministic(helpers.quad(), (1, 1), 2, 2)
    assert definiteness(e) is None
    assert not any(is_definite(e, m, a) for m in range(3) for a in range(3))
    assert sliding_block_decodable(e, 0, 0)


def test_negative_window_is_refused():
    # a negative or fractional side is refused before any pair graph or
    # list index reads it
    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    word, _, _ = encode_stream(e, ["00", "11", "01", "10"],
                               e.graph.states[0])
    for m, a in ((-1, 0), (0, -1), (-2, 3), (0, 0.5), (0.5, 1), (1.5, 0),
                 (1.0, 1), (-0.5, 0)):
        with pytest.raises(ValueError, match="needs nonnegative integers"):
            is_definite(e, m, a)
        with pytest.raises(ValueError, match="needs nonnegative integers"):
            sliding_block_decodable(e, m, a)
        with pytest.raises(ValueError, match="needs nonnegative integers"):
            decode_sliding(e, word, m, a, p=2)
