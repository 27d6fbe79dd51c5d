import math
import random
import warnings

import numpy as np
import pytest

import helpers
from bimodal import (
    Finite,
    Infinite,
    NotDecodable,
    PairGraph,
    PreconditionFailed,
    TaggedEncoder,
    UnknownTag,
    anticipation,
    assign_block_tags,
    check_encoder,
    decode_sliding,
    decode_stream,
    definiteness,
    encode_stream,
    extract_deterministic,
    is_definite,
    losslessness,
    memory,
    merge_split_pair,
    parity_subgraph,
    power,
    presents_subset,
    sliding_block_decodable,
    split_one_round,
    stether,
    stether_punctured,
    witness_ae,
)


def _pair_succ(g, p, q):
    for e1 in g.out_edges(p):
        for e2 in g.out_edges(q):
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
        got = anticipation(g, cap=64)
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
        assert any(ed.label == label for ed in e.graph.out_edges(p))
        assert any(ed.label == label for ed in e.graph.out_edges(q))


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


def test_check_encoder_report():
    g = helpers.quad()
    e = extract_deterministic(g, (1, 1), 2, 2)
    rep = check_encoder(e, g, 2, 2)
    assert rep.ok
    assert rep.anticipation == Finite(0)
    assert "anticipation" in str(rep)
    bad = check_encoder(e, g, 3, 2)
    assert not bad.ok and bad.violations


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
    # the pair checks give the same answers from a prebuilt pair graph
    monkeypatch.undo()
    pg = PairGraph(e.graph)
    assert losslessness(pg) == losslessness(e)
    assert anticipation(pg) == anticipation(e)
    assert definiteness(pg) == definiteness(e)
    assert is_definite(pg, 1, 1) == is_definite(e, 1, 1)


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
                     for ed in e.graph.out_edges(path[-1].dst)
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
        out = g.out_edges(state)
        ed = out[rng.integers(len(out))]
        word.append(ed.label)
        state = ed.dst
    if rng.random() < 0.5:
        alphabet = sorted(g.alphabet)
        word[rng.integers(n)] = alphabet[rng.integers(len(alphabet))]
    return word


def test_decode_sliding_matches_path_enumeration():
    rng = np.random.default_rng(61)
    for i in range(60):
        g = helpers.random_graph(rng, strict=bool(i % 2))
        tags = {}
        for s in g.states:
            for slot, ed in enumerate(g.out_edges(s)):
                if rng.random() < 0.8:
                    tags[ed] = ((int(rng.integers(2)), slot % 2),)
        e = TaggedEncoder(g, tags, 1, 1)
        word = _random_word(rng, g, 10)
        for m in range(3):
            for a in range(3):
                want = oracle_sliding(
                    e, word, m, a,
                    lambda ed: [min(tags.get(ed, ((None, None),)))])
                assert decode_sliding(e, word, m, a) == want, (g.edges, m, a)
    # block tags: the blocks bound to the edge at its source state
    e = stether_punctured(power(helpers.two_state(), 3), (2, 1), 2, 2)
    table = assign_block_tags(e, 2)
    blocks_of = lambda ed: [b for b, x in table[ed.src].items() if x == ed]
    for _ in range(20):
        word = _random_word(rng, e.graph, 12)
        for m in range(3):
            for a in range(3):
                want = oracle_sliding(e, word, m, a, blocks_of)
                assert decode_sliding(e, word, m, a, p=2) == want
