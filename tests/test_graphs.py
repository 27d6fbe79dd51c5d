import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from bimodal import (
    Finite,
    Infinite,
    NotIrreducible,
    Unknown,
    ValidationError,
    adjacency,
    adjacency_pair,
    determinize,
    irreducible_components,
    is_deterministic,
    memory,
    merge_states,
    parity_subgraph,
    period,
    power,
    validate_graph,
)


def test_validate_accepts_fixture():
    g = helpers.two_state()
    assert g.states == ("alpha", "beta")
    assert len(g.edges) == 4
    assert g.parity.strict


def test_validate_collects_all_violations():
    with pytest.raises(ValidationError) as exc:
        validate_graph(
            ["u", "u"],
            [("u", "a", "w"), ("u", "z", "u"), ("u", "a", "w")],
            ["a"], ["b"])
    text = str(exc.value)
    assert "duplicate state" in text
    assert "not a state" in text
    assert "not in either class" in text
    assert "duplicate edge" in text


def test_validate_rejects_empty_class_and_dot():
    with pytest.raises(ValidationError):
        validate_graph(["u"], [("u", "a", "u")], ["a"], [])
    with pytest.raises(ValidationError):
        validate_graph(["u"], [("u", "a.b", "u")], ["a.b"], ["c"])


def test_parity_subgraph_partitions_edges():
    g = helpers.two_state()
    g0 = parity_subgraph(g, 0)
    g1 = parity_subgraph(g, 1)
    assert {e.label for e in g0.edges} == {"a", "b"}
    assert {e.label for e in g1.edges} == {"c", "d"}
    assert len(g0.edges) + len(g1.edges) == len(g.edges)


def test_parity_subgraph_overlap_shares_edges():
    g = helpers.load("overlap.cg")
    g0 = parity_subgraph(g, 0)
    g1 = parity_subgraph(g, 1)
    assert {e.label for e in g0.edges} == {"p", "q"}
    assert {e.label for e in g1.edges} == {"p", "r"}


def test_adjacency_pair_fixture():
    a0, a1, _ = adjacency_pair(helpers.two_state())
    assert a0.tolist() == [[1, 1], [0, 0]]
    assert a1.tolist() == [[0, 1], [1, 0]]


def test_power_square_matches_printed_matrices():
    p2 = power(helpers.two_state(), 2)
    a0, a1, _ = adjacency_pair(p2)
    assert a0.tolist() == [[2, 1], [0, 1]]
    assert a1.tolist() == [[1, 1], [1, 1]]
    assert sorted(e.label for e in p2.edges if e.label in p2.parity.class0
                  and e.src == "alpha") == ["a.a", "a.b", "c.d"]


def test_power_one_is_isomorphic():
    g = helpers.two_state()
    p1 = power(g, 1)
    assert adjacency(p1).tolist() == adjacency(g).tolist()
    assert {e.label for e in p1.edges} == {e.label for e in g.edges}


def test_power_closed_form_two_state():
    # 1/6 [[2^{t+1}+3+(-1)^t, 2^{t+1}-2(-1)^t], [2^t-3-(-1)^t, 2^t+2(-1)^t]]
    g = helpers.two_state()
    for t in range(1, 11):
        a0, a1, _ = adjacency_pair(power(g, t))
        s = (-1) ** t
        exp0 = np.array([[2 ** (t + 1) + 3 + s, 2 ** (t + 1) - 2 * s],
                         [2 ** t - 3 - s, 2 ** t + 2 * s]]) // 6
        exp1 = np.array([[2 ** (t + 1) - 3 + s, 2 ** (t + 1) - 2 * s],
                         [2 ** t + 3 - s, 2 ** t + 2 * s]]) // 6
        assert a0.tolist() == exp0.tolist()
        assert a1.tolist() == exp1.tolist()


def test_power_recursion_random():
    # per-class matrices compose with the parity XOR rule
    rng = np.random.default_rng(7)
    for _ in range(40):
        g = helpers.random_graph(rng)
        b0, b1, _ = adjacency_pair(g)
        prev0, prev1 = b0, b1
        for t in range(2, 5):
            a0, a1, _ = adjacency_pair(power(g, t))
            want0 = b0 @ prev0 + b1 @ prev1
            want1 = b0 @ prev1 + b1 @ prev0
            assert a0.tolist() == want0.tolist()
            assert a1.tolist() == want1.tolist()
            prev0, prev1 = a0, a1


def test_power_overlap_word_in_both_classes():
    g = helpers.load("overlap.cg")
    p2 = power(g, 2)
    # p.p can be read as even+even or odd+odd (0) and even+odd (1)
    assert "p.p" in p2.parity.class0
    assert "p.p" in p2.parity.class1


def test_is_deterministic():
    assert is_deterministic(helpers.two_state())
    assert is_deterministic(helpers.quad())
    g = validate_graph(["u", "v"],
                       [("u", "a", "u"), ("u", "a", "v")], ["a"], ["b"])
    assert not is_deterministic(g)


def test_irreducible_components_and_sink():
    g = validate_graph(
        ["u", "v", "w"],
        [("u", "a", "v"), ("v", "a", "u"), ("v", "b", "w"),
         ("w", "a", "w")],
        ["a"], ["b"])
    comps = irreducible_components(g)
    assert len(comps) == 2
    flags = {tuple(sub.states): sink for sub, sink in comps}
    assert flags[("u", "v")] is False
    assert flags[("w",)] is True


def test_period():
    g = validate_graph(["u", "v"],
                       [("u", "a", "v"), ("v", "b", "u")], ["a"], ["b"])
    assert period(g) == 2
    assert period(helpers.two_state()) == 1
    with pytest.raises(NotIrreducible):
        period(validate_graph(["u", "v"], [("u", "a", "v")], ["a"], ["b"]))


def test_memory_finite():
    # every symbol of the fixture pins down the terminal state
    assert memory(helpers.two_state()) == Finite(1)
    one = validate_graph(["u"], [("u", "a", "u"), ("u", "b", "u")],
                         ["a"], ["b"])
    assert memory(one) == Finite(0)


def test_memory_infinite():
    g = validate_graph(
        ["u", "v"],
        [("u", "a", "u"), ("v", "a", "v"), ("u", "b", "v"),
         ("v", "c", "u")],
        ["a", "b"], ["c"])
    assert isinstance(memory(g), Infinite)


def _endpoint_pairs(g, k):
    """Endpoint pairs of every two length-k paths (any starts) that read
    the same word, by enumerating the paths."""
    paths = [((), s) for s in g.states]
    for _ in range(k):
        paths = [(word + (e.label,), e.dst)
                 for word, v in paths for e in g.out_edges(v)]
    ends = {}
    for word, v in paths:
        ends.setdefault(word, set()).add(v)
    return {(p, q) for vs in ends.values() for p in vs for q in vs}


def oracle_memory(g, mu_max):
    """memory() by brute force.  The endpoint-pair sets shrink with k and
    settle within n*n steps: the memory is the first k whose set has no
    distinct pair; the fixpoint step decides Infinite against Unknown."""
    n2 = len(g.states) ** 2
    sets = [_endpoint_pairs(g, k) for k in range(n2 + 2)]
    for k, pairs in enumerate(sets):
        if all(p == q for (p, q) in pairs):
            return Finite(k) if k <= mu_max else Unknown(mu_max)
        if sets[k + 1] == pairs:
            return Infinite() if k < mu_max else Unknown(mu_max)


def test_memory_matches_brute_force_across_mu_max():
    rng = np.random.default_rng(23)
    kinds = set()
    for i in range(40):
        g = helpers.random_graph(rng, max_states=3, strict=bool(i % 2),
                                 max_out=2)
        for mu in range(len(g.states) ** 2 + 2):
            want = oracle_memory(g, mu)
            assert memory(g, mu_max=mu) == want, (g.edges, mu)
            kinds.add(type(want))
    assert kinds == {Finite, Infinite, Unknown}


def _words_up_to(g, length):
    out = set()
    frontier = {(s, ()) for s in g.states}
    for _ in range(length):
        nxt = set()
        for s, w in frontier:
            for e in g.out_edges(s):
                w2 = w + (e.label,)
                out.add(w2)
                nxt.add((e.dst, w2))
        frontier = nxt
    return out


def test_determinize_preserves_language():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = helpers.random_graph(rng)
        h = determinize(g)
        assert is_deterministic(h)
        # long enough to exercise every subset state on <= 4-state inputs
        bound = min(2 * len(g.states) ** 2, 7)
        assert _words_up_to(g, bound) == _words_up_to(h, bound)
        for s in h.states:
            assert h.members[s]


def test_determinize_on_deterministic_input_wraps_singletons():
    g = helpers.two_state()
    h = determinize(g)
    assert set(h.states) == {"{alpha}", "{beta}"}
    assert adjacency(h).tolist() == adjacency(g).tolist()


def test_merge_states_leaves_minimal_graph_alone():
    g = helpers.two_state()
    assert merge_states(g) == g
    # quad's states generate the same words, so they fold into one
    m = merge_states(helpers.quad())
    assert len(m.states) == 1 and len(m.edges) == 4


def test_merge_states_equal_followers():
    g = validate_graph(
        ["u", "v", "w"],
        [("u", "a", "v"), ("u", "b", "w"), ("v", "a", "v"),
         ("w", "a", "v")],
        ["a", "b"], ["c"])
    # v and w generate the same words; w folds into v
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m = merge_states(g)
    assert set(m.states) == {"u", "v"}


def test_merge_states_weighted_golden():
    g = helpers.rll_16()
    with pytest.warns(UserWarning):
        m = merge_states(g, weights=helpers.RLL16_X)
    assert m.states == ("s0", "s1", "s5", "s9")
    a0, a1, _ = adjacency_pair(m)
    assert a0.tolist() == helpers.MERGED_A0.tolist()
    assert a1.tolist() == helpers.MERGED_A1.tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=4))
def test_power_composes(seed, t):
    # (G^a)^b has the same per-class matrices as G^{ab}
    rng = np.random.default_rng(seed)
    g = helpers.random_graph(rng, max_states=3, max_out=2)
    lhs = adjacency_pair(power(power(g, t), 2))
    rhs = adjacency_pair(power(g, 2 * t))
    assert lhs.a0.tolist() == rhs.a0.tolist()
    assert lhs.a1.tolist() == rhs.a1.tolist()
