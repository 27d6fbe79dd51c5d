import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from bimodal import graphs
from bimodal.construct import rll_graph
from bimodal import (
    BimodalError,
    Edge,
    Finite,
    Infinite,
    LabeledGraph,
    NotDeterministic,
    NotIrreducible,
    ParityPartition,
    ValidationError,
    adjacency,
    adjacency_pair,
    determinize,
    follower_le,
    irreducible_components,
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
    assert not g.parity.class0 & g.parity.class1


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


@pytest.mark.parametrize("states,edges,p0,p1", [
    (["u"], [("u", "a#", "u"), ("u", "b", "u")], ["a#"], ["b"]),
    (["u v"], [("u v", "a", "u v")], ["a"], ["b"]),
    ([""], [("", "a", "")], ["a"], ["b"]),
    (["u"], [("u", "a", "u")], ["a"], [""]),
    (["u"], [("u", "a\tb", "u")], ["a\tb"], ["c"]),
    (["u#"], [("u#", "a", "u#")], ["a"], ["b"]),
], ids=["hash-symbol", "space-state", "empty-state", "empty-symbol",
        "tab-symbol", "hash-state"])
def test_validate_rejects_unwritable_names(states, edges, p0, p1):
    # a graph file splits on whitespace and cuts at '#', so these names
    # would be written in a file that does not read back
    with pytest.raises(ValidationError) as exc:
        validate_graph(states, edges, p0, p1)
    assert len(exc.value.violations) == 1
    assert "is empty or holds whitespace or '#'" in str(exc.value)


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


def _reference_power(g, t):
    """Frontier of (state, word) paths per start state, folded into one
    dict, sorted once, each word's parities refolded symbol by symbol."""
    agg = {}
    for u in g.states:
        frontier = {(u, ()): 1}
        for _ in range(t):
            nxt = {}
            for (v, word), m in frontier.items():
                for e in helpers.out_edges(g, v):
                    key = (e.dst, word + (e.label,))
                    nxt[key] = nxt.get(key, 0) + m * e.mult
            frontier = nxt
        for (v, word), m in frontier.items():
            agg[(u, word, v)] = agg.get((u, word, v), 0) + m
    class0, class1, edges = set(), set(), []
    for (u, word, v), m in sorted(
            agg.items(), key=lambda kv: (g.state_index(kv[0][0]), kv[0][1],
                                         g.state_index(kv[0][2]))):
        label = ".".join(word)
        ps = {0}
        for a in word:
            cs = [b for b, cls in enumerate((g.parity.class0,
                                             g.parity.class1)) if a in cls]
            ps = {p ^ c for p in ps for c in cs}
        if 0 in ps:
            class0.add(label)
        if 1 in ps:
            class1.add(label)
        edges.append(Edge(u, label, v, m))
    return LabeledGraph(g.states, edges,
                        ParityPartition(frozenset(class0), frozenset(class1)))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=5), st.booleans())
def test_power_matches_reference(seed, strict, t, mult):
    # equality covers states, edge order, multiplicities and both classes;
    # t up to 5 draws nested, uneven splits such as 5 = 3 + 2, 3 = 2 + 1
    rng = np.random.default_rng(seed)
    g = helpers.random_graph(rng, strict=strict)
    if mult:
        g = validate_graph(g.states, [ed[:3] + (int(rng.integers(1, 4)),)
                                      for ed in g.edges],
                           g.parity.class0, g.parity.class1)
    assert power(g, t) == _reference_power(g, t)
    if t <= 3:
        g2 = power(g, 2)
        assert power(g2, t) == _reference_power(g2, t)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=3), st.booleans())
def test_label_index_steps_match_label_steps(seed, strict, t, mult):
    # power's one-step rows and determinize's subset steps, read off the
    # label index, equal the label-step reference on nondeterministic
    # graphs, multiplicities up to 3, and squares, whose symbols are words
    rng = np.random.default_rng(seed)
    g = helpers.random_graph(rng, strict=strict)
    if mult:
        g = helpers.with_multiplicities(rng, g)
    for h in (g, power(g, 2)):
        assert power(h, t) == helpers.reference_label_power(h, t)
        got, want = determinize(h), helpers.reference_determinize(h)
        assert got == want and got.members == want.members


def test_power_orders_words_by_symbol_rank():
    # a < a- < b, yet the label a.a-.a sorts before a.a.a as a string:
    # words follow the symbols' ranks, not their joined labels
    g = validate_graph("uvw", [("u", "a", "v"), ("u", "a", "w"),
                               ("v", "a", "u"), ("v", "b", "u"),
                               ("w", "a-", "u"), ("w", "a", "w")],
                       ["a", "b"], ["a-"])
    for t in range(2, 6):
        assert power(g, t) == _reference_power(g, t)
    words = [e.label for e in helpers.out_edges(power(g, 3), "u")]
    assert words.index("a.a.a") < words.index("a.a-.a")
    assert words != sorted(words)


def _frozen_canonical(g):
    """Every edge sorted by (source index, label, target index), the
    order the file writer, extract and split once each sorted by."""
    index = {s: i for i, s in enumerate(g.states)}
    return sorted(g.edges, key=lambda e: (index[e.src], e.label,
                                          index[e.dst]))


def test_canonical_edges_match_frozen_sort():
    # the canonical listing, state by state off the one label index,
    # equals the frozen sort; the index and the determinism test agree
    # with the per-state edge lists it replaced
    rng = np.random.default_rng(30)
    met = set()
    for i in range(400):
        g = helpers.random_shuffled_graph(rng, strict=bool(i % 2))
        listing = [e for s in g.states for e in g.canonical_edges(s)]
        assert listing == _frozen_canonical(g)
        for s in g.states:
            want = {}
            for e in helpers.out_edges(g, s):
                want.setdefault(e.label, []).append(e)
            assert g.by_label[s] == want
            assert list(g.by_label[s]) == list(want)
            if any(len(es) > 1 for es in want.values()):
                met.add("several per label")
        scan = all(e.mult == 1 for e in g.edges) and all(
            len({e.label for e in helpers.out_edges(g, s)})
            == len(helpers.out_edges(g, s)) for s in g.states)
        assert g.deterministic == scan
        met.add("deterministic" if g.deterministic else "not")
        if any(e.mult > 1 for e in g.edges):
            met.add("multiplicity")
        if g.parity.class0 & g.parity.class1:
            met.add("overlap")
        if listing != list(g.edges):
            met.add("reordered")
    assert met == {"several per label", "deterministic", "not",
                   "multiplicity", "overlap", "reordered"}
    # a < a- < b: a power lists its words by symbol rank, and a.a-.a
    # before a.a.a only as strings
    g = validate_graph("uvw", [("u", "a", "v"), ("u", "a", "w"),
                               ("v", "a", "u"), ("v", "b", "u"),
                               ("w", "a-", "u"), ("w", "a", "w")],
                       ["a", "b"], ["a-"])
    for t in range(1, 5):
        h = power(g, t)
        listing = [e for s in h.states for e in h.canonical_edges(s)]
        assert listing == _frozen_canonical(h)
        assert (listing != list(h.edges)) == (t > 1)


def test_power_budget(monkeypatch):
    # the edges, or a half table, past the budget refuse the power
    g = validate_graph(["u"], [("u", "a", "u"), ("u", "b", "u")],
                       ["a"], ["b"])
    monkeypatch.setattr(graphs, "POWER_BUDGET", 8)
    assert len(power(g, 3).edges) == 8
    for t in (4, 8, 40):
        with pytest.raises(BimodalError, match="t=%d" % t):
            power(g, t)


def _doubling_lengths(t):
    """The word lengths power's doubling schedule tabulates for t."""
    return sorted({h for i in range(t.bit_length())
                   for h in (t >> i, -(-t >> i))} - {1})


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=5), st.booleans(),
       st.integers(min_value=1, max_value=60))
def test_power_budget_matches_reference(seed, strict, t, mult, budget):
    # under a small budget, power builds exactly when every table of its
    # schedule holds at most that many word rows (the distinct (state,
    # word) pairs of the reference power at that length) and the power
    # at most that many edges; either way it matches the reference
    rng = np.random.default_rng(seed)
    g = helpers.random_graph(rng, max_states=3, strict=strict, max_out=4)
    if mult:
        g = helpers.with_multiplicities(rng, g)
    want = helpers.reference_label_power(g, t)
    rows = [len({e[:2] for e in helpers.reference_label_power(g, k).edges})
            for k in _doubling_lengths(t)]
    fits = max(rows + [len(want.edges)]) <= budget
    with pytest.MonkeyPatch.context() as m:
        m.setattr(graphs, "POWER_BUDGET", budget)
        if fits:
            assert power(g, t) == want
        else:
            with pytest.raises(BimodalError,
                               match="power at t=%d holds more than %d "
                                     "word rows" % (t, budget)):
                power(g, t)


def test_power_budget_counts_merged_words(monkeypatch):
    # u reads a to three states that each read b to w: the word a.b is
    # one row (and one edge, of multiplicity 3) however many targets "a"
    # has, so a budget of the power's five rows and edges builds it
    g = validate_graph(
        ["u", "v1", "v2", "v3", "w"],
        [("u", "a", "v1"), ("u", "a", "v2"), ("u", "a", "v3"),
         ("v1", "b", "w"), ("v2", "b", "w"), ("v3", "b", "w"),
         ("w", "c", "w")], ["a", "c"], ["b"])
    want = helpers.reference_label_power(g, 2)
    assert len(want.edges) == 5 and Edge("u", "a.b", "w", 3) in want.edges
    monkeypatch.setattr(graphs, "POWER_BUDGET", 5)
    assert power(g, 2) == want
    monkeypatch.setattr(graphs, "POWER_BUDGET", 4)
    with pytest.raises(BimodalError, match="t=2"):
        power(g, 2)


@pytest.mark.parametrize("g", [
    rll_graph(2, 10),
    validate_graph(["u"], [("u", "a", "u"), ("u", "b", "u")], ["a"], ["b"]),
], ids=["rll210", "binary"])
def test_power_refused_before_its_rows_are_built(g):
    # at t=40 a table of the schedule passes the budget by far: the count
    # read off the two tables it joins refuses it, so the refusal holds
    # no more than the shorter tables
    tracemalloc.start()
    try:
        with pytest.raises(BimodalError) as info:
            power(g, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == ("power at t=40 holds more than %d word rows"
                               % graphs.POWER_BUDGET)
    assert peak < 16 * 2 ** 20


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=4), st.booleans())
def test_adjacency_pair_matches_power(seed, strict, t, mult):
    rng = np.random.default_rng(seed)
    g = helpers.random_graph(rng, strict=strict)
    if mult:
        g = validate_graph(g.states, [ed[:3] + (int(rng.integers(1, 4)),)
                                      for ed in g.edges],
                           g.parity.class0, g.parity.class1)
    # a power of a power has word symbols; t is halved to keep it small
    for h, k in ((g, t), (power(g, 2), (t + 1) // 2)):
        want = adjacency_pair(power(h, k))
        got = adjacency_pair(h, k)
        assert got[0].dtype == got[1].dtype == np.int64
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()
        assert got[2] == want[2]


def test_adjacency_pair_drops_label_in_neither_class():
    # validate_graph refuses such a label, so build the graph directly
    g = LabeledGraph(["u", "v"],
                     [Edge("u", "a", "v"), Edge("u", "z", "u"),
                      Edge("v", "b", "u"), Edge("v", "a", "v", 2)],
                     ParityPartition(frozenset("a"), frozenset("b")))
    a0, a1, _ = adjacency_pair(g)
    assert a0.tolist() == [[0, 1], [0, 2]]
    assert a1.tolist() == [[0, 0], [1, 0]]
    for t in range(1, 5):
        want = adjacency_pair(power(g, t))
        got = adjacency_pair(g, t)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()


def test_adjacency_pair_int64_limit():
    # 2^(t-1) words of each class: 2^62 fits int64 at t = 63, 2^63 is
    # held as an exact Python int
    g = validate_graph(["u"], [("u", "a", "u"), ("u", "b", "u")],
                       ["a"], ["b"])
    a0, a1, _ = adjacency_pair(g, 63)
    assert a0.dtype == a1.dtype == np.int64
    assert a0.tolist() == a1.tolist() == [[2 ** 62]]
    for t in (64, 70):
        a0, a1, _ = adjacency_pair(g, t)
        assert a0.tolist() == a1.tolist() == [[2 ** (t - 1)]]
    with pytest.raises(ValueError):
        adjacency_pair(g, 0)


def test_adjacency_pair_doubles_in_int64_when_row_sums_allow():
    # the doubling starts in int64 when r^t fits, r the largest row sum;
    # on either side of that switch the counts and their dtypes are
    # those of a doubling in Python ints
    sides = set()
    for g, t in ((helpers.two_state(), 8), (helpers.two_state(), 40),
                 (helpers.load("rll210.cg"), 16),
                 (helpers.load("rll210.cg"), 18),
                 (helpers.load("rll210.cg"), 64), (helpers.mixed(), 3),
                 (helpers.mixed(), 20), (helpers.mixed(), 40),
                 (helpers.quad(), 40)):
        got = adjacency_pair(g, t)
        want = helpers.object_adjacency_pair(g, t)
        assert [a.dtype for a in got[:2]] == [a.dtype for a in want[:2]]
        assert [a.tolist() for a in got[:2]] == [a.tolist()
                                                 for a in want[:2]]
        rowsum = int(adjacency(g).sum(axis=1).max())
        sides.add((rowsum ** t <= graphs.INT64_MAX, got[0].dtype.name))
    # int64 doubling; Python ints giving int64 counts; Python ints kept
    assert sides == {(True, "int64"), (False, "int64"), (False, "object")}


@pytest.mark.parametrize("name", ["twostate.cg", "quad.cg", "hexchain.cg",
                                  "overlap.cg", "trisplit.cg", "mixed.cg",
                                  "rll210.cg"])
def test_power_and_adjacency_pair_leave_no_cycles(name):
    # the doubling's tables are freed by refcount when the call returns
    g = helpers.load(name)
    for t in (2, 3):
        assert helpers.cyclic_garbage(power, g, t)[1] == 0
        assert helpers.cyclic_garbage(adjacency_pair, g, t)[1] == 0
    assert helpers.cyclic_garbage(adjacency_pair, g, 17)[1] == 0


def _class_counts_by_steps(g, t):
    """(A0, A1) of power(g, t) as lists of Python ints, one symbol at a
    time: per start state, the paths of strict symbols with even and odd
    class-1 counts, and the paths through a shared symbol."""
    c0, c1 = g.parity.class0, g.parity.class1
    a0, a1 = [], []
    for u in g.states:
        ev, od, sh = {u: 1}, {}, {}
        for _ in range(t):
            nev, nod, nsh = {}, {}, {}
            for e in g.edges:
                in0, in1 = e.label in c0, e.label in c1
                m = e.mult
                e_, o_, s_ = (ev.get(e.src, 0), od.get(e.src, 0),
                              sh.get(e.src, 0))
                if in0 and in1:
                    nsh[e.dst] = nsh.get(e.dst, 0) + (e_ + o_ + s_) * m
                    continue
                if in1:
                    e_, o_ = o_, e_
                if in0 or in1:
                    nev[e.dst] = nev.get(e.dst, 0) + e_ * m
                    nod[e.dst] = nod.get(e.dst, 0) + o_ * m
                    nsh[e.dst] = nsh.get(e.dst, 0) + s_ * m
            ev, od, sh = nev, nod, nsh
        a0.append([ev.get(v, 0) + sh.get(v, 0) for v in g.states])
        a1.append([od.get(v, 0) + sh.get(v, 0) for v in g.states])
    return a0, a1


def test_adjacency_pair_exact_past_int64():
    # RLL(2,10) counts pass int64 at t=121; step-by-step Python ints agree
    g = rll_graph(2, 10)
    for t in (16, 128, 256):
        a0, a1, _ = adjacency_pair(g, t)
        assert (a0.tolist(), a1.tolist()) == _class_counts_by_steps(g, t)
    assert max(a0.flat) > 2 ** 128
    for fixture in ("overlap.cg", "mixed.cg"):
        g = helpers.load(fixture)
        for t in (1, 5, 70):
            a0, a1, _ = adjacency_pair(g, t)
            assert ((a0.tolist(), a1.tolist())
                    == _class_counts_by_steps(g, t))


def test_power_long_cycle_does_not_recurse():
    g = validate_graph(["u"], [("u", "a", "u")], ["a"], ["b"])
    p = power(g, 3000)
    assert p.edges == (Edge("u", ".".join(["a"] * 3000), "u"),)
    assert p.parity.class0 == {p.edges[0].label}


def test_power_overlap_word_in_both_classes():
    g = helpers.load("overlap.cg")
    p2 = power(g, 2)
    # p.p can be read as even+even or odd+odd (0) and even+odd (1)
    assert "p.p" in p2.parity.class0
    assert "p.p" in p2.parity.class1


def test_is_deterministic():
    assert helpers.two_state().deterministic
    assert helpers.quad().deterministic
    g = validate_graph(["u", "v"],
                       [("u", "a", "u"), ("u", "a", "v")], ["a"], ["b"])
    assert not g.deterministic


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


def test_period_matches_dict_walk():
    # breadth-first levels from _frontiers give the gcd the depth-first
    # dict walk gave: every irreducible component of random graphs and
    # its powers, overlapping covers and multiplicities among them
    rng = np.random.default_rng(29)
    found = set()
    for i in range(600):
        g = helpers.random_graph(rng, max_states=5, strict=bool(i % 2))
        for comp, _ in irreducible_components(g):
            for t in (1, 2, 3):
                h = power(comp, t) if t > 1 else comp
                if not h.edges or len(irreducible_components(h)) != 1:
                    continue
                want = helpers.reference_period(h)
                assert period(h) == want, (h.states, h.edges)
                found.add("period %d" % min(want, 3))
                if any(e.mult > 1 for e in h.edges):
                    found.add("multiplicity")
                if h.parity.class0 & h.parity.class1:
                    found.add("overlapping cover")
    assert found == {"period 1", "period 2", "period 3", "multiplicity",
                     "overlapping cover"}


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
                 for word, v in paths for e in helpers.out_edges(g, v)]
    ends = {}
    for word, v in paths:
        ends.setdefault(word, set()).add(v)
    return {(p, q) for vs in ends.values() for p in vs for q in vs}


def oracle_memory(g):
    """memory() by brute force.  The endpoint-pair sets shrink with k and
    settle within n*n steps: the memory is the first k whose set has no
    distinct pair, and a distinct pair at the fixpoint makes it
    infinite."""
    n2 = len(g.states) ** 2
    sets = [_endpoint_pairs(g, k) for k in range(n2 + 2)]
    for k, pairs in enumerate(sets):
        if all(p == q for (p, q) in pairs):
            return Finite(k)
        if sets[k + 1] == pairs:
            return Infinite()


def test_memory_matches_brute_force():
    rng = np.random.default_rng(23)
    kinds = set()
    for i in range(40):
        g = helpers.random_graph(rng, max_states=3, strict=bool(i % 2),
                                 max_out=2)
        want = oracle_memory(g)
        assert memory(g) == want, g.edges
        kinds.add(type(want))
    assert kinds == {Finite, Infinite}


def _words_up_to(g, length):
    out = set()
    frontier = {(s, ()) for s in g.states}
    for _ in range(length):
        nxt = set()
        for s, w in frontier:
            for e in helpers.out_edges(g, s):
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
        assert h.deterministic
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


def _sparse_graph(rng, det):
    """Random graph on 1-3 states over a, b (class 0) and c (class 1);
    a state may have no out-edge, and with ``det`` no state has two
    edges with one label."""
    n = int(rng.integers(1, 4))
    states = ["n%d" % i for i in range(n)]
    edges = {(s, a, states[rng.integers(n)])
             for s in states for a in "abc"
             for _ in range(1 if det else 2) if rng.random() < 0.4}
    return validate_graph(states, sorted(edges), ["a", "b"], ["c"])


def _walk_words(g, u, length):
    """Label sequences of the walks of at most ``length`` steps from u."""
    out = frontier = {((), u)}
    for _ in range(length):
        frontier = {(w + (e.label,), e.dst)
                    for w, s in frontier for e in helpers.out_edges(g, s)}
        out = out | frontier
    return {w for w, _ in out}


def _reads(g, v, word):
    """A deterministic g reads ``word`` from v."""
    for a in word:
        es = g.by_label[v].get(a)
        if not es:
            return False
        v = es[0].dst
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans())
def test_follower_le_matches_words(seed, same):
    # a failing pair reaches a pair that lacks a label within
    # |g1| * |g2| steps, so words of that length decide the relation
    rng = np.random.default_rng(seed)
    g2 = _sparse_graph(rng, det=True)
    g1 = g2 if same else _sparse_graph(rng, det=False)
    bound = len(g1.states) * len(g2.states)
    want = {(u, v) for u in g1.states for v in g2.states
            if all(_reads(g2, v, w) for w in _walk_words(g1, u, bound))}
    assert follower_le(g1, g2) == want


def test_follower_le_matches_edge_loop():
    # the label-mask successors give the edge loop's relation on strict
    # and overlapping covers, nondeterministic g1 with multiplicities up
    # to 3, and squares; pairs that lack a label fail, and so do pairs
    # that only reach one
    rng = np.random.default_rng(97)
    kinds = set()
    for i in range(200):
        strict = bool(i % 2)
        g2 = helpers.random_det_graph(rng, strict=strict)
        g1 = helpers.random_graph(rng, max_states=3, strict=strict)
        if i % 3 == 0:
            g1 = helpers.with_multiplicities(rng, g1)
        for a, b in ((g1, g2), (g2, g2),
                     (power(g1, 2), determinize(power(g2, 2)))):
            want, lacks = helpers.reference_follower_le(a, b)
            assert follower_le(a, b) == want, (a.edges, b.edges)
            failed = {(u, v) for u in a.states for v in b.states} - want
            kinds |= {k for k, hit in (("lacks", lacks),
                                       ("reaches", failed - lacks),
                                       ("holds", want)) if hit}
    assert kinds == {"lacks", "reaches", "holds"}


def test_follower_le_needs_deterministic_target():
    nondet = validate_graph(["s", "t"], [("s", "a", "s"), ("s", "a", "t")],
                            ["a"], ["b"])
    with pytest.raises(NotDeterministic):
        follower_le(helpers.two_state(), nondet)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_essential_keeps_states_with_long_walks(seed):
    # a walk of |states| steps repeats a state, so it reaches a cycle
    rng = np.random.default_rng(seed)
    g = _sparse_graph(rng, det=False)
    n = len(g.states)
    kept = graphs._essential(g)
    assert kept.states == tuple(s for s in g.states
                                if any(len(w) == n
                                       for w in _walk_words(g, s, n)))
    assert set(kept.edges) == {e for e in g.edges
                               if {e.src, e.dst} <= set(kept.states)}


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
    assert lhs[0].tolist() == rhs[0].tolist()
    assert lhs[1].tolist() == rhs[1].tolist()


def test_merge_states_refusals():
    nondet = validate_graph("st", [("s", "a", "s"), ("s", "a", "t"),
                                   ("t", "b", "s")], "a", "b")
    with pytest.raises(NotDeterministic,
                       match="^merge_states needs a deterministic graph$"):
        merge_states(nondet)
    for weights in ((1,), (1, 1, 1)):
        with pytest.raises(ValueError,
                           match="^weight vector length mismatch$"):
            merge_states(helpers.two_state(), weights)


def test_power_and_rll_refusals():
    with pytest.raises(ValueError, match="^power exponent must be >= 1$"):
        power(helpers.two_state(), 0)
    with pytest.raises(ValueError, match=r"^need 0 <= d <= k$"):
        rll_graph(3, 2)
