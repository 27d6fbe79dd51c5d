import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from bimodal import (
    ArityMismatch,
    BimodalError,
    Edge,
    InfeasibleVector,
    LabeledGraph,
    NotFoundWithin,
    PairGraph,
    SplitInfeasible,
    Infinite,
    TooManyCopies,
    adjacency,
    adjacency_pair,
    anticipation,
    check_encoder,
    encode_stream,
    extract_deterministic,
    franaszek_joint,
    joint_ae_exists,
    merge_split_pair,
    merge_states,
    min_infnorm_ae,
    parity_subgraph,
    power,
    rate_region,
    split_one_round,
    split_state,
    stether,
    stether_punctured,
    validate_graph,
)
from bimodal.graphs import POWER_BUDGET
from bimodal.construct import rll_graph
from bimodal.synth import _check_ae


def test_split_state_parsing():
    assert split_state("alpha@3") == ("alpha", 3)
    assert split_state("a@b@0") == ("a@b", 0)


def test_extract_deterministic_identity():
    g = helpers.quad()
    e = extract_deterministic(g, (1, 1), 2, 2)
    assert set(e.graph.edges) == set(g.edges)
    assert e.out_degrees_ok()
    assert e.n0 == 2 and e.n1 == 2
    # canonical order fixes the slots
    assert e.tags[Edge("alpha", "a", "alpha")] == ((0, 0),)
    assert e.tags[Edge("alpha", "c", "beta")] == ((1, 0),)


def test_extract_deterministic_prunes_support():
    g = helpers.trisplit()
    # (1, 1, 1) is a joint approximate eigenvector at (1, 1)
    e = extract_deterministic(g, (1, 1, 1), 1, 1)
    assert set(e.graph.states) == {"x", "y", "z"}
    for s in e.graph.states:
        assert len(e.class_edges(s, 0)) == 1
        assert len(e.class_edges(s, 1)) == 1


def test_extract_deterministic_shared_symbol_tags():
    g = helpers.load("overlap.cg")
    e = extract_deterministic(g, (1,), 1, 1)
    assert e.tags[Edge("u", "p", "u")] == ((0, 0), (1, 0))
    assert len(e.graph.edges) == 1


def test_extract_deterministic_rejections():
    g = helpers.quad()
    with pytest.raises(InfeasibleVector):
        extract_deterministic(g, (1, 2), 2, 2)
    with pytest.raises(InfeasibleVector):
        extract_deterministic(g, (0, 0), 2, 2)
    with pytest.raises(InfeasibleVector):
        extract_deterministic(g, (1, 1), 3, 2)


def test_check_ae_exact_on_huge_entries():
    # int64 products wrap here: A0 x >= 5 x must still read as false
    with pytest.raises(InfeasibleVector, match="class-0"):
        _check_ae(rll_graph(2, 10), [2 ** 61 - 1] * 11, 5, 0)
    # entries past int64 are checked in Python ints: s10 has no class-0
    # edge, and at (10^20, 1) alpha's class-0 edges weigh 10^20 + 1, short
    # of 2 * 10^20
    with pytest.raises(InfeasibleVector, match="class-0"):
        stether(rll_graph(2, 10), (10 ** 20,) * 11, 1, 1)
    g0 = parity_subgraph(helpers.quad(), 0)
    with pytest.raises(InfeasibleVector, match="split class"):
        split_one_round(g0, (10 ** 20, 1), 2)
    for bad in ((1, 0), (1, -1), (1,)):
        with pytest.raises(InfeasibleVector):
            split_one_round(g0, bad, 1)


def test_vector_sum_past_budget_refused():
    # feasible vectors, but past POWER_BUDGET state copies: refused with
    # the sum named before any list of that size is built
    g0 = parity_subgraph(helpers.quad(), 0)
    with pytest.raises(TooManyCopies, match=str(10 ** 20 + 1)):
        split_one_round(g0, (10 ** 20, 1), 1)
    with pytest.raises(TooManyCopies, match=str(2 * 10 ** 20)):
        stether(helpers.quad(), (10 ** 20,) * 2, 2, 2)


def test_split_one_round_unit_weights():
    g0 = parity_subgraph(helpers.quad(), 0)
    s = split_one_round(g0, (1, 1), 1)
    assert set(s.states) == {"alpha@0", "beta@0"}
    for u in s.states:
        assert len(s.out_edges(u)) == 1


def test_split_one_round_copies_and_degrees():
    g = power(helpers.two_state(), 3)
    g1 = parity_subgraph(g, 1)
    a = adjacency(g1)
    x = np.array([2, 1])
    assert (a @ x >= 3 * x).all()
    s = split_one_round(g1, x, 3)
    assert sorted(s.states) == ["alpha@0", "alpha@1", "beta@0"]
    for u in s.states:
        assert len(s.out_edges(u)) == 3
    # every edge targets an existing copy of the right parent
    for e in s.edges:
        parent, idx = split_state(e.dst)
        assert idx < x[["alpha", "beta"].index(parent)]


def test_split_one_round_infeasible():
    g = helpers.trisplit()
    a0, a1, _ = adjacency_pair(g)
    x = np.array([1, 2, 3])
    assert (a0 @ x == 2 * x).all()
    assert (a1 @ x == 2 * x).all()
    with pytest.raises(SplitInfeasible):
        split_one_round(parity_subgraph(g, 1), x, 2)


def test_split_one_round_rejects_bad_vector():
    g0 = parity_subgraph(helpers.quad(), 0)
    with pytest.raises(InfeasibleVector):
        split_one_round(g0, (1, 0), 1)
    with pytest.raises(SplitInfeasible):
        # inequality holds at weight 5 but no 5-way division exists
        split_one_round(g0, (5, 5), 1)


def test_merge_split_pair_quad():
    g = helpers.quad()
    x = (1, 1)
    e = merge_split_pair(
        split_one_round(parity_subgraph(g, 0), x, 2),
        split_one_round(parity_subgraph(g, 1), x, 2),
        x)
    assert e.n0 == 2 and e.n1 == 2
    assert e.out_degrees_ok()
    assert sorted(e.graph.states) == ["alpha@0", "beta@0"]
    assert len(e.graph.edges) == 8


def test_merge_split_pair_matching_renames_copies():
    g = power(helpers.two_state(), 3)
    x = (2, 1)
    e0 = split_one_round(parity_subgraph(g, 0), x, 3)
    e1 = split_one_round(parity_subgraph(g, 1), x, 3)
    plain = merge_split_pair(e0, e1, x)
    swapped = merge_split_pair(e0, e1, x, matching={"alpha": (1, 0)})
    assert plain.out_degrees_ok() and swapped.out_degrees_ok()
    assert set(plain.graph.edges) != set(swapped.graph.edges)
    # identity matching is the default
    ident = merge_split_pair(e0, e1, x, matching={"alpha": (0, 1)})
    assert set(ident.graph.edges) == set(plain.graph.edges)


def test_merge_split_pair_hex_fixture():
    for perm in itertools.permutations(range(3)):
        e = merge_split_pair(helpers.hex_split_0(), helpers.hex_split_1(),
                             helpers.HEX_X, matching={"qc": perm, "qd": perm})
        assert e.n0 == 2 and e.n1 == 2
        assert e.out_degrees_ok()
        assert len(e.graph.states) == 9


def test_merged_rll_pipeline_structure():
    g = helpers.rll_16()
    with pytest.warns(UserWarning):
        m = merge_states(g, weights=helpers.RLL16_X)
    x = np.array(helpers.MERGED_X)
    e0 = split_one_round(parity_subgraph(m, 0), x, 173)
    e1 = split_one_round(parity_subgraph(m, 1), x, 178)
    e = merge_split_pair(e0, e1, x)
    assert e.n0 == 173 and e.n1 == 178
    assert e.out_degrees_ok()
    assert len(e.graph.states) == int(x.sum())


def _alpha_class1(g, w):
    """alpha's class-1 candidates of power(two_state(), 3) under w: its
    class-1 words in sorted order, one (word, copy) per target copy."""
    succ = {e.label: e.dst for e in g.out_edges("alpha")}
    return [(a, j) for a in sorted(succ) if a in g.parity.class1
            for j in range(w[succ[a]])]


def _blocks_read(e, u, b, x_u):
    """(label, target copy) of the class-b edges of copies u@0.., copy by
    copy in slot order."""
    return [[(ed.label, split_state(ed.dst)[1])
             for ed in e.class_edges("%s@%d" % (u, i), b)]
            for i in range(x_u)]


def test_stether_candidates_label_sorted():
    g = power(helpers.two_state(), 3)
    e = stether(g, (2, 1), 3, 3)
    w = {"alpha": 2, "beta": 1}
    succ = {ed.label: ed.dst for ed in g.out_edges("alpha")}
    read = [el for grp in _blocks_read(e, "alpha", 1, 2) for el in grp]
    assert read == sorted(read)
    for a, j in read:
        assert j < w[succ[a]]
    # one candidate per copy of the target
    a0, a1, _ = adjacency_pair(g)
    assert len(_alpha_class1(g, w)) == int(a1[0] @ np.array([2, 1]))


def test_stether_blocks_consecutive_surplus_dropped():
    g = power(helpers.two_state(), 3)
    e = stether(g, (2, 1), 3, 3)
    cands = _alpha_class1(g, {"alpha": 2, "beta": 1})
    assert len(cands) > 6
    assert _blocks_read(e, "alpha", 1, 2) == [cands[:3], cands[3:6]]
    # too few candidates for the blocks: the vector check refuses first
    with pytest.raises(InfeasibleVector, match="class-1"):
        stether(g, (2, 1), 3, len(cands))


def test_stether_structure():
    g = power(helpers.two_state(), 3)
    e = stether(g, (2, 1), 3, 3)
    assert sorted(e.graph.states) == ["alpha@0", "alpha@1", "beta@0"]
    assert e.out_degrees_ok()
    succ = {u: {ed.label: ed.dst for ed in g.out_edges(u)} for u in g.states}
    for ed in e.graph.edges:
        parent, _ = split_state(ed.src)
        tgt_parent, idx = split_state(ed.dst)
        assert succ[parent][ed.label] == tgt_parent
        assert idx < (2 if tgt_parent == "alpha" else 1)


def test_stether_drops_zero_weight_states():
    g = helpers.trisplit()
    # (1, 1, 0) satisfies the inequalities at (1, 1) once z is removed
    with pytest.warns(UserWarning, match="zero-weight"):
        e = stether(g, (1, 1, 0), 1, 1)
    assert sorted(e.graph.states) == ["x@0", "y@0"]
    assert e.out_degrees_ok()


def test_stether_punctured_degrees():
    g = power(helpers.two_state(), 3)
    e = stether_punctured(g, (2, 1), 2, 2)
    assert e.n0 == 2 and e.n1 == 2
    assert e.out_degrees_ok()
    for ed, tags in e.tags.items():
        for b, slot in tags:
            assert slot < 2
    wide = stether(g, (2, 1), 3, 3)
    assert len(e.graph.edges) < len(wide.graph.edges)


def _parted_forever():
    """The square of a graph whose symbol b is in both classes, and a
    vector at (2, 3) whose punctured (1, 2) encoder, by the reference
    rule, has two walks that part and never tell apart."""
    g = validate_graph(["n0", "n1"], [("n0", "a", "n1"), ("n0", "b", "n0"),
                                      ("n0", "c", "n1"), ("n1", "c", "n0")],
                       ["a", "b"], ["b", "c"])
    return power(g, 2), (2, 1)


def test_stether_punctured_emits_infinite_anticipation(monkeypatch):
    # like the other routes, punctured returns what it builds; verify
    # alone finds that no decoder reads it
    g, x = _parted_forever()
    e = stether_punctured(g, x, 1, 2)
    assert ((e.graph, list(e.tags.items()), e.n0, e.n1)
            == _outcome(helpers.reference_punctured, g, x, 1, 2))
    assert isinstance(anticipation(e), Infinite)
    assert "anticipation is infinite" in check_encoder(e, g, 1, 2).violations

    def no_pair_graph(*args):
        raise AssertionError("synth built a pair graph")

    # neither cover builds a pair graph
    monkeypatch.setattr(PairGraph, "__init__", no_pair_graph)
    assert stether_punctured(g, x, 1, 2).out_degrees_ok()
    cube = power(helpers.two_state(), 3)
    assert stether_punctured(cube, (2, 1), 2, 2).out_degrees_ok()


def _delay_exponent(n, top):
    """The least a with (n + 1)**a >= top, in ints; None when there is
    none (n = 0 and top > 1)."""
    a, reach = 0, 1
    while reach < top:
        if n == 0:
            return None
        a, reach = a + 1, reach * (n + 1)
    return a


@pytest.mark.filterwarnings("ignore:dropping zero-weight")
@pytest.mark.parametrize("seed", [5, 11])
def test_punctured_strict_cover_finite_delay(seed):
    # the paper's finite-delay guarantee: on a strict cover, every point
    # under the staircase whose (n0 + 1, n1 + 1) has a witness x+ gives
    # an encoder that verify passes, with anticipation at most 1 + a,
    # a the least int with (min(n0, n1) + 1)**a >= max x+
    rng = np.random.default_rng(seed)
    points = 0
    for base, t in itertools.product(
            [helpers.random_det_graph(rng) for _ in range(100)], (1, 2)):
        g = power(base, t)
        a0, a1, _ = adjacency_pair(g)
        for row in rate_region(base, t):
            n0 = row.n0
            for n1 in range(row.n1 + 1):
                try:
                    _, x = min_infnorm_ae(a0, a1, n0 + 1, n1 + 1)
                except NotFoundWithin:
                    continue
                e = stether_punctured(g, x.entries, n0, n1)
                report = check_encoder(e, base, n0, n1, t)
                assert report.ok, (base.edges, t, n0, n1, report.violations)
                a = _delay_exponent(min(n0, n1), max(x.entries))
                if a is not None:
                    assert report.anticipation.value <= 1 + a
                points += 1
    assert points > 1100


def test_stether_overlap_shared_edge_carries_both_tags():
    g = helpers.load("overlap.cg")
    e = stether(g, (1,), 2, 2)
    assert _blocks_read(e, "u", 0, 1) == [[("p", 0), ("q", 0)]]
    assert _blocks_read(e, "u", 1, 1) == [[("p", 0), ("r", 0)]]
    # the shared symbol yields a single edge carrying both tags
    assert len(e.graph.edges) == 3
    assert set(e.tags[Edge("u@0", "p", "u@0")]) == {(0, 0), (1, 0)}


def test_stether_overlap_pins_shared_copies():
    # class 0 (degree 1) gives p's copy j to u@j; class 1 keeps p there
    # and fills with r, so no copy reads p twice
    e = stether(helpers.load("overlap.cg"), (2,), 1, 2)
    assert len(e.graph.edges) == 4
    assert _blocks_read(e, "u", 1, 2) == [[("p", 0), ("r", 0)],
                                          [("p", 1), ("r", 1)]]
    assert e.out_degrees_ok()


def _outcome(build, *args):
    """What a construction gives: the encoder's graph, tags in order and
    degrees, or its refusal's type and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            e = build(*args)
        except BimodalError as exc:
            return type(exc), str(exc)
    return e.graph, list(e.tags.items()), e.n0, e.n1


def test_stether_matches_reference():
    # the cover-consistent division, rebuilt from its description, on
    # strict covers (where it is each class's consecutive cut) and on
    # overlapping ones, where the two rules can differ
    rng = np.random.default_rng(14)
    seen = set()
    for i in range(600):
        strict = bool(i % 2)
        if i % 8 < 2:
            g = helpers.random_graph(rng, max_states=3, strict=strict)
        else:
            g = helpers.random_det_graph(rng, strict=strict)
        g = g if i % 3 else power(g, 2)
        a0, a1, _ = adjacency_pair(g)
        n0, n1 = (int(v) for v in rng.integers(1, 4, size=2))
        for up, build, ref in ((0, stether, helpers.reference_stether),
                               (1, stether_punctured,
                                helpers.reference_punctured)):
            try:
                _, x = min_infnorm_ae(a0, a1, n0 + up, n1 + up, xi_cap=6)
                x = x.entries
            except NotFoundWithin:
                x = rng.integers(0, 3, size=len(g.states))
            got = _outcome(build, g, x, n0, n1)
            assert got == _outcome(ref, g, x, n0, n1), (g.edges, x, n0, n1)
            plain = _outcome(ref, g, x, n0, n1, False)
            if strict:
                assert got == plain
            seen.add((strict, isinstance(got[0], type), got == plain))
    assert seen == {(True, False, True), (True, True, True),
                    (False, False, True), (False, False, False),
                    (False, True, True)}


def test_assign_block_tags():
    g = power(helpers.two_state(), 3)
    e = stether_punctured(g, (2, 1), 2, 2)
    table = helpers.check_block_table(e, 2)
    for s in e.graph.states:
        assert set(table[s]) == {"00", "11", "01", "10"}
        for block, edge in table[s].items():
            b = sum(int(c) for c in block) % 2
            assert edge in e.class_edges(s, b)
    with pytest.raises(ArityMismatch):
        encode_stream(e, ["000"], e.graph.states[0])


# weight vectors with entries above 1 wherever a fixture has one
@pytest.mark.parametrize("method, name, t, p", [
    ("det", "twostate.cg", 2, 1), ("det", "quad.cg", 1, 2),
    ("det", "twostate.cg", 4, 3), ("stether", "twostate.cg", 2, 1),
    ("stether", "trisplit.cg", 1, 2), ("stether", "twostate.cg", 4, 3),
    ("punctured", "trisplit.cg", 1, 1), ("punctured", "twostate.cg", 3, 2),
    ("punctured", "twostate.cg", 4, 3),
])
def test_assign_block_tags_matches_reference(method, name, t, p):
    g = helpers.load(name)
    g = g if t == 1 else power(g, t)
    a0, a1, _ = adjacency_pair(g)
    n = 2 ** (p - 1)
    if method == "det":
        e = extract_deterministic(
            g, joint_ae_exists(a0, a1, n, n, xi_cap=1).entries, n, n)
    elif method == "stether":
        e = stether(g, min_infnorm_ae(a0, a1, n, n)[1].entries, n, n)
    else:
        e = stether_punctured(
            g, min_infnorm_ae(a0, a1, n + 1, n + 1)[1].entries, n, n)
    assert e.out_degrees_ok()
    helpers.check_block_table(e, p)


def test_determinism_scanned_once_per_graph(monkeypatch):
    g = power(helpers.two_state(), 2)
    reads = []
    out_edges = LabeledGraph.out_edges

    def counted(self, s):
        reads.append(s)
        return out_edges(self, s)

    monkeypatch.setattr(LabeledGraph, "out_edges", counted)
    counts = []
    for _ in range(2):
        reads.clear()
        stether(g, (1, 1), 1, 1)
        counts.append(len(reads))
    # the determinism scan reads each state once for the graph, and the
    # candidate lists read each state once per call
    assert counts == [2 * len(g.states), len(g.states)]


def _either(build, *args):
    """build's result, or its refusal's type and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return build(*args)
        except (BimodalError, ValueError) as exc:
            return type(exc), str(exc)


def _split_degree(rng, g_b, x):
    """A degree up to one past the largest n_b with A_b x >= n_b x, so
    that some draws fail the inequality."""
    ax = adjacency(g_b).dot(x)
    top = min(int(a) // int(v) for a, v in zip(ax, x))
    return int(rng.integers(0, top + 2))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.sampled_from([None, 0, 1]), st.sampled_from([None, "perm", "x"]))
def test_split_route_matches_reference(seed, strict, low, other):
    # the split route, state merge to merged encoder, against the
    # rules as they stood before each step became one pass: no weights,
    # or weights from ``low`` (zeros included) up to 2
    rng = np.random.default_rng(seed)
    g = helpers.random_det_graph(rng, max_states=5, strict=strict)
    w = None if low is None else [
        int(v) for v in rng.integers(low, 3, size=len(g.states))]
    m = _either(merge_states, g, w)
    assert m == _either(helpers.reference_merge_states, g, w), (g.edges, w)
    if not isinstance(m, LabeledGraph) or not m.states:
        return
    x = [int(v) for v in rng.integers(1, 4, size=len(m.states))]
    split = []
    for b in (0, 1):
        g_b = parity_subgraph(m, b)
        n_b = _split_degree(rng, g_b, x)
        got = _either(split_one_round, g_b, x, n_b)
        assert got == _either(helpers.reference_split_one_round, g_b, x, n_b)
        split.append(got)
    if not all(isinstance(s, LabeledGraph) for s in split):
        return
    e0, e1 = split
    matching = None
    if other == "perm":
        # each parent's copies of the class-1 graph renamed at random
        matching = {u: tuple(int(i) for i in rng.permutation(v))
                    for u, v in zip(m.states, x)}
    elif other == "x":
        # class 1 split at another vector: the copies may disagree
        y = [v + int(rng.integers(0, 2)) for v in x]
        e1 = _either(split_one_round, parity_subgraph(m, 1), y, 0)
    assert _outcome(merge_split_pair, e0, e1, x, matching) == \
        _outcome(helpers.reference_merge_split_pair, e0, e1, x, matching)


def test_hex_matchings_merge_as_reference():
    e0, e1 = helpers.hex_split_0(), helpers.hex_split_1()
    for p0 in itertools.permutations(range(3)):
        for p1 in itertools.permutations(range(3)):
            matching = {"qc": p0, "qd": p1}
            assert _outcome(merge_split_pair, e0, e1, helpers.HEX_X,
                            matching) == _outcome(
                helpers.reference_merge_split_pair, e0, e1, helpers.HEX_X,
                matching)


def test_merge_states_through_both_rules():
    # v2 has v's followers and weight, so it goes to v; w reads a
    # subset of v's words at v's weight, so v goes to w, and u's edge
    # into v2 lands on w
    g = validate_graph(
        ["v", "v2", "w", "u"],
        [("v", "a", "v"), ("v", "b", "v"), ("v2", "a", "v2"),
         ("v2", "b", "v2"), ("w", "a", "w"), ("u", "a", "v2"),
         ("u", "b", "u")],
        ["a"], ["b"])
    w = (1, 1, 1, 2)
    m = merge_states(g, weights=w)
    assert m == helpers.reference_merge_states(g, w)
    assert m.states == ("w", "u")
    assert set(m.edges) == {Edge("w", "a", "w"), Edge("u", "a", "w"),
                            Edge("u", "b", "u")}


def test_huge_vector_sum_refused_by_budget():
    # a 5001-digit entry: the refusal names the budget, not the sum,
    # whose decimal form Python will not print
    with pytest.raises(TooManyCopies) as info:
        _check_ae(helpers.quad(), [10 ** 5000] * 2, 2, 2)
    msg = str(info.value)
    assert str(POWER_BUDGET) in msg and len(msg) < 100
