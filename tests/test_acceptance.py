"""End-to-end acceptance checks.

One test per shipped guarantee; each prints a single PASS/FAIL line
(visible with pytest -s) in addition to the usual pytest verdict.
"""

import itertools
import math
import random
from contextlib import contextmanager

import numpy as np
import pytest

import helpers
import test_spectra
import test_verify
from bimodal import (
    Finite,
    Infinite,
    NotFoundWithin,
    adjacency,
    adjacency_pair,
    anticipation,
    anticipation_lower_bound,
    check_encoder,
    coding_ratio,
    decode_stream,
    encode_stream,
    extract_deterministic,
    franaszek_joint,
    is_definite,
    joint_ae_exists,
    losslessness,
    memory,
    merge_split_pair,
    merge_states,
    min_infnorm_ae,
    parity_subgraph,
    perron,
    power,
    presents_subset,
    rate_region,
    split_one_round,
    stether,
    stether_punctured,
)
from bimodal.synth import SplitInfeasible


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print("FAIL %2d  %s" % (n, desc))
        raise
    print("PASS %2d  %s" % (n, desc))


def test_criterion_1_franaszek_golden():
    with criterion(1, "joint vector iteration on the 11-state pair"):
        xi = np.full(11, 2, dtype=np.int64)
        x = franaszek_joint(helpers.RLL16_A0, helpers.RLL16_A1,
                            173, 178, xi)
        assert tuple(int(v) for v in x) == helpers.RLL16_X
        assert not franaszek_joint(helpers.RLL16_A0, helpers.RLL16_A1,
                                   174, 178, xi).any()
        assert not franaszek_joint(helpers.RLL16_A0, helpers.RLL16_A1,
                                   173, 179, xi).any()


def test_criterion_2_merge_golden():
    with criterion(2, "state merge, split, and verified (173,178) encoder"):
        g = helpers.rll_16()
        with pytest.warns(UserWarning):
            m = merge_states(g, weights=helpers.RLL16_X)
        a0, a1, _ = adjacency_pair(m)
        assert a0.tolist() == helpers.MERGED_A0.tolist()
        assert a1.tolist() == helpers.MERGED_A1.tolist()
        x = franaszek_joint(a0, a1, 173, 178, np.full(4, 2, dtype=np.int64))
        assert tuple(int(v) for v in x) == helpers.MERGED_X
        e0 = split_one_round(parity_subgraph(m, 0), x, 173)
        e1 = split_one_round(parity_subgraph(m, 1), x, 178)
        enc = merge_split_pair(e0, e1, x)
        rep = check_encoder(enc, m, 173, 178)
        assert rep.ok
        assert rep.anticipation == Finite(1)


def test_criterion_3_rate_region_golden():
    with criterion(3, "degree region and spectral radii on the 3-letter"
                      " example"):
        g = helpers.mixed()
        pts = {p.n0: p.n1 for p in rate_region(g, 2, xi_cap=64)}
        assert pts.get(20) == 26
        assert pts.get(39) == 13
        sq = power(g, 2)
        a0, a1, _ = adjacency_pair(sq)
        assert perron(adjacency(sq)) == pytest.approx(64.0, abs=1e-6)
        assert perron(a0) == pytest.approx(39.5, abs=0.1)
        assert perron(a1) == pytest.approx(26.1, abs=0.1)


def test_criterion_4_coding_ratio_law():
    with criterion(4, "doubling-law degrees 0,1,3,...,127 and their ratios"):
        g = helpers.two_state()
        for t in range(1, 9):
            n_max, rho = coding_ratio(g, t)
            assert n_max == 2 ** (t - 1) - 1
            if t == 1:
                assert rho == float("-inf")
            else:
                assert rho == pytest.approx(
                    math.log2(2 ** t - 2) / t, abs=1e-9)
            a0, a1, _ = adjacency_pair(power(g, t) if t > 1 else g)
            assert joint_ae_exists(a0, a1, 2 ** (t - 1), 2 ** (t - 1),
                                   xi_cap=64) is None


def test_criterion_5_alternative_split_law():
    with criterion(5, "alternative split degrees and closed-form powers"):
        g = helpers.two_state_alt()
        for t in range(3, 9):
            n_t = (2 ** t + 2 * (-1) ** t) // 3
            n_max, _ = coding_ratio(g, t)
            assert n_max == n_t
            a0, a1, _ = adjacency_pair(power(g, t))
            x = np.array([3, 2])
            assert (a0 @ x >= n_t * x).all()
            assert (a1 @ x >= n_t * x).all()
            s = (-1) ** t
            assert a0.tolist() == (np.array(
                [[2 ** (t + 1) + s, 0], [0, 2 ** t + 2 * s]]) // 3).tolist()
            assert a1.tolist() == (np.array(
                [[0, 2 ** (t + 1) - 2 * s],
                 [2 ** t - s, 0]]) // 3).tolist()


def test_criterion_6_split_failure():
    with criterion(6, "exhaustive split search fails on the 3-state"
                      " eigenvector"):
        g = helpers.trisplit()
        a0, a1, _ = adjacency_pair(g)
        x = np.array([1, 2, 3])
        assert (a0 @ x == 2 * x).all()
        assert (a1 @ x == 2 * x).all()
        with pytest.raises(SplitInfeasible):
            split_one_round(parity_subgraph(g, 1), x, 2)


def test_criterion_7_hex_merge_limitation():
    with criterion(7, "every copy matching of the hex splits loses finite"
                      " anticipation"):
        g = helpers.hexchain()
        a0, a1, _ = adjacency_pair(g)
        x = np.array(helpers.HEX_X)
        assert (a0 @ x == 2 * x).all()
        assert (a1 @ x == 2 * x).all()
        e0, e1 = helpers.hex_split_0(), helpers.hex_split_1()
        assert anticipation(e0) == Finite(3)
        assert anticipation(e1) == Finite(3)
        for p0 in itertools.permutations(range(3)):
            for p1 in itertools.permutations(range(3)):
                enc = merge_split_pair(e0, e1, helpers.HEX_X,
                                       matching={"qc": p0, "qd": p1})
                got = anticipation(enc)
                assert isinstance(got, Infinite)
                prefix, _ = got.certificate
                assert prefix


def _fixture_encoders():
    g2 = power(helpers.two_state(), 2)
    g3 = power(helpers.two_state(), 3)
    yield "det quad", helpers.quad(), \
        extract_deterministic(helpers.quad(), (1, 1), 2, 2), 2, 2, None
    yield "det square", g2, extract_deterministic(g2, (1, 1), 1, 1), \
        1, 1, None
    yield "split cube", g3, merge_split_pair(
        split_one_round(parity_subgraph(g3, 0), (2, 1), 3),
        split_one_round(parity_subgraph(g3, 1), (2, 1), 3),
        (2, 1)), 3, 3, None
    yield "stether cube", g3, stether(g3, (2, 1), 3, 3), 3, 3, None
    yield "punctured cube", g3, stether_punctured(g3, (2, 1), 2, 2), \
        2, 2, (2, 1)


def test_criterion_8_structural_bounds():
    with criterion(8, "structural bounds hold on every synthesized"
                      " fixture encoder"):
        for name, g, e, n0, n1, x_plus in _fixture_encoders():
            for s in e.graph.states:
                assert len(e.class_edges(s, 0)) == n0, name
                assert len(e.class_edges(s, 1)) == n1, name
            assert losslessness(e), name
            assert presents_subset(e, g), name
            a0, a1, _ = adjacency_pair(g)
            norm, _ = min_infnorm_ae(a0, a1, n0, n1)
            assert len(e.graph.states) >= norm, name
            got = anticipation(e)
            low = anticipation_lower_bound(a0, a1, n0, n1)
            if isinstance(got, Finite):
                assert got.value >= low - 1e-9, name
            if x_plus is not None:
                n = min(n0, n1)
                cap = 1 + math.ceil(
                    math.log(max(x_plus), n + 1)) if max(x_plus) > 1 else 1
                assert isinstance(got, Finite) and got.value <= cap, name
                mu = memory(g)
                if isinstance(mu, Finite):
                    assert is_definite(e, mu.value, got.value), name


def test_criterion_9_oracle_suites():
    with criterion(9, "brute-force agreement on 200 random instances per"
                      " checker"):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            a0 = helpers.random_matrix(rng, max_n=3, max_entry=3)
            a1 = helpers.random_matrix(rng, max_n=a0.shape[0], max_entry=3)
            if a1.shape != a0.shape:
                continue
            n0 = int(rng.integers(1, 4))
            n1 = int(rng.integers(1, 4))
            cap = int(rng.integers(1, 4))
            xi = np.full(a0.shape[0], cap, dtype=np.int64)
            got = franaszek_joint(a0, a1, n0, n1, xi)
            sols = list(test_spectra._feasible_vectors(a0, a1, n0, n1, cap))
            if sols:
                assert all((s <= got).all() for s in sols)
                assert any((s == got).all() for s in sols)
            else:
                assert not got.any()
            checked += 1
        rng = np.random.default_rng(101)
        for _ in range(200):
            g = helpers.random_graph(rng)
            assert losslessness(g) == test_verify.oracle_lossless(g)
            want = test_verify.oracle_anticipation(g)
            have = anticipation(g)
            if want == math.inf:
                assert isinstance(have, Infinite)
            else:
                assert have == Finite(want)


def test_criterion_10_round_trip():
    with criterion(10, "codec identity over 1000 blocks and bounded"
                       " running sum"):
        rng = random.Random(77)
        fixtures = [
            (extract_deterministic(power(helpers.two_state(), 2),
                                   (1, 1), 1, 1), 1),
            (extract_deterministic(helpers.quad(), (1, 1), 2, 2), 2),
            (stether_punctured(power(helpers.two_state(), 3),
                               (2, 1), 2, 2), 2),
        ]
        for e, p in fixtures:
            a = anticipation(e).value
            start = e.graph.states[0]
            blocks = ["".join(rng.choice("01") for _ in range(p))
                      for _ in range(1000)]
            pad = ["0" * p] * a
            for policy in ("as-tagged", "fixed-parity", "rds-min"):
                word, _, trace = encode_stream(e, blocks + pad, start,
                                               policy=policy)
                decoded = decode_stream(e, word, start, p=p)
                got = [d.tag for d in decoded[:1000]]
                if policy == "as-tagged":
                    assert got == blocks
                else:
                    assert [b[1:] for b in got] == [b[1:] for b in blocks]
        e, p = fixtures[0]
        blocks = [rng.choice("01") for _ in range(1000)]
        _, _, trace = encode_stream(e, blocks, e.graph.states[0],
                                    policy="rds-min")
        disparity = 1  # each emitted label carries one channel bit
        assert abs(trace[-1]) <= disparity
