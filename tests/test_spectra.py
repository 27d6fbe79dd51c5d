import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from bimodal import (
    NotFoundWithin,
    adjacency,
    adjacency_pair,
    anticipation_lower_bound,
    capacity,
    coding_ratio,
    franaszek_joint,
    joint_ae_exists,
    min_infnorm_ae,
    perron,
    power,
    rate_region,
)
from bimodal.spectra import DimensionMismatch


def test_perron_simple_values():
    assert perron(np.array([[2]])) == pytest.approx(2.0, abs=1e-9)
    assert perron(np.array([[0, 1], [1, 0]])) == pytest.approx(1.0, abs=1e-9)
    assert perron(np.array([[0, 1], [0, 0]])) == 0.0
    assert perron(np.zeros((3, 3), dtype=int)) == 0.0


def test_perron_matches_numpy_oracle():
    rng = np.random.default_rng(11)
    for _ in range(120):
        a = helpers.random_matrix(rng)
        want = max(abs(np.linalg.eigvals(a.astype(float))))
        assert perron(a) == pytest.approx(want, abs=1e-6)


def test_perron_reducible_blocks_out_of_index_order():
    # irreducible diagonal blocks with spectral radii 3, 1+sqrt(2), 1 and
    # 0, coupled upper block-triangularly, then scattered over the indices
    # so that no component occupies a contiguous or ordered index range
    blocks = [np.array([[3]]), np.array([[1, 2], [1, 1]]),
              np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), np.array([[0]])]
    n = sum(len(b) for b in blocks)
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = np.zeros((n, n), dtype=np.int64)
        i = 0
        for b in blocks:
            a[i:i + len(b), i:i + len(b)] = b
            a[i:i + len(b), i + len(b):] = rng.integers(0, 2, size=(
                len(b), n - i - len(b)))
            i += len(b)
        perm = rng.permutation(n)
        a = a[np.ix_(perm, perm)]
        assert perron(a) == pytest.approx(3.0, abs=1e-9)
        # dropping the dominant block leaves 1 + sqrt(2)
        keep = [j for j in range(n) if perm[j] != 0]
        assert perron(a[np.ix_(keep, keep)]) == pytest.approx(
            1 + math.sqrt(2), abs=1e-9)


def test_block_length_below_one_is_rejected():
    g = helpers.two_state()
    for t in (0, -1):
        with pytest.raises(ValueError):
            rate_region(g, t)
        with pytest.raises(ValueError):
            coding_ratio(g, t)


def test_perron_fixture_values():
    g = helpers.mixed()
    a0, a1, _ = adjacency_pair(power(g, 2))
    assert perron(adjacency(power(g, 2))) == pytest.approx(64.0, abs=1e-6)
    assert perron(a0) == pytest.approx(39.5, abs=0.1)
    assert perron(a1) == pytest.approx(26.1, abs=0.1)


def test_capacity():
    assert capacity(helpers.two_state()) == pytest.approx(1.0, abs=1e-9)
    assert capacity(helpers.quad()) == pytest.approx(2.0, abs=1e-6)


def test_franaszek_dimension_checks():
    with pytest.raises(DimensionMismatch):
        franaszek_joint(np.eye(2, dtype=int), np.eye(3, dtype=int),
                        1, 1, np.ones(2, dtype=int))
    with pytest.raises(DimensionMismatch):
        franaszek_joint(np.eye(2, dtype=int), np.eye(2, dtype=int),
                        1, 1, np.ones(3, dtype=int))


def test_franaszek_golden_vector():
    x = franaszek_joint(helpers.RLL16_A0, helpers.RLL16_A1, 173, 178,
                        np.full(11, 2, dtype=np.int64))
    assert tuple(int(v) for v in x) == helpers.RLL16_X
    for n0, n1 in ((174, 178), (173, 179)):
        y = franaszek_joint(helpers.RLL16_A0, helpers.RLL16_A1, n0, n1,
                            np.full(11, 2, dtype=np.int64))
        assert not y.any()


def test_franaszek_merged_golden():
    x = franaszek_joint(helpers.MERGED_A0, helpers.MERGED_A1, 173, 178,
                        np.full(4, 2, dtype=np.int64))
    assert tuple(int(v) for v in x) == helpers.MERGED_X


def _feasible_vectors(a0, a1, n0, n1, cap):
    n = a0.shape[0]
    for entries in itertools.product(range(cap + 1), repeat=n):
        x = np.array(entries, dtype=np.int64)
        if not x.any():
            continue
        if (a0 @ x >= n0 * x).all() and (a1 @ x >= n1 * x).all():
            yield x


def test_franaszek_maximality_brute_force():
    # frozen oracle: the result dominates every solution under the cap
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
        sols = list(_feasible_vectors(a0, a1, n0, n1, cap))
        if sols:
            assert got.any()
            for s in sols:
                assert (s <= got).all()
            assert any((s == got).all() for s in sols)
        else:
            assert not got.any()
        checked += 1


def test_joint_ae_exists_tri_state():
    a0, a1 = helpers.RLL16_A0, helpers.RLL16_A1
    got = joint_ae_exists(a0, a1, 173, 178, xi_cap=2)
    assert got is not None and got.entries == helpers.RLL16_X
    assert joint_ae_exists(a0, a1, 174, 178, xi_cap=2) is None


def test_joint_ae_agrees_with_perron_on_single_class():
    # a nonzero vector exists within a generous cap iff n <= lambda(A)
    rng = np.random.default_rng(31)
    for _ in range(120):
        a = helpers.random_matrix(rng, max_n=3)
        lam = max(abs(np.linalg.eigvals(a.astype(float))))
        for n in range(1, 4):
            got = joint_ae_exists(a, a, n, n, xi_cap=2 ** a.shape[0] * 16)
            if abs(lam - n) < 1e-9:
                continue
            assert (got is not None) == (n < lam)


def test_min_infnorm_ae():
    g = helpers.two_state()
    a0, a1, _ = adjacency_pair(power(g, 3))
    norm, vec = min_infnorm_ae(a0, a1, 3, 3)
    assert norm == 2 and vec.entries == (2, 1)
    with pytest.raises(NotFoundWithin):
        min_infnorm_ae(a0, a1, 4, 4, xi_cap=8)


def test_anticipation_lower_bound():
    g = helpers.two_state()
    a0, a1, _ = adjacency_pair(power(g, 3))
    assert anticipation_lower_bound(a0, a1, 3, 3) == pytest.approx(
        math.log(2, 3))
    assert anticipation_lower_bound(a0, a1, 1, 1) == 0.0


def test_rate_region_golden():
    pts = {p.n0: p for p in rate_region(helpers.mixed(), 2)}
    assert pts[20].n1 == 26
    assert pts[39].n1 == 13
    assert max(pts) == 39
    x = np.array(pts[20].witness)
    a0, a1, _ = adjacency_pair(power(helpers.mixed(), 2))
    assert (a0 @ x >= 20 * x).all() and (a1 @ x >= 26 * x).all()


def test_rate_region_monotone_boundary():
    pts = rate_region(helpers.mixed(), 2)
    best = [p.n1 for p in pts]
    assert best == sorted(best, reverse=True)


def test_coding_ratio_doubling_law():
    g = helpers.two_state()
    for t in range(1, 9):
        n_max, rho = coding_ratio(g, t)
        assert n_max == 2 ** (t - 1) - 1
        if t == 1:
            assert rho == float("-inf")
        else:
            assert rho == pytest.approx(math.log2(2 ** t - 2) / t, abs=1e-9)
        a0, a1, _ = adjacency_pair(power(g, t) if t > 1 else g)
        assert joint_ae_exists(a0, a1, 2 ** (t - 1), 2 ** (t - 1),
                               xi_cap=64) is None


def test_coding_ratio_alternative_split():
    g = helpers.two_state_alt()
    for t in range(3, 9):
        n_t = (2 ** t + 2 * (-1) ** t) // 3
        n_max, rho = coding_ratio(g, t)
        assert n_max == n_t
        assert rho == pytest.approx(math.log2(2 * n_t) / t, abs=1e-9)
        a0, a1, _ = adjacency_pair(power(g, t))
        x = np.array([3, 2])
        assert (a0 @ x >= n_t * x).all() and (a1 @ x >= n_t * x).all()


def test_alternative_split_power_closed_form():
    g = helpers.two_state_alt()
    for t in range(1, 9):
        a0, a1, _ = adjacency_pair(power(g, t))
        s = (-1) ** t
        exp0 = np.array([[2 ** (t + 1) + s, 0],
                         [0, 2 ** t + 2 * s]]) // 3
        exp1 = np.array([[0, 2 ** (t + 1) - 2 * s],
                         [2 ** t - s, 0]]) // 3
        assert a0.tolist() == exp0.tolist()
        assert a1.tolist() == exp1.tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_franaszek_monotone_in_degrees(seed):
    rng = np.random.default_rng(seed)
    a0 = helpers.random_matrix(rng, max_n=3)
    a1 = helpers.random_matrix(rng, max_n=3)
    if a1.shape != a0.shape:
        a1 = np.resize(a1, a0.shape)
    xi = np.full(a0.shape[0], 5, dtype=np.int64)
    prev = franaszek_joint(a0, a1, 1, 1, xi)
    for n in range(2, 5):
        cur = franaszek_joint(a0, a1, n, n, xi)
        assert (cur <= prev).all()
        prev = cur
