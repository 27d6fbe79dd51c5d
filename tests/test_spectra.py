import collections
import itertools
import math
import operator
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from bimodal import (
    BimodalError,
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
    validate_graph,
)
from bimodal import graphs, spectra
from bimodal.construct import rll_graph
from bimodal.spectra import DimensionMismatch


def test_perron_simple_values():
    assert perron(np.array([[2]])) == pytest.approx(2.0, abs=1e-9)
    assert perron(np.array([[0, 1], [1, 0]])) == pytest.approx(1.0, abs=1e-9)
    assert perron(np.array([[0, 1], [0, 0]])) == 0.0
    assert perron(np.zeros((3, 3), dtype=int)) == 0.0


def test_perron_refuses_bad_matrices():
    with pytest.raises(DimensionMismatch, match="^expected a square matrix$"):
        perron(np.array([[1, 0, 1], [0, 1, 1]]))
    with pytest.raises(ValueError,
                       match="^matrix entries must be nonnegative$"):
        perron(np.array([[1, -1], [0, 1]]))


def test_perron_refuses_past_float():
    # an entry floats cannot hold, and entries that fit whose root
    # (2 * 10^308) does not
    for a in ([[10 ** 400]], [[10 ** 308] * 2] * 2):
        with pytest.raises(BimodalError, match="largest float"):
            perron(np.array(a, dtype=object))


def test_perron_matches_numpy_oracle():
    rng = np.random.default_rng(11)
    # eigenvalues near 1e10 and -1e10: A + I has two of almost one
    # modulus, where a power iteration oscillates
    near_equal = np.array([[1, 10 ** 20], [1, 0]])
    for a in [helpers.random_matrix(rng) for _ in range(120)] + [near_equal]:
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


def test_joint_ae_exists_int64_guard():
    # past the largest cap whose products fit int64 the sweep runs in
    # Python ints, with the same answer
    a0, a1, _ = adjacency_pair(helpers.quad())
    rows = int(max(a0.sum(axis=1).max(), a1.sum(axis=1).max()))
    top = (2 ** 63 - 1) // rows
    for cap in (top, top + 1, 10 ** 40):
        got = joint_ae_exists(a0, a1, 1, 1, xi_cap=cap)
        assert got is not None and got.entries == (cap, cap)
    assert min_infnorm_ae(a0, a1, 2, 2, xi_cap=10 ** 40)[0] == 1


def test_edgeless_pair_past_int64():
    # with both matrices zero the ceiling bounds the sweep's arrays, so a
    # cap past int64 is held in Python ints
    z = np.zeros((2, 2), dtype=np.int64)
    cap = 10 ** 23
    got = franaszek_joint(z, z, 0, 0, [cap, 3])
    assert got.dtype == object and got.tolist() == [cap, 3]
    assert franaszek_joint(z, z, 1, 0, [cap, 3]).tolist() == [0, 0]
    # numpy would read this ceiling as floats; it is ints all the same
    assert franaszek_joint(z, z, 0, 0, [10 ** 19, 3]).tolist() == [
        10 ** 19, 3]
    assert joint_ae_exists(z, z, 0, 0, xi_cap=cap).entries == (cap, cap)
    assert joint_ae_exists(z, z, 0, 1, xi_cap=cap) is None
    assert min_infnorm_ae(z, z, 0, 0, xi_cap=cap) == (
        1, spectra.ApproxEigenvector((1, 1), 0, 0))
    with pytest.raises(NotFoundWithin):
        min_infnorm_ae(z, z, 1, 1, xi_cap=cap)


def _exact_sweep_cases():
    """(name, result) of searches on the fixtures, for comparing runs."""
    out = []
    for name in ("twostate.cg", "mixed.cg", "overlap.cg", "quad.cg",
                 "trisplit.cg"):
        g = helpers.load(name)
        for t in (1, 2, 3):
            a0, a1, _ = adjacency_pair(g, t)
            xi = [7] * len(a0)
            out.append((name, t, rate_region(g, t), coding_ratio(g, t),
                        franaszek_joint(a0, a1, 1, 1, xi).tolist()))
            try:
                out.append(min_infnorm_ae(a0, a1, 1, 1))
            except NotFoundWithin as exc:
                out.append(str(exc))
    return out


def test_sweep_same_in_int64_and_python_ints(monkeypatch):
    # a bound of -1 fits nothing, so every array holds Python ints
    want = _exact_sweep_cases()
    monkeypatch.setattr(graphs, "INT64_MAX", -1)
    a0, _, _ = adjacency_pair(helpers.quad())
    assert a0.dtype == object
    assert _exact_sweep_cases() == want


def _holds(a, x, n):
    return all(sum(r * v for r, v in zip(row, x)) >= n * xu
               for row, xu in zip(a, x))


def test_coding_ratio_exact_past_int64():
    # n_max has 69, 138 and 277 bits; the ratio tends to the capacity
    g = rll_graph(2, 10)
    cap = capacity(g)
    for t in (128, 256, 512):
        n, rho = coding_ratio(g, t)
        assert n > 2 ** 63
        assert rho == math.log2(2 * n) / t and rho < cap
        a0, a1, _ = adjacency_pair(g, t)
        got = joint_ae_exists(a0, a1, n, n)
        assert got is not None
        rows0, rows1 = a0.tolist(), a1.tolist()
        assert any(got.entries)
        assert _holds(rows0, got.entries, n) and _holds(rows1, got.entries, n)
        assert joint_ae_exists(a0, a1, n + 1, n + 1) is None
    assert cap - rho < 1e-4


def test_rate_region_row_budget(monkeypatch):
    # one row per n0 up to the largest class-0 row sum, 2^(t-1) here
    g = validate_graph(["s"], [("s", "a", "s"), ("s", "b", "s")],
                       ["a"], ["b"])
    monkeypatch.setattr(spectra, "POWER_BUDGET", 8)
    assert len(rate_region(g, 3)) == 5
    for t in (4, 24, 70):
        start = time.perf_counter()
        with pytest.raises(BimodalError, match="t=%d" % t):
            rate_region(g, t)
        assert time.perf_counter() - start < 1


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


def test_anticipation_lower_bound(monkeypatch):
    # the least integer a >= 0 with n**a >= norm, n the larger degree
    g = helpers.two_state()
    a0, a1, _ = adjacency_pair(power(g, 3))
    assert min_infnorm_ae(a0, a1, 3, 3)[0] == 2
    got = anticipation_lower_bound(a0, a1, 3, 3)
    assert got == 1 and type(got) is int
    got = anticipation_lower_bound(a0, a1, 1, 1)
    assert got == 0 and type(got) is int
    # at exact powers of n and one past them, from a stubbed search
    for norm, n, want in ((1, 0, 0), (1, 1, 0), (1, 5, 0), (2, 2, 1),
                          (3, 2, 2), (4, 2, 2), (5, 2, 3), (9, 3, 2),
                          (10, 3, 3), (10 ** 40, 10, 40),
                          (10 ** 40 + 1, 10, 41)):
        monkeypatch.setattr(spectra, "min_infnorm_ae",
                            lambda *args, norm=norm, **kw: (norm, None))
        assert anticipation_lower_bound(a0, a1, n, 0) == want, (norm, n)
        assert anticipation_lower_bound(a0, a1, 0, n) == want, (norm, n)
    # no power of n <= 1 reaches a norm above 1
    for n in (0, 1):
        monkeypatch.setattr(spectra, "min_infnorm_ae",
                            lambda *args, **kw: (2, None))
        assert anticipation_lower_bound(a0, a1, n, n) == math.inf
    monkeypatch.undo()
    # the search never gives such a norm: at degrees <= 1 the support
    # of a solution is a 0-1 solution
    rng = np.random.default_rng(3)
    norms = collections.Counter()
    for _ in range(200):
        a0 = helpers.random_matrix(rng, max_entry=2)
        a1 = rng.integers(0, 3, size=a0.shape)
        for n0, n1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
            try:
                norms[min_infnorm_ae(a0, a1, n0, n1)[0]] += 1
            except NotFoundWithin:
                norms["none"] += 1
    assert set(norms) == {1, "none"} and norms[1] > 400, norms


def _reference_largest(test, lo, hi):
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        got = test(mid)
        if got is not None:
            best, lo = (mid, got), mid + 1
        else:
            hi = mid - 1
    return best


def _reference_tables(g, t, xi_cap):
    """rate_region and coding_ratio with float Perron search bounds."""
    a0, a1, _ = adjacency_pair(g if t == 1 else power(g, t))
    lam0, lam1 = perron(a0), perron(a1)
    points = []
    for n0 in range(int(math.floor(lam0 + 1e-9)) + 1):
        best = _reference_largest(
            lambda n1: joint_ae_exists(a0, a1, n0, n1, xi_cap=xi_cap),
            0, int(math.floor(lam1 + 1e-9)))
        if best is not None:
            points.append((n0, best[0], best[1].entries))
    best = _reference_largest(
        lambda n: joint_ae_exists(a0, a1, n, n, xi_cap=xi_cap),
        1, int(math.floor(min(lam0, lam1) + 1e-9)))
    return points, (best[0] if best else 0)


def _reference_min_infnorm(a0, a1, n0, n1, xi_cap):
    """Linear scan over the caps."""
    for cap in range(1, xi_cap + 1):
        got = joint_ae_exists(a0, a1, n0, n1, xi_cap=cap)
        if got is not None:
            return cap, got
    return None


@pytest.mark.parametrize("name,t_max", [
    ("twostate", 6), ("altsplit", 3), ("quad", 3), ("mixed", 3),
    ("overlap", 3), ("hexchain", 3), ("trisplit", 3), ("rll210", 3)])
def test_searches_match_float_bound_reference(name, t_max):
    g = (helpers.two_state_alt() if name == "altsplit"
         else helpers.load(name + ".cg"))
    for t in range(1, t_max + 1):
        a0, a1, _ = adjacency_pair(g if t == 1 else power(g, t))
        for cap in (1, 2, 64):
            want, n_max = _reference_tables(g, t, cap)
            got = rate_region(g, t, xi_cap=cap)
            assert [(p.n0, p.n1, p.witness) for p in got] == want
            assert coding_ratio(g, t, xi_cap=cap)[0] == n_max
            # every point would make the scan slow on mixed t=3
            for n0, n1, _ in want[::max(1, len(want) // 4)]:
                for m1 in (n1, n1 + 1):
                    ref = _reference_min_infnorm(a0, a1, n0, m1, cap)
                    if ref is None:
                        with pytest.raises(NotFoundWithin):
                            min_infnorm_ae(a0, a1, n0, m1, xi_cap=cap)
                    else:
                        assert min_infnorm_ae(a0, a1, n0, m1,
                                              xi_cap=cap) == ref


def test_searches_need_no_perron(monkeypatch):
    def boom(*args, **kw):
        raise AssertionError("perron called")

    monkeypatch.setattr("bimodal.spectra.perron", boom)
    pts = {p.n0: p.n1 for p in rate_region(helpers.mixed(), 2)}
    assert pts[20] == 26 and max(pts) == 39
    assert coding_ratio(helpers.two_state(), 5)[0] == 15


def test_min_infnorm_ae_bisects_caps(monkeypatch):
    real = spectra._exists
    calls = []

    def counted(*args):
        calls.append(args[-1])
        if len(calls) > 64:
            raise AssertionError("cap scan")
        return real(*args)

    monkeypatch.setattr("bimodal.spectra._exists", counted)
    a0, a1, _ = adjacency_pair(power(helpers.two_state(), 3))
    with pytest.raises(NotFoundWithin):
        min_infnorm_ae(a0, a1, 4, 4, xi_cap=10 ** 6)
    assert len(calls) <= 25
    calls.clear()
    assert min_infnorm_ae(a0, a1, 3, 3, xi_cap=10 ** 6)[0] == 2
    assert len(calls) <= 25


def test_searches_check_their_pair_once(monkeypatch):
    real = spectra._check_pair
    calls = []

    def counted(a0, a1):
        calls.append(1)
        return real(a0, a1)

    monkeypatch.setattr("bimodal.spectra._check_pair", counted)
    g = power(helpers.two_state(), 3)
    a0, a1, _ = adjacency_pair(g)
    for search in (lambda: rate_region(g, 1), lambda: coding_ratio(g, 1),
                   lambda: min_infnorm_ae(a0, a1, 3, 3)):
        calls.clear()
        search()
        assert len(calls) == 1


def _reference_region(g, t, xi_cap):
    """rate_region as one bisection per n0 from the cap, each n1 at most
    the last one found, with no warm start."""
    a0, a1, _ = adjacency_pair(power(g, t))
    hi = max(map(sum, a1.tolist()))
    points = []
    for n0 in range(max(map(sum, a0.tolist())) + 1):
        best = _reference_largest(
            lambda n1: joint_ae_exists(a0, a1, n0, n1, xi_cap=xi_cap),
            0, hi)
        if best is None:
            break
        hi = best[0]
        points.append((n0, hi, best[1].entries))
    return points


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=3), st.sampled_from([1, 2, 64]))
def test_rate_region_matches_cold_bisection(seed, strict, t, cap):
    g = helpers.random_graph(np.random.default_rng(seed), strict=strict)
    got = rate_region(g, t, xi_cap=cap)
    assert [(p.n0, p.n1, p.witness) for p in got] == _reference_region(
        g, t, cap)


def test_spectra_builds_no_word_graph(monkeypatch):
    def boom(*args, **kw):
        raise AssertionError("power called")

    monkeypatch.setattr("bimodal.graphs.power", boom)
    pts = {p.n0: p.n1 for p in rate_region(helpers.mixed(), 2)}
    assert pts[20] == 26 and max(pts) == 39
    assert coding_ratio(helpers.two_state(), 5)[0] == 15


def test_rate_region_sweep_count(monkeypatch):
    # the warm first probe at each n0; a cold bisection per n0 makes 1615
    real = spectra._sweep
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr("bimodal.spectra._sweep", counted)
    g = rll_graph(2, 10)
    pts = rate_region(g, 16)
    assert len(calls) <= 400
    assert [(p.n0, p.n1, p.witness) for p in pts] == _reference_region(
        g, 16, 64)


def test_rate_region_golden():
    pts = {p.n0: p for p in rate_region(helpers.mixed(), 2)}
    assert pts[20].n1 == 26
    assert pts[39].n1 == 13
    assert max(pts) == 39
    x = np.array(pts[20].witness)
    a0, a1, _ = adjacency_pair(power(helpers.mixed(), 2))
    assert (a0 @ x >= 20 * x).all() and (a1 @ x >= 26 * x).all()


@pytest.mark.parametrize("name, t", [("twostate.cg", 8), ("mixed.cg", 2),
                                     ("overlap.cg", 3), ("rll210.cg", 16)])
def test_rate_region_leaves_no_cycles(name, t):
    assert helpers.cyclic_garbage(rate_region, helpers.load(name), t)[1] == 0


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


def test_negative_or_fractional_inputs_refused(monkeypatch):
    # a negative cap once wrapped int64 entries into garbage witnesses
    a = [[1, 1], [1, 0]]
    g = rll_graph(1, 3)
    for call in (lambda: joint_ae_exists(a, a, 1, 1, xi_cap=-1),
                 lambda: min_infnorm_ae(a, a, 1, 1, xi_cap=-1),
                 lambda: anticipation_lower_bound(a, a, 1, 1, xi_cap=-1),
                 lambda: rate_region(g, 2, xi_cap=-2),
                 lambda: coding_ratio(g, 2, xi_cap=-2)):
        with pytest.raises(ValueError, match="cap must be a nonnegative"):
            call()
    with pytest.raises(ValueError, match="cap must be a nonnegative"):
        joint_ae_exists(a, a, 1, 1, xi_cap=2.5)
    for xi in ([-3, 2], [1.5, 2], np.ones(2)):
        with pytest.raises(ValueError, match="ceiling entries"):
            franaszek_joint(a, a, 1, 1, xi)
    # an integer divisor vector would truncate a fractional degree
    for n0, n1 in ((2.5, 1), (1, -1), (2.0, 2)):
        with pytest.raises(ValueError, match="degree targets"):
            franaszek_joint(a, a, n0, n1, [4, 4])
        with pytest.raises(ValueError, match="degree targets"):
            joint_ae_exists(a, a, n0, n1)
    # cap 0 admits only the zero vector
    assert joint_ae_exists(a, a, 1, 1, xi_cap=0) is None
    with pytest.raises(NotFoundWithin):
        min_infnorm_ae(a, a, 1, 1, xi_cap=0)
    assert rate_region(g, 2, xi_cap=0) == []
    assert coding_ratio(g, 2, xi_cap=0) == (0, float("-inf"))
    assert franaszek_joint(a, a, 1, 1, [0, 0]).tolist() == [0, 0]
    # even when the matrix is past int64, which cap 0 once overflowed
    big = [[2 ** 70, 1], [1, 1]]
    assert joint_ae_exists(big, big, 1, 1, xi_cap=0) is None
    # checked once per call, not once per sweep
    real = spectra._check_cap
    calls = []

    def counted(cap):
        calls.append(cap)
        return real(cap)

    monkeypatch.setattr("bimodal.spectra._check_cap", counted)
    for search in (lambda: rate_region(g, 4), lambda: coding_ratio(g, 4),
                   lambda: min_infnorm_ae(a, a, 1, 1)):
        calls.clear()
        search()
        assert calls == [64]


@st.composite
def _sweep_inputs(draw):
    k = draw(st.integers(min_value=0, max_value=4))
    entries = st.integers(min_value=0, max_value=4)
    a0, a1 = (draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                            min_size=k, max_size=k)) for _ in range(2))
    r = max((sum(row) for row in a0 + a1), default=0)
    n0, n1 = (draw(st.integers(min_value=0, max_value=r + 2))
              for _ in range(2))
    # uneven ceilings with zeros, as a warm start passes them
    xi = draw(st.lists(st.integers(min_value=0, max_value=9),
                       min_size=k, max_size=k))
    scale = draw(st.sampled_from([1, 10 ** 18]))
    return a0, a1, n0, n1, [v * scale for v in xi]


@settings(max_examples=200, deadline=None)
@given(_sweep_inputs(), st.sampled_from([None, -1, 0]))
def test_sweep_matches_reference(case, shift):
    # shift puts INT64_MAX just below or at the sweep's bound, so both
    # sides of the int64 switch are taken at every size
    a0, a1, n0, n1, xi = case
    a0 = np.array(a0, dtype=np.int64).reshape(len(xi), len(xi))
    a1 = np.array(a1, dtype=np.int64).reshape(len(xi), len(xi))
    with pytest.MonkeyPatch.context() as mp:
        if shift is not None:
            bound = max([sum(row) for row in a0.tolist() + a1.tolist()]
                        + [1]) * max(xi, default=0)
            mp.setattr(graphs, "INT64_MAX",
                       min(bound + shift, graphs.INT64_MAX))
        want = helpers.reference_sweep(a0, a1, n0, n1, xi)
        got = franaszek_joint(a0, a1, n0, n1, xi)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


class _CountingNumpy:
    """spectra's numpy with its minimum calls counted: one without out=
    opens each Franaszek round."""

    def __init__(self):
        self.rounds = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def minimum(self, *args, **kwargs):
        self.rounds += "out" not in kwargs
        return np.minimum(*args, **kwargs)


def _count_rounds(monkeypatch):
    counter = _CountingNumpy()
    monkeypatch.setattr(spectra, "np", counter)
    return counter


def _first_exit(iterates, xi):
    """(round, exit) of the first round whose iterate is <= xi // 2
    ("a") or falls in every entry ("b"), or None."""
    half = [v // 2 for v in xi]
    for i, (x, y) in enumerate(zip(iterates, iterates[1:]), 1):
        if all(map(operator.le, y, half)):
            return i, "a"
        if all(map(operator.lt, y, x)):
            return i, "b"
    return None


def test_sweep_exits_match_reference(monkeypatch):
    # the early exits give the no-exit reference's answer and dtype, and
    # stop at the round where the first of them holds
    rng = np.random.default_rng(23)
    counter = _count_rounds(monkeypatch)
    exits = collections.Counter()
    for _ in range(1500):
        k = int(rng.integers(0, 7))
        a0, a1 = (rng.integers(0, 5, (k, k)) * (rng.random((k, k)) < 0.5)
                  for _ in range(2))
        r0, r1 = (int(max(a.sum(axis=1), default=0)) for a in (a0, a1))
        n0, n1 = (int(rng.integers(0, r + 2)) for r in (r0, r1))
        if rng.random() < 0.25:
            n0, n1 = (0, n1) if rng.random() < 0.5 else (n0, 0)
        if rng.random() < 0.5:
            xi = [int(rng.integers(2, 65))] * k
        else:
            xi = (rng.integers(0, 65, k) * (rng.random(k) < 0.8)).tolist()
        if rng.random() < 0.25:
            xi = [v * 10 ** 18 for v in xi]
        counter.rounds = 0
        got = franaszek_joint(a0, a1, n0, n1, xi)
        want = helpers.reference_sweep(a0, a1, n0, n1, xi)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
        its = helpers.reference_iterates(a0, a1, n0, n1, xi)
        stop = _first_exit(its, xi)
        exits[stop and stop[1]] += 1
        if n0 > r0 or n1 > r1 or not (n0 or n1) or not any(xi):
            assert counter.rounds == 0
        else:
            assert counter.rounds == (stop[0] if stop else len(its))
    assert exits["a"] >= 200 and exits["b"] >= 200


@pytest.mark.parametrize("a0,rounds,exit,full", [
    # (64, 64) -> (64, 32) -> (48, 16): both entries fall in round 2,
    # where the sweep with no exit runs 11 rounds down to (0, 0)
    ([[1, 1], [0, 1]], 2, "b", 11),
    # (64, 64) -> (0, 64) -> (0, 32) <= half the ceiling; the zero entry
    # never falls, so (b) cannot end it
    ([[0, 0], [1, 1]], 2, "a", 9),
])
def test_sweep_exit_rounds(monkeypatch, a0, rounds, exit, full):
    # one class, n0 = 2, cap 64; the greatest solution is (0, 0)
    a1 = np.zeros_like(a0)
    counter = _count_rounds(monkeypatch)
    assert franaszek_joint(a0, a1, 2, 0, [64, 64]).tolist() == [0, 0]
    assert counter.rounds == rounds
    its = helpers.reference_iterates(a0, a1, 2, 0, [64, 64])
    assert _first_exit(its, [64, 64]) == (rounds, exit)
    assert len(its) == full


@pytest.mark.parametrize("graph,t,most", [
    (helpers.two_state, 8, 220), (lambda: rll_graph(2, 10), 16, 500),
    (lambda: helpers.load("mixed.cg"), 2, 200),
    (lambda: helpers.load("mixed.cg"), 3, 4200)])
def test_table_rounds(monkeypatch, graph, t, most):
    # Franaszek rounds of a rate table and its coding ratio; sweeps run
    # to their fixpoint made 428, 845, 1396 and 11549
    g = graph()
    counter = _count_rounds(monkeypatch)
    rate_region(g, t)
    coding_ratio(g, t)
    assert counter.rounds <= most


@pytest.mark.parametrize("name,t", [
    ("twostate", 8), ("mixed", 2), ("mixed", 3), ("altsplit", 7),
    ("overlap", 5), ("rll210", 16)])
def test_explore_tables_match_reference_sweep(name, t):
    # the explore benchmark's fixture tables, searched with no _sweep
    g = (helpers.two_state_alt() if name == "altsplit"
         else helpers.load(name + ".cg"))
    points, n_max = helpers.reference_tables(g, t)
    assert [(p.n0, p.n1, p.witness) for p in rate_region(g, t)] == points
    assert coding_ratio(g, t) == (
        (n_max, math.log2(2 * n_max) / t) if n_max
        else (0, float("-inf")))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.booleans(),
       st.integers(min_value=1, max_value=3), st.sampled_from([1, 2, 64]),
       st.integers(min_value=0, max_value=9),
       st.integers(min_value=0, max_value=9))
def test_searches_match_reference_on_random_graphs(seed, strict, t, cap,
                                                    n0, n1):
    # coding_ratio against a plain bisection with float Perron bounds,
    # min_infnorm_ae against a linear scan of the caps
    g = helpers.random_graph(np.random.default_rng(seed), strict=strict)
    _, n_max = _reference_tables(g, t, cap)
    assert coding_ratio(g, t, xi_cap=cap)[0] == n_max
    a0, a1, _ = adjacency_pair(power(g, t))
    ref = _reference_min_infnorm(a0, a1, n0, n1, cap)
    if ref is None:
        with pytest.raises(NotFoundWithin) as exc:
            min_infnorm_ae(a0, a1, n0, n1, xi_cap=cap)
        assert exc.value.cap == cap
    else:
        assert min_infnorm_ae(a0, a1, n0, n1, xi_cap=cap) == ref


def _count_calls(monkeypatch, name):
    real = getattr(spectra, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(spectra, name, counted)
    return calls


@pytest.mark.parametrize("graph,t,most", [
    (helpers.two_state, 8, 12), (lambda: rll_graph(2, 10), 16, 25)])
def test_rate_region_witness_answers_for_its_rows(monkeypatch, graph, t,
                                                  most):
    # one witness emits every row its class-0 reach covers, and the
    # table's end costs one failed probe; a search per row made 143
    # (twostate t=8) and 225 (RLL(2,10) t=16) sweeps
    g = graph()
    calls = _count_calls(monkeypatch, "_sweep")
    rate_region(g, t)
    assert len(calls) <= most


def test_min_infnorm_ae_refuses_after_one_probe(monkeypatch):
    # no solution under the cap itself means none under any smaller cap
    calls = _count_calls(monkeypatch, "_exists")
    a0, a1, _ = adjacency_pair(power(helpers.two_state(), 3))
    with pytest.raises(NotFoundWithin):
        min_infnorm_ae(a0, a1, 4, 4, xi_cap=10 ** 6)
    assert [c[-1] for c in calls] == [10 ** 6]
