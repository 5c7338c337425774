"""Tests for selective-risk e-values: kernel, oracles, conservative variant."""

import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from score_kit import (ebh, sdr_evalues, sdr_evalues_at, sdr_evalues_conservative,
                       sdr_evalues_oracle, validate_batch, weighted_sdr_evalues,
                       weighted_sdr_evalues_oracle)
from score_kit import sdr as sdr_module
from score_kit.sdr import _sdr_kernel, _sdr_kernel_grid
from helpers import (attained_breakpoint_sdr_kernel, dense_sdr_evalues_conservative,
                     exchangeable_pairs, mc_bound_ok, random_sdr_instance, risk_evalue_products)

FIX_CALIB = [(0.1, 0.0), (0.3, 0.0), (0.9, 0.5)]
FIX_TESTS = [0.2, 0.4, 0.8]


def _agree(a, b, tol=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_inf = np.isinf(a) & np.isinf(b)
    close = np.isclose(a, b, rtol=tol, atol=tol)
    return bool(np.all(both_inf | close))


def test_worked_fixture_fast_path():
    res = sdr_evalues(FIX_CALIB, FIX_TESTS, gamma=0.5)
    assert np.allclose(res.evalues, 8.0 / 3.0)
    assert np.allclose(res.thresholds_at_0, 0.9)
    assert np.allclose(res.thresholds_at_1, 0.9)


def test_worked_fixture_oracle_agrees():
    res = sdr_evalues_oracle(FIX_CALIB, FIX_TESTS, gamma=0.5)
    assert np.allclose(res.evalues, 8.0 / 3.0)


def test_worked_fixture_selection():
    res = sdr_evalues(FIX_CALIB, FIX_TESTS, gamma=0.5)
    assert ebh(res.evalues, alpha=0.5).selected == {0, 1, 2}


def test_infeasible_threshold_gives_zero():
    res = sdr_evalues([(0.1, 1.0)], [0.9], gamma=0.1)
    assert res.evalues[0] == 0.0


def test_validation_errors_propagate():
    from score_kit import NonPositiveWeight, RiskOutOfRange

    with pytest.raises(RiskOutOfRange):
        sdr_evalues([(0.1, 1.7)], [0.9], gamma=0.3)
    with pytest.raises(NonPositiveWeight):
        weighted_sdr_evalues([(0.1, 0.5, -2.0)], [0.9], gamma=0.3)


def test_all_risk_one_impossible_budget():
    res = sdr_evalues_oracle([(0.3, 1.0), (0.6, 1.0)], [0.1, 0.9], gamma=0.05)
    assert np.all(res.evalues == 0.0)


def test_kernel_matches_oracle_random():
    rng = np.random.default_rng(21)
    for trial in range(250):
        calib, tests = random_sdr_instance(rng, tied=trial % 2 == 0)
        gamma = float(rng.uniform(0.05, 0.95))
        fast = sdr_evalues(calib, tests, gamma).evalues
        slow = sdr_evalues_oracle(calib, tests, gamma, ell_grid_size=101).evalues
        assert _agree(fast, slow), (calib, tests, gamma, fast, slow)


def test_weighted_kernel_matches_weighted_oracle_random():
    rng = np.random.default_rng(22)
    for trial in range(200):
        calib, tests = random_sdr_instance(rng, max_n=10, max_m=10,
                                           tied=trial % 2 == 0, weighted=True)
        gamma = float(rng.uniform(0.05, 0.95))
        fast = weighted_sdr_evalues(calib, tests, gamma).evalues
        slow = weighted_sdr_evalues_oracle(calib, tests, gamma, ell_grid_size=101).evalues
        assert _agree(fast, slow), (calib, tests, gamma, fast, slow)


KERNEL_GAMMAS = (0.1, 0.2, 0.25, 0.3, 1 / 3, 0.4, 0.5, 0.6, 0.7, 0.75, 1.0, 2.0)


def _kernel_instance(rng, k):
    """Even ``k``: tied integer or 0.1-grid scores, risks in halves, quarters
    or tenths, unit or quarter-dyadic weights.  Odd ``k``: continuous scores
    and risks, with weights uniform on [0.2, 5] or ``exp(0.5 * N(0, 1))`` (the
    benchmark's weights)."""
    n, m = int(rng.integers(1, 31)), int(rng.integers(1, 13))
    if k % 2:
        cs, ts, risks = rng.normal(size=n), rng.normal(size=m), rng.uniform(size=n)
        if k % 4 == 1:
            wc, wt = rng.uniform(0.2, 5.0, size=n), rng.uniform(0.2, 5.0, size=m)
        else:
            wc, wt = np.exp(0.5 * rng.standard_normal(n)), np.exp(0.5 * rng.standard_normal(m))
    else:
        scale = (1, 10)[k % 4 // 2]
        cs, ts = rng.integers(0, 6 * scale, size=n) / scale, rng.integers(0, 6 * scale, size=m) / scale
        d = (2, 4, 10)[k % 3]
        risks = rng.integers(0, d + 1, size=n) / d
        unit = k % 8 < 4
        wc = np.ones(n) if unit else rng.integers(1, 9, size=n) / 4
        wt = np.ones(m) if unit else rng.integers(1, 9, size=m) / 4
    return list(zip(cs, risks, wc)), list(zip(ts, wt))


def test_kernel_equals_attained_breakpoint_reference():
    # The kernel minimizes over every ell=0-feasible threshold in the
    # t(1)..t(0) window; the reference keeps only the thresholds some ell
    # attains.  Monotone rounding makes the two agree bit for bit.
    rng = np.random.default_rng(41)
    windowed = 0
    for k in range(4000):
        calib, tests = _kernel_instance(rng, k)
        gamma = KERNEL_GAMMAS[k % 12] if k % 5 else float(rng.uniform(0.05, 1.5))
        res = weighted_sdr_evalues(calib, tests, gamma)
        ev, t0, t1 = attained_breakpoint_sdr_kernel(calib, tests, gamma)
        assert np.array_equal(res.evalues, ev, equal_nan=True), (calib, tests, gamma)
        assert np.array_equal(res.thresholds_at_0, t0, equal_nan=True), (calib, tests, gamma)
        assert np.array_equal(res.thresholds_at_1, t1, equal_nan=True), (calib, tests, gamma)
        windowed += bool(np.any((ev > 0.0) & (t0 != t1)))
    assert windowed >= 400


def test_kernel_keeps_ell_one_when_thresholds_coincide():
    # t(0) == t(1): the e-value takes ell = 1 exactly; the window rule would
    # take the rounded ell_bar and give 1.4285714285714288
    res = sdr_evalues([(1.0, 0.9), (0.0, 0.1), (1.0, 0.8)], [2.0, 2.0, 1.0], gamma=0.7)
    assert res.evalues.tolist() == [1.4285714285714286] * 3


# Found by search: one ulp decides the e-value.  In the first four the window
# maximum sits in t(1)'s own tie group; in the last a threshold below t(1),
# 1e-16 of risk away, would set it if the window started at index 0.
ONE_ULP_CASES = [
    (1 / 3, [(2.0, 0.1, 2.6), (2.0, 0.5, 0.2)], [(0.0, 1.4), (0.0, 1.9), (0.0, 2.2)]),
    (0.4, [(2.0, 0.2, 2.4), (2.0, 0.2, 1.5)], [(1.0, 2.6), (1.0, 0.9)]),
    (0.5, [(0.0, 0.0, 2.4), (1.0, 0.5, 1.3), (3.0, 0.5, 0.3)], [(0.0, 2.7)]),
    (0.5, [(3.0, 0.4, 0.8), (3.0, 0.2, 0.5)], [(1.0, 1.3), (2.0, 1.1), (2.0, 2.4), (2.0, 0.1)]),
    (0.27115384615384613, [(3.0, 0.2, 0.3), (3.0, 0.5, 2.0), (0.0, 0.4, 0.8), (2.0, 1e-16, 2.9),
                           (1.0, 0.0, 1.9)], [(1.0, 2.5)]),
]


@pytest.mark.parametrize("gamma, calib, tests", ONE_ULP_CASES)
def test_kernel_one_ulp_cases_match_reference(gamma, calib, tests):
    res = weighted_sdr_evalues(calib, tests, gamma)
    for got, want in zip((res.evalues, res.thresholds_at_0, res.thresholds_at_1),
                         attained_breakpoint_sdr_kernel(calib, tests, gamma)):
        assert np.array_equal(got, want, equal_nan=True)


def _assert_grid_equals_per_level(batch, gammas):
    """The grid kernel's rows against one ``_sdr_kernel`` call per level;
    returns the number of levels at which some point took the window path."""
    windowed = 0
    grid = _sdr_kernel_grid(batch, gammas)
    for g, gamma in enumerate(gammas):
        ev, t0, t1 = _sdr_kernel(batch, gamma)
        for got, want in zip((a[g] for a in grid), (ev, t0, t1)):
            assert got.shape == want.shape == (batch.m,)
            assert np.array_equal(got, want, equal_nan=True), (batch, gammas, gamma)
        windowed += bool(np.any((ev > 0.0) & (t0 != t1)))
    return windowed


def test_kernel_grid_equals_per_level_calls():
    # shuffled grids with repeated levels: each row holds the bits of its own
    # single-level call, whatever the order of the levels around it
    rng = np.random.default_rng(42)
    windowed = 0
    for k in range(1000):
        batch = validate_batch(*_kernel_instance(rng, k))
        gammas = [*rng.choice(KERNEL_GAMMAS, size=4), *rng.uniform(0.05, 1.5, size=2)]
        rng.shuffle(gammas)
        windowed += _assert_grid_equals_per_level(batch, gammas)
    assert windowed >= 400


@pytest.mark.parametrize("case", range(len(ONE_ULP_CASES)))
def test_kernel_grid_one_ulp_cases(case):
    # each pinned instance at every pinned level in one grid, its own level
    # also against the reference
    gamma, calib, tests = ONE_ULP_CASES[case]
    gammas = [c[0] for c in ONE_ULP_CASES]
    batch = validate_batch(calib, tests)
    assert _assert_grid_equals_per_level(batch, gammas) >= 1
    grid = _sdr_kernel_grid(batch, gammas)
    for got, want in zip((a[case] for a in grid), attained_breakpoint_sdr_kernel(calib, tests, gamma)):
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("weights", ["unit", "non-unit"])
def test_keyed_kernel_equals_the_pointwise_loop(weights):
    # Non-unit weights take the keyed path and unit weights the loop; on
    # either kind of instance the two give the same bits, so the loop can
    # retire once the unit-weight kernel is loop-free.
    rng = np.random.default_rng(44)
    checked = windowed = 0
    for k in range(1600):
        calib, tests = _kernel_instance(rng, k)
        if weights == "unit":
            calib, tests = [c[:2] for c in calib], [t[0] for t in tests]
        batch = validate_batch(calib, tests)
        if batch.has_unit_weights != (weights == "unit"):
            continue
        gammas = (*rng.choice(KERNEL_GAMMAS, size=3), *rng.uniform(0.05, 1.5, size=2))
        want = sdr_module._pointwise_grid(batch, gammas)
        for got, ref in zip(sdr_module._keyed_grid(batch, gammas), want):
            assert np.array_equal(got, ref, equal_nan=True), (calib, tests, gammas)
        checked += 1
        windowed += bool(np.any((want[0] > 0.0) & (want[1] != want[2])))
    assert checked >= 1000 and windowed >= 300, (checked, windowed)


def test_kernel_takes_the_keyed_path_for_non_unit_weights_only(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(sdr_module, name)

        def path(batch, gammas):
            calls.append(name)
            return real(batch, gammas)
        return path

    for name in ("_pointwise_grid", "_keyed_grid"):
        monkeypatch.setattr(sdr_module, name, spy(name))
    weighted_sdr_evalues([(0.1, 0.0), (0.2, 0.5)], [0.05, 0.3], 0.3)
    weighted_sdr_evalues([(0.1, 0.0, 2.0), (0.2, 0.5, 1.0)], [(0.05, 1.0), (0.3, 1.0)], 0.3)
    weighted_sdr_evalues([(0.1, 0.0), (0.2, 0.5)], [(0.05, 1.0), (0.3, 0.5)], 0.3)
    # a subnormal level anywhere in the grid sends it through the loop
    _sdr_kernel_grid(validate_batch([(0.1, 0.0, 2.0), (0.2, 0.5, 1.0)], [(0.05, 1.0)]), (0.3, 5e-324))
    assert calls == ["_pointwise_grid", "_keyed_grid", "_keyed_grid", "_pointwise_grid"]


def test_ratio_bounds_are_the_largest_fitting_doubles():
    # fl(x * f) <= gamma exactly for x up to the bound: the bound fits and the
    # next double does not, at ordinary and extreme normal levels
    rng = np.random.default_rng(45)
    factor = np.concatenate([rng.uniform(1e-3, 3.0, size=2000), 10.0 ** rng.uniform(-300, 300, size=500),
                             [0.1, 0.2, 0.5, 1.0, 3.0]])
    for gamma in (0.1, 0.2, 1 / 3, 0.3, 1.0, 2.0, 1e-300, 2.5e-308, 1e5):
        bound = sdr_module._ratio_bounds(gamma, factor)
        assert np.all(bound * factor <= gamma), gamma
        assert not np.any(np.nextafter(bound, np.inf) * factor <= gamma), gamma


@pytest.mark.parametrize("calib", [[(0.1, 0.2), (0.5, 0.5)], [(0.1, 0.2, 2.0), (0.5, 0.5, 1.0)]],
                         ids=["unit", "non-unit"])
def test_kernel_with_no_test_points_returns_empty_arrays(calib):
    batch = validate_batch(calib, [])
    res = weighted_sdr_evalues(batch, None, 0.2)
    for a in (res.evalues, res.thresholds_at_0, res.thresholds_at_1):
        assert a.shape == (0,)
    for a in _sdr_kernel_grid(batch, (0.1, 0.2, 0.3)):
        assert a.shape == (3, 0)


def test_conservative_with_no_test_points_is_empty_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sdr_evalues_conservative([(0.1, 0.2), (0.5, 0.5)], [], alpha=0.2)
    assert res.evalues.shape == res.thresholds_at_1.shape == (0,)


@pytest.mark.parametrize("bad", [0.0, -0.5, float("nan")])
def test_kernel_grid_rejects_a_bad_level_before_any_work(monkeypatch, bad):
    def no_work(batch):
        raise AssertionError("the pooled prefix was built before the levels were checked")

    monkeypatch.setattr(sdr_module, "_pooled_prefix", no_work)
    batch = validate_batch([(0.1, 0.0), (0.2, 0.5)], [0.05, 0.3])
    for gammas in ((bad,), (0.1, 0.3, bad), (bad, 0.2)):
        with pytest.raises(ValueError, match=f"gamma must be positive, got {bad!r}"):
            _sdr_kernel_grid(batch, gammas)


@pytest.mark.parametrize("call, message", [
    (lambda c, t: sdr_evalues(c, t, gamma=0.3),
     "sdr_evalues is the unweighted path; use weighted_sdr_evalues for non-unit weights"),
    (lambda c, t: sdr_evalues_oracle(c, t, gamma=0.3),
     "sdr_evalues_oracle is the unweighted path; use weighted_sdr_evalues_oracle for non-unit weights"),
    (lambda c, t: sdr_evalues_at(c, t, gamma=0.3, ell=1.0),
     "sdr_evalues_at takes unit weights only; its construction has no weighted variant"),
    (lambda c, t: sdr_evalues_conservative(c, t, alpha=0.3),
     "sdr_evalues_conservative takes unit weights only; its construction has no weighted variant"),
], ids=["sdr_evalues", "sdr_evalues_oracle", "sdr_evalues_at", "sdr_evalues_conservative"])
def test_unit_weight_paths_name_the_weighted_variant_only_where_it_exists(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call([(0.1, 0.0, 2.0), (0.2, 0.0, 1.0)], [(0.05, 1.0)])


def test_unit_weights_reduce_exactly():
    rng = np.random.default_rng(23)
    for _ in range(200):
        calib, tests = random_sdr_instance(rng, max_n=20, max_m=8)
        gamma = float(rng.uniform(0.05, 0.95))
        plain = sdr_evalues(calib, tests, gamma).evalues
        wtd = weighted_sdr_evalues([(s, r, 1.0) for s, r in calib],
                                   [(t, 1.0) for t in tests], gamma).evalues
        assert _agree(plain, wtd, tol=1e-12)


def test_weight_scale_invariance():
    rng = np.random.default_rng(24)
    for c in (0.1, 7.0, 100.0):
        for _ in range(50):
            calib, tests = random_sdr_instance(rng, weighted=True)
            gamma = float(rng.uniform(0.05, 0.95))
            base = weighted_sdr_evalues(calib, tests, gamma).evalues
            scaled = weighted_sdr_evalues([(s, r, w * c) for s, r, w in calib],
                                          [(t, w * c) for t, w in tests], gamma).evalues
            assert _agree(base, scaled, tol=1e-12)


def test_zero_propagation_from_diagnostics():
    rng = np.random.default_rng(25)
    for _ in range(150):
        calib, tests = random_sdr_instance(rng, max_n=20, max_m=8)
        gamma = float(rng.uniform(0.05, 0.6))
        res = sdr_evalues(calib, tests, gamma)
        for j, t in enumerate(tests):
            if np.isnan(res.thresholds_at_1[j]) or t > res.thresholds_at_1[j]:
                assert res.evalues[j] == 0.0


def test_conservative_fixture():
    res = sdr_evalues_conservative(FIX_CALIB, FIX_TESTS, alpha=0.5)
    assert np.allclose(res.evalues, 2.0)


def test_conservative_below_exact_on_fixture():
    # single-instance regression; the ordering is not a general fact
    cons = sdr_evalues_conservative(FIX_CALIB, FIX_TESTS, alpha=0.5).evalues
    exact = sdr_evalues(FIX_CALIB, FIX_TESTS, gamma=0.5).evalues
    assert np.all(cons <= exact + 1e-12)


def test_conservative_zero_when_score_above_threshold():
    res = sdr_evalues_conservative([(0.1, 1.0)], [0.9], alpha=0.1)
    assert res.evalues[0] == 0.0


def test_conservative_equals_dense_reference():
    # 0.1-grid tied scores and quarter risks keep every sum exact, so the
    # sorted-prefix path must reproduce the dense per-point scan bit for bit
    rng = np.random.default_rng(31)
    nonzero = 0
    for alpha in (0.1, 0.2, 0.25, 0.3, 0.5):
        for _ in range(420):
            n, m = int(rng.integers(1, 41)), int(rng.integers(1, 16))
            calib = list(zip(rng.integers(0, 11, size=n) / 10, rng.integers(0, 5, size=n) / 4))
            tests = list(rng.integers(0, 11, size=m) / 10)
            res = sdr_evalues_conservative(calib, tests, alpha=alpha)
            ev, t_tilde, t_hat = dense_sdr_evalues_conservative(calib, tests, alpha)
            assert np.array_equal(res.evalues, ev)
            assert np.array_equal(res.thresholds_at_0, t_tilde, equal_nan=True)
            assert np.array_equal(res.thresholds_at_1, t_hat, equal_nan=True)
            nonzero += bool(np.any(ev > 0.0))
    assert nonzero >= 500


def test_conservative_memory_is_linear():
    rng = np.random.default_rng(32)
    n, m = 4000, 1000
    batch = validate_batch(list(zip(rng.normal(size=n), rng.uniform(size=n))),
                           list(rng.normal(size=m)))
    tracemalloc.start()
    try:
        sdr_evalues_conservative(batch, None, alpha=0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_binary_attainable_set_matches_fixed_ell():
    # with risks in {0, 1} the infimum over {0, 1} is the min of the two
    # fixed-ell evaluations
    rng = np.random.default_rng(26)
    for _ in range(100):
        calib, tests = random_sdr_instance(rng, binary_risks=True)
        gamma = float(rng.uniform(0.1, 0.9))
        restricted = sdr_evalues_oracle(calib, tests, gamma, ell_set=(0.0, 1.0)).evalues
        e0 = sdr_evalues_at(calib, tests, gamma, ell=0.0)
        e1 = sdr_evalues_at(calib, tests, gamma, ell=1.0)
        assert _agree(restricted, np.minimum(e0, e1))


@pytest.mark.parametrize("ell", [0.0, 0.25, 0.5, 1.0])
def test_fixed_ell_equals_oracle_restricted_to_that_ell(ell):
    # 0.1-grid tied scores and quarter risks keep every sum exact, so the
    # prefix path must give the oracle's bits; on continuous data the two may
    # differ only in summation order
    rng = np.random.default_rng(34)
    nonzero = 0
    for k in range(600):
        n, m = int(rng.integers(1, 31)), int(rng.integers(1, 13))
        if k % 2:
            calib = list(zip(rng.normal(size=n), rng.uniform(size=n)))
            tests = list(rng.normal(size=m))
        else:
            calib = list(zip(rng.integers(0, 11, size=n) / 10, rng.integers(0, 5, size=n) / 4))
            tests = list(rng.integers(0, 11, size=m) / 10)
        gamma = KERNEL_GAMMAS[k % 12] if k % 5 else float(rng.uniform(0.05, 1.5))
        got = sdr_evalues_at(calib, tests, gamma, ell=ell)
        want = sdr_evalues_oracle(calib, tests, gamma, ell_set=(ell,)).evalues
        if k % 2:
            assert np.array_equal(got == 0.0, want == 0.0) and _agree(got, want), (calib, tests, gamma)
        else:
            assert np.array_equal(got, want), (calib, tests, gamma)
        nonzero += bool(np.any(got > 0.0))
    assert nonzero >= 200


def test_fixed_ell_rejects_weights():
    with pytest.raises(ValueError, match="sdr_evalues_at"):
        sdr_evalues_at([(0.1, 0.0, 2.0), (0.2, 0.0, 1.0)], [(0.05, 1.0)], gamma=0.3, ell=1.0)


@pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan")])
def test_fixed_ell_rejects_non_positive_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be positive"):
        sdr_evalues_at([(0.1, 0.0), (0.2, 0.0)], [0.05], gamma=gamma, ell=0.0)


@pytest.mark.parametrize("ell", [0.0, 1.0])
def test_fixed_ell_memory_is_linear(ell):
    rng = np.random.default_rng(32)
    n, m = 4000, 1000
    batch = validate_batch(list(zip(rng.normal(size=n), rng.uniform(size=n))),
                           list(rng.normal(size=m)))
    tracemalloc.start()
    try:
        sdr_evalues_at(batch, None, gamma=0.2, ell=ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


@pytest.mark.parametrize("kind", ["smooth", "excess", "binary"])
def test_evalue_validity_monte_carlo(kind):
    rng = np.random.default_rng(27)
    per_rep = []
    for _ in range(2000):
        cs, cl, ts, tl = exchangeable_pairs(rng, 100, 10, kind=kind)
        ev = sdr_evalues(list(zip(cs, cl)), list(ts), gamma=0.3).evalues
        assert np.all(ev >= 0.0)
        per_rep.append(risk_evalue_products(tl, ev).mean())
    ok, mean, se = mc_bound_ok(per_rep)
    assert ok, f"{kind}: mean(L*E) = {mean:.4f} > 1 + 3*{se:.4f}"


def test_conservative_validity_monte_carlo():
    rng = np.random.default_rng(28)
    per_rep = []
    for _ in range(600):
        cs, cl, ts, tl = exchangeable_pairs(rng, 100, 10)
        ev = sdr_evalues_conservative(list(zip(cs, cl)), list(ts), alpha=0.3).evalues
        per_rep.append(risk_evalue_products(tl, ev).mean())
    ok, mean, se = mc_bound_ok(per_rep)
    assert ok, f"mean(L*e) = {mean:.4f} > 1 + 3*{se:.4f}"


def test_kernel_runtime_scaling():
    # doubling the pooled size at fixed m should not much more than double
    # the kernel runtime (coarse smoke test of the near-linear per-point cost)
    rng = np.random.default_rng(29)
    m = 40

    def timed(n):
        calib = list(zip(rng.normal(size=n), rng.uniform(size=n)))
        tests = list(rng.normal(size=m))
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            sdr_evalues(calib, tests, gamma=0.3)
            best = min(best, time.perf_counter() - t0)
        return best

    timed(4000)  # warm up
    t_small = timed(20_000)
    t_big = timed(40_000)
    assert t_big <= 2.5 * t_small, (t_small, t_big)
