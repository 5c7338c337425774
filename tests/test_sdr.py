"""Tests for selective-risk e-values: kernel, oracles, conservative variant."""

import re
import time
from fractions import Fraction
import tracemalloc
import warnings

import numpy as np
import pytest

from score_kit import (SdrEvalueSet, ValidatedBatch, ebh, sdr_evalues, sdr_evalues_at,
                       sdr_evalues_conservative, sdr_evalues_oracle, validate_batch,
                       weighted_mdr_evalue, weighted_mdr_evalue_oracle, weighted_sdr_evalues,
                       weighted_sdr_evalues_oracle)
from score_kit import sdr as sdr_module
from score_kit.sdr import _sdr_kernel, _sdr_kernel_grid
from helpers import (attained_breakpoint_sdr_kernel, boundary_instance, dense_sdr_evalues_conservative,
                     exact_ebh, exact_sdr_evalues, exchangeable_pairs, mc_bound_ok, random_sdr_instance,
                     risk_evalue_products)

FIX_CALIB = [(0.1, 0.0), (0.3, 0.0), (0.9, 0.5)]
FIX_TESTS = [0.2, 0.4, 0.8]


def _agree(a, b, tol=1e-9):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_inf = np.isinf(a) & np.isinf(b)
    close = np.isclose(a, b, rtol=tol, atol=tol)
    return bool(np.all(both_inf | close))


def test_evalue_set_leaves_caller_arrays_writeable():
    arrays = [np.array([1.0, 0.0]), np.array([0.4, np.nan]), np.array([0.3, np.nan])]
    res = SdrEvalueSet(*arrays)
    assert all(a.flags.writeable for a in arrays)
    for a in (res.evalues, res.thresholds_at_0, res.thresholds_at_1):
        with pytest.raises(ValueError):
            a[0] = 2.0


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


def test_kernel_agrees_with_the_oracle_at_rounding_boundaries():
    # Tied, dyadic instances whose risk estimates land on a level up to
    # rounding.  The kernel's e-values are compared as they come, with no
    # nudge of the level: both sides apply the one feasibility rule.  The
    # oracle's grid of 2 adds only the endpoints to its exact breakpoints.
    rng = np.random.default_rng(47)
    points = nonzero = 0
    for k in range(1500):
        calib, tests, gamma = boundary_instance(rng, weighted=k % 2 == 1)
        if k % 2:
            got = weighted_sdr_evalues(calib, tests, gamma).evalues
            want = weighted_sdr_evalues_oracle(calib, tests, gamma, ell_grid_size=2).evalues
        else:
            got = sdr_evalues(calib, tests, gamma).evalues
            want = sdr_evalues_oracle(calib, tests, gamma, ell_grid_size=2).evalues
        assert _agree(got, want), (calib, tests, gamma, got, want)
        points += len(tests)
        nonzero += int(np.count_nonzero(got))
    assert points >= 5000 and nonzero >= 1000, (points, nonzero)


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
    # The kernel reads the closed form at t(0) alone; the reference takes its
    # minimum over the thresholds some ell attains in the t(1)..t(0) window.
    # Monotone rounding makes the two agree bit for bit.
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


def test_ebh_selection_equals_exact_arithmetic_at_gamma_alpha():
    # At gamma = alpha an e-value often equals eBH's cutoff m / (alpha * tau)
    # in real arithmetic.  The kernel writes that term in the cutoff's own
    # expression, so the float selection is the exact one; small instances,
    # half tied, with dyadic risks.
    rng = np.random.default_rng(1)
    at_cutoff = 0
    for k in range(600):
        n, m = int(rng.integers(5, 31)), int(rng.integers(1, 9))
        if k % 2:
            cs, ts = rng.integers(0, 6, size=n).astype(float), rng.integers(0, 6, size=m).astype(float)
            risks = rng.integers(0, 5, size=n) / 4
        else:
            cs, ts = rng.normal(size=n), rng.normal(size=m)
            risks = rng.integers(0, 17, size=n) / 16
        alpha = float(rng.choice([0.1, 0.2, 0.25, 0.3, 0.5]))
        calib, tests = list(zip(cs, risks)), list(ts)
        exact = exact_sdr_evalues(calib, tests, alpha)
        got = sdr_evalues(calib, tests, alpha).evalues
        assert _agree(got, [float(e) for e in exact]), (calib, tests, alpha)
        assert ebh(got, alpha).selected == exact_ebh(exact, alpha), (calib, tests, alpha)
        cutoffs = {m / (Fraction(repr(alpha)) * tau) for tau in range(1, m + 1)}
        at_cutoff += any(e in cutoffs for e in exact)
    assert at_cutoff >= 100, at_cutoff


def test_kernel_keeps_ell_one_when_thresholds_coincide():
    # t(0) == t(1): the e-value takes ell = 1 exactly; the three-term closed
    # form would give 1.4285714285714288
    res = sdr_evalues([(1.0, 0.9), (0.0, 0.1), (1.0, 0.8)], [2.0, 2.0, 1.0], gamma=0.7)
    assert res.evalues.tolist() == [1.4285714285714286] * 3


# Found by search: one ulp decides the e-value.  In the first four the
# thresholds in t(1)'s own tie group are in play; in the last a threshold
# below t(1), 1e-16 of risk away, would lower it if it counted.
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
def test_keyed_kernel_equals_the_pointwise_loop(weights, monkeypatch):
    # Non-unit weights take the keyed locator and unit weights the loop; on
    # either kind of instance both give the same positions of t(0) and t(1)
    # from the same inputs, so the loop can retire once the unit-weight
    # locator is loop-free.  Every grid also holds the subnormal level
    # 5e-324, whose bound is 1e-12.  Weighted runs add lone test points
    # beside a few hundred calibration points; a heavy one puts t(1) beyond
    # the first 64 positions below t(0), past the ell = 1 search's block.
    keyed, loop = sdr_module._keyed_positions, sdr_module._pointwise_positions
    compared = []

    def both(*args):
        got, want = keyed(*args), loop(*args)
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b), args
        compared.append(args)
        return want

    monkeypatch.setattr(sdr_module, "_keyed_positions", both)
    monkeypatch.setattr(sdr_module, "_pointwise_positions", both)
    rng = np.random.default_rng(44)
    checked = windowed = 0
    lone = [0, 0]                                # windowed lone points: t(1) inside, beyond the block
    for k in range(1600):
        if weights == "non-unit" and k % 8 == 7:
            b = _informative_batch(rng, int(rng.integers(100, 400)), 1, tied=k % 16 == 7, weighted=True)
            batch = ValidatedBatch(b.calib_scores, b.calib_risks, b.calib_weights, b.test_scores,
                                   b.test_weights * (1.0, 100.0)[k // 8 % 2])
        else:
            calib, tests = _kernel_instance(rng, k)
            if weights == "unit":
                calib, tests = [c[:2] for c in calib], [t[0] for t in tests]
            batch = validate_batch(calib, tests)
        if batch.has_unit_weights != (weights == "unit"):
            continue
        gammas = (*rng.choice(KERNEL_GAMMAS, size=3), *rng.uniform(0.05, 1.5, size=2), 5e-324)
        ev, t0, t1 = _sdr_kernel_grid(batch, gammas)
        checked += 1
        windowed += bool(np.any((ev > 0.0) & (t0 != t1)))
        if batch.m == 1 and batch.n >= 100:
            vals = np.sort(np.concatenate((batch.calib_scores, batch.test_scores)))
            gap = vals.searchsorted(t0, side="right") - vals.searchsorted(t1, side="right")
            for far in (False, True):
                lone[far] += int(np.count_nonzero((ev > 0.0) & (gap > 0) & ((gap >= 64) == far)))
    assert len(compared) == checked >= 1000 and windowed >= 300, (checked, windowed)
    assert weights == "unit" or min(lone) >= 20, lone


def _window_length(batch, evalues, t0, t1):
    """The total length of a kernel call's windows, from its returned
    thresholds: each windowed pair spans the pooled scores in ``[t(1),
    t(0)]``."""
    vals = np.sort(np.concatenate((batch.calib_scores, batch.test_scores)))
    win = (evalues > 0.0) & (t0 != t1)
    return int(np.sum(vals.searchsorted(t0[win], side="right") - vals.searchsorted(t1[win], side="left")))


def _informative_batch(rng, n, m, tied, weighted):
    """Risks that rise with the score, as in the benchmark's inputs: many
    points take the window, and their windows are long."""
    s = rng.uniform(size=n + m)
    risks = np.clip(s + 0.2 * rng.standard_normal(n + m), 0.0, 1.0)
    if tied:
        s = np.round(s, 2)
    w = np.exp(0.5 * rng.standard_normal(n + m)) if weighted else np.ones(n + m)
    return ValidatedBatch(s[:n], risks[:n], w[:n], s[n:], w[n:])


@pytest.mark.parametrize("weights", ["unit", "non-unit"])
def test_kernel_memory_stays_linear_when_windows_are_long(weights):
    # m >> n on informative data: the windows add up to at least 20(n+m)
    # positions.  Expanding them all at once would hold over 100(n+m)
    # doubles; the kernel stays within a bound that is independent of the
    # total window length.
    rng = np.random.default_rng(44)
    n, m = 200, 2000
    batch = _informative_batch(rng, n, m, tied=False, weighted=weights == "non-unit")
    tracemalloc.start()
    try:
        got = _sdr_kernel_grid(batch, (0.2,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _window_length(batch, *(a[0] for a in got)) >= 20 * (n + m)
    assert peak < 50 * 8 * (n + m), f"peak {peak / (8 * (n + m)):.1f} (n+m) doubles"


def test_kernel_takes_the_keyed_path_for_non_unit_weights_only(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(sdr_module, name)

        def locate(*args):
            calls.append(name)
            return real(*args)
        return locate

    for name in ("_pointwise_positions", "_keyed_positions"):
        monkeypatch.setattr(sdr_module, name, spy(name))
    weighted_sdr_evalues([(0.1, 0.0), (0.2, 0.5)], [0.05, 0.3], 0.3)
    weighted_sdr_evalues([(0.1, 0.0, 2.0), (0.2, 0.5, 1.0)], [(0.05, 1.0), (0.3, 1.0)], 0.3)
    weighted_sdr_evalues([(0.1, 0.0), (0.2, 0.5)], [(0.05, 1.0), (0.3, 0.5)], 0.3)
    # a subnormal level's bound, gamma + 1e-12, is normal: the keyed path
    _sdr_kernel_grid(validate_batch([(0.1, 0.0, 2.0), (0.2, 0.5, 1.0)], [(0.05, 1.0)]), (0.3, 5e-324))
    assert calls == ["_pointwise_positions", "_keyed_positions", "_keyed_positions",
                     "_keyed_positions"]


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


@pytest.mark.parametrize("call", [
    lambda g: _sdr_kernel_grid(validate_batch([(0.1, 0.0, 2.0), (0.2, 0.5, 1.0)], [(0.05, 1.0)]), (0.3, g)),
    lambda g: weighted_sdr_evalues([(0.1, 0.0, 2.0), (0.2, 0.5, 1.0)], [(0.05, 1.0)], g),
    lambda g: sdr_evalues([(0.1, 0.0), (0.2, 0.5)], [0.05], g),
    lambda g: weighted_sdr_evalues_oracle([(0.1, 0.0, 2.0), (0.2, 0.5, 1.0)], [(0.05, 1.0)], g),
    lambda g: sdr_evalues_oracle([(0.1, 0.0), (0.2, 0.5)], [0.05], g),
    lambda g: sdr_evalues_at([(0.1, 0.0), (0.2, 0.5)], [0.05], g, ell=1.0),
], ids=["kernel-grid", "weighted", "unweighted", "weighted-oracle", "oracle", "fixed-ell"])
def test_a_non_finite_level_is_a_named_error(call):
    # Its bound gamma + 1e-12 would stay inf, and the weighted kernel would
    # compute nan keys from it.
    with pytest.raises(ValueError, match="gamma must be finite, got inf"):
        call(np.inf)


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


def test_power_of_two_weight_scales_give_the_same_bits():
    # A power of two rescales every weight, sum and ratio exactly, down to
    # 2**-1000 and up to 2**1000, inside the scale validate_batch accepts.
    rng = np.random.default_rng(26)
    for _ in range(50):
        calib, tests = random_sdr_instance(rng, weighted=True)
        gamma = float(rng.uniform(0.05, 0.95))
        base = weighted_sdr_evalues(calib, tests, gamma).evalues
        for c in (2.0 ** -1000, 2.0 ** 1000):
            scaled = weighted_sdr_evalues([(s, r, w * c) for s, r, w in calib],
                                          [(t, w * c) for t, w in tests], gamma).evalues
            assert scaled.tobytes() == base.tobytes()


def test_evalue_beyond_the_largest_double_reads_inf():
    # The e-value is about 1e310; the suite's filter makes a RuntimeWarning an error.
    calib = [(0.1, 0.0, 1e-310), (0.1, 0.0, 1.0)]
    assert weighted_sdr_evalues(calib, [(0.3, 1e-310)], 0.1).evalues.tolist() == [np.inf]


@pytest.mark.parametrize("calib, test, gamma, want", [
    ([(0.1, 0.0, 1e-310), (0.1, 0.0, 1.0)], (0.3, 1e-310), 0.1, np.inf),   # an e-value of about 1e310
    ([(0.0, 0.5, 1e300)], (0.5, 0.5), 1e300, 2.0),     # ratio bound and breakpoint beyond the largest double
])
def test_oracles_equal_the_kernel_where_a_quotient_overflows(calib, test, gamma, want):
    # The suite's filter makes an overflow warning an error.
    assert weighted_sdr_evalues(calib, [test], gamma).evalues.tolist() == [want]
    assert weighted_sdr_evalues_oracle(calib, [test], gamma).evalues.tolist() == [want]
    assert weighted_mdr_evalue(calib, test, gamma) == weighted_mdr_evalue_oracle(calib, test, gamma) == want


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


def test_conservative_evalues_meet_the_cutoff_when_every_covered_point_counts():
    # Where the count D of test scores <= t_tilde equals the number K of
    # covered points, each covered e-value is m / (alpha * K), eBH's own
    # cutoff at tau = K in the same expression, so eBH selects all K.
    rng = np.random.default_rng(9)
    full = 0
    for k in range(1000):
        n, m = int(rng.integers(10, 80)), int(rng.integers(1, 30))
        cs, cl, ts, _ = exchangeable_pairs(rng, n, m, kind=("smooth", "excess", "binary")[k % 3])
        if k % 2:
            cs, ts = np.round(cs, 1), np.round(ts, 1)
        alpha = float(rng.choice([0.1, 0.2, 0.25, 0.3, 0.4, 0.5]))
        res = sdr_evalues_conservative(list(zip(cs, cl)), list(ts), alpha)
        covered = int(np.count_nonzero(res.evalues))
        if covered and np.count_nonzero(ts <= res.thresholds_at_0[0]) == covered:
            assert ebh(res.evalues, alpha).tau == covered, (cs, cl, ts, alpha)
            full += 1
    assert full >= 500, full


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

    def instance(n):
        return list(zip(rng.normal(size=n), rng.uniform(size=n))), list(rng.normal(size=m))

    def timed(calib, tests):
        t0 = time.perf_counter()
        sdr_evalues(calib, tests, gamma=0.3)
        return time.perf_counter() - t0

    timed(*instance(4000))  # warm up
    small, big = instance(20_000), instance(40_000)
    # The sizes alternate within each round, so a burst of load hits both alike.
    t_small = t_big = np.inf
    for _ in range(5):
        t_small = min(t_small, timed(*small))
        t_big = min(t_big, timed(*big))
    assert t_big <= 2.5 * t_small, (t_small, t_big)
