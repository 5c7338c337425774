"""Tests for the eBH filter, boosting, conformal p-values, and BH."""

import numpy as np
import pytest

from score_kit import (EmptyInput, InvalidAlpha, InvalidDraws, bh, boost_hete, boost_homo,
                       conformal_pvalues, ebh, mdr_evalue)
from helpers import exchangeable_pairs, mc_bound_ok, random_mdr_instance, thresholded


def test_ebh_worked_example():
    res = ebh([10.0, 4.0, 0.5], alpha=0.5)
    assert res.tau == 2
    assert res.threshold == pytest.approx(3.0)
    assert res.selected == {0, 1}


def test_ebh_all_zero():
    res = ebh([0.0, 0.0, 0.0], alpha=0.3)
    assert res.selected == frozenset()
    assert res.tau == 0 and np.isinf(res.threshold)


def test_ebh_all_at_full_threshold():
    m, alpha = 4, 0.25
    res = ebh([m / alpha] * m, alpha=alpha)
    assert res.tau == m
    assert res.selected == set(range(m))


def test_ebh_handles_infinity():
    res = ebh([np.inf, 0.0], alpha=0.1)
    assert 0 in res.selected and 1 not in res.selected


def test_ebh_errors():
    with pytest.raises(InvalidAlpha):
        ebh([1.0], alpha=1.5)
    with pytest.raises(EmptyInput):
        ebh([], alpha=0.5)
    with pytest.raises(ValueError):
        ebh([-1.0], alpha=0.5)


def test_ebh_self_consistency_random():
    rng = np.random.default_rng(41)
    for _ in range(400):
        m = int(rng.integers(1, 40))
        e = rng.exponential(scale=rng.uniform(0.5, 30.0), size=m)
        alpha = float(rng.uniform(0.05, 0.95))
        res = ebh(e, alpha)
        assert len(res.selected) == res.tau
        if res.tau > 0:
            thr = m / (alpha * res.tau)
            assert all(e[j] >= thr for j in res.selected)
            assert all(e[j] < thr for j in range(m) if j not in res.selected)


def test_ebh_monotone_in_alpha():
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = int(rng.integers(1, 30))
        e = rng.exponential(scale=10.0, size=m)
        a1, a2 = sorted(rng.uniform(0.05, 0.95, size=2))
        assert ebh(e, a1).selected <= ebh(e, a2).selected


def test_ebh_permutation_equivariance():
    rng = np.random.default_rng(43)
    for _ in range(100):
        m = int(rng.integers(2, 25))
        e = rng.exponential(scale=10.0, size=m)
        alpha = float(rng.uniform(0.1, 0.9))
        perm = rng.permutation(m)
        base = ebh(e, alpha).selected
        permuted = ebh(e[perm], alpha).selected
        assert permuted == {int(np.flatnonzero(perm == j)[0]) for j in base}


def test_boost_unit_draws_are_noop():
    e = [3.0, 0.2, 7.0]
    assert boost_hete(e, 0.4, [1.0, 1.0, 1.0]).selected == ebh(e, 0.4).selected
    assert boost_homo(e, 0.4, 1.0).selected == ebh(e, 0.4).selected


def test_boost_worked_example():
    e = [1.2, 0.8]
    assert ebh(e, 0.5).selected == frozenset()
    assert boost_hete(e, 0.5, [0.25, 0.25]).selected == {0, 1}
    assert boost_homo(e, 0.5, 0.25).selected == {0, 1}


def test_boost_superset_property():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        m = int(rng.integers(1, 25))
        e = rng.exponential(scale=rng.uniform(0.5, 20.0), size=m)
        alpha = float(rng.uniform(0.05, 0.95))
        base = ebh(e, alpha).selected
        xis = 1.0 - rng.uniform(size=m)
        assert base <= boost_hete(e, alpha, xis).selected
        assert base <= boost_homo(e, alpha, 1.0 - float(rng.uniform())).selected


def test_boost_records_boosted_values():
    res = boost_homo([1.2, 0.8], 0.5, 0.25)
    assert res.boosted_evalues == pytest.approx((4.8, 3.2))


def test_boost_errors():
    with pytest.raises(InvalidDraws):
        boost_hete([1.0, 2.0], 0.5, [0.5])
    with pytest.raises(InvalidDraws):
        boost_hete([1.0, 2.0], 0.5, [0.5, 1.5])
    with pytest.raises(InvalidDraws):
        boost_homo([1.0], 0.5, 0.0)
    with pytest.raises(InvalidDraws):
        boost_hete([1.0, 2.0], 0.5, [0.5, 0.0])


def test_mdr_boosting_is_noop():
    # For a single test point with matching levels, dividing the e-value by
    # any uniform draw leaves the thresholded decision unchanged.  Deployed
    # e-values sit mathematically at exactly 1/alpha, so the comparison uses
    # the shared relative guard.
    rng = np.random.default_rng(45)
    for _ in range(400):
        calib, t = random_mdr_instance(rng, max_n=30)
        alpha = float(rng.uniform(0.1, 0.9))
        xi = 1.0 - float(rng.uniform())
        e = mdr_evalue(calib, t, gamma=alpha)
        assert thresholded(e, alpha) == thresholded(e / xi, alpha)


def test_boosting_sdr_control_monte_carlo():
    from score_kit import sdr_evalues

    rng = np.random.default_rng(46)
    alpha = 0.25
    hete_rates, homo_rates = [], []
    for _ in range(1000):
        cs, cl, ts, tl = exchangeable_pairs(rng, 100, 10)
        ev = sdr_evalues(list(zip(cs, cl)), list(ts), gamma=alpha).evalues
        sel_h = boost_hete(ev, alpha, 1.0 - rng.uniform(size=10)).selected
        sel_o = boost_homo(ev, alpha, 1.0 - float(rng.uniform())).selected
        hete_rates.append(sum(tl[j] for j in sel_h) / max(1, len(sel_h)))
        homo_rates.append(sum(tl[j] for j in sel_o) / max(1, len(sel_o)))
    for rates in (hete_rates, homo_rates):
        ok, mean, se = mc_bound_ok(rates, bound=alpha)
        assert ok, f"realized {mean:.4f} > {alpha} + 3*{se:.4f}"


def test_conformal_pvalues_worked_example():
    assert conformal_pvalues([1.0, 2.0, 3.0], [2.5])[0] == pytest.approx(0.75)


def test_conformal_pvalues_extremes():
    p = conformal_pvalues([1.0, 2.0, 3.0], [0.0, 10.0])
    assert p[0] == pytest.approx(0.25)   # below all -> 1/(n+1)
    assert p[1] == pytest.approx(1.0)    # above all -> 1


def test_conformal_pvalues_count_ties_and_infinities():
    rng = np.random.default_rng(71)
    v = np.concatenate([rng.integers(0, 6, size=200) / 2, [np.inf, np.inf, -np.inf]])
    vhat = np.concatenate([rng.integers(-1, 7, size=50) / 2, [np.inf, -np.inf]])
    dense = np.sum(v[None, :] <= vhat[:, None], axis=1)
    assert np.array_equal(conformal_pvalues(v, vhat), (1.0 + dense) / (v.size + 1.0))
    with pytest.raises(ValueError):
        conformal_pvalues([1.0, np.nan], [0.5])


def test_conformal_pvalues_empty():
    with pytest.raises(EmptyInput):
        conformal_pvalues([], [1.0])


def test_bh_worked_example():
    res = bh([0.01, 0.04, 0.9], alpha=0.1)
    assert res.tau == 2
    assert res.selected == {0, 1}
    # Three p-values tie exactly at the cutoff 0.5 * 3 / 4: the whole group
    # is selected.
    res = bh([0.375, 0.75, 0.375, 0.375], alpha=0.5)
    assert res.tau == 3 and res.threshold == 0.375
    assert res.selected == {0, 2, 3}


def test_bh_extremes():
    assert bh([1.0, 1.0], alpha=0.2).selected == frozenset()
    m, alpha = 5, 0.3
    assert bh([alpha / m] * m, alpha=alpha).selected == set(range(m))


def test_bh_errors():
    with pytest.raises(InvalidAlpha):
        bh([0.5], alpha=0.0)
    with pytest.raises(ValueError):
        bh([1.5], alpha=0.5)
