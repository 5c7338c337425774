"""Tests for marginal risk decisions and e-values."""

import numpy as np
import pytest

from score_kit import (Levels, TestPoint, ValidatedBatch, deploy_mask, mdr_decide, mdr_evalue, mdr_evalue_oracle,
                       validate_batch, weighted_mdr_decide, weighted_mdr_evalue,
                       weighted_mdr_evalue_oracle)
from score_kit.mdr import _decide
from score_kit.sdr import _BOUNDARY_TOL, _sdr_kernel
from helpers import (boundary_instance, exchangeable_pairs, mc_bound_ok, random_mdr_instance,
                     risk_evalue_products, thresholded)

PROP1_CALIB = [(0.1, 0.2), (0.2, 0.4), (0.9, 1.0)]


def test_decide_evalue_agrees_with_oracle_at_a_rounding_boundary():
    calib = [(2, 0), (1, 0.5), (5, 0.75), (2, 1)]
    decision = mdr_decide(calib, 1.0, Levels(0.3, 0.3))
    assert decision.deploy
    assert decision.evalue_lower_bound == pytest.approx(mdr_evalue_oracle(calib, 1.0, 0.3), rel=1e-9)


def test_evalue_agrees_with_oracle_and_decision_at_rounding_boundaries():
    # Tied, dyadic single-point instances, compared with no nudge of the
    # level: the e-value equals the oracle's, and at gamma == alpha it
    # reaches 1 / alpha (up to REL_GUARD) exactly when the point is deployed.
    rng = np.random.default_rng(48)
    deployed = 0
    for k in range(1500):
        calib, tests, gamma = boundary_instance(rng, weighted=k % 2 == 1)
        if k % 2:
            test = TestPoint(*tests[0])
            e = weighted_mdr_evalue(calib, test, gamma)
            want = weighted_mdr_evalue_oracle(calib, test, gamma, ell_grid_size=2)
            d = weighted_mdr_decide(calib, test, Levels(gamma))
        else:
            e = mdr_evalue(calib, tests[0], gamma)
            want = mdr_evalue_oracle(calib, tests[0], gamma, ell_grid_size=2)
            d = mdr_decide(calib, tests[0], Levels(gamma))
        assert e == pytest.approx(want, rel=1e-9, abs=1e-9), (calib, tests[0], gamma)
        assert d.evalue_lower_bound == e and d.deploy == thresholded(e, gamma), (calib, tests[0], gamma)
        deployed += d.deploy
    assert deployed >= 300, deployed


@pytest.mark.parametrize("call", [
    lambda g: Levels(0.2, g),
    lambda g: mdr_evalue([(0.1, 0.0), (0.2, 0.5)], 0.05, g),
    lambda g: weighted_mdr_evalue([(0.1, 0.0, 2.0), (0.2, 0.5, 1.0)], TestPoint(0.05, 1.0), g),
    lambda g: mdr_evalue_oracle([(0.1, 0.0), (0.2, 0.5)], 0.05, g),
    lambda g: weighted_mdr_evalue_oracle([(0.1, 0.0, 2.0), (0.2, 0.5, 1.0)], TestPoint(0.05, 1.0), g),
], ids=["levels", "evalue", "weighted-evalue", "oracle", "weighted-oracle"])
def test_a_non_finite_level_is_a_named_error(call):
    with pytest.raises(ValueError, match="gamma must be finite, got inf"):
        call(np.inf)


def test_decide_worked_example():
    d = mdr_decide(PROP1_CALIB, 0.3, Levels(0.5))
    assert d.deploy
    assert d.empirical_stat == pytest.approx((1 + 0.6) / 4)


def test_decide_all_risk_one_never_deploys():
    d = mdr_decide([(0.5, 1.0)], 0.6, Levels(0.5))
    assert not d.deploy
    assert d.empirical_stat == pytest.approx(1.0)


def test_decide_zero_risk_calibration():
    calib = [(0.2, 0.0), (0.5, 0.0), (0.8, 0.0)]
    d = mdr_decide(calib, 0.1, Levels(0.5))
    assert d.deploy
    assert d.empirical_stat == pytest.approx(0.25)


def test_oracle_infeasible_threshold_gives_zero():
    assert mdr_evalue_oracle([(0.5, 1.0)], 0.6, gamma=0.5) == 0.0


def test_oracle_zero_risk_example():
    # minimized at ell = 1 with threshold at the top calibration score
    calib = [(0.1, 0.0), (0.2, 0.0), (0.3, 0.0)]
    assert mdr_evalue_oracle(calib, 0.05, gamma=0.5) == pytest.approx(4.0)
    assert mdr_evalue(calib, 0.05, gamma=0.5) == pytest.approx(4.0)


def test_fast_evalue_matches_oracle():
    rng = np.random.default_rng(31)
    for trial in range(300):
        calib, t = random_mdr_instance(rng, max_n=25, tied=trial % 4 == 0)
        gamma = float(rng.uniform(0.05, 0.95))
        fast = mdr_evalue(calib, t, gamma)
        slow = mdr_evalue_oracle(calib, t, gamma, ell_grid_size=51)
        if np.isinf(fast) and np.isinf(slow):
            continue
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


def test_decision_equals_thresholded_oracle():
    rng = np.random.default_rng(7)
    for trial in range(300):
        calib, t = random_mdr_instance(rng, tied=trial % 4 == 0)
        alpha = float(rng.uniform(0.05, 0.95))
        gamma = (alpha, 0.6 * alpha, min(0.99, 1.5 * alpha))[trial % 3]
        d = mdr_decide(calib, t, Levels(alpha=alpha, gamma=gamma))
        e = mdr_evalue_oracle(calib, t, gamma, ell_grid_size=101)
        assert d.deploy == thresholded(e, alpha)


def test_monotone_in_gamma():
    rng = np.random.default_rng(8)
    for _ in range(200):
        calib, t = random_mdr_instance(rng)
        alpha = float(rng.uniform(0.1, 0.9))
        g1 = float(rng.uniform(0.02, alpha))
        g2 = float(rng.uniform(g1, alpha))
        d1 = mdr_decide(calib, t, Levels(alpha=alpha, gamma=g1))
        d2 = mdr_decide(calib, t, Levels(alpha=alpha, gamma=g2))
        if d1.deploy:
            assert d2.deploy


def test_evalue_lower_bound_consistent_with_decision():
    rng = np.random.default_rng(9)
    for _ in range(200):
        calib, t = random_mdr_instance(rng)
        alpha = float(rng.uniform(0.1, 0.9))
        d = mdr_decide(calib, t, Levels(alpha))
        assert d.deploy == thresholded(d.evalue_lower_bound, alpha)


def test_unweighted_path_rejects_weights():
    with pytest.raises(ValueError):
        mdr_decide([(0.1, 0.2, 2.0)], 0.3, Levels(0.5))


def test_weighted_reduces_to_unweighted():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        calib, t = random_mdr_instance(rng)
        alpha = float(rng.uniform(0.1, 0.9))
        d0 = mdr_decide(calib, t, Levels(alpha))
        d1 = weighted_mdr_decide([(s, r, 1.0) for s, r in calib], TestPoint(t, 1.0), Levels(alpha))
        assert d0.deploy == d1.deploy
        assert d0.empirical_stat == pytest.approx(d1.empirical_stat, rel=1e-12)


def test_weight_scale_invariance():
    rng = np.random.default_rng(11)
    for c in (0.1, 7.0, 100.0):
        for _ in range(60):
            n = int(rng.integers(1, 20))
            scores = rng.normal(size=n)
            risks = rng.uniform(size=n)
            weights = rng.uniform(0.2, 5.0, size=n)
            t = TestPoint(float(rng.normal()), float(rng.uniform(0.2, 5.0)))
            alpha = float(rng.uniform(0.1, 0.9))
            base = weighted_mdr_decide(list(zip(scores, risks, weights)), t, Levels(alpha))
            scaled = weighted_mdr_decide(list(zip(scores, risks, weights * c)),
                                         TestPoint(t.score, t.weight * c), Levels(alpha))
            assert base.deploy == scaled.deploy
            assert base.empirical_stat == pytest.approx(scaled.empirical_stat, rel=1e-12)
            e0 = weighted_mdr_evalue(list(zip(scores, risks, weights)), t, gamma=alpha)
            e1 = weighted_mdr_evalue(list(zip(scores, risks, weights * c)),
                                     TestPoint(t.score, t.weight * c), gamma=alpha)
            if not (np.isinf(e0) and np.isinf(e1)):
                assert e0 == pytest.approx(e1, rel=1e-12)


def test_weighted_worked_example():
    d = weighted_mdr_decide([(0.1, 0.2, 1.0), (0.9, 1.0, 3.0)], TestPoint(0.3, 2.0), Levels(0.5))
    assert d.deploy
    assert d.empirical_stat == pytest.approx(2.2 / 6.0)


def test_weighted_evalue_matches_weighted_oracle():
    rng = np.random.default_rng(12)
    for _ in range(150):
        n = int(rng.integers(1, 15))
        calib = list(zip(rng.normal(size=n), rng.uniform(size=n), rng.uniform(0.2, 5.0, size=n)))
        t = TestPoint(float(rng.normal()), float(rng.uniform(0.2, 5.0)))
        gamma = float(rng.uniform(0.05, 0.95))
        fast = weighted_mdr_evalue(calib, t, gamma)
        slow = weighted_mdr_evalue_oracle(calib, t, gamma, ell_grid_size=51)
        if np.isinf(fast) and np.isinf(slow):
            continue
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


def test_evalue_validity_monte_carlo():
    # Definition-level check: mean of L * E stays below 1 (up to 3 SE).
    rng = np.random.default_rng(13)
    per_rep = []
    for _ in range(500):
        cs, cl, ts, tl = exchangeable_pairs(rng, 80, 5)
        calib = list(zip(cs, cl))
        ev = [mdr_evalue(calib, float(t), gamma=0.25) for t in ts]
        per_rep.append(risk_evalue_products(tl, ev).mean())
    ok, mean, se = mc_bound_ok(per_rep)
    assert ok, f"mean(L*E) = {mean:.4f} exceeds 1 + 3*{se:.4f}"


def test_realized_control_monte_carlo():
    # Realized deployed risk stays below each target level (up to 3 SE).
    rng = np.random.default_rng(14)
    for alpha in (0.1, 0.2, 0.3):
        per_rep = []
        for _ in range(2000):
            cs, cl, ts, tl = exchangeable_pairs(rng, 60, 1)
            d = mdr_decide(list(zip(cs, cl)), float(ts[0]), Levels(alpha))
            per_rep.append(tl[0] * d.deploy)
        ok, mean, se = mc_bound_ok(per_rep, bound=alpha)
        assert ok, f"alpha={alpha}: realized {mean:.4f} > {alpha} + 3*{se:.4f}"


def test_weighted_evalue_validity_squared_error_risk():
    # Covariate-shift validity check with a squared-error style risk and the
    # true logistic-index weights.
    from score_kit import (DgpSetting, RiskKind, ShiftModel, generate_dataset,
                           rejection_sample_shifted, risk_of, shift_weight)
    rng = np.random.default_rng(15)
    setting = DgpSetting(4)
    shift = ShiftModel("w1")
    risk = RiskKind("l2", c=0.4)
    gen = lambda count, r: generate_dataset(setting, count, r)
    per_rep = []
    for _ in range(2000):
        calib_x, calib_y = gen(60, rng)
        test_x, test_y = rejection_sample_shifted(gen, shift, 5, rng)
        f = lambda x: 2.0 + x[:, 0] * x[:, 1] + x[:, 2] ** 2  # crude fixed predictor
        cs = np.abs(calib_x[:, 3])
        ts = np.abs(test_x[:, 3])
        cl = risk_of(risk, f(calib_x), calib_y)
        tl = risk_of(risk, f(test_x), test_y)
        cw = shift_weight(shift, calib_x)
        tw = shift_weight(shift, test_x)
        per_rep.append(risk_evalue_products(tl, _decide(ValidatedBatch(cs, cl, cw, ts, tw), 0.25)[2]).mean())
    ok, mean, se = mc_bound_ok(per_rep)
    assert ok, f"mean(L*E) = {mean:.4f} > 1 + 3*{se:.4f}"


def test_mdr_batch_equals_one_point_kernel_calls():
    # One batch pass gives every point the bits of the kernel run on that
    # point alone with the calibration data: continuous, tied and dyadic,
    # unit and weighted (test weights up to 60x), lone points included.
    rng = np.random.default_rng(50)
    counts = [0, 0]                              # points with a zero and with a positive e-value
    for k in range(600):
        n, m = int(rng.integers(1, 120)), int(rng.integers(1, 25)) if k % 5 else 1
        cs, ts = rng.uniform(size=n), rng.uniform(size=m)
        cl = np.clip(cs + 0.3 * rng.standard_normal(n), 0.0, 1.0) * rng.uniform(0.1, 1.0)
        if k % 4 == 1:                           # tied scores, quarter risks
            cs, ts, cl = np.round(cs, 1), np.round(ts, 1), np.round(cl * 4.0) / 4.0
        elif k % 4 == 2:                         # tenths: risk sums that round
            cl = np.round(cl, 1)
        cw, tw = np.ones(n), np.ones(m)
        if k % 3 == 0:
            cw, tw = np.exp(0.5 * rng.standard_normal(n)), np.exp(0.5 * rng.standard_normal(m))
            tw *= np.where(rng.uniform(size=m) < 0.3, 60.0, 1.0)
        gamma = float(rng.uniform(0.05, 0.9))
        batch = ValidatedBatch(cs, cl, cw, ts, tw)
        got = _decide(batch, gamma)[2]
        want = np.array([_sdr_kernel(ValidatedBatch(cs, cl, cw, ts[j:j + 1], tw[j:j + 1]), gamma)[0][0]
                         for j in range(m)])
        assert got.tobytes() == want.tobytes(), (k, got, want)
        positive = int(np.count_nonzero(got > 0.0))
        counts[0] += m - positive
        counts[1] += positive
    assert counts[0] >= 500 and counts[1] >= 4000, counts


def test_mdr_evalues_at_a_zero_prefix_and_extreme_scales():
    # A point below every calibration score whose lowest tie group alone
    # exceeds the ratio bound has t(0) at its own score, where the prefix is
    # 0: e = 11 / (1 + 0), the oracle's value, not 11 / (1 + 3).
    calib = [(0.1, 1.0)] * 3 + [(0.2 + 0.1 * i, 0.0) for i in range(7)]
    assert mdr_evalue(calib, 0.0, 0.2) == 11.0 == mdr_evalue_oracle(calib, 0.0, 0.2)
    assert weighted_mdr_decide(calib, (0.0, 1.0), Levels(0.1, 0.2)).evalue_lower_bound == 11.0
    # The batch against one-point kernel calls, bit for bit, where such
    # points are common: a heavy lowest tie group, test scores below every
    # calibration score, levels from subnormal to 1e300, and test weights
    # up to 1e6 times the calibration weights or 1e-13 times them.
    rng = np.random.default_rng(52)
    zero_prefix = positive = 0
    for k in range(400):
        n, m = int(rng.integers(1, 60)), int(rng.integers(1, 12))
        cs, ts = 0.1 + np.round(rng.uniform(size=n), 1), np.round(rng.uniform(-0.5, 1.1, size=m), 1)
        cs[:int(rng.integers(0, n + 1))] = 0.1   # the lowest tie group
        cl = rng.integers(0, 5, size=n) / 4.0 if k % 2 else np.where(cs == 0.1, 1.0, 0.0)
        cw, tw = np.ones(n), np.ones(m)
        if k % 4 == 1:
            cw, tw = np.exp(rng.standard_normal(n)), np.exp(rng.standard_normal(m))
            tw *= np.where(rng.uniform(size=m) < 0.3, 1e6, 1.0)
        elif k % 4 == 3:
            cw *= 1e13
        gamma = float(rng.choice([5e-324, 1e-13, 0.05, 0.2, 0.5, 1e300]))
        batch = ValidatedBatch(cs, cl, cw, ts, tw)
        got = _decide(batch, gamma)[2]
        want = np.array([_sdr_kernel(ValidatedBatch(cs, cl, cw, ts[j:j + 1], tw[j:j + 1]), gamma)[0][0]
                         for j in range(m)])
        assert got.tobytes() == want.tobytes(), (k, got, want)
        # points whose t(0) reads the prefix 0 while the lowest group is infeasible
        total_w = cw.sum() + tw
        lowest = np.sum((cw * cl)[cs == cs.min()]) / total_w > gamma + _BOUNDARY_TOL
        zero_prefix += int(np.count_nonzero((got > 0.0) & (ts < cs.min()) & lowest))
        positive += int(np.count_nonzero(got > 0.0))
    assert zero_prefix >= 200 and positive >= 800, (zero_prefix, positive)
    # with no calibration data the one attained prefix is 0
    empty, ts, tw = np.array([]), np.array([0.3, 0.5]), np.array([1.0, 0.5])
    for gamma in (0.3, 2.0):
        want = np.array([_sdr_kernel(ValidatedBatch(empty, empty, empty, ts[j:j + 1], tw[j:j + 1]), gamma)[0][0]
                         for j in range(2)])
        got = _decide(ValidatedBatch(empty, empty, empty, ts, tw), gamma)[2]
        assert got.tobytes() == want.tobytes(), (gamma, got, want)


def _no_crossing_per_point(batch, j, levels):
    """The gamma > alpha condition for one test point, checked at every
    tie-grouped prefix value and at the test point's own threshold."""
    wj = batch.test_weights[j]
    total_w = wj + float(np.sum(batch.calib_weights))
    order = np.argsort(batch.calib_scores, kind="stable")
    sorted_scores = batch.calib_scores[order]
    raw_prefix = np.cumsum((batch.calib_weights * batch.calib_risks)[order])
    prefix = raw_prefix[np.searchsorted(sorted_scores, sorted_scores, side="right") - 1]
    k = np.searchsorted(sorted_scores, batch.test_scores[j], side="right")
    p_values = np.append(prefix, prefix[k - 1] if k > 0 else 0.0)
    feasible = p_values <= (levels.gamma + _BOUNDARY_TOL) * total_w
    bad = feasible & (wj + p_values > levels.alpha * total_w)
    return not bool(np.any(bad))


def test_deploy_mask_gamma_above_alpha_matches_per_point_rule():
    # At gamma > alpha the mask reads the e-values, and it equals the
    # statistic plus the no-crossing condition checked point by point: on
    # tied, dyadic instances, then on continuous low-risk and weighted ones,
    # where the condition removes many points the statistic deploys.  Every
    # single-point decision that deploys has an e-value of at least 1 / alpha.
    rng = np.random.default_rng(41)
    removed = [0, 0, 0]                          # per kind: deploys the condition removes
    for trial in range(1200):
        kind = 0 if trial < 600 else 1 + trial % 2
        if kind == 0:
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 15))
            cs = rng.integers(0, 5, size=n).astype(float)
            ts = rng.integers(0, 5, size=m).astype(float)
            cl = rng.integers(0, 5, size=n) / 4.0
            if trial % 2:
                cw = rng.integers(1, 5, size=n) / 2.0
                tw = rng.integers(1, 5, size=m) / 2.0
            else:
                cw, tw = np.ones(n), np.ones(m)
        else:                                    # continuous low risks, weighted for kind 2
            n, m = int(rng.integers(5, 80)), int(rng.integers(1, 15))
            cs, ts = rng.uniform(size=n), rng.uniform(size=m)
            cl = np.clip(cs + 0.2 * rng.standard_normal(n), 0.0, 1.0) * rng.uniform(0.05, 0.5)
            cw, tw = np.ones(n), np.ones(m)
            if kind == 2:
                cw, tw = np.exp(0.5 * rng.standard_normal(n)), np.exp(0.5 * rng.standard_normal(m))
        alpha = float(rng.choice([0.1, 0.2, 0.25, 0.3, 0.5]))
        levels = Levels(alpha, alpha + float(rng.choice([0.05, 0.1, 0.25])))
        batch = ValidatedBatch(cs, cl, cw, ts, tw)
        plain = deploy_mask(batch, Levels(levels.gamma))
        expected = [bool(plain[j]) and _no_crossing_per_point(batch, j, levels) for j in range(m)]
        mask = deploy_mask(batch, levels)
        assert mask.tolist() == expected
        removed[kind] += int(np.count_nonzero(plain & ~mask))
        if kind:
            for j in range(m):
                if kind == 1:
                    d = mdr_decide(list(zip(cs, cl)), ts[j], levels)
                else:
                    d = weighted_mdr_decide(list(zip(cs, cl, cw)), TestPoint(ts[j], tw[j]), levels)
                assert d.deploy == bool(mask[j])
                assert not d.deploy or d.evalue_lower_bound >= 1 / alpha, (trial, j, d)
    assert min(removed) >= 300, removed


def test_decide_and_deploy_mask_agree_at_exact_boundary():
    # The statistic is exactly gamma in real arithmetic: (1 + 0.1 + 1.0 + 0.3) / 4 = 0.6.
    calib = [(1.0, 0.1), (1.0, 1.0), (0.0, 0.3)]
    levels = Levels(0.6)
    d = mdr_decide(calib, 1.0, levels)
    assert d.deploy
    assert d.evalue_lower_bound >= 1.0 / levels.alpha
    assert deploy_mask(validate_batch(calib, [1.0]), levels).tolist() == [True]


def test_decide_matches_deploy_mask_on_tied_dyadic_instances():
    rng = np.random.default_rng(43)
    for trial in range(4000):
        n = int(rng.integers(1, 25))
        cs = rng.integers(0, 5, size=n).astype(float)
        cl = rng.integers(0, 11, size=n) / 10.0 if trial % 2 else rng.integers(0, 5, size=n) / 4.0
        s = float(rng.integers(0, 5))
        alpha = float(rng.choice([0.1, 0.2, 0.25, 0.3, 0.5, 0.6]))
        gamma = alpha if trial % 3 else alpha + float(rng.choice([0.05, 0.1, 0.25]))
        levels = Levels(alpha, gamma)
        calib = list(zip(cs, cl))
        d = mdr_decide(calib, s, levels)
        batch = validate_batch(calib, [s])
        assert d.deploy == bool(deploy_mask(batch, levels)[0])
        # deploy_mask's statistic: the covered risks summed in stable score order.
        prefix = np.cumsum(np.concatenate([[0.0], cl[np.argsort(cs, kind="stable")]]))
        assert d.empirical_stat == (1.0 + prefix[np.count_nonzero(cs <= s)]) / (n + 1)


def test_decision_and_evalue_agree_at_gamma_alpha():
    # A point deploys only where its e-value reaches 1 / alpha, so each
    # single-point decision deploys exactly when its e-value does, unguarded.
    # On tied, dyadic instances the statistic alone agrees with that, so the
    # e-value test removes no deploy there, and the oracle's e-value reaches
    # 1 / alpha, unguarded, exactly where the point deploys: it reads each
    # threshold where its ratio reaches gamma, as the kernel does.  On tenths
    # the risk sums round, and the statistic can pass gamma + 1e-12 while the
    # e-value sits an ulp below 1 / alpha.
    rng = np.random.default_rng(49)
    deployed = 0
    for trial in range(6000):
        if trial < 4000:
            n = int(rng.integers(1, 25))
            cs = rng.integers(0, 5, size=n).astype(float)
            cl = rng.integers(0, 9, size=n) / 8.0 if trial % 2 else rng.integers(0, 5, size=n) / 4.0
            s = float(rng.integers(0, 5))
            alpha = float(rng.choice([0.1, 0.2, 0.25, 0.3, 0.5, 0.6]))
        else:
            n = int(rng.integers(1, 40))
            cs, cl = rng.integers(0, 11, size=n) / 10, rng.integers(0, 11, size=n) / 10
            s = float(rng.integers(0, 11) / 10)
            alpha = float(rng.choice([0.1, 0.2, 0.3, 0.4, 0.5]))
        if trial % 3 or trial >= 4000:
            calib, test, decide, oracle = list(zip(cs, cl)), s, mdr_decide, mdr_evalue_oracle
        else:
            w = rng.integers(1, 5, size=n + 1) / 2
            calib, test = list(zip(cs, cl, w[:n])), (s, float(w[n]))
            decide, oracle = weighted_mdr_decide, weighted_mdr_evalue_oracle
        d = decide(calib, test, Levels(alpha))
        assert d.deploy == (d.evalue_lower_bound >= 1 / alpha), (calib, test, alpha)
        if trial < 4000:
            assert d.deploy == (d.empirical_stat <= alpha + _BOUNDARY_TOL), (calib, test, alpha)
            e = oracle(calib, test, alpha, ell_grid_size=101)
            assert d.deploy == (e >= 1 / alpha), (calib, test, alpha, e)
        deployed += d.deploy
    assert deployed >= 2000, deployed


def test_single_point_forms_give_the_same_bits():
    # a (score, weight) tuple, a TestPoint and, at unit weight, a bare score
    # are one test point to every single-point entry
    calib = [(0.1, 0.2, 2.0), (0.4, 0.5, 1.0), (0.35, 0.25, 0.5), (0.9, 1.0, 3.0)]
    calls = ((weighted_mdr_decide, Levels(0.5)), (weighted_mdr_evalue, 0.5),
             (weighted_mdr_evalue_oracle, 0.5))
    for fn, level in calls:
        for score, weight in ((0.3, 2.0), (0.3, 1.0), (0.05, 0.7)):
            want = fn(calib, TestPoint(score, weight), level)
            assert repr(fn(calib, (score, weight), level)) == repr(want)
            if weight == 1.0:
                for bare in (score, np.float64(score), np.array(score)):
                    assert repr(fn(calib, bare, level)) == repr(want)
