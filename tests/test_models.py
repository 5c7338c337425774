"""Tests for the k-NN regressor, logistic weight estimator, and score builder."""

import numpy as np
import pytest

from score_kit import (DgpSetting, DivergedFit, KTooLarge, Levels, ShiftModel, build_score,
                       generate_dataset, knn_fit, knn_predict, logistic_fit_weights,
                       mdr_decide, ratio_scores, rejection_sample_shifted, sdr_evalues,
                       shift_weight, weight_predict)


def test_knn_nearest_neighbor():
    model = knn_fit([[0.0], [1.0]], [0.0, 1.0], k=1)
    assert knn_predict(model, [0.2]) == 0.0


def test_knn_global_mean():
    model = knn_fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 4.0], k=3)
    assert knn_predict(model, [100.0]) == pytest.approx(5.0 / 3.0)


def test_knn_two_nearest():
    model = knn_fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 4.0], k=2)
    assert knn_predict(model, [0.9]) == pytest.approx(0.5)


def test_knn_k_too_large():
    with pytest.raises(KTooLarge):
        knn_fit([[0.0]], [1.0], k=2)


def test_knn_reproduces_training_targets():
    rng = np.random.default_rng(51)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    model = knn_fit(x, y, k=1)
    assert np.allclose(knn_predict(model, x), y)


def test_knn_distance_ties_lowest_index():
    # both training points are equidistant from the query
    model = knn_fit([[1.0], [-1.0]], [10.0, 20.0], k=1)
    assert knn_predict(model, [0.0]) == 10.0
    model2 = knn_fit([[-1.0], [1.0]], [20.0, 10.0], k=1)
    assert knn_predict(model2, [0.0]) == 20.0


def _knn_reference(x, y, k, q):
    """Full stable sort of every distance row: the literal tie-break."""
    q = np.atleast_2d(q)
    d2 = np.sum(q * q, axis=1)[:, None] - 2.0 * q @ x.T + np.sum(x * x, axis=1)[None, :]
    return y[np.argsort(d2, axis=1, kind="stable")[:, :k]].mean(axis=1)


def test_knn_matches_stable_sort_reference():
    # integer-grid features put many distance ties across the k-th neighbour
    rng = np.random.default_rng(58)
    for trial in range(400):
        n = int(rng.integers(1, 40))
        x = rng.integers(-2, 3, size=(n, 2)).astype(float)
        y = rng.normal(size=n)
        q = rng.integers(-2, 3, size=(int(rng.integers(1, 20)), 2)).astype(float)
        for k in {1, int(rng.integers(1, n + 1)), n}:
            model = knn_fit(x, y, k)
            assert knn_predict(model, q).tobytes() == _knn_reference(x, y, k, q).tobytes()
            single = knn_predict(model, q[0])
            assert isinstance(single, float)
            assert single == _knn_reference(x, y, k, q[0])[0]


def test_knn_fit_leaves_caller_arrays_writeable():
    x = np.array([[0.0], [1.0], [2.0]])
    y = np.array([0.0, 1.0, 4.0])
    model = knn_fit(x, y, k=2)
    assert x.flags.writeable and y.flags.writeable
    with pytest.raises(ValueError):
        model.train_y[0] = 1.0


def test_logistic_weights_near_one_without_shift():
    rng = np.random.default_rng(52)
    src = rng.uniform(-1, 1, size=(1000, 5))
    tgt = rng.uniform(-1, 1, size=(1000, 5))
    model = logistic_fit_weights(src, tgt)
    w = weight_predict(model, rng.uniform(-1, 1, size=(1000, 5)))
    assert np.mean(np.abs(w - 1.0)) < 0.15


def test_logistic_prior_ratio_scales_output():
    rng = np.random.default_rng(53)
    src = rng.uniform(-1, 1, size=(400, 3))
    tgt = rng.uniform(-1, 1, size=(200, 3))
    model = logistic_fit_weights(src, tgt, clip=(1e-6, 1e6))
    doubled = logistic_fit_weights(np.vstack([src, src]), tgt, clip=(1e-6, 1e6))
    assert doubled.prior_ratio == pytest.approx(2.0 * model.prior_ratio)


def test_logistic_clip_respected():
    rng = np.random.default_rng(54)
    src = rng.normal(0.0, 1.0, size=(300, 2))
    tgt = rng.normal(3.0, 1.0, size=(300, 2))
    model = logistic_fit_weights(src, tgt, clip=(0.5, 2.0))
    far = np.array([[50.0, 50.0], [-50.0, -50.0]])
    w = weight_predict(model, far)
    assert np.all(w >= 0.5) and np.all(w <= 2.0)


def test_logistic_diverged_fit():
    src = np.array([[np.inf, 1.0]])
    tgt = np.array([[0.0, 1.0]])
    with pytest.raises(DivergedFit):
        logistic_fit_weights(src, tgt)


def test_weight_estimator_consistency_under_w1():
    # calibration-quality smoke test against the true logistic shift
    rng = np.random.default_rng(55)
    setting = DgpSetting(2)
    gen = lambda count, r: generate_dataset(setting, count, r)
    src, _ = gen(2000, rng)
    tgt, _ = rejection_sample_shifted(gen, ShiftModel("w1"), 2000, rng)
    model = logistic_fit_weights(src, tgt)
    eval_x, _ = gen(1500, rng)
    w_hat = weight_predict(model, eval_x)
    w_true = shift_weight(ShiftModel("w1"), eval_x)
    # the estimator targets dQ/dP = w / E[w]; rescale to the same normalization
    w_hat_density = w_hat / np.mean(weight_predict(model, src))
    w_true_density = w_true / np.mean(shift_weight(ShiftModel("w1"), src))
    assert np.mean(np.abs(w_hat_density - w_true_density)) < 0.15


def test_ratio_scores_arithmetic():
    assert ratio_scores([0.4], [2.0], alpha=0.1, method="mdr")[0] == pytest.approx(0.2)
    assert ratio_scores([0.4], [2.0], alpha=0.1, method="sdr")[0] == pytest.approx(0.15)


def test_build_score_constant_reward_preserves_ranking():
    rng = np.random.default_rng(56)
    l_vals = rng.uniform(size=30)
    pred = build_score("risk_prediction", lambda x: x, None, alpha=0.2, method="mdr")
    ratio = build_score("risk_reward_ratio", lambda x: x, lambda x: np.ones_like(x),
                        alpha=0.2, method="mdr")
    assert np.array_equal(np.argsort(pred(l_vals)), np.argsort(ratio(l_vals)))


def test_build_score_rejects_unknown_mode():
    with pytest.raises(ValueError):
        build_score("nonsense", None, None, 0.1, "mdr")
    with pytest.raises(ValueError):
        ratio_scores([0.1], [1.0], 0.1, "other")


def test_monotone_transform_invariance():
    # decisions and e-values depend on scores only through their ordering
    rng = np.random.default_rng(57)
    for transform in (np.exp, lambda s: s ** 3, lambda s: 2.0 * s + 5.0):
        n, m = 40, 8
        cs = rng.normal(size=n)
        risks = rng.uniform(size=n)
        ts = rng.normal(size=m)
        gamma = 0.3
        base = sdr_evalues(list(zip(cs, risks)), list(ts), gamma).evalues
        mapped = sdr_evalues(list(zip(transform(cs), risks)), list(transform(ts)), gamma).evalues
        assert np.array_equal(base, mapped)
        d0 = mdr_decide(list(zip(cs, risks)), float(ts[0]), Levels(0.3))
        d1 = mdr_decide(list(zip(transform(cs), risks)), float(transform(ts[:1])[0]), Levels(0.3))
        assert d0.deploy == d1.deploy
