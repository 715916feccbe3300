import numpy as np
import pytest

from swapcal import (BETA, OMEGA, RADIUS, BmForecaster, NumericFailure,
                     make_grid)
from swapcal.ons import ons_kernel, ons_step


def test_constants():
    assert BETA == 1.0 / 640.0
    assert OMEGA == 102400
    assert OMEGA == pytest.approx(1.0 / (4.0 * BETA ** 2))
    assert RADIUS == 4.0


def _fresh(d):
    """A fresh learner: theta = 0, inverse curvature I / omega."""
    return np.zeros(d), np.eye(d) / OMEGA


def test_init_state():
    fc = BmForecaster(make_grid(2), 3)
    np.testing.assert_array_equal(fc.thetas, np.zeros((3, 3)))
    np.testing.assert_array_equal(fc.inv_curvatures,
                                  [np.eye(3) / OMEGA] * 3)
    assert fc.rounds_seen == 0
    assert fc.thetas.shape == (3, 3) and fc.inv_curvatures.shape == (3, 3, 3)
    with pytest.raises(ValueError):
        BmForecaster(make_grid(2), 0)


def test_first_step_hand_value():
    """d=1, x=0.5, alpha=1, y=1 from theta=0.

    grad = 2*(0-1)*0.5 = -1; curvature becomes omega+1 = 102401;
    theta = 0 + (1/beta)/102401 = 640/102401.
    """
    theta, inv = ons_step(*_fresh(1), np.array([0.5]), 1.0, 1)
    assert theta[0] == pytest.approx(640.0 / 102401.0, abs=1e-15)
    assert inv[0, 0] == pytest.approx(1.0 / 102401.0, rel=1e-15)


def test_zero_mass_round_is_identity_up_to_counter():
    theta0, inv0 = _fresh(2)
    theta1, inv1 = ons_step(theta0, inv0, np.array([0.5, 0.3]), 0.0, 1)
    assert theta1 is theta0 and inv1 is inv0
    # after a real step too: the same arrays back
    theta2, inv2 = ons_step(theta0, inv0, np.array([0.5, 0.3]), 1.0, 1)
    theta3, inv3 = ons_step(theta2, inv2, np.array([0.5, -0.2]), 0.0, 0)
    assert theta3 is theta2 and inv3 is inv2
    # the forecaster counts the round all the same: a zero-mass cell keeps
    # its row while rounds_seen advances
    fc = BmForecaster(make_grid(2), 2)
    x = np.array([0.5, 0.1])
    out = fc.predict(x)
    assert out.cond_dist[2] == 0.0
    before = fc.thetas[2].copy(), fc.inv_curvatures[2].copy()
    fc.update(out, 1, x)
    np.testing.assert_array_equal(fc.thetas[2], before[0])
    np.testing.assert_array_equal(fc.inv_curvatures[2], before[1])
    assert fc.rounds_seen == 1


def test_step_is_functional():
    # both paths, the A-norm projection included, leave their inputs as
    # they were and return fresh arrays
    u = np.array([0.6, 0.8])
    for theta0, x in ((np.zeros(2), np.array([0.5, 0.1])),
                      (3.9999 * u, 0.2 * u)):
        inv0 = np.eye(2) / OMEGA
        theta_in, inv_in = theta0.copy(), inv0.copy()
        theta1, inv1 = ons_step(theta0, inv0, x, 1.0, 1)
        np.testing.assert_array_equal(theta0, theta_in)
        np.testing.assert_array_equal(inv0, inv_in)
        assert theta1 is not theta0 and inv1 is not inv0
    # the second step left the ball and was projected onto its sphere
    assert np.linalg.norm(theta1) == pytest.approx(RADIUS, abs=1e-6)


def _one_step(kernel, inv):
    """One step of a learner at theta = 0 with inverse curvature inv on
    x = (0.5, 0), alpha = 1, y = 1, so g = (-1, 0) and the rank-one
    denominator is 1 + inv[0, 0]; kernel is ons_step or ons_kernel on a
    stack of one."""
    theta, x = np.zeros(2), np.array([0.5, 0.0])
    if kernel is ons_step:
        return ons_step(theta, inv, x, 1.0, 1)
    return ons_kernel(theta[None], inv[None], x, 1.0, 1.0)


@pytest.mark.parametrize("kernel", [ons_step, ons_kernel],
                         ids=["ons_step", "ons_kernel"])
def test_rank_one_failure_modes(kernel):
    """Both kernels raise NumericFailure, not a wrong learner, when the
    rank-one denominator 1 + g^T M g is zero, negative, NaN or +inf, when
    the inverse is NaN, and when the updated inverse overflows."""
    for inv in (-np.eye(2), -2.0 * np.eye(2), np.diag([np.nan, 1.0]),
                np.diag([np.inf, 1.0])):
        with pytest.raises(NumericFailure, match="denominator"):
            _one_step(kernel, inv)
    with pytest.raises(NumericFailure):
        _one_step(kernel, np.eye(2) * np.nan)
    # a finite inverse whose symmetrization overflows: 1e308 + 1e308
    with np.errstate(over="ignore"), \
            pytest.raises(NumericFailure, match="non-finite entries"):
        _one_step(kernel, np.diag([1.0, 1e308]))


def test_kernel_rows_are_ons_step_bit_for_bit():
    """ons_kernel on an (R, K) stack of learners, each with its own context
    row, scale weight and outcome, equals ons_step on every learner, bit for
    bit: zero weights, projected steps and both outcomes included."""
    rng = np.random.default_rng(17)
    R, K, d = 3, 4, 3
    # learners near the sphere, fed short contexts along theta with mostly
    # y = 1, step outward and are projected back
    u = rng.normal(size=(R, 1, d))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    thetas = np.repeat(3.999 * u, K, axis=1)
    thetas[:, 0] = 0.0
    invs = np.tile(np.eye(d) / OMEGA, (R, K, 1, 1))
    projected = 0
    for _ in range(60):
        x = 0.2 * u + 0.05 * rng.normal(size=(R, 1, d))
        alpha = rng.random((R, K)) * (rng.random((R, K)) > 0.2)
        y = (rng.random((R, 1)) > 0.1).astype(float)
        want = [[ons_step(thetas[r, k], invs[r, k], x[r, 0], alpha[r, k],
                          y[r, 0]) for k in range(K)] for r in range(R)]
        thetas, invs = ons_kernel(thetas, invs, x, alpha, y)
        for r in range(R):
            for k in range(K):
                assert np.array_equal(thetas[r, k], want[r][k][0])
                assert np.array_equal(invs[r, k], want[r][k][1])
        projected += int((np.linalg.norm(thetas, axis=-1)
                          > RADIUS - 1e-6).sum())
    assert projected


def _oracle_replay(steps, d):
    """Dense reimplementation: explicit curvature matrix, fresh solves each
    round, projection by direct bisection. No rank-one inverse updates."""
    theta = np.zeros(d)
    A = np.eye(d) * OMEGA
    for x, alpha, y in steps:
        if alpha == 0.0:
            continue
        g = 2.0 * alpha * (theta @ x - y) * x
        A = A + np.outer(g, g)
        cand = theta - (1.0 / BETA) * np.linalg.solve(A, g)
        if np.linalg.norm(cand) > RADIUS:
            lo, hi = 0.0, 1.0
            u = lambda lam: np.linalg.solve(A + lam * np.eye(d), A @ cand)
            while np.linalg.norm(u(hi)) > RADIUS:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if np.linalg.norm(u(mid)) > RADIUS:
                    lo = mid
                else:
                    hi = mid
            cand = u(hi)
        theta = cand
    return theta


def test_replay_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for d in (1, 2, 4):
        steps = []
        for _ in range(100):
            x = rng.normal(size=d)
            x *= min(1.0, 1.0 / max(np.linalg.norm(x), 1e-12)) * rng.random()
            steps.append((x, float(rng.random()), int(rng.integers(0, 2))))
        theta, inv = _fresh(d)
        for x, a, y in steps:
            theta, inv = ons_step(theta, inv, x, a, y)
        want = _oracle_replay(steps, d)
        np.testing.assert_allclose(theta, want, atol=1e-7)
        np.testing.assert_array_equal(inv, inv.T)


def test_iterates_stay_in_radius():
    rng = np.random.default_rng(9)
    theta, inv = _fresh(3)
    for _ in range(300):
        x = rng.normal(size=3) * 0.4
        x *= min(1.0, 1.0 / max(np.linalg.norm(x), 1e-12))
        theta, inv = ons_step(theta, inv, x, float(rng.random()),
                              int(rng.integers(0, 2)))
        assert np.linalg.norm(theta) <= RADIUS + 1e-9


def test_learner_converges_on_realizable_stream():
    # y ~ Bernoulli(<theta_true, x>) with theta_true in the radius ball:
    # squared-loss regret stays logarithmic, so the average excess vanishes
    rng = np.random.default_rng(21)
    theta_true = np.array([1.0, -0.6])
    T = 4000
    theta, inv = _fresh(2)
    excess = 0.0
    for t in range(T):
        x = np.array([0.5, rng.uniform(-0.8, 0.8)])
        p_true = float(np.clip(theta_true @ x, 0.0, 1.0))
        y = int(rng.random() < p_true)
        pred = min(max(float(theta @ x), 0.0), 1.0)
        excess += (pred - y) ** 2 - (p_true - y) ** 2
        theta, inv = ons_step(theta, inv, x, 1.0, y)
    assert excess / T < 0.02
    assert np.linalg.norm(theta - theta_true) < 0.25
