import numpy as np
import pytest

from swapcal import BETA, OMEGA, RADIUS, ons_init, ons_step


def test_constants():
    assert BETA == 1.0 / 640.0
    assert OMEGA == 102400
    assert OMEGA == pytest.approx(1.0 / (4.0 * BETA ** 2))
    assert RADIUS == 4.0


def test_init_state():
    st = ons_init(3)
    np.testing.assert_array_equal(st.theta, np.zeros(3))
    np.testing.assert_allclose(st.inv_curvature, np.eye(3) / OMEGA)
    assert st.rounds_seen == 0
    assert st.theta.shape == (3,)
    with pytest.raises(ValueError):
        st.theta[0] = 1.0   # frozen state, arrays locked


def test_first_step_hand_value():
    """d=1, x=0.5, alpha=1, y=1 from theta=0.

    grad = 2*(0-1)*0.5 = -1; curvature becomes omega+1 = 102401;
    theta = 0 + (1/beta)/102401 = 640/102401.
    """
    st = ons_step(ons_init(1), np.array([0.5]), 1.0, 1)
    assert st.theta[0] == pytest.approx(640.0 / 102401.0, abs=1e-15)
    assert st.rounds_seen == 1


def test_zero_mass_round_is_identity_up_to_counter():
    st0 = ons_init(2)
    st1 = ons_step(st0, np.array([0.5, 0.3]), 0.0, 1)
    np.testing.assert_array_equal(st1.theta, st0.theta)
    np.testing.assert_array_equal(st1.inv_curvature, st0.inv_curvature)
    assert st1.rounds_seen == 1
    # after a real step too: the same read-only arrays, counter advanced
    st2 = ons_step(st0, np.array([0.5, 0.3]), 1.0, 1)
    st3 = ons_step(st2, np.array([0.5, -0.2]), 0.0, 0)
    assert st3.theta is st2.theta and st3.inv_curvature is st2.inv_curvature
    assert not st3.theta.flags.writeable
    assert not st3.inv_curvature.flags.writeable
    assert st3.rounds_seen == 2


def test_step_is_functional():
    st0 = ons_init(2)
    ons_step(st0, np.array([0.5, 0.1]), 1.0, 0)
    np.testing.assert_array_equal(st0.theta, np.zeros(2))
    assert st0.rounds_seen == 0


def test_validation():
    st = ons_init(2)
    with pytest.raises(ValueError):
        ons_step(st, np.array([0.5]), 1.0, 1)
    with pytest.raises(ValueError):
        ons_step(st, np.array([0.5, 0.0]), 1.5, 1)
    with pytest.raises(ValueError):
        ons_step(st, np.array([0.5, 0.0]), 1.0, 2)


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
        st = ons_init(d)
        for x, a, y in steps:
            st = ons_step(st, x, a, y)
        want = _oracle_replay(steps, d)
        np.testing.assert_allclose(st.theta, want, atol=1e-7)


def test_iterates_stay_in_radius():
    rng = np.random.default_rng(9)
    st = ons_init(3)
    for _ in range(300):
        x = rng.normal(size=3) * 0.4
        x *= min(1.0, 1.0 / max(np.linalg.norm(x), 1e-12))
        st = ons_step(st, x, float(rng.random()), int(rng.integers(0, 2)))
        assert np.linalg.norm(st.theta) <= RADIUS + 1e-9


def test_learner_converges_on_realizable_stream():
    # y ~ Bernoulli(<theta_true, x>) with theta_true in the radius ball:
    # squared-loss regret stays logarithmic, so the average excess vanishes
    rng = np.random.default_rng(21)
    theta_true = np.array([1.0, -0.6])
    T = 4000
    st = ons_init(2)
    excess = 0.0
    for t in range(T):
        x = np.array([0.5, rng.uniform(-0.8, 0.8)])
        p_true = float(np.clip(theta_true @ x, 0.0, 1.0))
        y = int(rng.random() < p_true)
        pred = min(max(float(st.theta @ x), 0.0), 1.0)
        excess += (pred - y) ** 2 - (p_true - y) ** 2
        st = ons_step(st, x, 1.0, y)
    assert excess / T < 0.02
    assert np.linalg.norm(st.theta - theta_true) < 0.25
