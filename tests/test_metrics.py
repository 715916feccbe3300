import functools

import numpy as np
import pytest

from swapcal import (AdversarySpec, BmForecaster, LinearFn, LossSpec,
                     NumericFailure, PreconditionError, Transcript,
                     absolute_loss, bm_external_regrets, cal, cell_sums,
                     cover_class, cover_thetas, custom_loss, estimate_dsmcal,
                     estimate_dsomni, estimate_saerr, evaluate_metric,
                     finite_class, generate_stream, linear_ball, make_grid,
                     mcal, psmcal, psreg, realized_weights, run_online,
                     simulate_run, smcal, somni, sreg, squared_loss,
                     train_mixture, vshaped_loss, witness_f_prime)
from swapcal import metrics as metrics_mod
from swapcal.batch import _bucket_weights
from swapcal.core import COND_DIST_TOL, affine_restricted
from swapcal.forecaster import commit_round, lockstep_rounds, rround
from swapcal.harness import METRICS, parse_class_spec
from swapcal.metrics import DEFAULT_LOSSES

from oracles import constrained_lstsq


def _random_transcript(rng, T, d, n):
    """Arbitrary valid transcript: contexts in the ball, simplex rows,
    labels and sampled cells unrelated to each other."""
    if d > 1:
        tails = rng.normal(size=(T, d - 1)) * 0.3
        norms = np.linalg.norm(tails, axis=1)
        big = norms > 0.85
        tails[big] *= (0.85 / norms[big])[:, None]
        X = np.hstack([np.full((T, 1), 0.5), tails])
    else:
        X = np.full((T, 1), 0.5)
    P = rng.random((T, n + 1)) ** 3 + 1e-9
    P /= P.sum(axis=1, keepdims=True)
    pi = rng.integers(0, n + 1, size=T)
    y = rng.integers(0, 2, size=T)
    return Transcript(make_grid(n), X, P, pi, y)


def _forecaster_transcript(rng, T, d, n, seed):
    X, y = np.zeros((T, d)), np.zeros(T, dtype=int)
    for t in range(T):
        tail = rng.normal(size=d - 1) * 0.3
        nt = np.linalg.norm(tail)
        if nt > 0.8:
            tail *= 0.8 / nt
        X[t] = np.concatenate([[0.5], tail])
        y[t] = rng.integers(0, 2)
    return run_online(BmForecaster(make_grid(n), d, seed=seed), (X, y))


# ---------------------------------------------------------------------------
# cell sums


def _sums(tr, pseudo):
    CW = (tr.cond_dists if pseudo else realized_weights(tr)).T
    return cell_sums(tr.contexts, tr.outcomes.astype(float), CW,
                     tr.grid.points)


def test_cell_sums_direct_sums():
    g = make_grid(2)
    x = np.array([0.5, 0.25])
    X = np.tile(x, (2, 1))
    P = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    tr = Transcript(g, X, P, [1, 1], [1, 0])
    s = _sums(tr, pseudo=False)
    assert s.mass[1] == 2
    assert _sums(tr, pseudo=True).mass[1] == pytest.approx(2.0)
    np.testing.assert_allclose(s.R[1], x * (1 - 0.5) + x * (0 - 0.5))
    np.testing.assert_allclose(s.R[0], [0.0, 0.0])
    assert s.S[1] == 0.0 and s.SS[1] == pytest.approx(0.5)
    np.testing.assert_allclose(s.A[1], 2.0 * np.outer(x, x))
    np.testing.assert_allclose(s.A[0], 0.0)


def test_cell_sums_match_per_round_loop():
    rng = np.random.default_rng(0)
    tr = _random_transcript(rng, 60, 3, 4)
    for pseudo in (False, True):
        W = tr.cond_dists if pseudo else realized_weights(tr)
        s = _sums(tr, pseudo)
        for c, z in enumerate(tr.grid.points):
            want = [0.0, 0.0, 0.0, np.zeros(3), np.zeros((3, 3))]
            for t in range(tr.horizon):
                w, x, r = W[t, c], tr.contexts[t], tr.outcomes[t] - z
                want[0] += w
                want[1] += w * r
                want[2] += w * r * r
                want[3] = want[3] + w * r * x
                want[4] = want[4] + w * np.outer(x, x)
            for got, exp in zip((s.mass[c], s.S[c], s.SS[c], s.R[c], s.A[c]),
                                want):
                np.testing.assert_allclose(got, exp, rtol=1e-12, atol=1e-12)


def test_cell_sums_partition():
    rng = np.random.default_rng(0)
    tr = _random_transcript(rng, 60, 3, 4)
    assert np.sum(_sums(tr, pseudo=False).mass) == 60
    assert np.sum(_sums(tr, pseudo=True).mass) == pytest.approx(60, abs=1e-6)


def test_cell_sums_point_mass_collapses():
    rng = np.random.default_rng(1)
    tr = _random_transcript(rng, 30, 2, 3)
    point = Transcript(tr.grid, tr.contexts, realized_weights(tr),
                       tr.sampled_indices, tr.outcomes)
    real, pseudo = _sums(point, pseudo=False), _sums(point, pseudo=True)
    for got, want in zip((pseudo.mass, pseudo.S, pseudo.SS, pseudo.R, pseudo.A),
                         (real.mass, real.S, real.SS, real.R, real.A)):
        np.testing.assert_allclose(got, want)


# ---------------------------------------------------------------------------
# sup-style calibration metrics


def test_smcal_single_round_value():
    # one round at cell 0, y=1, x=(.5,.5): sup correlation is ||x|| over the
    # unit ball, contributing 1 * (||x||)^2 = 0.5
    g = make_grid(1)
    tr = Transcript(g, [[0.5, 0.5]], [[1.0, 0.0]], [0], [1])
    rep = smcal(tr, linear_ball(1.0), 2)
    assert rep.value == pytest.approx(0.5, abs=1e-12)
    assert rep.name == "smcal2"
    assert rep.class_descriptor == "linear-ball(r=1)"


def test_smcal_cancellation():
    g = make_grid(2)
    X = np.array([[0.5, 0.3], [0.5, 0.3]])
    P = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    tr = Transcript(g, X, P, [1, 1], [1, 0])
    assert smcal(tr, linear_ball(1.0), 2).value == pytest.approx(0.0, abs=1e-12)


def test_smcal_zero_function_class():
    rng = np.random.default_rng(2)
    tr = _random_transcript(rng, 40, 2, 3)
    zero = finite_class(np.zeros((1, 2)))
    assert smcal(tr, zero, 2).value == 0.0


def test_psmcal_half_half_round():
    # P uniform on {0, 1} grid, y=1: cell 0 holds mass .5 with correlation
    # ||x|| = sqrt(.5); cell 1's residual (y-1) vanishes
    g = make_grid(1)
    tr = Transcript(g, [[0.5, 0.5]], [[0.5, 0.5]], [0], [1])
    assert psmcal(tr, linear_ball(1.0), 2).value == pytest.approx(0.25, abs=1e-12)


def test_point_mass_pseudo_equals_realized():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tr = _random_transcript(rng, 50, 2, 3)
        point = Transcript(tr.grid, tr.contexts, realized_weights(tr),
                           tr.sampled_indices, tr.outcomes)
        for hc in (linear_ball(1.0), linear_ball(4.0)):
            for q in (1, 2):
                assert psmcal(point, hc, q).value == \
                    pytest.approx(smcal(point, hc, q).value, abs=1e-10)
        assert psreg(point, linear_ball(4.0)).value == \
            pytest.approx(sreg(point, linear_ball(4.0)).value, abs=1e-10)


def _naive_sup_metric(tr, members, q, pseudo):
    """Triple-loop reimplementation for an explicit function list."""
    W = tr.cond_dists if pseudo else realized_weights(tr)
    z = tr.grid.points
    total = 0.0
    for c in range(tr.grid.size):
        mass = float(W[:, c].sum())
        if mass == 0.0:
            continue
        best = 0.0
        for f in members:
            s = 0.0
            for t in range(tr.horizon):
                s += W[t, c] * float(f(tr.contexts[t])) * (tr.outcomes[t] - z[c])
            best = max(best, abs(s))
        total += mass * (best / mass) ** q
    return total


def test_smcal_finite_matches_naive_loops(monkeypatch):
    rng = np.random.default_rng(4)
    for _ in range(5):
        tr = _random_transcript(rng, 30, 2, 3)
        members = [LinearFn(rng.normal(size=2)) for _ in range(6)]
        hc = finite_class([f.theta for f in members])
        # all members in one block, then blocks of 1 and of 2 of the 4 cells
        for chunk in (metrics_mod.OMNI_CHUNK, 4, 8):
            monkeypatch.setattr(metrics_mod, "OMNI_CHUNK", chunk)
            for q in (1, 2):
                got = smcal(tr, hc, q).value
                want = _naive_sup_metric(tr, members, q, pseudo=False)
                assert got == pytest.approx(want, abs=1e-9)
                gotp = psmcal(tr, hc, q).value
                wantp = _naive_sup_metric(tr, members, q, pseudo=True)
                assert gotp == pytest.approx(wantp, abs=1e-9)


def test_smcal_ball_matches_dense_direction_scan():
    # closed-form support function against 40k boundary directions
    rng = np.random.default_rng(5)
    angles = np.linspace(0.0, 2.0 * np.pi, 40_000, endpoint=False)
    for r in (1.0, 4.0):
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1) * r
        members = [LinearFn(t) for t in dirs]
        tr = _random_transcript(rng, 25, 2, 2)
        for q in (1, 2):
            got = smcal(tr, linear_ball(r), q).value
            W = realized_weights(tr)
            z = tr.grid.points
            want = 0.0
            for c in range(tr.grid.size):
                mass = W[:, c].sum()
                if mass == 0:
                    continue
                E = W[:, c] * (tr.outcomes - z[c])
                R = E @ tr.contexts
                best = float(np.max(np.abs(dirs @ R)))
                want += mass * (best / mass) ** q
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_smcal_cover_vs_ball_sandwich():
    rng = np.random.default_rng(6)
    tr = _random_transcript(rng, 40, 2, 3)
    ball = smcal(tr, linear_ball(1.0), 1).value
    cov = smcal(tr, cover_class(0.05, 1.0), 1).value
    assert cov <= ball + 1e-9
    # each per-cell sup moves by at most eps * mass under the cover
    assert ball - cov <= 0.05 * tr.horizon + 1e-9


def test_affine_restricted_sup_formula():
    rng = np.random.default_rng(7)
    tr = _random_transcript(rng, 30, 2, 2)
    got = smcal(tr, affine_restricted(), 1).value
    # brute force over the (affine) class via a fine theta circle
    angles = np.linspace(0.0, 2.0 * np.pi, 30_000, endpoint=False)
    radii = np.linspace(0.05, 1.0, 20)
    thetas = np.concatenate([np.stack([np.cos(angles), np.sin(angles)], 1) * r
                             for r in radii])
    W = realized_weights(tr)
    z = tr.grid.points
    want = 0.0
    for c in range(tr.grid.size):
        mass = W[:, c].sum()
        if mass == 0:
            continue
        E = W[:, c] * (tr.outcomes - z[c])
        vals = 0.5 * (1.0 + thetas @ tr.contexts.T)
        best = float(np.max(np.abs(vals @ E)))
        want += mass * (best / mass)
    assert got == pytest.approx(want, rel=1e-4, abs=1e-9)


def test_metric_report_shape():
    rng = np.random.default_rng(8)
    tr = _random_transcript(rng, 20, 2, 2)
    rep = smcal(tr, linear_ball(1.0), 2)
    d = rep.as_dict()
    assert set(d) == {"name", "value", "class", "notes"}
    assert "per_cell_sup" in rep.extras
    import json
    assert json.loads(rep.to_json())["name"] == "smcal2"


def test_q_validation():
    rng = np.random.default_rng(9)
    tr = _random_transcript(rng, 10, 2, 2)
    with pytest.raises(ValueError):
        smcal(tr, linear_ball(1.0), 3)


# ---------------------------------------------------------------------------
# mcal / cal


def test_single_round_cal():
    g = make_grid(1)
    tr = Transcript(g, [[0.5, 0.0]], [[1.0, 0.0]], [0], [1])
    assert cal(tr, 2).value == pytest.approx(1.0)


def test_cal_balanced_residuals_vanish():
    g = make_grid(2)
    X = np.tile([0.5, 0.1], (4, 1))
    P = np.tile([0.0, 1.0, 0.0], (4, 1))
    tr = Transcript(g, X, P, [1, 1, 1, 1], [1, 0, 0, 1])
    assert cal(tr, 2).value == pytest.approx(0.0, abs=1e-12)


def test_mcal_finite_matches_naive_and_sits_below_smcal():
    rng = np.random.default_rng(10)
    for _ in range(5):
        tr = _random_transcript(rng, 30, 2, 3)
        members = [LinearFn(rng.normal(size=2)) for _ in range(5)]
        hc = finite_class([f.theta for f in members])
        got = mcal(tr, hc, 2).value
        W = realized_weights(tr)
        z = tr.grid.points
        best = 0.0
        for f in members:
            total = 0.0
            for c in range(tr.grid.size):
                mass = W[:, c].sum()
                if mass == 0:
                    continue
                s = sum(W[t, c] * float(f(tr.contexts[t]))
                        * (tr.outcomes[t] - z[c]) for t in range(tr.horizon))
                total += mass * (abs(s) / mass) ** 2
            best = max(best, total)
        assert got == pytest.approx(best, abs=1e-9)
        assert got <= smcal(tr, hc, 2).value + 1e-12


def test_mcal_ball_uses_disclosed_cover():
    rng = np.random.default_rng(11)
    tr = _random_transcript(rng, 50, 2, 3)
    rep = mcal(tr, linear_ball(1.0), 2)
    assert "eps" in rep.notes
    assert rep.value <= smcal(tr, linear_ball(1.0), 2).value + 1e-9


def _dense_mcal(tr, hc, q, cap):
    """mcal by the (members x T) evaluation matrix: the slow oracle."""
    if hc.kind == "cover":
        thetas = cover_thetas(hc.epsilon, hc.radius, tr.d)
    else:
        eps = 1.0 / np.sqrt(tr.horizon)
        while len(cover_thetas(eps, hc.radius, tr.d, cap=10 ** 9)) > cap:
            eps *= 2.0
        thetas = cover_thetas(eps, hc.radius, tr.d)
    vals = thetas @ tr.contexts.T
    if hc.kind == "affine-restricted":
        vals = 0.5 * (1.0 + vals)
    IND = realized_weights(tr)
    numer = vals @ (IND * (tr.outcomes[:, None] - tr.grid.points[None, :]))
    counts = IND.sum(axis=0)
    nz = counts > 0
    rho = numer[:, nz] / counts[nz]
    return float(np.max(np.sum(counts[nz] * np.abs(rho) ** q, axis=1)))


@pytest.mark.parametrize("hc", [linear_ball(1.0), linear_ball(4.0),
                                affine_restricted(), cover_class(0.3, 1.0)])
def test_mcal_theta_classes_match_dense_evaluation(hc, monkeypatch):
    rng = np.random.default_rng(12)
    tr = _random_transcript(rng, 60, 2, 3)
    for q in (1, 2):
        for cap in (10 ** 6, 100):
            want = _dense_mcal(tr, hc, q, cap)
            monkeypatch.setattr(metrics_mod, "cover_thetas",
                                functools.partial(cover_thetas, cap=cap))
            # members in one block, then blocks of 1 and of 2 of the 4 cells
            for chunk in (2 ** 20, 4, 8):
                monkeypatch.setattr(metrics_mod, "OMNI_CHUNK", chunk)
                got = mcal(tr, hc, q).value
                assert got == pytest.approx(want, rel=1e-12)


def test_mcal_ball_memory_bounded():
    """mcal2 over the unit ball at T = 4096, d = 2 holds per-cell residuals,
    not a (members x T) matrix (16641 x 4096 floats, 545 MB)."""
    import tracemalloc

    tr = _random_transcript(np.random.default_rng(13), 4096, 2, 9)
    tracemalloc.start()
    try:
        mcal(tr, linear_ball(1.0), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_cal_below_mcal_when_constant_in_class():
    # f(x) = 2 x_1 = 1 lives in the radius-2 ball, and at T = 16 theta=(2,0)
    # is a point of the eps = 1/sqrt(T) = 0.25 evaluation cover
    rng = np.random.default_rng(12)
    for _ in range(5):
        tr = _random_transcript(rng, 16, 2, 3)
        assert [2.0, 0.0] in cover_thetas(0.25, 2.0, 2).tolist()
        c2 = cal(tr, 2).value
        m2 = mcal(tr, linear_ball(2.0), 2).value
        assert c2 <= m2 + 1e-9


# ---------------------------------------------------------------------------
# swap regret


def test_sreg_single_round():
    # learner pays (0-1)^2 = 1 at cell 0; theta = 2 e1 predicts 1 exactly
    g = make_grid(1)
    tr = Transcript(g, [[0.5, 0.0]], [[1.0, 0.0]], [0], [1])
    assert sreg(tr, linear_ball(4.0)).value == pytest.approx(1.0, abs=1e-9)


def test_sreg_nonnegative_when_constants_representable():
    # every grid value z is <2 z e1, x>, norm 2z <= 2, inside the radius-4
    # ball, so per-cell regret cannot go negative
    rng = np.random.default_rng(13)
    for _ in range(10):
        tr = _random_transcript(rng, 60, 3, 4)
        rep = sreg(tr, linear_ball(4.0))
        assert rep.value >= -1e-9
        assert np.all(rep.extras["per_cell_gap"] >= -1e-9)


def _polar_min_squared(X, y, w, radius, n_angles=200_000):
    """d=2 oracle: unconstrained solve if feasible, else dense boundary scan."""
    Xw = X * w[:, None]
    A = X.T @ Xw
    b = X.T @ (w * y)
    try:
        th = np.linalg.solve(A, b)
        if np.linalg.norm(th) <= radius and \
                np.linalg.norm(A @ th - b) <= 1e-9 * max(1, np.linalg.norm(b)):
            r = X @ th - y
            return float(np.sum(w * r * r))
    except np.linalg.LinAlgError:
        pass
    ang = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1) * radius
    resid = dirs @ X.T - y[None, :]
    vals = np.sum(w[None, :] * resid ** 2, axis=1)
    return float(np.min(vals))


def test_constrained_lstsq_matches_polar_oracle():
    rng = np.random.default_rng(14)
    for trial in range(25):
        T = 30
        X = np.hstack([np.full((T, 1), 0.5), rng.uniform(-0.8, 0.8, (T, 1))])
        y = rng.integers(0, 2, T).astype(float)
        w = rng.random(T) * (rng.random(T) < 0.8)
        if w.sum() == 0:
            w[0] = 1.0
        radius = float(rng.choice([0.1, 0.5, 1.0, 4.0]))
        th = constrained_lstsq(X, y, w, radius)
        assert np.linalg.norm(th) <= radius + 1e-6
        r = X @ th - y
        got = float(np.sum(w * r * r))
        want = _polar_min_squared(X, y, w, radius)
        assert got <= want + 1e-6
        assert got >= want - 1e-6


def test_constrained_lstsq_on_rank_deficient_tiny_weights():
    """All weight on one row (or on two nearly collinear rows, one of them
    at roundoff scale): the normal equations are singular to working
    precision at any weight scale, and a plain solve of them returns an
    arbitrary minimizer, possibly outside the ball. The minimum-norm
    minimizer fits the row exactly inside the ball."""
    rng = np.random.default_rng(33)
    X = np.hstack([np.full((40, 1), 0.5), rng.uniform(-0.85, 0.85, (40, 1))])
    y = rng.integers(0, 2, 40).astype(float)
    for j in range(40):
        for scale in (1.0, 1e-3, 1e-8, 1e-13, 1e-16, 1e-19):
            w = np.zeros(40)
            w[j] = scale
            th = constrained_lstsq(X, y, w, 4.0)
            assert np.linalg.norm(th) <= 4.0 + 1e-9
            assert abs(X[j] @ th - y[j]) <= 1e-9
    X2 = np.array([[0.5, -0.86362652], [0.5, -0.84546018]])
    th = constrained_lstsq(X2, np.array([0.0, 1.0]),
                           np.array([1.3045e-15, 6.9305e-3]), 4.0)
    assert np.linalg.norm(th) <= 4.0 + 1e-9
    assert abs(X2[1] @ th - 1.0) <= 1e-6


@pytest.mark.parametrize("d", [2, 3, 5])
def test_min_squared_over_the_affine_class_matches_lstsq(d):
    """The affine class (1 + <theta, x>)/2, ||theta|| <= 1, is least squares
    of y - 1/2 on x/2 over the unit ball: per cell, with realized weights
    (the sreg path, empty cells included) and pseudo weights (psreg)."""
    rng = np.random.default_rng(70 + d)
    tr = _random_transcript(rng, 80, d, 6)
    tr = Transcript(tr.grid, tr.contexts, tr.cond_dists,
                    tr.sampled_indices // 2 * 2, tr.outcomes)
    X, y = tr.contexts, tr.outcomes.astype(float)
    assert not realized_weights(tr)[:, 1::2].any()
    for CW in (realized_weights(tr).T, tr.cond_dists.T):
        mins, note = metrics_mod.per_cell_min_squared(X, y, CW,
                                                      affine_restricted())
        assert "affine class" in note
        for c, w in enumerate(CW):
            want = 0.0
            if w.sum() > 0:
                th = constrained_lstsq(0.5 * X, y - 0.5, w, 1.0)
                want = float(np.sum(w * ((1.0 + X @ th) / 2.0 - y) ** 2))
            assert mins[c] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_sreg_finite_class_matches_naive():
    rng = np.random.default_rng(15)
    tr = _random_transcript(rng, 30, 2, 3)
    members = [LinearFn(rng.normal(size=2) * 2) for _ in range(6)]
    hc = finite_class([f.theta for f in members])
    got = sreg(tr, hc).value
    W = realized_weights(tr)
    z = tr.grid.points
    want = 0.0
    for c in range(tr.grid.size):
        mass = W[:, c].sum()
        if mass == 0:
            continue
        learner = sum(W[t, c] * (z[c] - tr.outcomes[t]) ** 2
                      for t in range(tr.horizon))
        comp = min(sum(W[t, c] * (float(f(tr.contexts[t])) - tr.outcomes[t]) ** 2
                       for t in range(tr.horizon)) for f in members)
        want += learner - comp
    assert got == pytest.approx(want, abs=1e-9)


def test_bm_external_regrets_bound_pseudo_swap_regret():
    rng = np.random.default_rng(16)
    for trial in range(8):
        tr = _forecaster_transcript(rng, 80, 2, 3, seed=trial)
        for hc in (linear_ball(4.0),
                   finite_class([rng.normal(size=2) for _ in range(5)])):
            regs = bm_external_regrets(tr, hc)
            assert regs.shape == (4,)
            assert psreg(tr, hc).value <= float(np.sum(regs)) + 1e-8


def _committed_matrices(tr):
    """The rounding matrices (T, K, K) that a fresh forecaster's own
    predict/update loop commits on tr's stream."""
    fc, Qs = BmForecaster(tr.grid, tr.d), []
    for x, yt in zip(tr.contexts, tr.outcomes):
        out = fc.predict(x)
        Qs.append(out.q_matrix)
        fc.update(out, int(yt), x)
    return np.array(Qs)


def test_bm_external_regrets_replays_the_proposals(tmp_path):
    """A run records no proposals: a run and its JSONL round trip give the
    same regrets, those of the matrices its predict calls committed."""
    tr = _forecaster_transcript(np.random.default_rng(17), 60, 2, 3, seed=0)
    tr.write_jsonl(tmp_path / "tr.jsonl")
    back = Transcript.read_jsonl(tmp_path / "tr.jsonl")
    hc = linear_ball(4.0)
    got = bm_external_regrets(tr, hc)
    assert np.array_equal(bm_external_regrets(back, hc), got)
    z, y, P = tr.grid.points, tr.outcomes.astype(float), tr.cond_dists
    qdot = np.einsum("tj,tji->ti", (z[None, :] - y[:, None]) ** 2,
                     _committed_matrices(tr))
    mins, _ = metrics_mod.per_cell_min_squared(tr.contexts, y, P.T.copy(), hc)
    np.testing.assert_allclose(got, np.sum(P * qdot, axis=0) - mins,
                               rtol=1e-12)


def _bm_external_regrets_by_hand(tr, hc):
    """The replay of bm_external_regrets as its own predict/update loop,
    with each round's proposals taken from commit_round before predict: the
    reference oracle."""
    y, P = tr.outcomes.astype(float), tr.cond_dists
    mins, _ = metrics_mod.per_cell_min_squared(tr.contexts, y, P.T.copy(), hc)
    fc, W = BmForecaster(tr.grid, tr.d), np.empty_like(P)
    for t, (x, yt) in enumerate(zip(tr.contexts, tr.outcomes.tolist())):
        W[t] = commit_round(fc.thetas, x, fc.grid)[0]
        out = fc.predict(x)
        assert np.max(np.abs(out.cond_dist - P[t])) <= COND_DIST_TOL
        fc.update(out, yt, x)
    L = (tr.grid.points[None, :] - y[:, None]) ** 2
    qdot = np.einsum("tj,tji->ti", L, rround(W, tr.grid))
    return np.sum(P * qdot, axis=0) - mins


def test_bm_external_regrets_matches_a_predict_update_replay():
    """bm_external_regrets replays through lockstep_rounds; over 24 runs it
    equals the hand replay bit for bit, on the ball and on a finite class."""
    rng = np.random.default_rng(23)
    for run in range(24):
        d, n = 2 + run % 3, 1 + run % 5
        tr = _forecaster_transcript(rng, 50, d, n, seed=run)
        for hc in (linear_ball(4.0),
                   finite_class([rng.normal(size=d) for _ in range(4)])):
            assert np.array_equal(bm_external_regrets(tr, hc),
                                  _bm_external_regrets_by_hand(tr, hc))


@pytest.mark.parametrize("T, n", [(200, 49), (400, 99)])
def test_bm_external_regrets_reads_two_points_per_rounding(T, n):
    """Each rounding has two points: bm_external_regrets equals the dense
    contraction with the (T, K, K) stack rround(W) bit for bit, and at
    (T, N) = (400, 99), where that stack alone is 31 MiB, it peaks under
    4 MiB."""
    import tracemalloc

    tr = _forecaster_transcript(np.random.default_rng(29), T, 2, n, seed=0)
    hc = linear_ball(4.0)
    tracemalloc.start()
    try:
        got = bm_external_regrets(tr, hc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rounds = lockstep_rounds([BmForecaster(tr.grid, tr.d)],
                             [(tr.contexts, tr.outcomes)])
    W = np.array([w[0] for _, w, _ in rounds])
    y, P = tr.outcomes.astype(float), tr.cond_dists
    L = (tr.grid.points[None, :] - y[:, None]) ** 2
    qdot = np.einsum("tj,tji->ti", L, rround(W, tr.grid))
    mins, _ = metrics_mod.per_cell_min_squared(tr.contexts, y, P.T.copy(), hc)
    assert np.array_equal(got, np.sum(P * qdot, axis=0) - mins)
    if n == 99:
        assert peak <= 4 * 2 ** 20, peak


def test_bm_external_regrets_rejects_a_transcript_not_the_forecasters():
    tr = _random_transcript(np.random.default_rng(17), 20, 2, 2)
    with pytest.raises(ValueError, match="round 1 of 20 is not the "
                                         "forecaster's"):
        bm_external_regrets(tr, linear_ball(4.0))


def _dense_min_squared(X, y, CW, thetas):
    """Per-cell least weighted squared loss over explicit theta members, by
    the (members x T) evaluation matrix: the slow oracle."""
    return np.min(((thetas @ X.T - y[None, :]) ** 2) @ CW.T, axis=0)


@pytest.mark.parametrize("d, hc", [(3, cover_class(0.3, 1.0)),
                                   (2, cover_class(0.05, 4.0))])
def test_swap_regret_cover_matches_dense_enumeration(d, hc):
    rng = np.random.default_rng(26)
    tr = _forecaster_transcript(rng, 120, d, 4, seed=5)
    thetas = cover_thetas(hc.epsilon, hc.radius, d)
    X, y, z = tr.contexts, tr.outcomes.astype(float), tr.grid.points
    for metric, CW in ((sreg, realized_weights(tr).T), (psreg, tr.cond_dists.T)):
        learner = np.sum(CW * (z[:, None] - y[None, :]) ** 2, axis=1)
        nz = CW.sum(axis=1) > 0
        want = learner[nz] - _dense_min_squared(X, y, CW, thetas)[nz]
        assert metric(tr, hc).value == pytest.approx(float(np.sum(want)),
                                                     rel=1e-12)
    P = tr.cond_dists
    qdot = np.einsum("tj,tji->ti", (z[None, :] - y[:, None]) ** 2,
                     _committed_matrices(tr))
    want = np.sum(P * qdot, axis=0) - _dense_min_squared(X, y, P.T, thetas)
    np.testing.assert_allclose(bm_external_regrets(tr, hc), want, rtol=1e-12)


def test_min_squared_cover_memory_bounded():
    """sreg over cover:0.02 (10201 members) at T = 4096, d = 2 reads per-cell
    sums, not (members x T) matrices (two of 10201 x 4096 floats, 638 MB)."""
    import tracemalloc

    tr = _random_transcript(np.random.default_rng(13), 4096, 2, 9)
    tracemalloc.start()
    try:
        sreg(tr, cover_class(0.02, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_enumerated_tables_memory_bounded():
    """On a one-record transcript at N = 999 the cover:0.02 tables are
    10201 members x 1000 cells: 156 MB for smcal2's |thetas @ R.T| and
    78 MB each for mcal2's numerators and somni's comparator losses. Members
    go OMNI_CHUNK table entries at a time instead."""
    import tracemalloc

    P = np.zeros((1, 1000))
    P[0, 3] = 1.0
    tr = Transcript(make_grid(999), [[0.5, 0.2]], P, [3], [1])
    hc = cover_class(0.02, 1.0)
    for report in (lambda: smcal(tr, hc, 2), lambda: mcal(tr, hc, 2),
                   lambda: somni(tr, hc=hc)):
        tracemalloc.start()
        try:
            report()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


# ---------------------------------------------------------------------------
# enumerated classes: a finite class is its theta stack


@pytest.mark.parametrize("d, eps, r", [(2, 0.1, 1.0), (3, 0.3, 2.0)])
def test_finite_class_of_cover_thetas_matches_cover(d, eps, r):
    """Finite and cover classes share one path: a finite class holding a
    cover's thetas reports the cover's values on every report."""
    rng = np.random.default_rng(40 + d)
    cov = cover_class(eps, r)
    fin = finite_class(cover_thetas(eps, r, d))
    tr = _forecaster_transcript(rng, 150, d, 4, seed=d)
    for name in set(METRICS) - {"cal2"}:  # cal2 reads no class
        want = evaluate_metric(tr, name, hc=cov).value
        assert evaluate_metric(tr, name, hc=fin).value == \
            pytest.approx(want, rel=1e-12), name
    np.testing.assert_allclose(bm_external_regrets(tr, fin),
                               bm_external_regrets(tr, cov), rtol=1e-12)
    spec = AdversarySpec("iid-logistic", noise=0.1)
    mix = train_mixture(generate_stream(spec, 96, d, seed=d), 3, stride=8)
    test = generate_stream(spec, 40, d, seed=d + 1)
    for est in (estimate_saerr, estimate_dsmcal, estimate_dsomni):
        want = est(mix, test, hc=cov).value
        assert est(mix, test, hc=fin).value == \
            pytest.approx(want, rel=1e-12), est.__name__


def test_finite_class_dimension_mismatch():
    rng = np.random.default_rng(41)
    tr = _forecaster_transcript(rng, 30, 2, 3, seed=0)
    wide = finite_class(np.ones((2, 3)))
    for run in (lambda: smcal(tr, wide, 2), lambda: mcal(tr, wide, 2),
                lambda: sreg(tr, wide), lambda: somni(tr, hc=wide),
                lambda: bm_external_regrets(tr, wide)):
        with pytest.raises(ValueError, match="dimension 3, the contexts "
                                             "have d = 2"):
            run()


# ---------------------------------------------------------------------------
# omniprediction


def _dense_omni_gap(X, y, CW, z, losses, thetas):
    """Per-cell omniprediction gaps and comparator table over explicit theta
    members, one (members x T) evaluation per (cell, loss): the slow
    oracle."""
    vals = thetas @ X.T
    gaps = np.zeros(len(CW))
    achieved = np.zeros((len(CW), len(losses)))
    for c in np.flatnonzero(CW.sum(axis=1) > 0):
        w = CW[c]
        best = -np.inf
        for j, loss in enumerate(losses):
            learner = float(np.sum(w * loss(loss.post_process(z[c]), y)))
            comp = float(np.min(np.sum(w[None, :] * loss(vals, y[None, :]),
                                       axis=1)))
            achieved[c, j] = comp
            best = max(best, learner - comp)
        gaps[c] = best
    return gaps, achieved


_MENU = list(DEFAULT_LOSSES) + [custom_loss(lambda p, y: 0.5 * (p - y) ** 2,
                                            lipschitz_bound=1.0)]


@pytest.mark.parametrize("chunk", [None, 1, 1000])
@pytest.mark.parametrize("kind", ["finite", "cover"])
def test_omni_enumerated_matches_dense_evaluation(kind, chunk, monkeypatch):
    """somni and dsomni over enumerated classes against the per-(cell,
    loss) dense evaluation, with the member chunks of every size from one
    member to all of them."""
    if chunk is not None:
        monkeypatch.setattr(metrics_mod, "OMNI_CHUNK", chunk)
    rng = np.random.default_rng(42)
    hc = finite_class(rng.normal(size=(13, 2)) * 0.6) if kind == "finite" \
        else cover_class(0.2, 1.0)
    thetas = hc.thetas if kind == "finite" else cover_thetas(0.2, 1.0, 2)
    tr = _forecaster_transcript(rng, 200, 2, 4, seed=3)
    rep = somni(tr, losses=_MENU, hc=hc)
    gaps, achieved = _dense_omni_gap(
        tr.contexts, tr.outcomes.astype(float), realized_weights(tr).T,
        tr.grid.points, _MENU, thetas)
    assert rep.value == pytest.approx(float(np.sum(gaps)), rel=1e-12)
    np.testing.assert_allclose(rep.extras["per_cell_gap"], gaps, rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_allclose(rep.extras["achieved_comparator_loss"],
                               achieved, rtol=1e-12, atol=1e-12)
    spec = AdversarySpec("iid-logistic", noise=0.1)
    mix = train_mixture(generate_stream(spec, 96, 2, seed=4), 3, stride=8)
    X, y = generate_stream(spec, 40, 2, seed=5)
    gaps, _ = _dense_omni_gap(X, y.astype(float), _bucket_weights(mix, X),
                              mix.grid.points, _MENU, thetas)
    got = estimate_dsomni(mix, (X, y), losses=_MENU, hc=hc).value
    assert got == pytest.approx(float(np.sum(gaps)), rel=1e-12)


@pytest.mark.parametrize("radius", [1.0, 4.0])
def test_somni_rejects_a_ball_class(radius):
    tr = _random_transcript(np.random.default_rng(42), 30, 2, 3)
    with pytest.raises(ValueError, match="affine-restricted or an "
                                         "enumerable class, got linear-ball"):
        somni(tr, hc=linear_ball(radius))


def test_somni_cover_memory_bounded():
    """somni over cover:0.05 (1681 members) at T = 4096, d = 2 fills its
    (cells x losses) comparator table in member chunks, never holding a
    (members x T) matrix (1681 x 4096 floats, 55 MB, several at once)."""
    import tracemalloc

    tr = _random_transcript(np.random.default_rng(13), 4096, 2, 9)
    tracemalloc.start()
    try:
        somni(tr, hc=cover_class(0.05, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_somni_squared_menu_matches_exact_minimum():
    # with the squared loss alone, the inner problem has a closed form via
    # the transformed least squares; the subgradient solver must land close
    rng = np.random.default_rng(18)
    for trial in range(5):
        tr = _random_transcript(rng, 40, 2, 3)
        rep = somni(tr, losses=[squared_loss()])
        W = realized_weights(tr)
        z = tr.grid.points
        want = 0.0
        for c in range(tr.grid.size):
            w = W[:, c]
            if w.sum() == 0:
                continue
            learner = float(np.sum(w * (z[c] - tr.outcomes) ** 2))
            comp = _polar_min_squared(0.5 * tr.contexts,
                                      tr.outcomes - 0.5, w, 1.0)
            want += learner - comp
        assert rep.value == pytest.approx(want, abs=2e-3 * max(1.0, abs(want)))
        # the solver evaluates true objectives, so it can only overshoot the
        # minimum: reported somni never exceeds the exact gap
        assert rep.value <= want + 1e-9


def test_somni_notes_disclose_everything():
    rng = np.random.default_rng(19)
    tr = _random_transcript(rng, 20, 2, 2)
    rep = somni(tr)
    assert "vshaped(0.5)" in rep.notes
    assert "subgradient" in rep.notes
    assert rep.class_descriptor == "affine-restricted"
    assert "per_cell_gap" in rep.extras


def test_somni_vshaped_stops_at_zero_subgradient(monkeypatch):
    """A V-shaped loss has derivative 0, so every cell takes one subgradient
    and stays put at theta = 0: the value is the OMNI_ITERS = 1 value, and
    each V-shaped loss calls deriv once, on the nonzero-weight rows of every
    cell together."""
    rng = np.random.default_rng(27)
    tr = _random_transcript(rng, 40, 2, 3)
    menu = [vshaped_loss(0.25), vshaped_loss(0.5)]
    with monkeypatch.context() as m:
        m.setattr(metrics_mod, "OMNI_ITERS", 1)
        want = somni(tr, losses=menu).value
    calls = []
    deriv = LossSpec.deriv

    def counting(self, p, y):
        calls.append((self.name, np.shape(p)))
        return deriv(self, p, y)

    monkeypatch.setattr(LossSpec, "deriv", counting)
    got = somni(tr, losses=menu).value
    nnz = np.count_nonzero(realized_weights(tr))
    assert calls == [(loss.name, (nnz,)) for loss in menu]
    assert got == want


def _min_affine_res_oracle(loss, X, w, y, iters):
    """The per-(cell, loss) descent that metrics._min_ball_losses batches
    for the affine class:
    projected subgradient minimization of the w-weighted loss of
    (1 + <theta, x>)/2 over the unit ball from theta = 0, the best objective
    over all iterates; it stops at an exactly zero subgradient. The slow
    oracle."""
    nz = w > 0
    Xc, wc, yc = X[nz], w[nz], y[nz]
    th = np.zeros(X.shape[1])
    best = np.inf
    for k in range(1, iters + 2):
        p = 0.5 * (1.0 + Xc @ th)
        best = min(best, float(np.sum(wc * loss(p, yc))))
        if k > iters:
            break
        g = 0.5 * (Xc.T @ (wc * loss.deriv(p, yc)))
        if not g.any():
            break
        th = th - g / np.sqrt(k)
        nrm = float(np.linalg.norm(th))
        if nrm > 1.0:
            th = th / nrm
    return best


def _affine_omni_gap_oracle(X, y, CW, z, losses, iters):
    """Per-cell gaps and comparator table of the affine class, one oracle
    descent per (cell, loss) in that order."""
    gaps = np.zeros(len(CW))
    achieved = np.zeros((len(CW), len(losses)))
    for c in np.flatnonzero(CW.sum(axis=1) > 0):
        learner = np.zeros(len(losses))
        for j, loss in enumerate(losses):
            achieved[c, j] = _min_affine_res_oracle(loss, X, CW[c], y, iters)
            learner[j] = np.sum(CW[c] * loss(loss.post_process(z[c]), y))
        gaps[c] = np.max(learner - achieved[c])
    return gaps, achieved


@pytest.mark.parametrize("shift", [0, 2])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_affine_omni_descent_matches_per_pair_oracle(d, shift, monkeypatch):
    """The batched descent of per_cell_omni_gap against the per-(cell, loss)
    oracle: realized weights with empty cells (the somni path) and bucket
    weights (the dsomni path), on two data draws per d (``shift`` offsets
    every seed)."""
    menu = [squared_loss(), absolute_loss(), vshaped_loss(0.5),
            custom_loss(lambda p, y: 0.5 * (p - y) ** 2, lipschitz_bound=1.0)]
    menu[-1].certify()
    rng = np.random.default_rng(60 + d + 100 * shift)
    tr = _random_transcript(rng, 60, d, 9)
    tr = Transcript(tr.grid, tr.contexts, tr.cond_dists,
                    tr.sampled_indices // 2 * 2, tr.outcomes)
    CW = realized_weights(tr).T
    assert not CW[1::2].any() and CW[::2].sum(axis=1).all()
    cases = [(tr.contexts, tr.outcomes.astype(float), CW, tr.grid.points)]
    spec = AdversarySpec("iid-logistic", noise=0.1)
    seed = d + 100 * shift
    mix = train_mixture(generate_stream(spec, 64, d, seed=seed), 3, stride=8)
    X, y = generate_stream(spec, 24, d, seed=seed + 1)
    cases.append((X, y.astype(float), _bucket_weights(mix, X),
                  mix.grid.points))
    monkeypatch.setattr(metrics_mod, "OMNI_ITERS", 150)
    for X, y, CW, z in cases:
        gaps, achieved, _ = metrics_mod.per_cell_omni_gap(
            X, y, CW, z, menu, affine_restricted())
        want_gaps, want = _affine_omni_gap_oracle(X, y, CW, z, menu, 150)
        np.testing.assert_allclose(achieved, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gaps, want_gaps, rtol=1e-12, atol=1e-12)


def test_somni_rejects_uncertified_custom_loss():
    rng = np.random.default_rng(20)
    tr = _random_transcript(rng, 15, 2, 2)
    wavy = custom_loss(lambda p, y: 0.5 * np.sin(9 * p), lipschitz_bound=5.0)
    with pytest.raises(ValueError):
        somni(tr, losses=[wavy])


_BAD_MENUS = {
    "non-convex": ([custom_loss(lambda p, y: np.sin(6 * np.pi * p) * 0.5,
                                lipschitz_bound=10.0)],
                   "fails midpoint convexity"),
    "empty": ([], "loss menu must be non-empty"),
    "not-a-LossSpec": (["squared"], "loss menu entries must be LossSpec"),
}


@pytest.mark.parametrize("bad", list(_BAD_MENUS))
def test_both_omni_reports_check_the_loss_menu(bad):
    """somni, estimate_dsomni and the kernel under both reject the same bad
    menus with the same message."""
    losses, match = _BAD_MENUS[bad]
    tr = _forecaster_transcript(np.random.default_rng(21), 30, 2, 2, seed=0)
    mix = train_mixture((tr.contexts, tr.outcomes), 2)
    X, y = tr.contexts, tr.outcomes.astype(float)
    for call in (lambda: somni(tr, losses=losses),
                 lambda: estimate_dsomni(mix, (X, tr.outcomes), losses=losses),
                 lambda: metrics_mod.per_cell_omni_gap(
                     X, y, realized_weights(tr).T, tr.grid.points, losses,
                     affine_restricted())):
        with pytest.raises(ValueError, match=match):
            call()


def test_somni_finite_class_enumeration():
    rng = np.random.default_rng(21)
    tr = _random_transcript(rng, 30, 2, 2)
    members = [LinearFn(rng.normal(size=2) * 0.4) for _ in range(4)]
    rep = somni(tr, losses=[absolute_loss()],
                hc=finite_class([f.theta for f in members]))
    W = realized_weights(tr)
    z = tr.grid.points
    ab = absolute_loss()
    want = 0.0
    for c in range(tr.grid.size):
        w = W[:, c]
        if w.sum() == 0:
            continue
        k = 1.0 if z[c] >= 0.5 else 0.0
        learner = float(np.sum(w * np.abs(k - tr.outcomes)))
        comp = min(float(np.sum(w * np.abs(np.asarray(f(tr.contexts))
                                           - tr.outcomes))) for f in members)
        want += learner - comp
    assert rep.value == pytest.approx(want, abs=1e-9)


def test_somni_bounded_by_multiple_of_smcal():
    # convex 1-Lipschitz menu: the omniprediction gap is controlled by the
    # q=1 calibration error against the affine class, factor 6
    rng = np.random.default_rng(22)
    half_sq = custom_loss(lambda p, y: 0.5 * (p - y) ** 2, lipschitz_bound=1.0,
                          name="half-squared")
    menu = [absolute_loss(), half_sq]
    for trial in range(50):
        T = int(rng.integers(10, 80))
        tr = _random_transcript(rng, T, int(rng.integers(1, 4)),
                                int(rng.integers(1, 5)))
        s = somni(tr, losses=menu).value
        m = smcal(tr, affine_restricted(), 1).value
        assert s <= 6.0 * m + 1e-6


# ---------------------------------------------------------------------------
# witness construction


def test_witness_hand_example():
    # single round, cell 0 (z=0), y=1, f(x) = <(sqrt 2, 0), (.5, .5)> = .7071:
    # alpha = .7071, mu = .5, eta = 1, improvement = 1 - (1-.7071)^2 = .9142
    g = make_grid(1)
    tr = Transcript(g, [[0.5, 0.5]], [[1.0, 0.0]], [0], [1])
    f = LinearFn([np.sqrt(2.0), 0.0])
    fn, imp = witness_f_prime(tr, 0, f)
    alpha = np.sqrt(0.5)
    assert imp == pytest.approx(1.0 - (1.0 - alpha) ** 2, abs=1e-12)
    assert imp >= alpha ** 2 - 1e-9
    assert fn(np.array([[0.5, 0.5]]))[0] == pytest.approx(alpha)
    assert fn.eta == pytest.approx(1.0)


def test_witness_preconditions():
    g = make_grid(2)
    tr = Transcript(g, [[0.5, 0.0]], [[1.0, 0.0, 0.0]], [0], [1])
    with pytest.raises(PreconditionError):
        witness_f_prime(tr, 2, LinearFn([1.0, 0.0]))      # empty cell
    with pytest.raises(PreconditionError):
        witness_f_prime(tr, 0, LinearFn([4.0, 0.0]))      # |f| = 2 > 1
    with pytest.raises(PreconditionError):
        witness_f_prime(tr, 0, LinearFn([-1.0, 0.0]))     # negative corr
    with pytest.raises(ValueError):
        witness_f_prime(tr, 7, LinearFn([1.0, 0.0]))


# ---------------------------------------------------------------------------
# cross-metric inequalities


def test_norm_chain_between_first_and_second_moments():
    rng = np.random.default_rng(24)
    hc = linear_ball(1.0)
    for _ in range(20):
        T = int(rng.integers(10, 100))
        tr = _random_transcript(rng, T, 2, int(rng.integers(1, 5)))
        assert smcal(tr, hc, 1).value <= \
            np.sqrt(T * smcal(tr, hc, 2).value) + 1e-9
        assert psmcal(tr, hc, 1).value <= \
            np.sqrt(T * psmcal(tr, hc, 2).value) + 1e-9


def test_pseudo_calibration_below_pseudo_regret():
    rng = np.random.default_rng(25)
    for _ in range(20):
        tr = _random_transcript(rng, int(rng.integers(20, 120)),
                                int(rng.integers(1, 4)),
                                int(rng.integers(1, 5)))
        a = psmcal(tr, linear_ball(1.0), 2).value
        b = psreg(tr, linear_ball(4.0)).value
        assert a <= b + 1e-6


# ---------------------------------------------------------------------------
# frozen values


FROZEN_REPORTS = {
    "default": {
        "smcal1": 106.092324634062,
        "smcal2": 29.33586349264465,
        "psmcal1": 104.76746431647014,
        "psmcal2": 28.435988081194346,
        "mcal2": 29.11954800867957,
        "cal2": 112.7748233014136,
        "sreg": 116.4288068268714,
        "psreg": 114.1956095698658,
        "somni": 330.5,
        "saerr": 0.2859533593277308,
        "dsmcal2": 0.07429119842953376,
        "dsomni": 0.6875,
    },
    "affine-res": {
        "smcal2": 64.27387217633435,
        "mcal2": 64.1231864467509,
        "sreg": 116.2865740123742,
        "psreg": 114.19453330704629,
        "saerr": 0.2859533593277308,
        "dsmcal2": 0.14928395356287447,
    },
    "ball4": {
        "smcal2": 469.3738158823144,
        "mcal2": 466.1309089510809,
        "sreg": 116.42880682687138,
        "psreg": 114.19560956986585,
    },
    "cover:0.7": {
        "smcal2": 26.569755765456343,
        "mcal2": 26.01934144098083,
        "sreg": 21.90500786262036,
        "psreg": 19.865971403951114,
    },
}


@pytest.mark.parametrize("cls", FROZEN_REPORTS)
def test_reports_frozen_values(cls):
    """Metrics and batch reports on one fixed-seed transcript and mixture:
    every report with its default class, pinned to the values of the
    implementation that evaluated every class on the contexts, and the
    ball, affine and cover kernels under non-default classes, pinned to the
    values of the kernels that special-cased the affine class."""
    want = FROZEN_REPORTS[cls]
    spec = AdversarySpec("iid-logistic", noise=0.1)
    tr = simulate_run(spec, 400, 3, 4, seed=9)
    suffix = "" if cls == "default" else ":" + cls
    got = {name: evaluate_metric(tr, name + suffix).value
           for name in METRICS if name in want}
    mix = train_mixture(generate_stream(spec, 256, 3, seed=10), 4, stride=8)
    test = generate_stream(spec, 64, 3, seed=11)
    hc = None if cls == "default" else parse_class_spec(cls)
    for name, estimate in (("saerr", estimate_saerr),
                           ("dsmcal2", estimate_dsmcal),
                           ("dsomni", estimate_dsomni)):
        if name in want:
            got[name] = estimate(mix, test, hc=hc).value
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-12), name


# ---------------------------------------------------------------------------
# one report format per family: a transcript report and its batch estimator
# come from the same builder


_CAL = {"per_cell_mass", "per_cell_sup"}
_REG = {"per_cell_mass", "per_cell_gap"}
_OMNI = {"per_cell_mass", "per_cell_gap", "achieved_comparator_loss"}
# mcal2 takes one f over every cell and cal2 one constant: neither goes
# through a per-cell builder, and both carry no extras
_EXTRAS = {"smcal1": _CAL, "smcal2": _CAL, "psmcal1": _CAL,
           "psmcal2": _CAL, "mcal2": set(), "cal2": set(), "sreg": _REG,
           "psreg": _REG, "somni": _OMNI}
_ESTIMATORS = {"saerr": (estimate_saerr, _REG),
               "dsmcal2": (estimate_dsmcal, _CAL),
               "dsomni": (estimate_dsomni, _OMNI)}


def _check_format(rep, keys, weights):
    """The family's extras keys exactly, K entries each, per_cell_mass the
    weights' row sums bit for bit, notes ending as every report's do."""
    assert set(rep.extras) == keys, rep.name
    assert all(len(arr) == len(weights) for arr in rep.extras.values())
    if keys:
        assert rep.extras["per_cell_mass"].tobytes() == \
            weights.sum(axis=1).tobytes(), rep.name
    assert rep.notes.endswith("; empty cells contribute 0"), rep.name


def test_every_transcript_report_has_its_familys_format():
    """Every METRICS report under its default class, on the weights it
    evaluates (pseudo for psmcal and psreg, realized for the rest)."""
    assert set(_EXTRAS) == set(METRICS)
    tr = simulate_run(AdversarySpec("iid-logistic", noise=0.1), 200, 3, 6,
                      seed=9)
    for name in METRICS:
        weights = (tr.cond_dists.T.copy() if name.startswith("ps")
                   else realized_weights(tr).T)
        _check_format(evaluate_metric(tr, name), _EXTRAS[name], weights)


@pytest.mark.parametrize("name", _ESTIMATORS)
def test_every_batch_report_has_its_familys_format(name):
    """The transcript report's format, on the bucket weights, behind the
    bucket weights' description."""
    spec = AdversarySpec("iid-logistic", noise=0.1)
    mix = train_mixture(generate_stream(spec, 128, 3, seed=10), 6, stride=8)
    X, y = generate_stream(spec, 40, 3, seed=11)
    estimate, keys = _ESTIMATORS[name]
    rep = estimate(mix, (X, y))
    _check_format(rep, keys, _bucket_weights(mix, X))
    assert rep.notes.startswith(
        "exhaustive enumeration over snapshots x test points; ")


def test_dsomni_sums_every_cells_gap():
    """dsomni's value is the sum of every cell's gap, as somni's is, on
    mixtures with K = 10 and 15 and empty buckets; the masked sum over the
    non-empty cells that it used to take is at most 4 ulps away."""
    spec = AdversarySpec("iid-logistic", noise=0.1)
    for n in (9, 14):
        for seed in range(6):
            mix = train_mixture(generate_stream(spec, 512, 2, seed=seed), n,
                                stride=16)
            test = generate_stream(spec, 64, 2, seed=100 + seed)
            rep = estimate_dsomni(mix, test)
            mass, gaps = (rep.extras[k]
                          for k in ("per_cell_mass", "per_cell_gap"))
            assert np.any(mass == 0) and np.count_nonzero(mass) >= 4
            assert rep.value == float(np.sum(gaps))
            masked = float(np.sum(gaps[mass > 0]))
            assert abs(rep.value - masked) <= 4 * np.spacing(masked)
