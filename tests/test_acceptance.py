"""Release acceptance checklist.

Eleven end-to-end checks covering the rounding step, the regret
decomposition, loss curvature, the improvement witness, the calibration and
regret orderings, closed-form suprema against brute-force grid search,
empirical rates on synthetic sweeps, online-to-batch error decay, and
byte-level determinism. Each check prints one [PASS]/[FAIL] line; run with
`pytest -s tests/test_acceptance.py` to watch them as they complete.

The checks in this file are deliberately self-contained: expected values and
search oracles are recomputed from first principles rather than imported
from the library under test.
"""

import time

import numpy as np
import pytest

from swapcal.batch import estimate_saerr, train_mixture
from swapcal.core import (LinearFn, Transcript, finite_class, linear_ball,
                          make_grid)
from swapcal.forecaster import choose_n, rround
from swapcal.harness import (AdversarySpec, SweepConfig, fit_rate,
                             generate_stream, run_sweep, simulate_run)
from swapcal.metrics import (bm_external_regrets, constrained_lstsq,
                             per_cell_sup_numerators, psmcal, psreg, smcal,
                             witness_f_prime)
from swapcal.ons import scaled_loss_grad, scaled_loss_value

# Transcripts produced while running the earlier checks; the norm-chain
# check re-examines every one of them.
_TRANSCRIPTS = []


def _report(ok, label, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def _ball_point(rng, d, radius):
    """Uniform draw from the radius ball in d dimensions."""
    v = rng.normal(size=d)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros(d)
    return v * (radius * rng.random() ** (1.0 / d) / norm)


def _random_transcript(rng, T, d, n):
    """Transcript with arbitrary simplex rows, not tied to any forecaster.

    Contexts keep the pinned first coordinate so they pass validation.
    """
    grid = make_grid(n)
    if d > 1:
        tails = np.stack([_ball_point(rng, d - 1, 0.85) for _ in range(T)])
        X = np.hstack([np.full((T, 1), 0.5), tails])
    else:
        X = np.full((T, 1), 0.5)
    P = rng.random((T, n + 1))
    P /= P.sum(axis=1, keepdims=True)
    idx = rng.integers(0, n + 1, size=T)
    y = rng.integers(0, 2, size=T)
    return Transcript(grid, X, P, idx, y)


def _rotating_spec(rng, k):
    kind = ("iid-logistic", "iid-bernoulli", "anti-calibration")[k % 3]
    if kind == "iid-logistic":
        return AdversarySpec(kind=kind, noise=float(rng.random() * 0.3))
    if kind == "iid-bernoulli":
        return AdversarySpec(kind=kind, bias=float(0.1 + 0.8 * rng.random()))
    return AdversarySpec(kind=kind)


def test_01_rounding_excess_and_cell_identity():
    """Rounding any p costs at most 1/N^2 extra squared loss, never less
    than zero, and the exact per-cell excess identity holds to 1e-12."""
    t0 = time.perf_counter()
    ps = np.linspace(0.0, 1.0, 1001)
    min_excess = np.inf
    min_cap_margin = np.inf
    worst_identity = 0.0
    for n in range(1, 65):
        grid = make_grid(n)
        z = grid.points
        lo = np.minimum((ps * n).astype(int), n - 1)
        off = ps - z[lo]
        # (p - z_i)(z_{i+1} - p) == (1/N)(p - z_i) - (p - z_i)^2, both sides
        # evaluated in floating point; independent of the outcome.
        resid = np.abs(off * (z[lo + 1] - ps) - (off / n - off * off))
        worst_identity = max(worst_identity, float(resid.max()))
        sq0 = z * z
        sq1 = (z - 1.0) ** 2
        cap = 1.0 / (n * n)
        for p in ps:
            w = rround(float(p), grid)
            for sq, yy in ((sq0, 0.0), (sq1, 1.0)):
                excess = float(w @ sq) - (p - yy) ** 2
                min_excess = min(min_excess, excess)
                min_cap_margin = min(min_cap_margin, cap - excess)
    elapsed = time.perf_counter() - t0
    ok = (min_excess >= -1e-12 and min_cap_margin >= -1e-12
          and worst_identity <= 1e-12 and elapsed < 5.0)
    assert _report(ok, "check 01: rounding excess in [0, 1/N^2] with exact "
                       "cell identity",
                   f"min excess {min_excess:.1e}, identity residual "
                   f"{worst_identity:.1e}, {elapsed:.1f}s")


def test_02_swap_regret_decomposition():
    """On random runs the pseudo swap regret never exceeds the summed
    per-learner external regrets of the reduction."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    worst_violation = -np.inf
    for k in range(100):
        N = int(rng.integers(1, 5))
        T = int(rng.integers(20, 201))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 21))
        hc = finite_class([_ball_point(rng, d, 4.0) for _ in range(m)])
        spec = _rotating_spec(rng, k)
        tr = simulate_run(spec, T, d, N, seed=1000 + k, keep_q=True)
        total = float(np.sum(bm_external_regrets(tr, hc)))
        worst_violation = max(worst_violation,
                              psreg(tr, hc).value - total)
        _TRANSCRIPTS.append(tr)
    elapsed = time.perf_counter() - t0
    ok = worst_violation <= 1e-8 and elapsed < 30.0
    assert _report(ok, "check 02: pseudo swap regret below summed learner "
                       "regrets on 100 random runs",
                   f"worst violation {worst_violation:.1e}, {elapsed:.1f}s")


def test_03_loss_curvature_and_gradient():
    """The scaled squared loss phi has gradient norm at most 10 on the
    feasible set, the analytic gradient matches central differences, and
    exp(-phi/50) is concave along every direction (numeric Hessian)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    h_grad, h_hess = 1e-5, 1e-4
    worst_eig = -np.inf
    worst_grad_norm = 0.0
    worst_rel = 0.0
    for trial in range(1000):
        d = int(rng.integers(1, 5))
        if trial == 0:
            # corner case: both bounds tight, gradient norm exactly 10
            d, alpha, y = 2, 1.0, 1.0
            x = np.array([1.0, 0.0])
            theta = np.array([-4.0, 0.0])
        else:
            theta = _ball_point(rng, d, 4.0)
            x = _ball_point(rng, d, 1.0)
            alpha = float(rng.random())
            y = float(rng.integers(0, 2))
        grad = scaled_loss_grad(theta, x, alpha, y)
        worst_grad_norm = max(worst_grad_norm, float(np.linalg.norm(grad)))
        num = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h_grad
            num[i] = (scaled_loss_value(theta + e, x, alpha, y)
                      - scaled_loss_value(theta - e, x, alpha, y)) \
                / (2.0 * h_grad)
        worst_rel = max(worst_rel,
                        float(np.linalg.norm(num - grad)
                              / max(1.0, np.linalg.norm(grad))))

        def surrogate(th):
            return float(np.exp(-scaled_loss_value(th, x, alpha, y) / 50.0))

        H = np.empty((d, d))
        base = surrogate(theta)
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h_hess
            H[i, i] = (surrogate(theta + ei) - 2.0 * base
                       + surrogate(theta - ei)) / h_hess ** 2
            for j in range(i):
                ej = np.zeros(d)
                ej[j] = h_hess
                H[i, j] = H[j, i] = (surrogate(theta + ei + ej)
                                     - surrogate(theta + ei - ej)
                                     - surrogate(theta - ei + ej)
                                     + surrogate(theta - ei - ej)) \
                    / (4.0 * h_hess ** 2)
        worst_eig = max(worst_eig, float(np.linalg.eigvalsh(H).max()))
    elapsed = time.perf_counter() - t0
    ok = (worst_eig <= 1e-6 and worst_grad_norm <= 10.0 + 1e-6
          and worst_rel <= 1e-6 and elapsed < 10.0)
    assert _report(ok, "check 03: gradient norm <= 10, analytic gradient "
                       "exact, exp(-phi/50) concave",
                   f"max Hessian eig {worst_eig:.1e}, max grad norm "
                   f"{worst_grad_norm:.4f}, {elapsed:.1f}s")


def test_04_witness_improvement():
    """Distilled witnesses stay bounded by 2 and improve the weighted
    squared loss by at least the squared cell correlation."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    count = 0
    worst_range = 0.0
    worst_margin = np.inf
    while count < 100:
        T = int(rng.integers(10, 80))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        tr = _random_transcript(rng, T, d, n)
        v = rng.normal(size=d)
        theta = v / max(1.0, float(np.linalg.norm(v)))
        y = tr.outcomes.astype(float)
        done = False
        for cell in range(n + 1):
            if done:
                break
            z = float(tr.grid.points[cell])
            fx = tr.contexts @ theta
            for pseudo in (True, False):
                if pseudo:
                    w = tr.cond_dists[:, cell]
                else:
                    w = (tr.sampled_indices == cell).astype(float)
                mass = float(w.sum())
                if mass <= 0.0:
                    continue
                corr = float(np.sum(w * fx * (y - z))) / mass
                if abs(corr) < 1e-6:
                    continue
                f = LinearFn(theta if corr > 0 else -theta)
                alpha = abs(corr)
                fn, improvement = witness_f_prime(tr, cell, f,
                                                  use_pseudo=pseudo)
                worst_range = max(worst_range,
                                  float(np.max(np.abs(fn(tr.contexts)))))
                worst_margin = min(worst_margin, improvement - alpha ** 2)
                count += 1
                if count >= 100:
                    done = True
                    break
    elapsed = time.perf_counter() - t0
    ok = (worst_range <= 2.0 + 1e-12 and worst_margin >= -1e-9
          and elapsed < 10.0)
    assert _report(ok, "check 04: witness range <= 2, improvement >= "
                       "alpha^2 on 100 instances",
                   f"max |f'| {worst_range:.4f}, min margin "
                   f"{worst_margin:.1e}, {elapsed:.1f}s")


def test_05_calibration_below_swap_regret():
    """Pseudo calibration against the unit ball never exceeds pseudo swap
    regret against the radius-4 ball."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    b1 = linear_ball(1.0)
    b4 = linear_ball(4.0)
    worst_violation = -np.inf
    for k in range(100):
        if k % 5 < 3:
            tr = _random_transcript(rng, int(rng.integers(20, 150)),
                                    int(rng.integers(1, 4)),
                                    int(rng.integers(1, 7)))
        else:
            spec = _rotating_spec(rng, k)
            tr = simulate_run(spec, int(rng.integers(30, 150)),
                              int(rng.integers(1, 4)),
                              int(rng.integers(1, 7)), seed=5000 + k)
        worst_violation = max(worst_violation,
                              psmcal(tr, b1, 2).value - psreg(tr, b4).value)
        _TRANSCRIPTS.append(tr)
    elapsed = time.perf_counter() - t0
    ok = worst_violation <= 1e-6 and elapsed < 30.0
    assert _report(ok, "check 05: pseudo calibration below pseudo swap "
                       "regret on 100 transcripts",
                   f"worst violation {worst_violation:.1e}, {elapsed:.1f}s")


def _refine_max_dot(R, radius, final_step=1e-3):
    """Zooming grid search for max |<theta, R>| over the radius ball.

    Nine points per axis, window halves each level, infeasible points are
    scaled back onto the sphere; stops once the step is below final_step.
    """
    d = len(R)
    center = np.zeros(d)
    half = radius
    best = -np.inf
    while True:
        axes = [np.linspace(c - half, c + half, 9) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], 1)
        norms = np.linalg.norm(pts, axis=1)
        out = norms > radius
        pts[out] *= (radius / norms[out])[:, None]
        vals = np.abs(pts @ R)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best = float(vals[k])
            center = pts[k]
        if half / 4.0 <= final_step:
            return best
        half /= 2.0


def _refine_min_lstsq(X, y, w, radius, final_step=1e-3):
    """Same zooming search, minimizing the weighted squared residual."""
    d = X.shape[1]
    center = np.zeros(d)
    half = radius
    best = np.inf
    while True:
        axes = [np.linspace(c - half, c + half, 9) for c in center]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], 1)
        norms = np.linalg.norm(pts, axis=1)
        out = norms > radius
        pts[out] *= (radius / norms[out])[:, None]
        resid = pts @ X.T - y[None, :]
        vals = resid ** 2 @ w
        k = int(np.argmin(vals))
        if vals[k] < best:
            best = float(vals[k])
            center = pts[k]
        if half / 4.0 <= final_step:
            return best
        half /= 2.0


def test_06_closed_forms_match_grid_search():
    """Ball support-function suprema and the constrained least squares
    solver agree with brute-force grid search refined below 1e-3."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(66)
    worst_sup = 0.0
    worst_min = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        radius = float(rng.choice([1.0, 4.0]))
        hc = linear_ball(radius)
        T = 25
        X = np.stack([_ball_point(rng, d, 1.0) for _ in range(T)])
        y = rng.integers(0, 2, T).astype(float)

        # support function of the ball on one weighted cell
        cw = rng.random(T) * (rng.random(T) < 0.7)
        z = float(rng.random())
        nums, _ = per_cell_sup_numerators(X, y, cw[None, :],
                                          np.array([z]), hc)
        closed = float(nums[0])
        R = (cw * (y - z)) @ X
        refined = _refine_max_dot(R, radius)
        assert refined <= closed + 1e-9
        worst_sup = max(worst_sup, closed - refined)

        # constrained least squares over the same ball
        w = rng.random(T) * (rng.random(T) < 0.7)
        if w.sum() == 0.0:
            w[0] = 1.0
        theta = constrained_lstsq(X, y, w, radius)
        closed_min = float(np.sum(w * (X @ theta - y) ** 2))
        refined_min = _refine_min_lstsq(X, y, w, radius)
        assert refined_min >= closed_min - 1e-6
        worst_min = max(worst_min, abs(refined_min - closed_min))
    elapsed = time.perf_counter() - t0
    ok = worst_sup <= 1e-2 and worst_min <= 1e-2 and elapsed < 120.0
    assert _report(ok, "check 06: closed-form suprema and least squares "
                       "match grid search",
                   f"max sup gap {worst_sup:.1e}, max lstsq gap "
                   f"{worst_min:.1e}, {elapsed:.1f}s")


# The two rate checks fit log-log slopes of per-horizon medians. Ten-rep
# median slopes move by roughly +/-0.05 across seed windows (the smallest
# horizon mixes easy and hard cold starts, so its median is bimodal), which
# is comparable to the width of the acceptance margins. Both checks
# therefore run thirty repetitions, seeds 0..29 under the standard
# seed_base + rep mapping, and report the ten-rep subset fit alongside.
# This stays well inside the runtime budget.

@pytest.mark.slow
def test_07_calibration_rate_sweep(tmp_path):
    """Second-order calibration against the unit ball grows clearly slower
    than sqrt(T) on the synthetic logistic stream."""
    t0 = time.perf_counter()
    cfg = SweepConfig(T_list=[256, 512, 1024, 2048, 4096, 8192, 16384],
                      d=2, reps=30, metric="smcal2:ball1",
                      n_rule="auto-smcal", seed_base=0)
    rows = run_sweep(cfg, out_path=str(tmp_path / "cal.csv"))
    fit = fit_rate(rows, cfg.metric)
    fit10 = fit_rate([r for r in rows if int(r["rep"]) < 10], cfg.metric)
    elapsed = time.perf_counter() - t0
    ok = 0.20 <= fit.slope <= 0.48 and elapsed < 600.0
    assert _report(ok, "check 07: calibration growth exponent in "
                       "[0.20, 0.48]",
                   f"slope {fit.slope:.3f} (10-rep {fit10.slope:.3f}), "
                   f"medians {fit.medians[0]:.2f}->{fit.medians[-1]:.2f}, "
                   f"{elapsed:.0f}s")


@pytest.mark.slow
def test_08_swap_regret_rate_sweep(tmp_path):
    """Swap regret against the radius-4 ball grows at roughly sqrt(T)."""
    t0 = time.perf_counter()
    cfg = SweepConfig(T_list=[256, 512, 1024, 2048, 4096, 8192, 16384],
                      d=2, reps=30, metric="sreg:ball4",
                      n_rule="auto-sreg", seed_base=0)
    rows = run_sweep(cfg, out_path=str(tmp_path / "reg.csv"))
    fit = fit_rate(rows, cfg.metric)
    fit10 = fit_rate([r for r in rows if int(r["rep"]) < 10], cfg.metric)
    elapsed = time.perf_counter() - t0
    ok = 0.45 <= fit.slope <= 0.75 and elapsed < 600.0
    assert _report(ok, "check 08: swap regret growth exponent in "
                       "[0.45, 0.75]",
                   f"slope {fit.slope:.3f} (10-rep {fit10.slope:.3f}), "
                   f"medians {fit.medians[0]:.2f}->{fit.medians[-1]:.2f}, "
                   f"{elapsed:.0f}s")


def test_09_norm_chain_on_collected_transcripts():
    """First-order calibration is bounded by sqrt(T x second-order) on
    every transcript the earlier checks produced."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    pool = list(_TRANSCRIPTS)
    while len(pool) < 10:
        pool.append(_random_transcript(rng, int(rng.integers(20, 120)),
                                       int(rng.integers(1, 4)),
                                       int(rng.integers(1, 6))))
    b1 = linear_ball(1.0)
    worst_margin = np.inf
    for tr in pool:
        T = len(tr.outcomes)
        if T == 0:
            continue
        m1 = smcal(tr, b1, 1).value
        m2 = smcal(tr, b1, 2).value
        p1 = psmcal(tr, b1, 1).value
        p2 = psmcal(tr, b1, 2).value
        worst_margin = min(worst_margin,
                           float(np.sqrt(T * m2)) + 1e-9 - m1,
                           float(np.sqrt(T * p2)) + 1e-9 - p1)
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= 0.0
    assert _report(ok, "check 09: first-order below sqrt(T x second-order) "
                       f"on {len(pool)} transcripts",
                   f"min margin {worst_margin:.1e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_10_batch_error_decays_with_training():
    """Median batch squared-error excess over 10 seeds falls as the
    training horizon grows 256 -> 1024 -> 4096."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    targets = []
    for _ in range(10):
        v = rng.normal(size=2)
        targets.append(v / np.linalg.norm(v))
    strides = {256: 8, 1024: 32, 4096: 128}
    medians = []
    for T in (256, 1024, 4096):
        n = choose_n(T, 2, "smcal")
        vals = []
        for seed in range(10):
            spec = AdversarySpec(kind="iid-logistic",
                                 theta_star=tuple(float(c)
                                                  for c in targets[seed]))
            train = generate_stream(spec, T, 2, seed=seed)
            mix = train_mixture(train, n, seed=seed, stride=strides[T])
            test = generate_stream(spec, 400, 2, seed=10_000 + seed)
            vals.append(estimate_saerr(mix, test).value)
        medians.append(float(np.median(vals)))
    elapsed = time.perf_counter() - t0
    ok = medians[0] > medians[1] > medians[2] and elapsed < 300.0
    assert _report(ok, "check 10: batch error median decreases with "
                       "training horizon",
                   "medians " + " -> ".join(f"{m:.4f}" for m in medians)
                   + f", {elapsed:.0f}s")


def test_11_bitwise_determinism(tmp_path):
    """Identical seeds and configs reproduce transcripts byte for byte and
    sweep tables value for value; different seeds do not."""
    t0 = time.perf_counter()
    spec = AdversarySpec(kind="iid-logistic", noise=0.1)
    first = simulate_run(spec, 120, 2, 3, seed=7)
    second = simulate_run(spec, 120, 2, 3, seed=7)
    other = simulate_run(spec, 120, 2, 3, seed=8)
    pa, pb, pc = (tmp_path / name for name in ("a.jsonl", "b.jsonl",
                                               "c.jsonl"))
    first.write_jsonl(pa)
    second.write_jsonl(pb)
    other.write_jsonl(pc)
    same_bytes = pa.read_bytes() == pb.read_bytes()
    seeds_differ = pa.read_bytes() != pc.read_bytes()

    cfg = SweepConfig(T_list=[64, 128, 256], d=2, reps=2,
                      metric="smcal2:ball1", seed_base=3)
    rows_a = run_sweep(cfg, out_path=str(tmp_path / "s1.csv"))
    rows_b = run_sweep(cfg, out_path=str(tmp_path / "s2.csv"))

    def strip(rows):
        return [{k: v for k, v in row.items() if k != "wall_ms"}
                for row in rows]

    tables_equal = strip(rows_a) == strip(rows_b)
    elapsed = time.perf_counter() - t0
    ok = same_bytes and seeds_differ and tables_equal
    assert _report(ok, "check 11: bit-identical reruns, seed changes "
                       "propagate",
                   f"transcripts {'==' if same_bytes else '!='}, tables "
                   f"{'==' if tables_equal else '!='}, {elapsed:.1f}s")
