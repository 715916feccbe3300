"""Self-contained checks of the guarantees the library is built on.

Each check prints one [PASS]/[FAIL] line; run_all returns a process exit
code. The whole suite is sized to finish in well under half a minute.
"""

from __future__ import annotations

import numpy as np

from .core import LinearFn, Transcript, linear_ball, make_grid
from .forecaster import rround
from .harness import AdversarySpec, generate_stream, simulate_run
from .linalg import (RIDGE_TOL, project_ball_a_norm, sherman_morrison_update,
                     single_closed_class, stationary_distribution)
from .metrics import (DEFAULT_LOSSES, bm_external_regrets, psmcal, psreg,
                      smcal, witness_f_prime)
from .ons import OMEGA, RADIUS, ons_kernel, ons_step


def _check_rounding(rng):
    """Rounded distributions keep the mean and pay at most 1/N^2 extra
    squared loss against either label."""
    worst = 0.0
    w = np.linspace(0.0, 1.0, 201)
    for n in (1, 2, 3, 7, 16, 64):
        grid = make_grid(n)
        q = rround(w, grid)
        mean_gap = float(np.max(np.abs(grid.points @ q - w)))
        if mean_gap > 1e-12:
            return False, f"mean moved by {mean_gap:.2e} at N={n}"
        for y in (0, 1):
            excess = (grid.points - y) ** 2 @ q - (w - y) ** 2
            worst = max(worst, float(excess.max()))
            if excess.min() < -1e-12 or excess.max() > 1.0 / n ** 2 + 1e-12:
                return False, f"excess outside [0, 1/N^2] at N={n}, y={y}"
    return True, f"worst excess {worst:.2e}"


def _check_stationary(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        Q = rng.random((n, n)) ** 2
        Q /= Q.sum(axis=0, keepdims=True)
        p = stationary_distribution(Q)
        res = float(np.max(np.abs(Q @ p - p)))
        if res > 1e-8 or abs(p.sum() - 1.0) > 1e-12 or p.min() < 0:
            return False, f"residual {res:.2e}"
    # known fixed points, one stack: constant columns (0.4, 0.6), swap chain
    p = stationary_distribution([[[0.4, 0.4], [0.6, 0.6]],
                                 [[0.0, 1.0], [1.0, 0.0]]])
    if (abs(p - [[0.4, 0.6], [0.5, 0.5]]).max(axis=1) > [1e-10, 1e-8]).any():
        return False, f"known chains gave {p.tolist()}"
    # chains off the square solve, by the min-norm tie-break: Q = I is
    # uniform; closed classes (0.4, 0.6) and (0.5, 0.5) over a transient
    # column split in proportion to 1 / ||v_i||^2; a point mass is certified
    two_block = np.zeros((5, 5))
    two_block[:2, :2] = [[0.4, 0.4], [0.6, 0.6]]
    two_block[2:4, 2:4] = [[0.0, 1.0], [1.0, 0.0]]
    two_block[:, 4] = 0.2
    point_mass = np.zeros((5, 5))
    point_mass[2] = 1.0
    chains = np.array([np.eye(5), two_block, point_mass])
    want = np.array([[0.2] * 5, [0.4 / 0.52, 0.6 / 0.52, 1.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0, 0.0, 0.0]])
    want[1] /= want[1].sum()
    p = stationary_distribution(chains)
    if single_closed_class(chains).tolist() != [False, False, True] or \
            abs(p - want).max() > 1e-10:
        return False, f"reducible chains gave {p.tolist()}"
    return True, "residuals within 1e-8, both solve paths"


def _check_sherman_morrison(rng):
    for _ in range(25):
        d = int(rng.integers(1, 9))
        A = np.eye(d) * 0.3
        M = np.linalg.inv(A)
        for _ in range(60):
            g = rng.normal(size=d)
            A = A + np.outer(g, g)
            M = sherman_morrison_update(M, g)
        err = np.linalg.norm(M - np.linalg.inv(A)) / np.linalg.norm(M)
        if err > 1e-8:
            return False, f"relative drift {err:.2e}"
    return True, "matches dense inverse to 1e-8"


def _check_projection(rng):
    for _ in range(40):
        d = int(rng.integers(1, 7))
        B = rng.normal(size=(d, d))
        A = B @ B.T + np.eye(d) * 0.1
        Minv = np.linalg.inv(A)
        theta = rng.normal(size=d) * 4.0
        r = 2.0
        proj = project_ball_a_norm(theta, Minv, r)
        if np.linalg.norm(proj) > r + 1e-7:
            return False, f"left the ball: {np.linalg.norm(proj):.6f}"

        def a_dist(u):
            v = u - theta
            return float(v @ A @ v)

        base = a_dist(proj)
        for _ in range(30):
            cand = rng.normal(size=d)
            nc = np.linalg.norm(cand)
            if nc > r:
                cand = cand / nc * r
            if a_dist(cand) < base - 1e-6:
                return False, "a feasible point beat the projection"
    return True, "optimal among sampled feasible points"


def _check_ons(rng):
    # one hand-checked step
    theta, _ = ons_step(np.zeros(1), np.eye(1) / OMEGA, [0.5], 1.0, 1)
    want = 640.0 / 102401.0
    if abs(theta[0] - want) > 1e-15:
        return False, f"first step gave {theta[0]!r}, wanted {want!r}"
    # short contexts along theta with y = 1 pull theta outward from near the
    # sphere, so the A-norm projection runs: the stored inverse curvature
    # must stay the inverse of omega I + sum g g^T, and theta in the ball
    on_sphere, runs = 0, {}
    for _ in range(10):
        d = int(rng.integers(1, 5))
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        theta, inv, A = 3.95 * u, np.eye(d) / OMEGA, OMEGA * np.eye(d)
        X, alphas = np.empty((300, d)), np.empty(300)
        for t in range(300):
            X[t] = x = 0.2 * u + 0.05 * rng.normal(size=d)
            alphas[t] = alpha = float(rng.random())
            g = 2.0 * alpha * (theta @ x - 1.0) * x
            A += np.outer(g, g)
            theta, inv = ons_step(theta, inv, x, alpha, 1)
            nrm = float(np.linalg.norm(theta))
            if nrm > RADIUS + RIDGE_TOL:
                return False, f"theta left the ball: norm {nrm!r}"
            on_sphere += nrm > RADIUS - 1e-6
        dense = np.linalg.inv(A)
        # relative to what the updates changed, which omega I would swamp
        err = (np.linalg.norm(inv - dense)
               / np.linalg.norm(dense - np.eye(d) / OMEGA))
        if err > 1e-8:
            return False, f"inverse curvature off the dense one by {err:.2e}"
        runs.setdefault(d, []).append(
            (3.95 * u, np.eye(d) / OMEGA, X, alphas, theta, inv))
    if not on_sphere:
        return False, "no step reached the sphere"
    # the scenarios of one dimension, run as one stack through the round
    # loop's kernel, must give the scalar chain's learners bit for bit
    for d, group in runs.items():
        thetas, invs, X, alphas, *want = map(np.array, zip(*group))
        for t in range(300):
            thetas, invs = ons_kernel(thetas, invs, X[:, t], alphas[:, t], 1.0)
        if not all(map(np.array_equal, (thetas, invs), want)):
            return False, f"stacked kernel left the ons_step chain at d={d}"
    return True, (f"hand value, dense inverse to 1e-8, ball kept over "
                  f"{on_sphere} steps on the sphere, stacked kernel bitwise")


def _check_decomposition(rng):
    """Sampled swap regret of the forecaster never exceeds the sum of the
    per-cell learner regrets (the reduction identity), up to solver slack."""
    hc = linear_ball(4.0)
    for trial in range(12):
        T = int(rng.integers(20, 80))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        spec = AdversarySpec(kind="iid-logistic", noise=0.2)
        tr = simulate_run(spec, T, d, n, seed=1000 + trial)
        total = psreg(tr, hc).value
        regs = bm_external_regrets(tr, hc)
        if total > sum(regs) + 1e-8:
            return False, f"psreg {total:.6g} > sum of learner regrets " \
                          f"{sum(regs):.6g}"
    return True, "psreg bounded by summed learner regrets"


def _check_witness(rng):
    grid = make_grid(4)
    for trial in range(40):
        T = int(rng.integers(10, 60))
        d = int(rng.integers(1, 4))
        X, y = generate_stream(AdversarySpec("iid-logistic"), T, d, trial)
        P = rng.random((T, 5))
        P /= P.sum(axis=1, keepdims=True)
        tr = Transcript(grid, X, P, rng.integers(0, 5, size=T), y)
        theta = rng.normal(size=d)
        nt = np.linalg.norm(theta)
        if nt > 1:
            theta = theta / nt
        for cell in range(5):
            mass = float(P[:, cell].sum())
            if mass <= 0:
                continue
            resid = P[:, cell] * (y - grid.points[cell])
            corr = float(resid @ (X @ theta)) / mass
            if abs(corr) < 1e-6:
                continue
            f = LinearFn(theta if corr > 0 else -theta)
            alpha = abs(corr)
            fn, improvement = witness_f_prime(tr, cell, f)
            preds = fn(X)
            if np.max(np.abs(preds)) > 2.0 + 1e-12:
                return False, f"witness range {np.max(np.abs(preds)):.3f}"
            if improvement < alpha ** 2 - 1e-9:
                return False, f"improvement {improvement:.3e} < alpha^2 " \
                              f"{alpha ** 2:.3e}"
    return True, "improvement at least alpha squared, range within 2"


def _check_cal_vs_reg(rng):
    """Pseudo calibration error (unit ball, q=2) is a lower bound on pseudo
    swap regret (radius-4 ball)."""
    for trial in range(10):
        T = int(rng.integers(30, 120))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        spec = AdversarySpec(kind="iid-logistic", noise=0.3)
        tr = simulate_run(spec, T, d, n, seed=2000 + trial)
        a = psmcal(tr, linear_ball(1.0), 2).value
        b = psreg(tr, linear_ball(4.0)).value
        if a > b + 1e-6:
            return False, f"psmcal {a:.6g} > psreg {b:.6g}"
    return True, "psmcal(2) below psreg"


def _check_cs_chain(rng):
    """The q=1 calibration errors are bounded by sqrt(T * q=2 errors)."""
    hc = linear_ball(1.0)
    for trial in range(10):
        T = int(rng.integers(30, 120))
        spec = AdversarySpec(kind="iid-logistic", noise=0.1)
        tr = simulate_run(spec, T, 2, 3, seed=3000 + trial)
        s1 = smcal(tr, hc, 1).value
        s2 = smcal(tr, hc, 2).value
        if s1 > np.sqrt(T * s2) + 1e-9:
            return False, f"smcal1 {s1:.6g} > sqrt(T smcal2) " \
                          f"{np.sqrt(T * s2):.6g}"
        p1 = psmcal(tr, hc, 1).value
        p2 = psmcal(tr, hc, 2).value
        if p1 > np.sqrt(T * p2) + 1e-9:
            return False, "pseudo chain violated"
    return True, "Cauchy-Schwarz chains hold"


def _check_post_process(rng):
    grid01 = np.linspace(0.0, 1.0, 10001)
    for loss in DEFAULT_LOSSES:
        for q in rng.random(40):
            k = loss.post_process(q)
            best = float(np.min(q * loss(grid01, 1) + (1 - q) * loss(grid01, 0)))
            got = q * loss(k, 1) + (1 - q) * loss(k, 0)
            if got > best + 1e-12:
                return False, f"post_process lost {got - best:.2e} on " \
                              f"{loss.name}"
    return True, "matches exhaustive grid minimum"


def _check_determinism(rng):
    spec = AdversarySpec(kind="iid-logistic", noise=0.1)
    a = simulate_run(spec, 60, 2, 3, seed=7)
    b = simulate_run(spec, 60, 2, 3, seed=7)
    if not all(np.array_equal(getattr(a, k), getattr(b, k)) for k in (
            "contexts", "cond_dists", "sampled_indices", "outcomes")):
        return False, "same seed produced different runs"
    c = simulate_run(spec, 60, 2, 3, seed=8)
    if np.array_equal(a.sampled_indices, c.sampled_indices) and \
            np.array_equal(a.outcomes, c.outcomes):
        return False, "different seeds produced identical runs"
    return True, "same seed reproduces, seeds differ"


CHECKS = (
    ("rounding keeps means, bounded excess", _check_rounding),
    ("stationary distributions", _check_stationary),
    ("rank-one inverse updates", _check_sherman_morrison),
    ("curvature-norm ball projection", _check_projection),
    ("newton-step learner", _check_ons),
    ("swap regret decomposition", _check_decomposition),
    ("halfspace witness improvement", _check_witness),
    ("calibration below swap regret", _check_cal_vs_reg),
    ("norm inequality chains", _check_cs_chain),
    ("loss post-processing", _check_post_process),
    ("seeded determinism", _check_determinism),
)


def run_all():
    rng = np.random.default_rng(123)
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        tag = "PASS" if ok else "FAIL"
        print(f"[{tag}] {name}: {detail}")
        if not ok:
            failures += 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(run_all())
