"""Experiment harness: adversaries, sweeps over horizons, and rate fitting.

Adversaries are oblivious stream generators. The logistic-linear family
gives informative convergence-rate fits (a realizable-ish conditional mean);
the Bernoulli and anti-calibration families are degenerate stress streams;
the csv adversary replays external data. A stream is one pair of arrays
(X, y): contexts X float (T, d), outcomes y int (T,), the form that
run_online, train_mixture and the batch estimators take.

Randomness: the run seed is split by the forecaster's documented rule
(SeedSequence child 0 for prediction sampling, child 1 for the adversary);
the adversary child spawns one sub-stream for parameter draws and one for
the stream itself, so supplying explicit parameters does not shift the
stream draws.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .core import (cover_class, finite_class, linear_ball,
                   affine_restricted, make_grid, absolute_loss, squared_loss,
                   vshaped_loss)
from .errors import FormatError
from .forecaster import BmForecaster, choose_n, run_online, seed_streams
from . import metrics as metrics_mod

RESULT_COLUMNS = ("T", "N", "d", "rep", "seed", "metric", "value", "wall_ms",
                  "error")

_TAIL_RADIUS = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class AdversarySpec:
    """An oblivious stream generator.

    kind: iid-logistic (conditional mean 1/2 + <theta*, x>/2, optional
    label-flip noise), iid-bernoulli (constant context, Bernoulli(bias)
    labels), csv (replay a file), anti-calibration (constant context,
    alternating labels; the adaptive variant is out of scope and the flag is
    fixed off).
    """

    kind: str
    theta_star: tuple | None = None
    noise: float = 0.0
    bias: float = 0.5
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("iid-logistic", "iid-bernoulli", "csv",
                             "anti-calibration"):
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if not (0.0 <= self.noise <= 1.0):
            raise ValueError("noise must be in [0, 1]")
        if not (0.0 <= self.bias <= 1.0):
            raise ValueError("bias must be in [0, 1]")
        if self.kind == "csv" and not self.path:
            raise ValueError("csv adversary needs a path")


def _uniform_ball(rng, count, dim, radius):
    """Uniform draws from the radius-`radius` ball in `dim` dimensions."""
    if dim == 0:
        return np.zeros((count, 0))
    g = rng.normal(size=(count, dim))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0] = 1.0
    radii = radius * rng.random(count) ** (1.0 / dim)
    return g / norms[:, None] * radii[:, None]


def generate_stream(spec, T, d, seed=0):
    """Materialize T rounds of an adversary as one stream (X, y): contexts
    X float (T, d), outcomes y int (T,).

    Contexts always have first coordinate 1/2 and norm at most 1 (the random
    tail lives in the radius sqrt(3)/2 ball).
    """
    if T < 0:
        raise ValueError("horizon must be nonnegative")
    if d < 1:
        raise ValueError("dimension must be positive")
    _, adv_ss = seed_streams(seed)
    param_ss, stream_ss = adv_ss.spawn(2)
    rng_param = np.random.Generator(np.random.PCG64(param_ss))
    rng = np.random.Generator(np.random.PCG64(stream_ss))

    if spec.kind == "iid-logistic":
        if spec.theta_star is not None:
            theta = np.asarray(spec.theta_star, dtype=float)
            if theta.shape != (d,):
                raise ValueError(f"theta_star has shape {theta.shape}, "
                                 f"expected ({d},)")
        else:
            g = rng_param.normal(size=d)
            theta = g / max(np.linalg.norm(g), 1e-12)
        tails = _uniform_ball(rng, T, d - 1, _TAIL_RADIUS)
        X = np.hstack([np.full((T, 1), 0.5), tails])
        probs = np.clip(0.5 + (X @ theta) / 2.0, 0.0, 1.0)
        y = (rng.random(T) < probs).astype(int)
        if spec.noise > 0:
            flips = rng.random(T) < spec.noise
            y = np.where(flips, 1 - y, y)
        return X, y

    if spec.kind == "csv":
        return csv_rows(ingest_csv(spec.path), T, d, spec.path)

    # iid-bernoulli, and the oblivious stand-in for anti-calibration
    # (alternating labels), share the constant context e_1 / 2
    X = np.zeros((T, d))
    X[:, 0] = 0.5
    if spec.kind == "iid-bernoulli":
        return X, (rng.random(T) < spec.bias).astype(int)
    return X, np.arange(T) % 2


def ingest_csv(path):
    """Read rows of numeric features with a trailing 0/1 label.

    Feature vectors are rescaled by one shared factor
    min(1, (sqrt(3)/2) / max row norm) and prefixed with the pinned 1/2
    coordinate. Returns (X, y, scale_factor): contexts X float (T, d),
    labels y int (T,). Malformed cells and labels raise FormatError naming
    the row; a file without data rows raises FormatError too.
    """
    raw = []
    width = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for i, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                nums = [float(c) for c in row]
            except ValueError as exc:
                raise FormatError(f"{path}: non-numeric cell in row {i}: {exc}") \
                    from exc
            if width is None:
                width = len(nums)
            elif len(nums) != width:
                raise FormatError(f"{path}: row {i} has {len(nums)} cells, "
                                  f"expected {width}")
            if nums[-1] not in (0.0, 1.0):
                raise FormatError(f"{path}: row {i} label must be 0 or 1, "
                                  f"got {nums[-1]!r}")
            raw.append(nums)
    if not raw:
        raise FormatError(f"{path}: no data rows")
    table = np.array(raw, dtype=float)
    feats = table[:, :-1]
    max_norm = float(np.max(np.linalg.norm(feats, axis=1)))
    factor = 1.0 if max_norm <= 0 else min(1.0, _TAIL_RADIUS / max_norm)
    X = np.hstack([np.full((len(raw), 1), 0.5), feats * factor])
    return X, table[:, -1].astype(int), factor


def csv_rows(table, T, d, path):
    """The first T rounds (X, y) of an ingest_csv result (X, y, factor) read
    from `path`, checked against the horizon T and the dimension d."""
    X, y, _ = table
    if len(y) < T:
        raise ValueError(f"csv stream {path} has {len(y)} rows, "
                         f"fewer than the requested horizon {T}")
    if X.shape[1] != d:
        raise ValueError(f"csv contexts have dimension {X.shape[1]}, "
                         f"expected {d}")
    return X[:T], y[:T]


def resolve_n(n_rule, T, d):
    """Map an --N style rule (auto-smcal, auto-sreg, or an integer) to a
    concrete grid resolution."""
    if isinstance(n_rule, (int, np.integer)):
        return int(n_rule)
    if n_rule == "auto-smcal":
        return choose_n(T, d, "smcal")
    if n_rule == "auto-sreg":
        return choose_n(T, d, "sreg")
    try:
        return int(n_rule)
    except (TypeError, ValueError):
        raise ValueError(f"grid rule must be auto-smcal, auto-sreg, or an "
                         f"integer, got {n_rule!r}") from None


def simulate_run(spec, T, d, n, seed=0, keep_q=False):
    """Generate a stream from the adversary and run the forecaster on it,
    both derived from the same run seed."""
    stream = generate_stream(spec, T, d, seed=seed)
    fc = BmForecaster(make_grid(n), d, seed=seed)
    return run_online(fc, stream, keep_q=keep_q)


# ---------------------------------------------------------------------------
# metric registry used by sweeps and the command line


def parse_class_spec(spec):
    """ball1 | ball4 | affine-res | cover:EPS | finite:FILE."""
    if spec in (None, ""):
        return None
    if spec == "ball1":
        return linear_ball(1.0)
    if spec == "ball4":
        return linear_ball(4.0)
    if spec == "affine-res":
        return affine_restricted()
    if spec.startswith("cover:"):
        eps = float(spec.split(":", 1)[1])
        return cover_class(eps, radius=1.0)
    if spec.startswith("finite:"):
        path = spec.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            try:
                thetas = json.load(fh)["thetas"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise FormatError(
                    f'{path}: expected {{"thetas": [[...], ...]}}: {exc}') from exc
        return finite_class(thetas)
    raise ValueError(f"unknown class spec {spec!r}")


def parse_losses(spec):
    """Comma list: squared, absolute, vshaped:V."""
    if spec in (None, ""):
        return None
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if tok == "squared":
            out.append(squared_loss())
        elif tok == "absolute":
            out.append(absolute_loss())
        elif tok.startswith("vshaped:"):
            out.append(vshaped_loss(float(tok.split(":", 1)[1])))
        elif tok:
            raise ValueError(f"unknown loss token {tok!r}")
    if not out:
        raise ValueError("empty loss menu")
    return out

# name -> (metric on (transcript, class, losses), default class spec). The
# metrics are looked up on their module at call time, not bound here.
METRICS = {
    "smcal1": (lambda tr, hc, _: metrics_mod.smcal(tr, hc, 1), "ball1"),
    "smcal2": (lambda tr, hc, _: metrics_mod.smcal(tr, hc, 2), "ball1"),
    "psmcal1": (lambda tr, hc, _: metrics_mod.psmcal(tr, hc, 1), "ball1"),
    "psmcal2": (lambda tr, hc, _: metrics_mod.psmcal(tr, hc, 2), "ball1"),
    "mcal2": (lambda tr, hc, _: metrics_mod.mcal(tr, hc, 2), "ball1"),
    "cal2": (lambda tr, _, __: metrics_mod.cal(tr, 2), None),
    "sreg": (lambda tr, hc, _: metrics_mod.sreg(tr, hc), "ball4"),
    "psreg": (lambda tr, hc, _: metrics_mod.psreg(tr, hc), "ball4"),
    "somni": (lambda tr, hc, losses: metrics_mod.somni(tr, losses=losses,
                                                       hc=hc), "affine-res"),
}


def evaluate_metric(tr, name, hc=None, losses=None):
    """Dispatch a metric name (optionally suffixed :CLASS) on a transcript.

    Defaults: calibration metrics evaluate the unit ball, swap regret the
    radius-4 ball, omniprediction the affine-restricted class.
    """
    base, _, cls = name.partition(":")
    if base not in METRICS:
        raise ValueError(f"unknown metric {base!r}; known: "
                         f"{', '.join(METRICS)}")
    fn, default = METRICS[base]
    if hc is None:
        hc = parse_class_spec(cls or default)
    return fn(tr, hc, losses)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepConfig:
    """One sweep: horizons x repetitions of (simulate, evaluate one metric).

    metric may carry an inline class suffix (e.g. smcal2:ball1). n_rule is
    auto-smcal, auto-sreg, or an integer. Row seeds are seed_base + rep.
    """

    T_list: list
    d: int
    reps: int
    metric: str
    n_rule: str = "auto-smcal"
    out: str | None = None
    adversary: str = "iid-logistic"
    noise: float = 0.0
    bias: float = 0.5
    csv_path: str | None = None
    seed_base: int = 0
    losses: str | None = None

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise FormatError(f"{path}: unknown sweep fields {sorted(unknown)}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise FormatError(f"{path}: {exc}") from exc

    def adversary_spec(self):
        return AdversarySpec(kind=self.adversary, noise=self.noise,
                             bias=self.bias, path=self.csv_path)


def _sweep_row(cfg, T, rep):
    seed = cfg.seed_base + rep
    t0 = time.perf_counter()
    n = ""
    try:
        n = resolve_n(cfg.n_rule, T, cfg.d)
        tr = simulate_run(cfg.adversary_spec(), T, cfg.d, n, seed=seed,
                          keep_q=False)
        report = evaluate_metric(tr, cfg.metric,
                                 losses=parse_losses(cfg.losses))
        value, error = repr(report.value), ""
    except Exception as exc:  # recorded, not fatal: the sweep must go on
        value, error = "", f"{type(exc).__name__}: {exc}"
    wall_ms = (time.perf_counter() - t0) * 1e3
    return {"T": T, "N": n, "d": cfg.d, "rep": rep, "seed": seed,
            "metric": cfg.metric, "value": value,
            "wall_ms": f"{wall_ms:.3f}", "error": error}


def read_results(path):
    """Rows of a results table as dicts (strings as written)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def run_sweep(cfg, out_path=None):
    """Execute all (T, rep) rows of a sweep, appending to the results table
    as rows finish.

    Resumable: rows already present in the table are skipped. Rows run one
    after another in configuration order, and each is flushed to the table
    as it finishes. Returns all rows, previously completed first.
    """
    out_path = out_path or cfg.out
    if not out_path:
        raise ValueError("sweep needs an output path")
    existing = []
    if os.path.exists(out_path):
        existing = read_results(out_path)
    done = {(int(r["T"]), int(r["rep"])) for r in existing}
    tasks = [(int(T), rep) for T in cfg.T_list for rep in range(cfg.reps)
             if (int(T), rep) not in done]
    new_rows = []
    mode = "a" if existing else "w"
    with open(out_path, mode, encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(RESULT_COLUMNS))
        if mode == "w":
            writer.writeheader()
            fh.flush()
        for T, rep in tasks:
            row = _sweep_row(cfg, T, rep)
            writer.writerow(row)
            fh.flush()
            new_rows.append(row)
    return existing + new_rows


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log(median metric) against log T."""

    slope: float
    intercept: float
    stderr: float
    n_points: int
    dropped_nonpositive: int
    t_values: tuple
    medians: tuple

    def as_dict(self):
        return {"slope": self.slope, "intercept": self.intercept,
                "stderr": self.stderr, "n_points": self.n_points,
                "dropped_nonpositive": self.dropped_nonpositive,
                "t_values": list(self.t_values), "medians": list(self.medians)}


def fit_rate(rows, metric):
    """Fit value ~ C * T^slope on a results table for one metric.

    Medians are taken per horizon over the repetition values; zero or
    negative values are dropped from the log fit (counted in the result).
    Needs at least three surviving horizons. Natural logs throughout.
    """
    by_t = {}
    dropped = 0
    for r in rows:
        if r.get("metric") != metric or r.get("error"):
            continue
        if r.get("value") in (None, ""):
            continue
        T = int(r["T"])
        v = float(r["value"])
        if v <= 0.0:
            dropped += 1
            continue
        by_t.setdefault(T, []).append(v)
    ts = sorted(by_t)
    meds = [float(np.median(by_t[T])) for T in ts]
    if len(ts) < 3:
        raise ValueError(f"rate fit needs at least 3 horizons with positive "
                         f"medians, got {len(ts)}")
    x = np.log(np.asarray(ts, dtype=float))
    yv = np.log(np.asarray(meds))
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (yv - yv.mean())) / sxx)
    intercept = float(yv.mean() - slope * xbar)
    resid = yv - (intercept + slope * x)
    dof = len(x) - 2
    stderr = float(np.sqrt(np.sum(resid ** 2) / dof / sxx)) if dof > 0 else 0.0
    return RateFit(slope=slope, intercept=intercept, stderr=stderr,
                   n_points=len(ts), dropped_nonpositive=dropped,
                   t_values=tuple(ts), medians=tuple(meds))
