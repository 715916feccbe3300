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
from functools import cached_property

import numpy as np

from .core import (MEMBER_CAP, Transcript, as_int, cover_class,
                   finite_class, linear_ball, affine_restricted, make_grid,
                   absolute_loss, squared_loss, vshaped_loss)
from .errors import FormatError
from .forecaster import (BmForecaster, choose_n, run_lockstep, run_online,
                         seed_streams)
from . import metrics as metrics_mod

RESULT_COLUMNS = ("T", "N", "d", "rep", "seed", "metric", "value", "wall_ms",
                  "error")

_TAIL_RADIUS = math.sqrt(3.0) / 2.0

#: most rounds (reps x T) that one lockstep group of a sweep runs: bounds
#: the group's stream and transcript memory, whatever reps x T is
LOCKSTEP_ROUNDS = 2 ** 20

#: the adversary kinds, in the order the command line lists them
ADVERSARIES = ("iid-logistic", "iid-bernoulli", "anti-calibration", "csv")


@dataclass(frozen=True)
class AdversarySpec:
    """An oblivious stream generator.

    kind: iid-logistic (conditional mean 1/2 + <theta*, x>/2, optional
    label-flip noise; theta_star, if given, is d finite values),
    iid-bernoulli (constant context, Bernoulli(bias) labels), csv (replay a
    file), anti-calibration (constant context, alternating labels; the
    adaptive variant is out of scope).
    """

    kind: str
    theta_star: tuple | None = None
    noise: float = 0.0
    bias: float = 0.5
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ADVERSARIES:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        if not (0.0 <= self.noise <= 1.0):
            raise ValueError("noise must be in [0, 1]")
        if not (0.0 <= self.bias <= 1.0):
            raise ValueError("bias must be in [0, 1]")
        if self.kind == "csv" and not isinstance(self.path or None, str):
            raise ValueError(f"csv adversary needs a path, got {self.path!r}")

    @cached_property
    def table(self):
        """ingest_csv(path), read on first use, once per spec."""
        return ingest_csv(self.path)


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
    tail lives in the radius sqrt(3)/2 ball); T, d and seed follow as_int.
    A csv spec replays the first T rows of spec.table and draws nothing.
    """
    T, d = as_int(T, "horizon", 0), as_int(d, "dimension", 1)
    seed = as_int(seed, "seed", 0)
    if spec.kind == "csv":
        return csv_rows(spec.table, T, d, spec.path)
    _, adv_ss = seed_streams(seed)
    param_ss, stream_ss = adv_ss.spawn(2)
    rng_param = np.random.Generator(np.random.PCG64(param_ss))
    rng = np.random.Generator(np.random.PCG64(stream_ss))

    if spec.kind == "iid-logistic":
        if spec.theta_star is not None:
            theta = np.asarray(spec.theta_star, dtype=float)
            if theta.shape != (d,) or not np.isfinite(theta).all():
                raise ValueError(f"theta_star must be {d} finite values, "
                                 f"got {spec.theta_star!r}")
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
    from `path`, checked against the horizon T (as_int) and dimension d."""
    T = as_int(T, "horizon", 0)
    X, y, _ = table
    if len(y) < T:
        raise ValueError(f"csv stream {path} has {len(y)} rows, "
                         f"fewer than the requested horizon {T}")
    if X.shape[1] != d:
        raise ValueError(f"csv contexts have dimension {X.shape[1]}, "
                         f"expected {d}")
    return X[:T], y[:T]


def resolve_n(n_rule, T, d):
    """Map an --N style rule (auto-smcal, auto-sreg, or an integer: as_int,
    or text in base 10) to a concrete grid resolution."""
    if n_rule in ("auto-smcal", "auto-sreg"):
        return choose_n(T, d, n_rule.removeprefix("auto-"))
    try:
        return (int(n_rule, 10) if isinstance(n_rule, str)
                else as_int(n_rule, "grid rule", None))
    except ValueError:
        raise ValueError(f"grid rule must be auto-smcal, auto-sreg, or an "
                         f"integer, got {n_rule!r}") from None


def simulate_run(spec, T, d, n, seed=0):
    """Run the forecaster on the adversary's stream, both from one run seed;
    built first, a grid over the forecaster's cap fails before any stream."""
    fc = BmForecaster(make_grid(n), d, seed=seed)
    return run_online(fc, generate_stream(spec, T, d, seed=seed))


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

# name -> (metric on (transcript, class, losses), default class spec, None
# for a metric that reads no class). The metrics are looked up on their
# module at call time, not bound here.
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


def resolve_metric(name, hc, losses):
    """The metric on (transcript, class, losses) that a name, optionally
    suffixed :CLASS, names, and its class: hc if not None, else the suffix's,
    else the metric's default in METRICS. A metric refuses what it does not
    read: ValueError for a class given to one whose default is None, and for
    a loss menu (losses not None) given to any but somni."""
    base, _, cls = name.partition(":")
    if base not in METRICS:
        raise ValueError(f"unknown metric {base!r}; known: "
                         f"{', '.join(METRICS)}")
    fn, default = METRICS[base]
    hc = parse_class_spec(cls or default) if hc is None else hc
    if default is None and hc is not None:
        raise ValueError(f"{base} reads no comparator class, got "
                         f"{hc.descriptor()}")
    if losses is not None and base != "somni":
        raise ValueError(f"{base} reads no loss menu; only somni does")
    return fn, hc


def evaluate_metric(tr, name, hc=None, losses=None):
    """Evaluate the metric resolve_metric(name, hc, losses) names on a
    transcript."""
    fn, hc = resolve_metric(name, hc, losses)
    return fn(tr, hc, losses)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: horizons x repetitions of (simulate, evaluate one metric).

    metric may carry an inline class suffix (e.g. smcal2:ball1). n_rule is
    auto-smcal, auto-sreg, or an integer. Row seeds are seed_base + rep.
    T_list (a list or tuple of horizons >= 1, kept as a tuple), reps (>= 0),
    seed_base and d (>= 1) take integers, kept as ints (as_int). A built
    config cannot change: its construction checks every field and builds
    its plan, so the rows meet only the faults that need the stream or the
    horizon.
    """

    T_list: tuple
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

    def __post_init__(self):
        listed = isinstance(self.T_list, (list, tuple))
        try:
            object.__setattr__(self, "T_list", tuple(
                as_int(T, "T", 1)
                for T in (self.T_list if listed else [None])))
        except ValueError:
            raise ValueError(f"T_list must be a list of positive integers, "
                             f"got {self.T_list!r}") from None
        for name, low in (("reps", 0), ("seed_base", None), ("d", 1)):
            object.__setattr__(self, name, as_int(getattr(self, name), name,
                                                  low))
        self.plan  # built now, so a bad field fails the construction

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise FormatError(f"{path}: a sweep config is one JSON object")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise FormatError(f"{path}: unknown sweep fields {sorted(unknown)}")
        try:
            return cls(**doc)
        except (AttributeError, TypeError, ValueError, OSError) as exc:
            raise FormatError(f"{path}: {exc}") from exc

    @cached_property
    def plan(self):
        """(metric on (transcript, class, losses), class, loss menu,
        adversary spec), built once, at construction: a csv spec reads its
        file, and the metric is evaluated on a zero-round transcript of the
        config's grid and d. ValueError if a field is bad."""
        grid = make_grid(resolve_n(self.n_rule, 1, self.d))
        losses = parse_losses(self.losses)
        metric, hc = resolve_metric(self.metric, None, losses)
        spec = AdversarySpec(kind=self.adversary, noise=self.noise,
                             bias=self.bias, path=self.csv_path)
        if spec.kind == "csv":
            csv_rows(spec.table, 0, self.d, spec.path)  # the width, whatever T
        metric(Transcript(grid, np.zeros((0, self.d)), np.zeros((0, grid.size)),
                          [], []), hc, losses)
        return metric, hc, losses, spec


def _sweep_rows(cfg, T, reps):
    """The rows of the distinct repetitions `reps` at horizon T, in order,
    by cfg.plan: one attempt at the group, then, if it fails, one per rep,
    as run_sweep says."""
    metric, hc, losses, spec = cfg.plan
    seeds = [cfg.seed_base + rep for rep in reps]
    n = resolve_n(cfg.n_rule, T, cfg.d)
    rows = [{"T": T, "N": n, "d": cfg.d, "rep": rep, "seed": seed,
             "metric": cfg.metric, "value": "", "wall_ms": "", "error": ""}
            for rep, seed in zip(reps, seeds)]
    t0 = time.perf_counter()
    try:
        streams = [generate_stream(spec, T, cfg.d, seed=s) for s in seeds]
        runs = run_lockstep([BmForecaster(make_grid(n), cfg.d, seed=s)
                             for s in seeds], streams)
    except Exception as exc:
        if len(rows) > 1:
            return [row for rep in reps
                    for row in _sweep_rows(cfg, T, [rep])]
        rows[0]["error"] = f"{type(exc).__name__}: {exc}"
        rows[0]["wall_ms"] = f"{(time.perf_counter() - t0) * 1e3:.3f}"
        return rows
    share = (time.perf_counter() - t0) / len(rows)
    for row, tr in zip(rows, runs):
        t0 = time.perf_counter()
        try:
            row["value"] = repr(metric(tr, hc, losses).value)
        except Exception as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        row["wall_ms"] = f"{(share + time.perf_counter() - t0) * 1e3:.3f}"
    return rows


def read_results(path):
    """The rows of _numbered_rows(path): dicts of strings as written."""
    return [row for _, row in _numbered_rows(path)]


def _numbered_rows(path):
    """(line, row) for each row of a results table. FormatError if the
    header lacks any of RESULT_COLUMNS, or, with the line, if a row's T or
    rep is not an integer or its value not a float or empty."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        table = csv.DictReader(fh)
        missing = [c for c in RESULT_COLUMNS
                   if c not in (table.fieldnames or RESULT_COLUMNS)]
        if missing:
            raise FormatError(f"{path}: not a results table, its header "
                              f"lacks {missing}")
        rows = []
        for row in table:
            try:  # a failed row has an empty value
                int(row["T"]), int(row["rep"]), float(row["value"] or 0)
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path}: line {table.line_num}: {exc}") \
                    from exc
            rows.append((table.line_num, row))
        return rows


def run_sweep(cfg, out_path=None):
    """Execute all (T, rep) rows of a sweep, appending to the results table
    as rows finish.

    Each distinct horizon runs once, in first-seen order. Resumable: rows
    of this metric already in the table at one of cfg's (T, rep) are
    skipped; one whose d, seed or non-empty N is not cfg's is a FormatError
    naming its line, before any row runs. The pending reps of one horizon
    run together in lockstep, in groups of at most max(1, LOCKSTEP_ROUNDS
    // T) reps and, on a grid of K cells, at most max(1, MEMBER_CAP // K^2)
    reps, which bounds a group's memory. A group's rows are written, in
    configuration order, when the group finishes. A failed group reruns
    each rep as a group of one, so only a faulty rep's row carries the
    error. A row's wall_ms is its share of its group's time (grid size,
    streams, forecasters, lockstep run) plus its own metric time. The rows
    run cfg.plan, built with cfg, so no field fault and no second csv read
    reach the table. Returns all rows, previously completed first.
    """
    out_path = out_path or cfg.out
    if not out_path:
        raise ValueError("sweep needs an output path")
    numbered = _numbered_rows(out_path) if os.path.exists(out_path) else []
    done = set()
    for line, row in numbered:
        T, rep = int(row["T"]), int(row["rep"])
        if row["metric"] != cfg.metric or T not in cfg.T_list \
                or rep not in range(cfg.reps):
            continue
        want = {"d": cfg.d, "seed": cfg.seed_base + rep,
                "N": resolve_n(cfg.n_rule, T, cfg.d) if row["N"] else ""}
        field = next((f for f in want if row[f] != str(want[f])), None)
        if field:
            raise FormatError(
                f"{out_path}: line {line}: {field} is {row[field]!r}, not "
                f"{want[field]}: another config wrote this {cfg.metric} row")
        done.add((T, rep))
    existing = [row for _, row in numbered]
    new_rows = []
    mode = "a" if existing else "w"
    with open(out_path, mode, encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(RESULT_COLUMNS))
        if mode == "w":
            writer.writeheader()
            fh.flush()
        for T in dict.fromkeys(cfg.T_list):
            reps = [rep for rep in range(cfg.reps) if (T, rep) not in done]
            K = resolve_n(cfg.n_rule, T, cfg.d) + 1
            size = max(1, min(LOCKSTEP_ROUNDS // T, MEMBER_CAP // K ** 2))
            for i in range(0, len(reps), size):
                rows = _sweep_rows(cfg, T, reps[i:i + size])
                writer.writerows(rows)
                fh.flush()
                new_rows += rows
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

    Medians are taken per horizon over the repetition values; values
    outside (0, inf), that is zero, negative, infinite or NaN ones, are
    dropped from the log fit and counted in dropped_nonpositive. Needs at
    least three surviving horizons. Natural logs throughout.
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
        if not 0.0 < v < math.inf:
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
