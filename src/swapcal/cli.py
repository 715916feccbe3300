"""Command line front end.

Subcommands:
  simulate   run the forecaster against an adversary, write a transcript
  metrics    evaluate one report on a stored transcript
  sweep      horizons x repetitions from a JSON config into a results table
  fit-rate   log-log slope fit on a results table
  batch      train a predictor mixture, score it on a held-out stream
  verify     self-contained checks of the core guarantees
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .batch import (estimate_dsmcal, estimate_dsomni, estimate_saerr,
                    train_mixture)
from .core import Transcript, as_int
from .errors import FormatError, NumericFailure, PreconditionError, \
    ResourceLimitError
from .forecaster import choose_n
from .harness import (ADVERSARIES, METRICS, AdversarySpec, SweepConfig,
                      evaluate_metric, fit_rate, generate_stream,
                      parse_class_spec, parse_losses, read_results,
                      resolve_n, run_sweep, simulate_run)

# name -> estimator, looked up at call time like harness.METRICS
BATCH_REPORTS = {"saerr": lambda *a, **k: estimate_saerr(*a, **k),
                 "dsmcal2": lambda *a, **k: estimate_dsmcal(*a, **k),
                 "dsomni": lambda *a, **k: estimate_dsomni(*a, **k)}


def build_parser():
    ap = argparse.ArgumentParser(prog="swapcal",
                                 description="swap-calibrated online "
                                             "forecasting toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the forecaster on a synthetic "
                                          "or csv stream")
    sim.add_argument("--adversary", required=True, choices=ADVERSARIES)
    sim.add_argument("--T", type=int, required=True, help="horizon")
    sim.add_argument("--d", type=int, required=True, help="context dimension")
    sim.add_argument("--N", default="auto-smcal",
                     help="grid resolution: auto-smcal, auto-sreg, or an "
                          "integer")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="transcript path (JSONL)")
    sim.add_argument("--slim", action="store_true",
                     help="accepted and ignored: runs never record the "
                          "learners' proposals")
    sim.add_argument("--csv-path", default=None, help="data file for the csv "
                                                      "adversary")
    sim.add_argument("--bias", type=float, default=0.5,
                     help="label probability for iid-bernoulli")
    sim.add_argument("--noise", type=float, default=0.0,
                     help="label flip probability for iid-logistic")

    met = sub.add_parser("metrics", help="evaluate a report on a transcript")
    met.add_argument("--transcript", required=True)
    met.add_argument("--report", required=True, choices=list(METRICS))
    met.add_argument("--class", dest="class_spec", default=None,
                     help="ball1 | ball4 | affine-res | cover:EPS | "
                          "finite:FILE")
    met.add_argument("--losses", default=None,
                     help="comma list for somni, e.g. "
                          "squared,absolute,vshaped:0.25")

    swp = sub.add_parser("sweep", help="run a sweep config")
    swp.add_argument("--config", required=True, help="JSON sweep config")
    swp.add_argument("--out", default=None,
                     help="results table path (overrides the config)")

    fit = sub.add_parser("fit-rate", help="fit a power law to sweep results")
    fit.add_argument("--in", dest="in_path", required=True,
                     help="results table from sweep")
    fit.add_argument("--metric", required=True)

    bat = sub.add_parser("batch", help="train a mixture, score it held out")
    bat.add_argument("--train", required=True,
                     help="adversary kind or csv path for training")
    bat.add_argument("--test", required=True,
                     help="adversary kind or csv path for the test stream")
    bat.add_argument("--T", type=int, required=True, help="training horizon")
    bat.add_argument("--seed", type=int, default=0)
    bat.add_argument("--report", required=True, choices=list(BATCH_REPORTS))
    bat.add_argument("--stride", type=int, default=1,
                     help="keep every stride-th snapshot; the report "
                          "commits every snapshot on every test point, so "
                          "its cost follows --T / --stride times --test-T")
    bat.add_argument("--test-T", type=int, default=None,
                     help="test stream length (default: same as --T)")

    sub.add_parser("verify", help="run the built-in guarantee checks")
    return ap


def _cmd_simulate(args):
    spec = AdversarySpec(args.adversary, bias=args.bias, noise=args.noise,
                         path=args.csv_path)
    n = resolve_n(args.N, args.T, args.d)
    simulate_run(spec, args.T, args.d, n, seed=args.seed).write_jsonl(args.out)
    header = {"N": n, "d": args.d, "T": args.T, "seed": args.seed,
              "out": args.out}
    if spec.kind == "csv":
        header["csv_scale"] = spec.table[2]
    print(json.dumps(header))
    return 0


def _cmd_metrics(args):
    tr = Transcript.read_jsonl(args.transcript)
    hc = parse_class_spec(args.class_spec)
    losses = parse_losses(args.losses)
    report = evaluate_metric(tr, args.report, hc=hc, losses=losses)
    print(report.to_json())
    return 0


def _cmd_sweep(args):
    cfg = SweepConfig.from_json(args.config)
    rows = run_sweep(cfg, out_path=args.out)
    errors = sum(1 for r in rows if r.get("error"))
    print(json.dumps({"rows": len(rows), "errors": errors,
                      "out": args.out or cfg.out}))
    return 0


def _cmd_fit_rate(args):
    rows = read_results(args.in_path)
    fit = fit_rate(rows, args.metric)
    print(json.dumps(fit.as_dict()))
    return 0


def _adversary_from_arg(arg):
    """An adversary kind with its default parameters, else a csv path."""
    return (AdversarySpec(arg) if arg in ADVERSARIES
            else AdversarySpec("csv", path=arg))


def _cmd_batch(args):
    # one spec per kind or real file path: d.csv and ./d.csv are read once
    names = (args.train, args.test)
    keys = [a if a in ADVERSARIES else os.path.realpath(a) for a in names]
    specs = dict(zip(keys, map(_adversary_from_arg, names)))
    csv = [s for s in specs.values() if s.kind == "csv"]
    d = csv[0].table[0].shape[1] if csv else 2
    test_T = args.test_T if args.test_T is not None else args.T
    if len(specs) == 1 and csv:
        # one file is one stream: training takes its first --T rows and the
        # test stream the test_T rows after them
        T = as_int(args.T, "horizon", 0)
        X, y = generate_stream(csv[0], T + as_int(test_T, "test horizon", 0),
                               d)
        train, test = (X[:T], y[:T]), (X[T:], y[T:])
    else:
        train = generate_stream(specs[keys[0]], args.T, d, seed=args.seed)
        test = generate_stream(specs[keys[1]], test_T, d, seed=args.seed + 1)
    n = choose_n(args.T, d, "smcal")
    mix = train_mixture(train, n, stride=args.stride)
    print(BATCH_REPORTS[args.report](mix, test).to_json())
    return 0


def _cmd_verify(_args):
    from .verify import run_all
    return run_all()


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {"simulate": _cmd_simulate, "metrics": _cmd_metrics,
                "sweep": _cmd_sweep, "fit-rate": _cmd_fit_rate,
                "batch": _cmd_batch, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except (FormatError, PreconditionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericFailure, ResourceLimitError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
