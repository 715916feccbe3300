#!/usr/bin/env python3
"""Compare a fixed set of metric and batch reports between two source trees.

    python tools/report_diff.py --src OLD/src --src src

Each tree runs in its own worker process, which imports swapcal from that
tree only, simulates the fixed transcripts and trains the fixed mixture
itself, and evaluates every report. A worker that fails stops the run: the
tool prints the tree and the last lines of the worker's stderr and exits 1.

The report set, on fixed seeds (every stream has label-flip noise 0.1,
which only the iid-logistic adversary reads):

- five simulate_run transcripts: T = 400, d = 3, N = 4, seed 9; T = 1024,
  d = 2, N = 8, seed 3; anti-calibration, T = 256, d = 2, N = 4, seed 5;
  and two of the csv adversary, replaying a file of d - 1 features and
  labels that _write_csv draws on a fixed seed into a temporary directory:
  T = 300, d = 2, N = 4, seed 6 and T = 300, d = 3, N = 4, seed 7;
- on each, every metric of METRIC_NAMES under its default class and under
  each class of CLASSES (cal2 has no class, and somni refuses the linear
  balls), bm_external_regrets under each class of CLASSES, and somni over
  the loss menu MENU under each class of OMNI_CLASSES;
- a mixture trained on 256 rounds (d = 3, N = 4, stride 8, seed 10) and 64
  test points (seed 11): saerr and dsmcal2 under each class of CLASSES and
  dsomni under each class of OMNI_CLASSES, each exhaustive and with
  MC_DRAWS Monte-Carlo draws, and dsomni over MENU, exhaustive.

MENU holds one loss of each kind: squared, absolute, vshaped(0.5) and the
custom convex loss _custom, so the omniprediction reports run every kind's
value, subgradient and best response.

A report's numbers are its value followed by every extras array,
flattened in key order. It differs bitwise when any number's bits, the
count of numbers, or the error it raised differ between the trees. The
output is one JSON line: the number of reports, how many differ bitwise,
the largest absolute and relative deviation over all numbers (relative to
the larger magnitude of the pair), the report with the largest relative
deviation (null when none differs), and how many reports' notes differ.
Only numpy and the source trees are needed.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

METRIC_NAMES = ("smcal1", "smcal2", "psmcal1", "psmcal2", "mcal2", "cal2",
                "sreg", "psreg", "somni")
CLASSES = ("ball1", "ball4", "affine-res", "cover:0.7")
OMNI_CLASSES = ("affine-res", "cover:0.7")
TRANSCRIPTS = (("iid-logistic", 400, 3, 4, 9), ("iid-logistic", 1024, 2, 8, 3),
               ("anti-calibration", 256, 2, 4, 5), ("csv", 300, 2, 4, 6),
               ("csv", 300, 3, 4, 7))
CSV_ROWS = 320
MC_DRAWS = 200
STDERR_TAIL = 12  # lines of a failed worker's stderr to show


def _custom(p, y):
    """A convex loss with a kink at p = y and best response 1.5 q - 1/4,
    clipped to [0, 1]: slope at most 1.25, values in [0, 0.75]."""
    return 0.5 * (p - y) ** 2 + 0.25 * np.abs(p - y)


def _write_csv(directory, d):
    """The path of a CSV_ROWS-row file of d - 1 features in [-1, 1] and a
    0/1 label, drawn on a fixed seed, written into directory."""
    rng = np.random.default_rng(20 + d)
    feats = rng.uniform(-1.0, 1.0, size=(CSV_ROWS, d - 1))
    labels = rng.random(CSV_ROWS) < 0.5 + 0.4 * feats[:, 0]
    path = os.path.join(directory, f"d{d}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(f"{v:.6f}" for v in row) + f",{int(lab)}\n"
                      for row, lab in zip(feats, labels))
    return path


def _entry(fn):
    """{"numbers": [...], "notes": str} of one report, or {"error": str}."""
    try:
        rep = fn()
    except Exception as exc:  # a report that raises is compared by its error
        return {"error": f"{type(exc).__name__}: {exc}"}
    if isinstance(rep, np.ndarray):
        return {"numbers": rep.ravel().tolist(), "notes": ""}
    numbers = [float(rep.value)]
    for key in sorted(rep.extras):
        numbers += np.asarray(rep.extras[key], dtype=float).ravel().tolist()
    return {"numbers": numbers, "notes": rep.notes}


def reports():
    """{report name: entry} over the fixed report set."""
    from swapcal import (AdversarySpec, absolute_loss, bm_external_regrets,
                         custom_loss, estimate_dsmcal, estimate_dsomni,
                         estimate_saerr, evaluate_metric, generate_stream,
                         simulate_run, somni, squared_loss, train_mixture,
                         vshaped_loss)
    from swapcal.harness import parse_class_spec

    menu = [squared_loss(), absolute_loss(), vshaped_loss(0.5),
            custom_loss(_custom, lipschitz_bound=1.25)]
    runs = {}
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        for kind, T, d, n, seed in TRANSCRIPTS:
            path = _write_csv(tmp, d) if kind == "csv" else None
            runs[f"{kind}/T{T}/d{d}/N{n}/s{seed}"] = simulate_run(
                AdversarySpec(kind, noise=0.1, path=path), T, d, n, seed=seed)
    out = {}
    for tag, tr in runs.items():
        for name in METRIC_NAMES:
            classes = ("",) if name == "cal2" else ("",) + CLASSES
            for cls in classes:
                if name == "somni" and cls.startswith("ball"):
                    continue
                full = f"{name}:{cls}" if cls else name
                out[f"{tag}/{full}"] = _entry(
                    lambda: evaluate_metric(tr, full))
        for cls in CLASSES:
            out[f"{tag}/bm_external_regrets:{cls}"] = _entry(
                lambda: bm_external_regrets(tr, parse_class_spec(cls)))
        for cls in OMNI_CLASSES:
            out[f"{tag}/somni:{cls}/menu"] = _entry(
                lambda: somni(tr, losses=menu, hc=parse_class_spec(cls)))

    spec = AdversarySpec("iid-logistic", noise=0.1)
    mix = train_mixture(generate_stream(spec, 256, 3, seed=10), 4, stride=8)
    test = generate_stream(spec, 64, 3, seed=11)
    estimators = (("saerr", estimate_saerr, CLASSES),
                  ("dsmcal2", estimate_dsmcal, CLASSES),
                  ("dsomni", estimate_dsomni, OMNI_CLASSES))
    for name, estimate, classes in estimators:
        for cls in classes:
            for draws in (None, MC_DRAWS):
                out[f"batch/{name}:{cls}/draws{draws}"] = _entry(
                    lambda: estimate(mix, test, hc=parse_class_spec(cls),
                                     mc_draws=draws))
    for cls in OMNI_CLASSES:
        out[f"batch/dsomni:{cls}/menu"] = _entry(
            lambda: estimate_dsomni(mix, test, losses=menu,
                                    hc=parse_class_spec(cls)))
    return out


def run_worker(src):
    """The report entries of the source tree src, from a worker process.
    If the worker fails, print its stderr's last lines and exit 1."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--worker", "--src", src],
                          capture_output=True, text=True)
    if proc.returncode:
        tail = proc.stderr.strip().splitlines()[-STDERR_TAIL:]
        sys.exit(f"error: the worker for {src} exited {proc.returncode}:\n"
                 + "\n".join(tail))
    return json.loads(proc.stdout)


def worker(src):
    """Evaluate the report set with swapcal imported from src only."""
    sys.path.insert(0, os.path.abspath(src))
    import swapcal
    if os.path.dirname(os.path.dirname(swapcal.__file__)) != \
            os.path.abspath(src):
        raise ImportError(f"swapcal was imported from {swapcal.__file__}, "
                          f"not from {src}")
    return reports()


def _deviation(a, b):
    """(bitwise equal, largest absolute, largest relative deviation) of two
    report entries."""
    if "error" in a or "error" in b or len(a["numbers"]) != len(b["numbers"]):
        same = a.get("error") == b.get("error") and "error" in a
        return same, (0.0 if same else math.inf), (0.0 if same else math.inf)
    x, y = np.array(a["numbers"]), np.array(b["numbers"])
    same = x.tobytes() == y.tobytes()
    with np.errstate(invalid="ignore"):
        gap = np.where(x == y, 0.0, np.abs(x - y))
        scale = np.maximum(np.abs(x), np.abs(y))
        rel = np.where(gap > 0, gap / np.where(scale > 0, scale, 1.0), 0.0)
    gap, rel = (np.nan_to_num(v, nan=math.inf) for v in (gap, rel))
    return same, float(gap.max(initial=0.0)), float(rel.max(initial=0.0))


def compare(base, other):
    """The summary line's fields for two trees' report entries."""
    names = sorted(set(base) | set(other))
    missing = {"error": "report missing"}
    differ, max_abs, max_rel, worst, notes = 0, 0.0, 0.0, None, 0
    for name in names:
        a, b = base.get(name, missing), other.get(name, missing)
        same, dev_abs, dev_rel = _deviation(a, b)
        differ += not same
        notes += a.get("notes") != b.get("notes")
        max_abs = max(max_abs, dev_abs)
        if not same and (worst is None or dev_rel > max_rel):
            worst = name
        max_rel = max(max_rel, dev_rel)
    return {"reports": len(names), "differ": differ, "max_abs": max_abs,
            "max_rel": max_rel, "worst": worst, "notes_differ": notes}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    help="source tree holding the swapcal package; give two: "
                         "the base, then the one compared with it")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.src[0])))
        return 0
    if len(args.src) != 2:
        ap.error("give --src twice: the base tree, then the other")
    print(json.dumps(compare(*(run_worker(src) for src in args.src))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
