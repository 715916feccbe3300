"""Run every workload untraced and then traced, each in its own process,
print every metric with its unit, and write results/report.json.

    python3 perfbench/report.py --seed 0 --seconds 40

The tracing overhead of a workload is the traced median step time minus
the untraced one, from two runs on the same seed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("online", "sweep", "offline")


def run_one(workload, seed, seconds, trace):
    """(detail, result) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    args = ap.parse_args()
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for w in WORKLOADS:
        detail, result = run_one(w, args.seed, args.seconds, 0)
        tdetail, tresult = run_one(w, args.seed, args.seconds, 1)
        untraced = result["metrics"]["step_us_p50"]["value"]
        traced = tresult["metrics"]["trace.step_us_p50"]["value"]
        entry = {
            "item": detail["item"], "pass_steps": detail["pass_steps"],
            "probe_steps": detail["probe_steps"],
            "attempted": result["attempted"] + tresult["attempted"],
            "failed": result["failed"] + tresult["failed"],
            "end_to_end": result["metrics"], "named": detail["named"],
            "per_layer": tresult["metrics"],
            "tracing_overhead": {"step_us_p50_untraced": untraced,
                                 "step_us_p50_traced": traced,
                                 "difference_us": traced - untraced,
                                 "percent": 100.0 * (traced / untraced - 1)},
            "env": detail["env"], "env_traced": tdetail["env"]}
        report["workloads"][w] = entry
        print(f"== {w}: items are {entry['item']}s; attempted "
              f"{entry['attempted']}, failed {entry['failed']}")
        for group in ("end_to_end", "named", "per_layer"):
            for name, m in entry[group].items():
                print(f"  {group:10s} {name:45s} {m['value']:>16.6g} "
                      f"{m['unit']}")
        o = entry["tracing_overhead"]
        print(f"  tracing overhead: {o['difference_us']:.1f} us per step "
              f"({o['percent']:.1f} %)")
    out = HERE / "results" / "report.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
