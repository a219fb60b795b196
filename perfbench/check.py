#!/usr/bin/env python3
"""Self-checks of the cfv repo benchmark.

    python3 perfbench/check.py spread --workload serve-warm --seeds 5
    python3 perfbench/check.py sensitivity --runs 3
    python3 perfbench/check.py contract --seconds 3

spread: runs one workload once per seed (1..N) and prints, for every
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
flagging any spread above a third of the metric's bound in BENCHMARK.json.

sensitivity: runs paper-batch unarmed twice (sets A and B) and once with
the kernel.slow_tile fault armed, each set over the same seeds.  B must
pass against A (every median within its bound); the armed set must be
flagged as a regression on the pass-rate metric (ops_per_s) and on
lat_p50_ms.

contract: runs every workload once untraced and once traced and checks
that each result line holds exactly the manifest's end_to_end (untraced)
or per_layer (traced) metrics, each in its unit.

Every subcommand drives perfbench/run.py, so it builds first when needed,
and checks every result line it reads against the manifest.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_FAULT = "kernel.slow_tile:always"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_result(result, spec, trace):
    """Raises SystemExit unless result holds exactly the manifest's
    metrics for this trace mode, in their units."""
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise SystemExit("result line does not match BENCHMARK.json: "
                         "missing %s, extra %s, wrong unit %s"
                         % (missing, extra, units))
    if not result["correct"] or result["attempted"] < 1:
        raise SystemExit("result line reports an incorrect run")


def run_once(workload, seed, seconds, fault=None, trace=0, spec=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, cwd=ROOT)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    check_result(result, spec or load_spec(), trace)
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, new):
    """Share by which new is worse than base (negative: better)."""
    if metric["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def cmd_spread(args, spec):
    rows = [run_once(args.workload, s, args.seconds)
            for s in range(1, args.seeds + 1)]
    ok = True
    for m in spec["end_to_end"]:
        vals = [r[m["name"]] for r in rows]
        med, sp = spread(vals)
        flag = ""
        if sp > m["bound"] / 3:
            flag = "  <-- above bound/3"
            ok = False
        print("%-14s %-12s median %12.6g  spread %.4f  bound %.2f%s" %
              (args.workload, m["name"], med, sp, m["bound"], flag))
        print("    " + " ".join("%.6g" % v for v in vals))
    return 0 if ok else 1


def cmd_sensitivity(args, spec):
    seeds = range(1, args.runs + 1)
    sets = {}
    for label, fault in (("A", None), ("B", None), ("armed", args.fault)):
        sets[label] = [run_once("paper-batch", s, args.seconds, fault)
                       for s in seeds]
    ok = True
    for m in spec["end_to_end"]:
        med = {k: statistics.median(r[m["name"]] for r in v)
               for k, v in sets.items()}
        again = worse_by(m, med["A"], med["B"])
        armed = worse_by(m, med["A"], med["armed"])
        flagged = armed > m["bound"]
        print("%-12s A %10.5g  B %10.5g (%+.3f)  armed %10.5g (%+.3f)%s" %
              (m["name"], med["A"], med["B"], again, med["armed"], armed,
               "  REGRESSION" if flagged else ""))
        if again > m["bound"]:
            print("  unarmed rerun fails against itself on " + m["name"])
            ok = False
        if m["name"] in ("ops_per_s", "lat_p50_ms") and not flagged:
            print("  armed fault not flagged on " + m["name"])
            ok = False
    print("sensitivity self-check: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_contract(args, spec):
    for w in spec["workloads"]:
        for trace in (0, 1):
            run_once(w["name"], 1, args.seconds, trace=trace, spec=spec)
            print("%-12s trace %d: result line matches BENCHMARK.json" %
                  (w["name"], trace))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seeds", type=int, default=5)
    sp.add_argument("--seconds", type=int, default=None)
    se = sub.add_parser("sensitivity")
    se.add_argument("--runs", type=int, default=3)
    se.add_argument("--seconds", type=int, default=None)
    se.add_argument("--fault", default=DEFAULT_FAULT)
    co = sub.add_parser("contract")
    co.add_argument("--seconds", type=int, default=3)
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return {"spread": cmd_spread, "sensitivity": cmd_sensitivity,
            "contract": cmd_contract}[args.cmd](args, spec)


if __name__ == "__main__":
    sys.exit(main())
