#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Run a workload several times, each with another seed, and print every
metric's median and interquartile spread (as a share of the median):

    python3 perfbench/steady.py run --runs 10 --out set1.json [--workload serve-put] [--trace 0]

Compare two such sets of the same code: every spread must stay within the
metric's bound from BENCHMARK.json, and the two medians of a metric may not
differ, in either direction, by more than the bound:

    python3 perfbench/steady.py compare set1.json set2.json

Run from the repository root. Quartiles are statistics.quantiles(n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={out['correct']} failed={out['failed']}")
    return {k: v["value"] for k, v in out["metrics"].items()}


def cmd_run(args):
    bench = load_benchmark()
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = [args.seed0 + i for i in range(args.runs)]
    result = {"trace": args.trace, "seeds": seeds, "workloads": {}}
    for name in names:
        values = {}
        for seed in seeds:
            for k, v in run_once(bench, name, seed, seconds, args.trace).items():
                values.setdefault(k, []).append(v)
            print(f"  {name} seed {seed} done", file=sys.stderr, flush=True)
        result["workloads"][name] = values
        print(f"{name}: {args.runs} runs")
        print(f"  {'metric':28s} {'median':>14s} {'spread':>8s} {'bound':>7s}")
        for k in sorted(values):
            med, sp = spread(values[k])
            b = bounds.get(k)
            flag = ""
            if b is not None and sp > b:
                flag = "  OVER BOUND"
            elif b is not None and sp > b / 3:
                flag = "  over a third of bound"
            bs = f"{b:7.3f}" if b is not None else "      -"
            print(f"  {k:28s} {med:14.6g} {sp:8.4f} {bs}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)


def cmd_compare(args):
    bench = load_benchmark()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    ok = True
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        print(f"{name}:")
        print(f"  {'metric':18s} {'median 1':>12s} {'median 2':>12s} {'shift':>8s} {'spread1':>8s} {'spread2':>8s} {'bound':>6s}")
        for k, m in metrics.items():
            if k not in a["workloads"][name] or k not in b["workloads"][name]:
                continue
            m1, s1 = spread(a["workloads"][name][k])
            m2, s2 = spread(b["workloads"][name][k])
            shift = abs(m2 - m1) / abs(m1) if m1 else float(m2 != 0)
            bad = shift > m["bound"] or max(s1, s2) > m["bound"]
            ok = ok and not bad
            print(f"  {k:18s} {m1:12.6g} {m2:12.6g} {shift:8.4f} {s1:8.4f} {s2:8.4f} {m['bound']:6.3f}"
                  + ("  FAIL" if bad else ""))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run workloads over several seeds")
    r.add_argument("--workload", help="one workload (default: all in BENCHMARK.json)")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0+i")
    r.add_argument("--seconds", type=int, help="override run_seconds")
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.add_argument("--out", help="write the values to this JSON file")
    c = sub.add_parser("compare", help="compare two sets written by run")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
