#!/usr/bin/env python3
"""Steadiness study for the benchmark defined in BENCHMARK.json.

Runs every workload (or the named ones) once per seed with tracing off and
prints, for each end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median, next to the metric's bound. With
--compare it reads two saved sets and prints how far the second set's
medians moved from the first's, as a share of the first, and whether the
failed share of operations is the same in both.

Run from the checkout root:

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out .bench_build/set1.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 --out .bench_build/set2.json
    python3 perfbench/steady.py --compare .bench_build/set1.json .bench_build/set2.json
"""
import argparse
import json
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_set(bench, workloads, runs, first_seed, seconds):
    results = {}
    for w in workloads:
        results[w] = []
        for k in range(runs):
            seed = first_seed + k
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            results[w].append(res)
            vals = " ".join(f"{m}={v['value']:.6g}" for m, v in sorted(res["metrics"].items()))
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} {vals}",
                  flush=True)
    return results


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def report(bench, results):
    for w, runs in results.items():
        print(f"\n{w}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed share: {sorted({r['failed'] / r['attempted'] for r in runs})}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, s = spread(vals)
            flag = "" if s < m["bound"] / 3 else ("  (above a third of the bound)" if s <= m["bound"] else "  (ABOVE BOUND)")
            print(f"  {m['name']:16s} median {med:12.6g} {m['unit']:10s} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {s:7.2%} bound {m['bound']:.0%}{flag}")


def compare(bench, a, b):
    for w in a:
        print(f"\n{w}:")
        fa = {r["failed"] / r["attempted"] for r in a[w]}
        fb = {r["failed"] / r["attempted"] for r in b[w]}
        print(f"  failed share {sorted(fa)} vs {sorted(fb)}: {'same' if fa == fb else 'DIFFERENT'}")
        for m in bench["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[w])
            worse = (ma - mb) / ma if m["better"] == "higher" else (mb - ma) / ma
            ok = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            print(f"  {m['name']:16s} {ma:12.6g} -> {mb:12.6g} {m['unit']:10s} worse by {worse:+7.2%} "
                  f"(bound {m['bound']:.0%}) {ok}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--seconds", type=int)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    bench = load_bench()
    if args.compare:
        with open(args.compare[0]) as f:
            a = json.load(f)
        with open(args.compare[1]) as f:
            b = json.load(f)
        compare(bench, a, b)
        return 0
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = run_set(bench, workloads, args.runs, args.first_seed, args.seconds or bench["run_seconds"])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    report(bench, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
