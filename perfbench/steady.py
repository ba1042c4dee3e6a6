#!/usr/bin/env python3
"""Steadiness and determinism check for the repository benchmark.

Runs every workload of BENCHMARK.json repeatedly, each run with another
seed, and reports for each end-to-end metric its median, quartiles and
spread (interquartile distance over the median) against the metric's bound.
It then checks determinism: two traced runs on one seed must report the same
improve.* and seed.* counts, and two untraced runs on that seed the same
score_vs_truth and layout_accuracy. Every run's output is kept in
perfbench/runs/<label>.json.

    python3 perfbench/steady.py                       # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads serve-mixed --label try1

Runs use seeds 101, 102, ... and the determinism check seed 1, each for
BENCHMARK.json's run_seconds. Exits non-zero if a run fails, a spread
exceeds its bound, or a determinism check finds a difference.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_PREFIXES = ("improve.", "seed.")
EXACT_END_TO_END = ("score_vs_truth", "layout_accuracy")
FIRST_SEED = 101
DETERMINISM_SEED = 1


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    if not ok:
        sys.stderr.write(proc.stderr[-4000:])
    return {"workload": workload, "seed": seed, "trace": trace, "wall_s": round(wall, 2),
            "exit": proc.returncode, "ok": ok, "result": result}


def summarize(bench, runs):
    rows = {}
    for m in bench["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs if r["ok"]]
        if len(vals) < 4:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": m["bound"], "n": len(vals)}
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--label", default=datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    record = {"label": args.label, "seconds": seconds, "workloads": {}}
    bad = []
    for w in names:
        runs = []
        for i in range(args.runs):
            r = run_once(bench, w, FIRST_SEED + i, seconds, 0)
            runs.append(r)
            print(f"{w} seed {r['seed']}: {'ok' if r['ok'] else 'FAILED'} in {r['wall_s']} s", flush=True)
        if not all(r["ok"] for r in runs):
            bad.append(f"{w}: a run failed")
        rows = summarize(bench, runs)
        print(f"\n{w}: {len(runs)} runs of {seconds} s")
        print(f"  {'metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, row in rows.items():
            flag = ""
            if row["spread"] > row["bound"]:
                flag = "  OVER BOUND"
                bad.append(f"{w}: {name} spread {row['spread']:.3f} > bound {row['bound']}")
            elif row["spread"] > row["bound"] / 3:
                flag = "  over a third of bound"
            print(f"  {name:<18}{row['median']:>12.5g}{row['q1']:>12.5g}{row['q3']:>12.5g}"
                  f"{row['spread']:>9.3f}{row['bound']:>7}{flag}")
        entry = {"runs": runs, "summary": rows}
        pair = [run_once(bench, w, DETERMINISM_SEED, seconds, t) for t in (0, 0, 1, 1)]
        entry["determinism_runs"] = pair
        diffs = []
        if not all(r["ok"] for r in pair):
            diffs.append("a determinism run failed")
        else:
            u0, u1, t0, t1 = (r["result"]["metrics"] for r in pair)
            for name in EXACT_END_TO_END:
                if u0[name]["value"] != u1[name]["value"]:
                    diffs.append(f"{name}: {u0[name]['value']} vs {u1[name]['value']}")
            for name in sorted(t0):
                if name.startswith(EXACT_PREFIXES) \
                        and t0[name]["unit"] in ("count", "share", "ratio") \
                        and t0[name]["value"] != t1[name]["value"]:
                    diffs.append(f"{name}: {t0[name]['value']} vs {t1[name]['value']}")
        entry["determinism_diffs"] = diffs
        print(f"  determinism on seed {DETERMINISM_SEED}: {'exact' if not diffs else 'DIFFERS: ' + '; '.join(diffs)}")
        bad += [f"{w}: {d}" for d in diffs]
        record["workloads"][w] = entry
        print(flush=True)

    os.makedirs(os.path.join(HERE, "runs"), exist_ok=True)
    path = os.path.join(HERE, "runs", f"{args.label}.json")
    with open(path, "w") as f:
        json.dump(record, f, separators=(",", ":"))
        f.write("\n")
    print(f"runs recorded in {os.path.relpath(path, ROOT)}")
    for b in bad:
        print("FAIL:", b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
