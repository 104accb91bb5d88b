#!/usr/bin/env python3
"""Spread and compare tool for perfbench results.

Run a set (one result file per workload and seed, in OUT):

    python3 perfbench/spread.py run --out OUT [--checkout DIR]
        [--workloads a,b] [--seeds 1-10] [--seconds N] [--trace 0|1]

Show each metric's median and quartiles per workload, and flag end-to-end
metrics whose spread (q3 - q1) / median exceeds the bound in BENCHMARK.json:

    python3 perfbench/spread.py show OUT

Run parent and change in alternating order (ten pairs by default), then
compare:

    python3 perfbench/spread.py pairs --base PARENT_CHECKOUT \
        --new CHANGE_CHECKOUT --out OUT [--workloads ...] [--seeds 1-10]
    python3 perfbench/spread.py compare OUT/base OUT/new

compare applies the gain rule: the change wins at least 9/10 of the pairs
(same workload and seed; ties count for neither side) and the medians differ
by more than the baseline's inter-quartile distance. A metric whose baseline
spread exceeds its bound is reported unresolved instead of unchanged. A
worse median by more than the bound is a regression.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def load_spec(checkout=REPO):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(checkout, workload, seed, seconds, trace, out_dir):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    stem = os.path.join(out_dir, f"{workload}.{seed}")
    with open(stem + ".log", "w") as f:
        f.write(proc.stdout)
        f.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  {workload} seed {seed}: exit {proc.returncode}, see {stem}.log")
        return None
    result = json.loads(lines[-1])
    with open(stem + ".json", "w") as f:
        json.dump(result, f)
    flag = "" if result["correct"] else "  INCORRECT"
    # Every metric of the run's set, each in its unit, and nothing else.
    spec = load_spec(checkout)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        flag += ("  METRICS DIFFER FROM BENCHMARK.json: missing "
                 f"{sorted(set(want) - set(got))}, extra "
                 f"{sorted(set(got) - set(want))}, unit "
                 f"{sorted(k for k in set(want) & set(got) if want[k] != got[k])}")
    print(f"  {workload} seed {seed}: "
          + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                      if not k.startswith(("rms.", "svc.", "cluster.")))[:200]
          + flag, flush=True)
    return result


def load_set(directory):
    """{workload: {seed: result}} from a directory written by `run`."""
    results = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        workload, seed, _ = name.rsplit(".", 2)
        with open(os.path.join(directory, name)) as f:
            results.setdefault(workload, {})[int(seed)] = json.load(f)
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_specs(spec):
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def show(directory, spec):
    specs = metric_specs(spec)
    worst = 0.0
    for workload, runs in sorted(load_set(directory).items()):
        failed = sum(r["failed"] for r in runs.values())
        attempted = sum(r["attempted"] for r in runs.values())
        print(f"{workload}: {len(runs)} runs, failed {failed}/{attempted}")
        names = sorted({n for r in runs.values() for n in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs.values()
                      if name in r["metrics"]]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            m = specs.get(name, {})
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                worst = max(worst, spread / bound)
                if spread > bound:
                    flag = "  OVER BOUND"
                elif spread > bound / 3:
                    flag = "  over bound/3"
            unit = runs[next(iter(runs))]["metrics"].get(name, {}).get("unit", "")
            print(f"  {name:34s} n={len(values):2d} median {med:14.6g} {unit:8s}"
                  f" q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}"
                  + (f" bound {bound:.0%}" if bound is not None else "") + flag)
    print(f"largest spread / bound: {worst:.2f}")


def compare(base_dir, new_dir, spec):
    specs = metric_specs(spec)
    base, new = load_set(base_dir), load_set(new_dir)
    for workload in sorted(set(base) & set(new)):
        seeds = sorted(set(base[workload]) & set(new[workload]))
        print(f"{workload}: {len(seeds)} pairs")
        names = sorted({n for s in seeds for n in base[workload][s]["metrics"]})
        for name in names:
            pairs = [(base[workload][s]["metrics"][name]["value"],
                      new[workload][s]["metrics"][name]["value"])
                     for s in seeds if name in new[workload][s]["metrics"]
                     and name in base[workload][s]["metrics"]]
            if not pairs:
                continue
            b = [p[0] for p in pairs]
            n = [p[1] for p in pairs]
            bq1, bmed, bq3 = quartiles(b)
            _, nmed, _ = quartiles(n)
            m = specs.get(name, {})
            better, bound = m.get("better"), m.get("bound")
            line = f"  {name:34s} base {bmed:12.6g} new {nmed:12.6g}"
            if better is None:
                print(line)
                continue
            sign = 1 if better == "higher" else -1
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
            gap = nmed - bmed
            iqr = bq3 - bq1
            spread = iqr / bmed if bmed else 0.0
            worse_by = -sign * gap / bmed if bmed else 0.0
            if wins >= 0.9 * len(pairs) and abs(gap) > iqr and sign * gap > 0:
                verdict = "IMPROVED"
            elif bound is not None and worse_by > bound:
                verdict = "REGRESSED (worse than bound)"
            elif bound is not None and spread > bound and not (
                    min(n) > max(b) if sign > 0 else max(n) < min(b)):
                verdict = "unresolved (baseline spread over bound)"
            else:
                verdict = "no change beyond bound"
            print(f"{line} wins {wins}/{len(pairs)} losses {losses}"
                  f" gap {gap / bmed if bmed else 0:+.2%} base IQR {spread:.2%}"
                  f"  {verdict}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    spec = load_spec()
    names = ",".join(w["name"] for w in spec["workloads"])

    def add_run_args(p):
        p.add_argument("--out", required=True)
        p.add_argument("--workloads", default=names)
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--seconds", type=float, default=spec["run_seconds"])
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)

    p_run = sub.add_parser("run")
    add_run_args(p_run)
    p_run.add_argument("--checkout", default=REPO)
    p_pairs = sub.add_parser("pairs")
    add_run_args(p_pairs)
    p_pairs.add_argument("--base", required=True)
    p_pairs.add_argument("--new", required=True)
    p_show = sub.add_parser("show")
    p_show.add_argument("dir")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("base")
    p_cmp.add_argument("new")
    args = parser.parse_args()

    if args.cmd == "show":
        show(args.dir, spec)
    elif args.cmd == "compare":
        compare(args.base, args.new, spec)
    else:
        sides = ([("", args.checkout)] if args.cmd == "run"
                 else [("base", args.base), ("new", args.new)])
        for label, _ in sides:
            os.makedirs(os.path.join(args.out, label), exist_ok=True)
        for i, seed in enumerate(parse_seeds(args.seeds)):
            # Alternate which side runs first, pair by pair.
            order = sides if i % 2 == 0 else list(reversed(sides))
            for workload in args.workloads.split(","):
                for label, checkout in order:
                    run_one(os.path.abspath(checkout), workload, seed,
                            args.seconds, args.trace,
                            os.path.join(args.out, label))


if __name__ == "__main__":
    main()
