"""Steadiness report: run workloads N times and summarize every metric.

Run every workload of ``BENCHMARK.json`` once per seed for its
``run_seconds`` (sequentially, one process at a time) and save the result
set::

    python3 perfbench/steady.py run --seeds 1-10 --out A.json

Print a saved set again, or compare two sets of the same code::

    python3 perfbench/steady.py report A.json
    python3 perfbench/steady.py compare A.json B.json

For every workload and metric the report gives the unit, median, first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 − q1) / median.  ``compare`` prints each median change as a share of
the first set's median and flags an end-to-end metric that got worse by
more than its ``bound`` in ``BENCHMARK.json``; it exits 1 if any did.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_set(workloads, seeds, seconds, trace) -> dict:
    runs = []
    for name in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or result is None:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout}{proc.stderr}", file=sys.stderr)
            print(f"# {name} seed={seed} exit={proc.returncode}", flush=True)
            runs.append({"workload": name, "seed": seed, "trace": trace,
                         "exit": proc.returncode, "result": result})
    return {"seconds": seconds, "trace": trace, "runs": runs}


def summarize(result_set: dict) -> dict[str, dict[str, dict]]:
    """workload → metric → {unit, n, median, q1, q3, spread}."""
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    for run in result_set["runs"]:
        if run["result"] is None:
            continue
        per = values.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    out: dict[str, dict[str, dict]] = {}
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _, q3 = (
                statistics.quantiles(vals, n=4) if len(vals) > 1
                else (vals[0], None, vals[0])
            )
            out.setdefault(workload, {})[name] = {
                "unit": units[name], "n": len(vals), "median": med,
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(med) if med else float("nan"),
            }
    return out


def print_report(result_set: dict) -> None:
    failed = [r for r in result_set["runs"]
              if r["result"] is None or not r["result"]["correct"]]
    for workload, metrics in summarize(result_set).items():
        print(f"\n{workload}")
        print(f"  {'metric':30s} {'unit':12s} {'n':>3s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, s in metrics.items():
            print(f"  {name:30s} {s['unit']:12s} {s['n']:3d} "
                  f"{s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.4f}")
    for r in failed:
        print(f"FAILED: {r['workload']} seed {r['seed']} (exit {r['exit']})")


def compare(a: dict, b: dict) -> int:
    spec = _spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sa, sb = summarize(a), summarize(b)
    worse = 0
    for workload in sa:
        print(f"\n{workload}")
        for name, x in sa[workload].items():
            y = sb.get(workload, {}).get(name)
            if y is None:
                print(f"  {name:30s} missing from the second set")
                worse += 1
                continue
            change = (y["median"] - x["median"]) / abs(x["median"]) if x["median"] else 0.0
            verdict = ""
            if name in bounds:
                m = bounds[name]
                got_worse = change if m["better"] == "lower" else -change
                verdict = "WORSE" if got_worse > m["bound"] else "ok"
                verdict += f" (bound {m['bound']})"
                worse += verdict.startswith("WORSE")
            print(f"  {name:30s} {x['median']:12.6g} -> {y['median']:12.6g} "
                  f"{change:+8.4f} {verdict}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--out", required=True)
    p_rep = sub.add_parser("report")
    p_rep.add_argument("set")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    args = ap.parse_args(argv)

    if args.cmd == "run":
        spec = _spec()
        names = [w["name"] for w in spec["workloads"]]
        result_set = run_set(names, _seeds(args.seeds), spec["run_seconds"],
                             args.trace)
        with open(args.out, "w") as fh:
            json.dump(result_set, fh, indent=1)
        print_report(result_set)
        return 0 if all(r["exit"] == 0 for r in result_set["runs"]) else 1
    if args.cmd == "report":
        with open(args.set) as fh:
            print_report(json.load(fh))
        return 0
    with open(args.first) as fh1, open(args.second) as fh2:
        return compare(json.load(fh1), json.load(fh2))


if __name__ == "__main__":
    sys.exit(main())
