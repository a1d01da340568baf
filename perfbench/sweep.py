"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root::

    python3 perfbench/sweep.py --seeds 1-10 --out sweep-summary.json

Runs ``run.py`` once per (workload, seed), one process at a time, and
reports for every metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median, the figure compared with
each metric's bound in ``BENCHMARK.json``. ``--out`` writes the summary,
per-seed values included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"seconds": args.seconds, "trace": args.trace,
              "seeds": parse_seeds(args.seeds), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in report["seeds"]:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if "env" not in report:
                report["env"] = json.loads(lines[0].partition(" ")[2])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                units[name] = m["unit"]
                if m["value"] is not None:
                    values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {name: {**summarize(v), "unit": units[name]}
                   for name, v in values.items() if len(v) >= 2}
        report["workloads"][workload] = summary
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  third {bound / 3:.4f}"
            print(f"  {workload:16s} {name:48s} median {s['median']:12.6g} {s['unit']:6s}"
                  f" spread {s['spread']:.4f}{flag}", flush=True)
    report["correct"] = bool(ok)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
