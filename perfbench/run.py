"""abnn benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload synthetic-train --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics (see
``layers.py``). The package is imported from ``src/`` next to this
directory, never from an installed copy, and BLAS/OpenMP run on one
thread inside this process. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the environment and a summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_tmp")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("synthetic-train", "analogy-train", "frozen-eval")
SETUP_REPEATS = 5  # setup_s is the median of these

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "train_steps_per_s": "1/s",
    "eval_items_per_s": "1/s",
    "predict_p50_ms": "ms",
}

clock = time.perf_counter


def git_sha(root: str) -> str:
    """HEAD of the checkout read from .git files, or "unknown" outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_sha": git_sha(ROOT),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Set up, run rounds for ``seconds``, and return (result, summary)."""
    import numpy as np

    from layers import TARGETS, Context, per_layer_metrics
    from spans import Tracer
    from workloads import WORKLOADS, Checks

    checks = Checks()
    wl = WORKLOADS[workload](seed, workdir, checks)
    tracer = Tracer(TARGETS) if trace else None

    setup_s, setup_rounds = [], []
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.install("setup")
        t0 = clock()
        try:
            setup_rounds.append(wl.setup())
        finally:
            if tracer:
                tracer.uninstall()
        setup_s.append(clock() - t0)

    # every round repeats the same work; traced runs alternate untraced and
    # traced rounds so the tracing overhead is measured on the same work
    rounds = []  # (wall seconds, traced, Round)
    start = clock()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install("timed")
        t0 = clock()
        try:
            r = wl.run_round()
        finally:
            if traced:
                tracer.uninstall()
        wall = clock() - t0
        rounds.append((wall, traced, r))
        if len(rounds) >= (2 if trace else 1) and clock() - start + wall > seconds:
            break

    plain = [(w, r) for w, t, r in rounds if not t]
    latencies_ms = 1e3 * np.concatenate([r.latencies_s for _, r in plain])
    summary = {"workload": workload, "seed": seed, "rounds": len(rounds),
               "round_wall_s": [round(w, 4) for w, _, _ in rounds],
               "setup_s": [round(s, 4) for s in setup_s]}
    if not trace:
        train = ([r for _, r in plain if r.train_steps]
                 or [r for r in setup_rounds if r.train_steps])
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(w for w, _ in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_steps_per_s": statistics.median(r.train_steps / r.train_s for r in train),
            "eval_items_per_s": statistics.median(r.eval_items / r.eval_s for _, r in plain),
            "predict_p50_ms": float(np.percentile(latencies_ms, 50)),
        }
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}
    else:
        traced_rounds = [(w, r) for w, t, r in rounds if t]
        saves = sum(r.checkpoint_saves for _, r in traced_rounds)
        ctx = Context(
            tracer=tracer,
            traced_s=sum(w for w, _ in traced_rounds),
            quality=traced_rounds[-1][1].quality,
            checkpoint_bytes=(sum(r.checkpoint_bytes for _, r in traced_rounds) / saves
                              if saves else 0.0),
            overhead_frac=(statistics.median(w for w, _ in traced_rounds)
                           / statistics.median(w for w, _ in plain) - 1.0),
            predict_p99_ms=float(np.percentile(latencies_ms, 99)),
        )
        metrics = per_layer_metrics(ctx)
        summary["traced_rounds"] = len(traced_rounds)
        summary["absent"] = sorted(tracer.missing)
    summary["predict_samples"] = int(latencies_ms.size)
    summary["error_rate"] = checks.failed / checks.attempted
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    return result, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; rounds stop before overrunning it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "abnn", "__init__.py")):
        print(f"error: no abnn sources under {SRC}", file=sys.stderr)
        return 2
    # pin BLAS/OpenMP before numpy loads them
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, summary = run_benchmark(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only when no other run still uses it
        except OSError:
            pass
    print("env " + json.dumps(environment(), sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
