"""Benchmark entry point.  Run from the repository root:

    python3 perfbench/run.py --workload horn-maxsat --seed 1 --seconds 30 --trace 0

Each workload runs in fresh worker processes with BLAS pinned to one
thread.  Set-up is timed here, from process start to the worker's READY
line, over SETUP_SAMPLES processes; the last of them goes on to the timed
rounds.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` every workload runs, untraced and traced, and one
table of all metrics is printed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("horn-maxsat", "wide-dnf-cli", "xor-cd1")
SETUP_SAMPLES = 7
WORKER_TIMEOUT = 150


def load_spec(root):
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(root, args, workdir, setup_only):
    """Starts one worker and returns (process, set-up seconds).  The worker
    runs the speed probe right after set-up and reports the factor that
    scales its set-up time to the reference machine speed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    scale = proc.stdout.readline().split()
    if line.strip() != "READY" or len(scale) != 2 or scale[0] != "SCALE":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker set-up failed: {line!r}")
    return proc, ready * float(scale[1])


def finish(proc, timeout) -> str:
    """Waits for a worker, killing it on timeout; returns its stdout."""
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return stdout


def run_one(root, args, spec) -> dict:
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready = start_worker(root, args, workdir, setup_only=True)
            setups.append(ready)
            finish(proc, WORKER_TIMEOUT)
        proc, ready = start_worker(root, args, workdir, setup_only=False)
        setups.append(ready)
        res = json.loads(finish(proc, WORKER_TIMEOUT).strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:      # another run is using it
            pass
    group = "per_layer" if args.trace else "end_to_end"
    measured = dict(res["metrics"], setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in spec[group]}
    for problem in res["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def table(rows):
    for workload, trace, res in rows:
        print(f"# {workload} (trace {trace}): attempted {res['attempted']}, "
              f"failed {res['failed']}, correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/logicrbm/__init__.py", "kb/xor.kb", "BENCHMARK.json")
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {missing}", file=sys.stderr)
        return 2
    spec = load_spec(root)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if args.workload:
            res = run_one(root, args, spec)
            table([(args.workload, args.trace, res)])
            print(json.dumps(res))
            return 0
        rows = []
        for workload in WORKLOADS:
            for trace in (0, 1):
                one = argparse.Namespace(workload=workload, seed=args.seed,
                                         seconds=args.seconds, trace=trace)
                rows.append((workload, trace, run_one(root, one, spec)))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    table(rows)
    print(json.dumps({f"{w}/trace{t}": res for w, t, res in rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
