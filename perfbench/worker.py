"""One workload in one fresh process; started by run.py.

Set-up (import, input generation, one warm-up pass) ends with a ``READY``
line on stdout, which run.py times.  With ``--setup-only`` the process
exits there.  Otherwise it runs whole pipeline rounds until the next round
would overrun ``--seconds``, checks each round, and prints one JSON line of
results.  With ``--trace 1`` it alternates untraced and traced rounds and
reports per-layer figures from the traced ones.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads as wl
from oracle import Checker
from layertrace import Tracer

# per-layer timings read from traced spans: metric -> (span, statistic)
SPAN_TIMES = {
    "formula.parse_s": ("formula.parse", "total"),
    "normal_forms.sdnf_s": ("normal_forms.sdnf", "total"),
    "compiler.compile_s": ("compiler.compile", "total"),
    "rbm.energy_rank_ms": ("rbm.energy_rank", "median_ms"),
    "rbm.save_s": ("rbm.save", "total"),
    "rbm.load_s": ("rbm.load", "total"),
    "reasoner.gibbs_ms": ("reasoner.gibbs", "median_ms"),
    "reasoner.descent_ms": ("reasoner.descent", "median_ms"),
    "reasoner.verify_s": ("reasoner.verify", "total"),
    "trainer.train_s": ("trainer.train", "total"),
    "extractor.extract_s": ("extractor.extract", "total"),
}
COUNTS = {
    "normal_forms.clauses": ("normal_forms.sdnf", 0),
    "compiler.merge_in_clauses": ("compiler.merge", 0),
    "compiler.merged_clauses": ("compiler.merge", 1),
}
QUALITY_COUNTS = ("reasoner.gibbs_optimal", "reasoner.descent_optimal", "reasoner.queries",
                  "reasoner.verify_assignments", "trainer.steps", "trainer.recovered_seeds",
                  "trainer.seeds", "extractor.recovered_units",
                  "extractor.annotated_units")
CLI_STEPS = ("compile", "verify", "reason", "train", "extract")
# Seconds the speed probe takes on the reference machine (2-core VM, Python
# 3.11, numpy 2.4, one OpenBLAS thread).  Timed figures are scaled by
# PROBE_REF_S / (probe time measured around them), so that a host that runs
# everything slower for a while does not read as a slower program.
PROBE_REF_S = 0.1


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter, small-array and BLAS work
    that does not touch logicrbm; every iteration does identical work."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    A, x, B = rng.random((64, 256)), rng.random(64), rng.random((300, 300))
    for _ in range(6000):
        np.tanh(x @ A * 0.01)[:64] + 0.5 * x
    for _ in range(25):
        np.tanh(B @ B * 0.001)
    return time.perf_counter() - t0


def span_value(spans, name, stat):
    span = spans.get(name)
    if not span or not span["calls"]:
        return 0.0
    if stat == "total":
        return span["s"]
    return 1e3 * statistics.median(span["each"])


def rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def cli_probe(seed, root, workdir) -> dict:
    """Per-subcommand wall times of a small traced CLI pipeline, for the
    workloads that do not run the CLI themselves."""
    probe = wl.WideDnfCli(seed, root, workdir, size="mini")
    probe.prepare()
    out = probe.run(tracer=Tracer())
    checker = Checker()
    probe.check(out, checker)
    if checker.failed:
        raise RuntimeError("CLI probe failed: " + "; ".join(checker.problems))
    return cli_times(out)


def cli_times(out) -> dict:
    times = dict.fromkeys(CLI_STEPS, 0.0)
    for sub, _, _, seconds, _ in out["steps"]:
        times[sub] += seconds
    return {f"cli.{sub}_s": t for sub, t in times.items()}


def startup_s(root, repeats=3) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import logicrbm.cli"], cwd=root,
                       check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def layer_metrics(w, spans, quality, out) -> dict:
    """Per-layer figures of one traced round."""
    m = {k: span_value(spans, name, stat) for k, (name, stat) in SPAN_TIMES.items()}
    for k, (name, pos) in COUNTS.items():
        span = spans.get(name)
        m[k] = span["count"][pos] if span and span["count"] else 0
    for k in QUALITY_COUNTS:
        m[k] = quality[k]
    m["trainer.step_us"] = 1e6 * m["trainer.train_s"] / max(m["trainer.steps"], 1)
    if isinstance(w, wl.WideDnfCli):
        m.update(cli_times(out))
        m["rbm.model_bytes"] = quality["rbm.model_bytes"]
    return m


def library_extras(out, root, workdir, seed) -> dict:
    """Layer figures that a library workload's pipeline does not produce:
    model JSON I/O of its trained network and a small CLI pipeline."""
    tracer = Tracer()
    tracer.install()
    try:
        path = Path(workdir) / "probe-model.json"
        trained = out["trained"]
        trained = trained[0] if isinstance(trained, list) else trained
        wl.lr.rbm.save_model(trained, path)
        wl.lr.rbm.load_model(path)
        spans = tracer.take()
    finally:
        tracer.uninstall()
    res = {"rbm.save_s": spans["rbm.save"]["s"], "rbm.load_s": spans["rbm.load"]["s"],
           "rbm.model_bytes": path.stat().st_size}
    res.update(cli_probe(seed, root, workdir))
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    root = str(Path.cwd())
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    w = wl.WORKLOADS[args.workload](args.seed, root, workdir)
    setup_spans = tracer.take() if tracer else {}
    w.warm_up()
    if tracer:
        tracer.take()
        tracer.uninstall()
    print("READY", flush=True)
    # the machine speed right after set-up, for scaling the set-up time
    probe_s = [speed_probe()]
    print(f"SCALE {PROBE_REF_S / probe_s[0]!r}", flush=True)
    if args.setup_only:
        return 0

    checker = Checker()
    modes = (False, True) if tracer else (False,)
    seconds, traced_s, quality, layers = [], [], [], []
    peak_self, spent, rounds = None, 0.0, 0
    if tracer:
        # the first full-size round runs slower; keep it out of the overhead
        w.run()
    while spent + spent / max(rounds, 1) * len(modes) <= args.seconds or not rounds:
        for traced in modes:
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            out = w.run(tracer if traced else None)
            dt = time.perf_counter() - t0
            before = probe_s[-1]
            if traced:
                tracer.uninstall()
                for step in out.get("steps", ()):
                    tracer.absorb(json.loads(step[4].read_text()))
            if peak_self is None:
                # before any oracle work, so the figure is the program's
                peak_self = rss_mb(resource.RUSAGE_SELF)
                w.prepare()
            t1 = time.perf_counter()
            try:
                q = w.check(out, checker)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                # an output the checks could not even read
                checker.op("round outputs", [f"{type(exc).__name__}: {exc}"])
                q = None
            probe_s.append(speed_probe())
            spent += dt + time.perf_counter() - t1
            rounds += 1
            if q is None:
                continue
            quality.append(q)
            scaled = dt * 2 * PROBE_REF_S / (before + probe_s[-1])
            if traced:
                traced_s.append(scaled)
                layers.append(layer_metrics(w, tracer.take(), q, out))
            else:
                seconds.append(scaled)

    if not seconds or (tracer and not traced_s):
        print("; ".join(checker.problems[:5]), file=sys.stderr)
        return 1

    def med(key, rows):
        return float(statistics.median(r[key] for r in rows))

    if tracer:
        metrics = {k: med(k, layers) for k in layers[0]}
        metrics["formula.parse_s"] += span_value(setup_spans, "formula.parse", "total")
        if not isinstance(w, wl.WideDnfCli):
            metrics.update(library_extras(out, root, workdir, args.seed))
        metrics["cli.startup_s"] = startup_s(root)
        metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(seconds)
        metrics["machine.probe_ms"] = 1e3 * statistics.median(probe_s)
    else:
        peak = rss_mb(resource.RUSAGE_CHILDREN) if isinstance(w, wl.WideDnfCli) else peak_self
        metrics = {"pipeline_s": statistics.median(seconds), "peak_rss_mb": peak}
        for k in ("hidden_units", "gibbs_weight", "descent_weight", "eval_nll"):
            metrics[k] = med(k, quality)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"rounds": rounds,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "problems": checker.problems[:20],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
