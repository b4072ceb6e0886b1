"""Per-layer timing from outside the program.

``Tracer.install`` replaces public functions of the logicrbm modules with
timing wrappers, in every logicrbm module that holds them, and
``uninstall`` puts the originals back; nothing is added to the package
itself.  A span records calls, total seconds and each call's duration;
nested calls to the same span (``load_kb`` calling ``parse_kb``) are
counted once.

Run as a script, this file is the traced CLI: it installs the tracer,
runs ``logicrbm.cli.main`` on the remaining arguments, writes the spans
as JSON and exits with the CLI's code:

    python3 perfbench/layertrace.py SPANS.json -- compile kb/xor.kb -o xor.json
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, function names, counter of (args, result) or None)
TARGETS = {
    "formula.parse": ("formula", ("parse_kb", "load_kb"), None),
    "normal_forms.sdnf": ("compiler", ("formula_to_sdnf_clauses",),
                          lambda args, res: (len(res),)),
    "compiler.compile": ("compiler", ("compile_kb",), None),
    "compiler.merge": ("compiler", ("merge_clauses",),
                       lambda args, res: (len(args[0]), len(args[0]) - len(res))),
    "rbm.energy_rank": ("rbm", ("energy_rank",), None),
    "rbm.save": ("rbm", ("save_model",), None),
    "rbm.load": ("rbm", ("load_model",), None),
    "reasoner.gibbs": ("reasoner", ("infer_gibbs",), None),
    "reasoner.descent": ("reasoner", ("infer_deterministic",), None),
    "reasoner.verify": ("reasoner", ("verify_equivalence",), None),
    "trainer.train": ("trainer", ("train",), None),
    "extractor.extract": ("extractor", ("extract_clauses",), None),
}


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: {"calls": 0, "s": 0.0, "each": [], "count": None})
        self._active = set()
        self._patched = []

    def record(self, name, seconds, count=None):
        span = self.spans[name]
        span["calls"] += 1
        span["s"] += seconds
        span["each"].append(seconds)
        if count is not None:
            self.record_count(name, count)

    def record_count(self, name, count):
        span = self.spans[name]
        span["count"] = [x + y for x, y in zip(span["count"] or [0] * len(count), count)]

    @contextmanager
    def span(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - t0)

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            self._active.add(name)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                self._active.discard(name)
            self.record(name, time.perf_counter() - t0,
                        counter(args, res) if counter else None)
            return res
        return traced

    def install(self):
        mods = [importlib.import_module("logicrbm" + sub) for sub in (
            "", ".formula", ".normal_forms", ".compiler", ".rbm", ".reasoner",
            ".trainer", ".extractor", ".cli")]
        for name, (mod, fns, counter) in TARGETS.items():
            for fn_name in fns:
                orig = getattr(importlib.import_module("logicrbm." + mod), fn_name)
                wrapper = self._wrap(name, orig, counter)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def take(self) -> dict:
        """Spans recorded since the last call, as plain data."""
        out = {k: dict(v) for k, v in self.spans.items()}
        self.spans.clear()
        return out

    def absorb(self, spans: dict):
        """Adds spans taken in another process."""
        for name, span in spans.items():
            for seconds in span["each"]:
                self.record(name, seconds)
            if span["count"] is not None:
                self.record_count(name, span["count"])


def main(argv) -> int:
    out_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: layertrace.py SPANS.json -- <logicrbm arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from logicrbm import cli
    code = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
