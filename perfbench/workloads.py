"""The three workloads: seeded inputs, the timed pipeline, and its checks.

Every workload runs compile -> reason -> train -> extract -> verify on
inputs drawn from its seed.  ``run`` is the timed pipeline and calls only
the program; ``check`` compares one round's outputs with the oracles in
``oracle.py`` and returns that round's quality figures.  Library calls go
through module attributes (``lr.compiler.compile_kb``) so that the tracer's
wrappers, when installed, see them.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import logicrbm.compiler
import logicrbm.extractor
import logicrbm.formula
import logicrbm.rbm
import logicrbm.reasoner
import logicrbm.trainer

import oracle as orc
from oracle import Params, lit

lr = logicrbm
HERE = Path(__file__).resolve().parent


def _spans(tracer):
    return tracer.span if tracer is not None else (lambda name: nullcontext())


def sample_rows(rng, items, names, targets, count, temperature):
    """Rows drawn from the knowledge base: non-target columns uniform,
    targets from p(y | x) proportional to exp(weighted_sat(x, y) / T)."""
    index = {nm: i for i, nm in enumerate(names)}
    cols = [index[t] for t in targets]
    configs = orc.grid(len(cols))
    X = (rng.random((count, len(names))) < 0.5).astype(float)
    cand = np.repeat(X, len(configs), axis=0)
    cand[:, cols] = np.tile(configs, (count, 1))
    logits = orc.weighted_sat(items, cand, index).reshape(count, len(configs)) / temperature
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    pick = (rng.random((count, 1)) > np.cumsum(p, axis=1)).sum(axis=1)
    X[:, cols] = configs[np.minimum(pick, len(configs) - 1)]
    return X


def relabel(f, rename):
    """Formula with each variable renamed and, where flagged, negated."""
    if f[0] == "lit":
        name, flipped = rename[f[1]]
        return lit(name, f[2] != flipped)
    if f[0] in ("and", "or", "xor"):
        return (f[0], [relabel(g, rename) for g in f[1]])
    return (f[0], relabel(f[1], rename), relabel(f[2], rename))


def first_appearance(text) -> list:
    """Proposition names in the order the program's parser registers them."""
    body = "\n".join(line.split("#", 1)[0].split(":", 1)[-1] for line in text.splitlines())
    return list(dict.fromkeys(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", body)))


def _assignment(evidence: dict, n: int):
    return lr.formula.Assignment({i: bool(v) for i, v in evidence.items()}, n)


def _answer_ops(checker, p, items, kind, answers, queries, optima):
    """Checks each answer and returns (own weighted_sat sum, optimal count)."""
    index = p.index()
    total, optimal = 0.0, 0
    for k, (x, reported) in enumerate(answers):
        ev = queries[k]
        checker.op(f"{kind} query {k}",
                   orc.check_answer(p, items, x, reported, ev, optima[k]))
        ws = float(orc.weighted_sat(items, np.asarray(x, dtype=float), index)[0])
        total += ws
        optimal += ws >= optima[k] - orc.TOL * max(1.0, abs(optima[k]))
    return total, optimal


def eval_nll(cache: dict, p, rows, targets) -> float:
    """conditional_nll, computed once per distinct trained network: every
    round trains the same network, and this costs more than its checks."""
    key = hashlib.sha1(b"".join(np.ascontiguousarray(v).tobytes()
                                for v in (p.W, p.a, p.b))).hexdigest()
    if key not in cache:
        cache[key] = orc.conditional_nll(p, rows, targets)
    return cache[key]


def _extract_ops(checker, p, extracted):
    problems = orc.check_extraction(p, extracted)
    checker.op("extract", problems)
    annotated = sum(1 for ann in p.annotations if ann)
    return annotated, annotated - len(problems)


class Library:
    """Shared shape of the two workloads that call the library in-process."""

    def reason(self, m):
        n = m.n_visible
        gibbs = [lr.reasoner.infer_gibbs(
            m, lr.reasoner.Query(_assignment(ev, n)), lr.reasoner.GibbsConfig(seed=s))
            for ev, s in zip(self.queries, self.gibbs_seeds)]
        descent = [lr.reasoner.infer_deterministic(
            m, lr.reasoner.Query(_assignment(ev, n)), lr.reasoner.DeterministicConfig(seed=s))
            for ev, s in zip(self.queries, self.descent_seeds)]
        return ([(r.vector(n), r.weighted_sat) for r in gibbs],
                [(r.vector(n), r.weighted_sat) for r in descent])

    def prepare(self):
        index = {nm: i for i, nm in enumerate(self.names)}
        self.optima = [orc.optimum(self.items, ev, index) for ev in self.queries]

    def quality_of_answers(self, checker, p, out):
        gw, gopt = _answer_ops(checker, p, self.items, "gibbs", out["gibbs"],
                               self.queries, self.optima)
        dw, dopt = _answer_ops(checker, p, self.items, "descent", out["descent"],
                               self.queries, self.optima)
        return {"gibbs_weight": gw, "descent_weight": dw,
                "reasoner.gibbs_optimal": gopt, "reasoner.descent_optimal": dopt,
                "reasoner.queries": len(self.queries)}


class HornMaxsat(Library):
    """Weighted implication KB at the ROADMAP size: 200 variables, 400
    rules of 3 body literals (30% negated) and a positive head."""

    name = "horn-maxsat"
    SIZES = {"full": dict(n=200, rules=400, queries=10, free=14, targets=4, train=32,
                          epochs=10, eval=2048, verify=256),
             "mini": dict(n=12, rules=16, queries=2, free=4, targets=2, train=4,
                          epochs=2, eval=8, verify=8)}
    TEMPERATURE = 4.0
    LR = 0.01

    def __init__(self, seed, root, workdir, size="full"):
        z = self.SIZES[size]
        rng = np.random.default_rng([seed, 1])
        names = [f"v{i:03d}" for i in range(z["n"])]
        # every variable occurs in exactly 4 * rules / n rules: the variable
        # stream is a run of permutations cut into windows of 4
        stream = np.concatenate([rng.permutation(z["n"])
                                 for _ in range(-(-4 * z["rules"] // z["n"]))])
        weights = np.resize(np.arange(1.0, 11.0), z["rules"])
        rng.shuffle(weights)
        self.items = []
        for r, w in enumerate(weights):
            v = stream[4 * r:4 * r + 4]
            body = [lit(names[i], rng.random() >= 0.3) for i in v[:3]]
            self.items.append((float(w), ("imp", ("and", body), lit(names[v[3]]))))
        self.kb = lr.formula.parse_kb(orc.render_kb(self.items))
        self.names = list(self.kb.table.names)
        n = len(self.names)
        self.queries = []
        for _ in range(z["queries"]):
            free = set(rng.choice(n, z["free"], replace=False).tolist())
            bits = rng.random(n) < 0.5
            self.queries.append({i: float(bits[i]) for i in range(n) if i not in free})
        self.gibbs_seeds = rng.integers(1 << 31, size=z["queries"]).tolist()
        self.descent_seeds = rng.integers(1 << 31, size=z["queries"]).tolist()
        self.targets = [self.names[i] for i in rng.choice(n, z["targets"], replace=False)]
        rows = sample_rows(rng, self.items, self.names, self.targets, z["train"],
                           self.TEMPERATURE)
        self.data = lr.trainer.Dataset(self.kb.table, rows,
                                       tuple(self.names.index(t) for t in self.targets))
        self.train_cfg = lr.trainer.TrainConfig(alpha=0.0, beta=1.0, lr=self.LR,
                                                epochs=z["epochs"], freeze_structure=True,
                                                seed=int(rng.integers(1 << 31)))
        self.verify_rows = (rng.random((z["verify"], n)) < 0.5).astype(float)
        self.eval_rng = np.random.default_rng([seed, 2])
        self.z = z
        self.root, self.workdir = root, workdir

    def warm_up(self):
        mini = HornMaxsat(0, self.root, self.workdir, size="mini")
        mini.run()

    def prepare(self):
        super().prepare()
        self.nll_cache = {}
        self.eval_rows = sample_rows(self.eval_rng, self.items, self.names, self.targets,
                                     self.z["eval"], self.TEMPERATURE)

    def run(self, tracer=None):
        m, _ = lr.compiler.compile_kb(self.kb)
        gibbs, descent = self.reason(m)
        trained, _ = lr.trainer.train(m, self.data, self.train_cfg)
        extracted = lr.extractor.extract_clauses(trained)
        with _spans(tracer)("reasoner.verify"):
            er = lr.rbm.energy_rank(m, self.verify_rows)
            ws = lr.formula.weighted_sat_batch(self.kb, self.verify_rows)
        return {"model": m, "gibbs": gibbs, "descent": descent, "trained": trained,
                "extracted": extracted, "er": er, "ws": ws}

    def check(self, out, checker):
        p = Params.from_model(out["model"])
        trained = Params.from_model(out["trained"])
        q = self.quality_of_answers(checker, p, out)
        checker.op("verify", orc.check_identity(p, self.items, self.verify_rows,
                                                out["ws"], out["er"]))
        checker.op("train", orc.check_frozen(p, trained))
        annotated, recovered = _extract_ops(
            checker, trained,
            [(e.hidden_index, e.clause.pos, e.clause.neg, e.c) for e in out["extracted"]])
        targets = [self.names.index(t) for t in self.targets]
        q.update({
            "hidden_units": out["model"].n_hidden,
            "eval_nll": eval_nll(self.nll_cache, trained, self.eval_rows, targets),
            "reasoner.verify_assignments": len(self.verify_rows),
            "trainer.steps": self.train_cfg.epochs,
            "trainer.recovered_seeds": 0, "trainer.seeds": 0,
            "extractor.annotated_units": annotated, "extractor.recovered_units": recovered,
        })
        return q


class XorCd1(Library):
    """The criterion-8 experiment plus compile / verify / reason / extract
    of kb/xor.kb.  The training seeds are fixed: recovery succeeds from
    about 40% of initialisations, so a seed-drawn set would move eval_nll
    by luck rather than by the code."""

    name = "xor-cd1"
    TRAIN_SEEDS = (22, 23, 24)
    EPOCHS = 5000
    XOR = [(1.0, ("iff", ("xor", [lit("x"), lit("y")]), lit("z")))]
    PATTERNS = {((), (0, 1, 2)), ((1, 2), (0,)), ((0, 2), (1,)), ((0, 1), (2,))}

    def __init__(self, seed, root, workdir, size="full"):
        rng = np.random.default_rng([seed, 3])
        self.items = self.XOR
        self.kb = lr.formula.load_kb(Path(root) / "kb" / "xor.kb")
        self.names = list(self.kb.table.names)
        n = len(self.names)
        count = 8 if size == "full" else 1
        self.queries = []
        for _ in range(count):
            fixed = rng.choice(n, int(rng.integers(1, 3)), replace=False)
            self.queries.append({int(i): float(rng.random() < 0.5) for i in fixed})
        self.gibbs_seeds = rng.integers(1 << 31, size=count).tolist()
        self.descent_seeds = rng.integers(1 << 31, size=count).tolist()
        index = {nm: i for i, nm in enumerate(self.names)}
        self.rows = orc.grid(n)[orc.weighted_sat(self.items, orc.grid(n), index) > 0]
        self.data = lr.trainer.Dataset(self.kb.table, self.rows)
        self.seeds = self.TRAIN_SEEDS if size == "full" else self.TRAIN_SEEDS[:1]
        self.epochs = self.EPOCHS if size == "full" else 20
        self.root, self.workdir = root, workdir

    def warm_up(self):
        XorCd1(0, self.root, self.workdir, size="mini").run()

    def run(self, tracer=None):
        m, _ = lr.compiler.compile_kb(self.kb)
        report = lr.reasoner.verify_equivalence(m, self.kb, m.epsilon)
        gibbs, descent = self.reason(m)
        trained = []
        for seed in self.seeds:
            init = np.random.default_rng(seed)
            m0 = lr.rbm.Rbm(W=init.normal(0, 1.5, (3, 4)), a=np.zeros(3), b=np.zeros(4))
            cfg = lr.trainer.TrainConfig(alpha=1.0, beta=0.0, lr=0.1, epochs=self.epochs,
                                         cd_k=1, batch_size=1, seed=seed)
            trained.append(lr.trainer.train(m0, self.data, cfg)[0])
        compiled_extract = lr.extractor.extract_clauses(m)
        trained_extract = [lr.extractor.extract_clauses(t) for t in trained]
        return {"model": m, "verify": report, "gibbs": gibbs, "descent": descent,
                "trained": trained, "extracted": compiled_extract,
                "trained_extracted": trained_extract}

    def check(self, out, checker):
        p = Params.from_model(out["model"])
        q = self.quality_of_answers(checker, p, out)
        rep = out["verify"]
        problems = orc.check_identity(p, self.items, orc.grid(len(self.names)))
        if not rep.ok(orc.TOL) or rep.n_assignments != 2 ** len(self.names):
            problems.append(f"verify reported deviation {rep.max_deviation} "
                            f"over {rep.n_assignments} assignments")
        checker.op("verify", problems)
        annotated, recovered = _extract_ops(
            checker, p,
            [(e.hidden_index, e.clause.pos, e.clause.neg, e.c) for e in out["extracted"]])
        nll, hits = [], 0
        for t, ext in zip(out["trained"], out["trained_extracted"]):
            tp = Params.from_model(t)
            problems = []
            if not (np.isfinite(tp.W).all() and np.isfinite(tp.a).all()
                    and np.isfinite(tp.b).all()):
                problems.append("trained parameters are not finite")
            for e in ext:
                col = tp.W[:, e.hidden_index]
                s = np.zeros(len(col))
                s[list(e.clause.pos)] = 1.0
                s[list(e.clause.neg)] = -1.0
                if abs(np.linalg.norm(col - e.c * s) - e.distance) > 1e-9:
                    problems.append(f"unit {e.hidden_index}: distance does not match")
            checker.op("train+extract", problems)
            nll.append(orc.joint_nll(tp, self.rows))
            hits += {(e.clause.pos, e.clause.neg) for e in ext} == self.PATTERNS
        q.update({
            "hidden_units": out["model"].n_hidden,
            "eval_nll": float(np.mean(nll)),
            "reasoner.verify_assignments": rep.n_assignments,
            "trainer.steps": len(self.seeds) * self.epochs * len(self.rows),
            "trainer.recovered_seeds": hits, "trainer.seeds": len(self.seeds),
            "extractor.annotated_units": annotated, "extractor.recovered_units": recovered,
        })
        return q


class WideDnfCli:
    """Wide disjunctions and XOR/iff formulas over 12 variables, run through
    ``python -m logicrbm`` subprocesses one after another."""

    name = "wide-dnf-cli"
    # (kind, variables, how many).  The wide formulas differ in width, so
    # they share no clause: 4095 + 511 + 127 + 63 + 16 + 6 units, plus the
    # small formulas that give the reasoner and the trainer some structure.
    SHAPES = {"full": [("or", 12, 1), ("or", 9, 1), ("or", 7, 1), ("or", 6, 1),
                       ("xor", 5, 1), ("iff", 4, 1),
                       ("or", 3, 8), ("xor", 2, 8), ("iff", 3, 8)],
              "mini": [("or", 5, 1), ("xor", 3, 1), ("iff", 4, 1)]}
    SIZES = {"full": dict(n=12, queries=3, evidence=4, targets=3, train=32, epochs=10,
                          eval=2048),
             "mini": dict(n=5, queries=1, evidence=2, targets=2, train=4, epochs=2,
                          eval=8)}
    TEMPERATURE = 0.4
    LR = 0.01
    BASE_SEED = 1705
    # descent restarts are cheap here; 40 of them make its answers depend
    # less on the seed than the default 10
    MODE_OPTIONS = {"gibbs": {}, "deterministic": {"restarts": 40}}

    def __init__(self, seed, root, workdir, size="full"):
        z = self.SIZES[size]
        # A 12-variable KB is too small for its quality figures to average
        # out over random structure, so formulas, queries and rows are drawn
        # once from a fixed stream and the seed relabels them: it permutes
        # the variables, flips their polarity and draws the search seeds.
        base = np.random.default_rng(self.BASE_SEED)
        rng = np.random.default_rng([seed, 4])
        n = z["n"]
        canon = [f"c{i:02d}" for i in range(n)]
        pool = [f"p{i:02d}" for i in range(n)]
        perm, flip = rng.permutation(n), rng.random(n) < 0.5
        self.rename = {canon[i]: (pool[perm[i]], bool(flip[i])) for i in range(n)}
        shapes = [(kind, k) for kind, k, count in self.SHAPES[size] for _ in range(count)]
        weights = np.resize(np.arange(0.1, 1.05, 0.1), len(shapes))
        base.shuffle(weights)
        self.canon_items = []
        for (kind, k), w in zip(shapes, weights):
            vs = [lit(canon[i], base.random() < 0.5) for i in base.choice(n, k, replace=False)]
            f = ("iff", ("and", vs[:2]), ("or", vs[2:])) if kind == "iff" else (kind, vs)
            self.canon_items.append((float(w), f))
        self.items = [(w, relabel(f, self.rename)) for w, f in self.canon_items]
        self.text = orc.render_kb(self.items)
        self.names = first_appearance(self.text)
        self.canon_targets = [canon[i] for i in base.choice(n, z["targets"], replace=False)]
        self.targets = [self.rename[c][0] for c in self.canon_targets]
        self.queries = []
        for _ in range(z["queries"]):
            fixed = base.choice(n, z["evidence"], replace=False)
            row = self.to_names((base.random((1, n)) < 0.5).astype(float))[0]
            cols = [self.names.index(self.rename[canon[i]][0]) for i in fixed]
            self.queries.append({c: row[c] for c in cols})
        self.gibbs_seeds = rng.integers(1 << 31, size=z["queries"]).tolist()
        self.descent_seeds = rng.integers(1 << 31, size=z["queries"]).tolist()
        rows = self.sample(base, z["train"])
        self.eval_rng = np.random.default_rng(self.BASE_SEED + 1)
        self.z, self.size = z, size
        self.root, self.dir = Path(root), Path(workdir) / f"cli-{size}"
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / "kb.kb").write_text(self.text, encoding="utf-8")
        with open(self.dir / "data.csv", "w", encoding="utf-8") as fh:
            fh.write(",".join(self.names) + "\n")
            fh.writelines(",".join(str(int(v)) for v in row) + "\n" for row in rows)
        self.query_files = []
        for k, ev in enumerate(self.queries):
            for mode, seed in (("gibbs", self.gibbs_seeds[k]),
                               ("deterministic", self.descent_seeds[k])):
                path = self.dir / f"q{k}-{mode}.json"
                path.write_text(json.dumps({
                    "evidence": {self.names[i]: bool(v) for i, v in ev.items()},
                    "mode": mode, "seed": seed, **self.MODE_OPTIONS[mode]}),
                    encoding="utf-8")
                self.query_files.append((mode, k, path))

    def warm_up(self):
        mini = WideDnfCli(0, self.root, self.dir.parent, size="mini")
        code, _, _ = mini.cli(["compile", str(mini.dir / "kb.kb"), "-o",
                               str(mini.dir / "model.json")], None)
        if code != 0:
            raise RuntimeError(f"warm-up compile exited {code}")

    def to_names(self, X):
        """Canonical rows (columns c00, c01, ...) -> rows of this relabelling."""
        out = np.empty_like(X)
        for i, c in enumerate(sorted(self.rename)):
            name, flipped = self.rename[c]
            out[:, self.names.index(name)] = 1.0 - X[:, i] if flipped else X[:, i]
        return out

    def sample(self, rng, count):
        canon = sorted(self.rename)
        return self.to_names(sample_rows(rng, self.canon_items, canon, self.canon_targets,
                                         count, self.TEMPERATURE))

    def prepare(self):
        index = {nm: i for i, nm in enumerate(self.names)}
        self.optima = [orc.optimum(self.items, ev, index) for ev in self.queries]
        self.nll_cache = {}
        self.eval_rows = self.sample(self.eval_rng, self.z["eval"])

    def cli(self, args, spans_path):
        """One subprocess; traced through layertrace.py when spans_path is set."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "logicrbm", *args]
        else:
            cmd = [sys.executable, str(HERE / "layertrace.py"), str(spans_path), "--", *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, cwd=self.root, timeout=120)
        return proc.returncode, proc.stdout, time.perf_counter() - t0

    def run(self, tracer=None):
        d = self.dir
        steps = [("compile", ["compile", str(d / "kb.kb"), "-o", str(d / "model.json")]),
                 ("verify", ["verify", str(d / "model.json"), str(d / "kb.kb")])]
        steps += [("reason", ["reason", str(d / "model.json"), str(path)])
                  for _, _, path in self.query_files]
        steps += [("train", ["train", str(d / "model.json"), str(d / "data.csv"),
                             "--targets", ",".join(self.targets), "--freeze-structure",
                             "--epochs", str(self.z["epochs"]), "--lr", str(self.LR),
                             "-o", str(d / "trained.json")]),
                  ("extract", ["extract", str(d / "trained.json"),
                               "--json", str(d / "extracted.json")])]
        results = []
        for k, (sub, args) in enumerate(steps):
            spans_path = d / f"spans-{k}.json" if tracer is not None else None
            results.append((sub, *self.cli(args, spans_path), spans_path))
        return {"steps": results}

    def check(self, out, checker):
        d = self.dir
        codes = {}
        for k, (sub, code, stdout, _, _) in enumerate(out["steps"]):
            codes[k] = code
            checker.op(f"cli {sub} exit", [] if code == 0 else [f"exit code {code}"])
        model = Params.from_json(json.loads((d / "model.json").read_text()))
        trained = Params.from_json(json.loads((d / "trained.json").read_text()))
        index = model.index()
        problems = [] if model.names == self.names else ["model universe order differs"]
        checker.op("compile", problems)

        n = len(self.names)
        verify_out = json.loads(out["steps"][1][2]) if codes[1] == 0 else {}
        problems = orc.check_identity(model, self.items, orc.grid(n))
        if not verify_out.get("ok") or verify_out.get("max_deviation", 1.0) > orc.TOL \
                or verify_out.get("n_assignments") != 2 ** n:
            problems.append(f"verify reported {verify_out}")
        checker.op("verify", problems)

        answers = {"gibbs": [], "deterministic": []}
        for (mode, k, _), (_, code, stdout, _, _) in zip(self.query_files, out["steps"][2:]):
            doc = json.loads(stdout) if code == 0 else {"assignment": {}, "weighted_sat": None}
            x = np.array([float(doc["assignment"].get(nm, False)) for nm in self.names])
            answers[mode].append((x, doc["weighted_sat"]))
        gw, gopt = _answer_ops(checker, model, self.items, "gibbs", answers["gibbs"],
                               self.queries, self.optima)
        dw, dopt = _answer_ops(checker, model, self.items, "descent",
                               answers["deterministic"], self.queries, self.optima)

        checker.op("train", orc.check_frozen(model, trained))
        listing = json.loads((d / "extracted.json").read_text())
        extracted = [(e["hidden_index"], sorted(index[nm] for nm in e["pos"]),
                      sorted(index[nm] for nm in e["neg"]), e["confidence"])
                     for e in listing]
        annotated, recovered = _extract_ops(checker, trained, extracted)
        targets = [index[t] for t in self.targets]
        return {
            "hidden_units": model.W.shape[1],
            "gibbs_weight": gw, "descent_weight": dw,
            "eval_nll": eval_nll(self.nll_cache, trained, self.eval_rows, targets),
            "reasoner.gibbs_optimal": gopt, "reasoner.descent_optimal": dopt,
            "reasoner.queries": len(self.queries),
            "reasoner.verify_assignments": 2 ** n,
            "trainer.steps": self.z["epochs"],
            "trainer.recovered_seeds": 0, "trainer.seeds": 0,
            "extractor.annotated_units": annotated, "extractor.recovered_units": recovered,
            "rbm.model_bytes": os.path.getsize(d / "model.json"),
        }


WORKLOADS = {w.name: w for w in (HornMaxsat, WideDnfCli, XorCd1)}
