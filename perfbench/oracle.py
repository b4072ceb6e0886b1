"""Correctness oracles for the benchmark, written without logicrbm.

Formulas are kept in the benchmark's own small AST so that weighted
satisfiability can be evaluated from the generated formulas themselves:

    ("lit", name, positive)
    ("and" | "or" | "xor", [formula, ...])
    ("iff", left, right)
    ("imp", body, head)

Network parameters are read into ``Params`` and every energy is computed
here from ``W``, ``a``, ``b``, ``e0``.  Each ``check_*`` function returns a
list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-9
CHUNK = 1024          # rows per block in enumerations, keeps memory flat


def lit(name, positive=True):
    return ("lit", name, positive)


def render(f) -> str:
    """Formula -> logicrbm knowledge-base syntax, fully parenthesised."""
    kind = f[0]
    if kind == "lit":
        return f[1] if f[2] else "~" + f[1]
    if kind in ("and", "or", "xor"):
        op = {"and": " & ", "or": " | ", "xor": " ^ "}[kind]
        return "(" + op.join(render(g) for g in f[1]) + ")"
    if kind == "iff":
        return f"({render(f[1])} <-> {render(f[2])})"
    if kind == "imp":
        return f"({render(f[2])} <- {render(f[1])})"
    raise ValueError(f"unknown formula node {kind!r}")


def render_kb(items) -> str:
    return "".join(f"{w!r}: {render(f)}\n" for w, f in items)


def evaluate(f, X, index) -> np.ndarray:
    """Truth of f on each 0/1 row of X; ``index`` maps names to columns."""
    kind = f[0]
    if kind == "lit":
        col = X[:, index[f[1]]] > 0.5
        return col if f[2] else ~col
    if kind == "and":
        return np.logical_and.reduce([evaluate(g, X, index) for g in f[1]])
    if kind == "or":
        return np.logical_or.reduce([evaluate(g, X, index) for g in f[1]])
    if kind == "xor":
        return np.logical_xor.reduce([evaluate(g, X, index) for g in f[1]])
    if kind == "iff":
        return evaluate(f[1], X, index) == evaluate(f[2], X, index)
    if kind == "imp":
        return ~evaluate(f[1], X, index) | evaluate(f[2], X, index)
    raise ValueError(f"unknown formula node {kind!r}")


def weighted_sat(items, X, index) -> np.ndarray:
    X = np.atleast_2d(X)
    out = np.zeros(len(X))
    for w, f in items:
        out += w * evaluate(f, X, index)
    return out


def grid(n) -> np.ndarray:
    """All 0/1 rows of length n in binary counting order."""
    idx = np.arange(2 ** n)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)


def completions(evidence: dict, n: int) -> np.ndarray:
    """Every total assignment that agrees with ``evidence`` (index -> 0/1)."""
    free = [i for i in range(n) if i not in evidence]
    X = np.zeros((2 ** len(free), n))
    for i, v in evidence.items():
        X[:, i] = v
    X[:, free] = grid(len(free))
    return X


def variables(f) -> set:
    if f[0] == "lit":
        return {f[1]}
    if f[0] in ("and", "or", "xor"):
        return set().union(*(variables(g) for g in f[1]))
    return variables(f[1]) | variables(f[2])


def optimum(items, evidence: dict, index) -> float:
    """Brute-force max weighted_sat over the completions of the evidence.
    Formulas without a free variable add the same weight to every
    completion, so they are evaluated once."""
    X = completions(evidence, len(index))
    free = {name for name, i in index.items() if i not in evidence}
    moving = [(w, f) for w, f in items if variables(f) & free]
    fixed = [(w, f) for w, f in items if not variables(f) & free]
    return float(weighted_sat(fixed, X[:1], index)[0]
                 + max(weighted_sat(moving, X[s:s + CHUNK], index).max()
                       for s in range(0, len(X), CHUNK)))


@dataclass
class Params:
    W: np.ndarray
    a: np.ndarray
    b: np.ndarray
    e0: float
    tau: float
    eps: float
    names: list
    annotations: list

    @classmethod
    def from_model(cls, m) -> "Params":
        return cls(np.array(m.W, dtype=float), np.array(m.a, dtype=float),
                   np.array(m.b, dtype=float), float(m.e0), float(m.tau),
                   m.epsilon, list(m.names or []),
                   [dict(ann) if ann else None
                    for ann in (m.clause_annotations or [None] * m.W.shape[1])])

    @classmethod
    def from_json(cls, doc) -> "Params":
        W = np.array(doc["W"], dtype=float).reshape(doc["n_visible"], doc["n_hidden"])
        return cls(W, np.array(doc["a"], dtype=float), np.array(doc["b"], dtype=float),
                   float(doc["e0"]), float(doc["tau"]), doc["epsilon"],
                   list(doc["names"]), list(doc["clause_annotations"]))

    def index(self) -> dict:
        return {nm: i for i, nm in enumerate(self.names)}


def energy_rank(p: Params, X) -> np.ndarray:
    """E_rank(x) = e0 - a.x - sum_j max(0, (xW)_j + b_j)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(len(X))
    for s in range(0, len(X), CHUNK):
        Xs = X[s:s + CHUNK]
        out[s:s + CHUNK] = p.e0 - Xs @ p.a - np.maximum(Xs @ p.W + p.b, 0.0).sum(axis=1)
    return out


def free_energy(p: Params, X) -> np.ndarray:
    """F(x) = e0 - a.x - tau * sum_j log(1 + exp(net_j / tau))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(len(X))
    for s in range(0, len(X), CHUNK):
        Xs = X[s:s + CHUNK]
        soft = p.tau * np.logaddexp(0.0, (Xs @ p.W + p.b) / p.tau).sum(axis=1)
        out[s:s + CHUNK] = p.e0 - Xs @ p.a - soft
    return out


def conditional_nll(p: Params, rows, targets) -> float:
    """Mean -log p(y | x) over rows, enumerating the target configurations."""
    rows = np.asarray(rows, dtype=float)
    configs = grid(len(targets))
    X = np.repeat(rows, len(configs), axis=0)
    X[:, targets] = np.tile(configs, (len(rows), 1))
    logp = (-free_energy(p, X) / p.tau).reshape(len(rows), len(configs))
    logp -= np.logaddexp.reduce(logp, axis=1, keepdims=True)
    truth = rows[:, targets] @ (2 ** np.arange(len(targets) - 1, -1, -1))
    return float(-logp[np.arange(len(rows)), truth.astype(int)].mean())


def joint_nll(p: Params, rows) -> float:
    """Mean -log p(x) over rows, with Z by enumerating every visible state."""
    rows = np.asarray(rows, dtype=float)
    log_z = np.logaddexp.reduce(-free_energy(p, grid(p.W.shape[0])) / p.tau)
    return float((free_energy(p, rows) / p.tau + log_z).mean())


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _close(x, y) -> bool:
    return abs(x - y) <= TOL * max(1.0, abs(x), abs(y))


def check_answer(p: Params, items, x, reported_ws, evidence: dict, best: float):
    """An inference answer keeps its evidence, reports weighted_sat equal to
    -E_rank/eps and to the formulas' own value, and does not beat the optimum."""
    problems = []
    x = np.asarray(x, dtype=float)
    broken = [i for i, v in evidence.items() if x[i] != v]
    if broken:
        problems.append(f"evidence not kept at {broken[:5]}")
    ws_net = -float(energy_rank(p, x)[0]) / p.eps
    ws_kb = float(weighted_sat(items, x, p.index())[0])
    if reported_ws is None or not _close(reported_ws, ws_net):
        problems.append(f"reported weighted_sat {reported_ws} != -E_rank/eps {ws_net}")
    if not _close(ws_net, ws_kb):
        problems.append(f"-E_rank/eps {ws_net} != weighted_sat of the formulas {ws_kb}")
    if not broken and ws_kb > best + TOL * max(1.0, abs(best)):
        problems.append(f"weighted_sat {ws_kb} exceeds the brute-force optimum {best}")
    return problems


def check_identity(p: Params, items, X, program_ws=None, program_er=None):
    """weighted_sat(x) = -E_rank(x)/eps on every row, and the program's own
    values (when given) agree with the oracle's."""
    problems = []
    ws = weighted_sat(items, X, p.index())
    er = energy_rank(p, X)
    dev = np.abs(ws + er / p.eps)
    if dev.max(initial=0.0) > TOL * max(1.0, np.abs(ws).max(initial=0.0)):
        problems.append(f"identity deviates by {dev.max():.3g} "
                        f"at row {int(dev.argmax())}")
    if program_ws is not None and not np.allclose(program_ws, ws, rtol=TOL, atol=TOL):
        problems.append("program weighted_sat differs from the formulas")
    if program_er is not None and not np.allclose(program_er, er, rtol=TOL, atol=TOL):
        problems.append("program energy_rank differs from the parameters")
    return problems


def _sign_pattern(ann, n):
    s = np.zeros(n)
    s[list(ann["pos"])] = 1.0
    s[list(ann["neg"])] = -1.0
    return s


def check_frozen(before: Params, after: Params):
    """Frozen-structure training keeps every annotated unit at c * pattern,
    bias c * (-T + eps), c >= 0, and leaves the visible biases alone."""
    problems = []
    n = before.W.shape[0]
    if after.W.shape != before.W.shape:
        return [f"shape changed {before.W.shape} -> {after.W.shape}"]
    for j, ann in enumerate(before.annotations):
        if not ann:
            continue
        new = after.annotations[j]
        if not new or list(new["pos"]) != list(ann["pos"]) \
                or list(new["neg"]) != list(ann["neg"]):
            problems.append(f"unit {j}: annotation changed")
            continue
        c = float(new["confidence"])
        s = _sign_pattern(ann, n)
        bias = c * (-len(ann["pos"]) + before.eps)
        if c < 0 or not np.allclose(after.W[:, j], c * s, rtol=TOL, atol=TOL) \
                or not _close(after.b[j], bias):
            problems.append(f"unit {j}: sign pattern or bias not kept")
    if not np.array_equal(after.a, before.a):
        problems.append("visible biases moved under frozen structure")
    return problems


def check_extraction(p: Params, extracted):
    """Extraction from a clause network returns each annotated unit's clause
    and confidence; ``extracted`` holds (hidden index, pos, neg, c)."""
    problems = []
    by_unit = {j: (tuple(pos), tuple(neg), c) for j, pos, neg, c in extracted}
    for j, ann in enumerate(p.annotations):
        if not ann:
            continue
        got = by_unit.get(j)
        c = float(ann["confidence"])
        want = ((tuple(ann["pos"]), tuple(ann["neg"])) if c > 0 else ((), ()))
        if got is None or got[:2] != want or not _close(got[2], c):
            problems.append(f"unit {j}: extracted {got} != compiled {want + (c,)}")
    return problems


class Checker:
    """Counts checked operations and the ones whose output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: {'; '.join(problems)}")
        return not problems
