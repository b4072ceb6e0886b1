"""Confidence-value / full-parameter training on binary data.

The objective mixes a generative and a discriminative negative
log-likelihood,  alpha * (-log p(x, y)) + beta * (-log p(y | x)):
the generative term is estimated with CD-k, the discriminative term is
exact because the target configurations can be enumerated.

Two parameterisations are supported.  Full-parameter training updates W, a
and b freely.  With ``freeze_structure`` every clause-annotated hidden unit
keeps its +-1 literal pattern and only its scalar confidence value moves
(weights stay c_j * sign pattern, bias stays c_j * (-T_j + eps)); free
hidden units still train fully, and visible biases stay fixed so compiled
constant terms are preserved.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from . import formula as fm
from .compiler import clause_patterns, formula_to_sdnf_clauses
from .normal_forms import ConjunctiveClause, all_assignments
from .rbm import (Rbm, block_rows, p_hidden_given_visible, p_visible_given_hidden,
                  _sigmoid)
from .reasoner import CONDITIONAL_LIMIT


@dataclass
class Dataset:
    table: fm.PropositionTable
    rows: np.ndarray                       # (N, n) 0/1
    target_indices: tuple[int, ...] = ()

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        self.target_indices = tuple(self.target_indices)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.table):
            raise ValueError("row length must equal the universe size")
        if not np.isin(self.rows, (0.0, 1.0)).all():
            raise ValueError("dataset rows must be binary")

    @classmethod
    def from_csv(cls, path, targets=()) -> "Dataset":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [[float(v) for v in row] for row in reader if row]
        table = fm.PropositionTable(header)
        idx = tuple(table.index[t] for t in targets)
        return cls(table, np.array(rows) if rows else np.zeros((0, len(header))), idx)

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.table.names)
            for row in self.rows:
                writer.writerow([int(v) for v in row])


def dataset_from_kb(kb: fm.KnowledgeBase, targets=()) -> Dataset:
    """One preferred model per formula: both sides of the implication true.

    The row sets the positive literals of the formula's first strict-DNF
    clause.  For an implication that clause is the full conjunct, body and
    head; a disjunction ``l1 | ... | lk`` is read as ``l1 <- ~l2 & ... & ~lk``;
    other formulas get their first model.  Unmentioned propositions are left
    at 0, and a formula without models adds no row.
    """
    n = len(kb.table)
    rows = []
    for _, f in kb.items:
        clauses = formula_to_sdnf_clauses(f)
        if not clauses:
            continue
        row = np.zeros(n)
        row[list(clauses[0].pos)] = 1.0
        rows.append(row)
    idx = tuple(kb.table.index[t] if isinstance(t, str) else t for t in targets)
    return Dataset(kb.table, np.array(rows) if rows else np.zeros((0, n)), idx)


@dataclass
class TrainConfig:
    alpha: float = 0.0
    beta: float = 1.0
    lr: float = 0.1
    epochs: int = 100
    batch_size: int = 0            # 0 = full batch
    cd_k: int = 1
    seed: int = 0
    freeze_structure: bool = False

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta <= 0:
            raise ValueError("need alpha, beta >= 0 with alpha + beta > 0")
        if self.cd_k < 1:
            raise ValueError("cd_k must be >= 1")


@dataclass
class Grads:
    W: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _conditional(m: Rbm, rows, targets, grad: bool = True):
    """Exact -log p(y | x) for each row, and the gradient of their mean.

    Each row carries its own label y in the target columns.  Within a row's
    2^T target grid only the target columns change, so the net input of
    configuration c is ``net_r + grid_c @ W[T]`` with ``net_r`` taken once
    with the targets at 0.  A hidden unit with no weight on a target has the
    same soft-plus term for every c, which cancels in p(y | x); only the
    units wired to a target are evaluated over the grid.  For the others
    the gradient has a closed form: with ``D = sum_c coeff_c x_c``, which
    is zero outside the target columns, ``gW[:, j] = -D sig(net_r)_j / tau``
    and ``gb[j] = 0``.  Rows are processed in blocks that keep
    block x 2^T x (wired units) within ``BLOCK_ELEMENTS``.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    targets = list(targets)
    if len(targets) > CONDITIONAL_LIMIT:
        raise SizeLimitError(f"{len(targets)} targets exceeds limit {CONDITIONAL_LIMIT}")
    if m.tau <= 0:
        raise ValueError("the exact conditional likelihood needs tau > 0")
    tau = m.tau
    N = len(rows)
    grid = all_assignments(len(targets))                      # (C, T)
    W_t = m.W[targets]
    touches = (W_t != 0).any(axis=0)
    wired, loose = np.flatnonzero(touches), np.flatnonzero(~touches)
    grid_net = grid @ W_t[:, wired]                           # (C, wired)
    grid_a = grid @ m.a[targets] / tau                        # (C,)
    # index of each row's label in counting order
    true = (rows[:, targets] @ (2 ** np.arange(len(targets) - 1, -1, -1))).astype(int)
    nll = np.empty(N)
    g = Grads(np.zeros_like(m.W), np.zeros_like(m.a), np.zeros_like(m.b)) if grad else None
    step = block_rows(len(grid) * max(len(wired), 1))
    for start in range(0, N, step):
        X0 = rows[start:start + step].copy()
        X0[:, targets] = 0.0
        net0 = X0 @ m.W + m.b                                 # (B, H)
        z = net0[:, None, wired] + grid_net                   # (B, C, wired)
        z /= tau
        buf = np.logaddexp(0.0, z)
        logp = grid_a + buf.sum(axis=2)
        logp -= np.logaddexp.reduce(logp, axis=1, keepdims=True)
        r = np.arange(len(X0))
        nll[start:start + step] = -logp[r, true[start:start + step]]
        if not grad:
            continue
        coeff = -np.exp(logp)                                 # (B, C)
        coeff[r, true[start:start + step]] += 1.0
        coeff /= N                                            # gradient of the mean
        D = coeff @ grid                                      # (B, T), target columns of D
        P = _sigmoid(z, out=buf)                              # (B, C, wired)
        P *= coeff[:, :, None]                                # coeff_rc * sig_rcw
        gb_w = -P.sum(axis=1) / tau                           # (B, wired), per row
        g.b[wired] += gb_w.sum(axis=0)
        g.W[:, wired] += X0.T @ gb_w
        g.W[np.ix_(targets, wired)] -= (grid.T @ P).sum(axis=0) / tau
        g.W[np.ix_(targets, loose)] -= D.T @ _sigmoid(net0[:, loose] / tau) / tau
        g.a[targets] -= D.sum(axis=0) / tau
    return nll, g


def _labelled(x, y_true, targets) -> np.ndarray:
    row = np.array(x, dtype=float)
    row[list(targets)] = y_true
    return row


def conditional_nll(m: Rbm, x, y_true, targets) -> float:
    """Exact -log p(y_true | x) over enumerated target configurations."""
    nll, _ = _conditional(m, _labelled(x, y_true, targets), targets, grad=False)
    return float(nll[0])


def discriminative_gradient(m: Rbm, x, y_true, targets) -> Grads:
    """Exact gradient of -log p(y_true | x) via free-energy differences."""
    return _conditional(m, _labelled(x, y_true, targets), targets)[1]


def cd_gradient(m: Rbm, x_batch, cd_k: int, rng) -> Grads:
    """CD-k estimate of the gradient of mean -log p(x) over the batch."""
    if cd_k < 1:
        raise ValueError("cd_k must be >= 1")
    X0 = np.atleast_2d(np.asarray(x_batch, dtype=float))
    B = len(X0)
    ph0 = p_hidden_given_visible(m, X0)
    Xk, phk = X0, ph0
    for _ in range(cd_k):
        H = (rng.random(phk.shape) < phk).astype(float)
        pv = p_visible_given_hidden(m, H)
        Xk = (rng.random(pv.shape) < pv).astype(float)
        phk = p_hidden_given_visible(m, Xk)
    gW = -(X0.T @ ph0 - Xk.T @ phk) / B
    ga = -(X0 - Xk).mean(axis=0)
    gb = -(ph0 - phk).mean(axis=0)
    return Grads(gW, ga, gb)


def _clause_units(m: Rbm):
    """Annotated hidden units with their sign matrix and bias pattern."""
    anns = m.clause_annotations or []
    units = [j for j, ann in enumerate(anns) if ann]
    clauses = [ConjunctiveClause(anns[j]["pos"], anns[j]["neg"]) for j in units]
    eps = m.epsilon if m.epsilon is not None else 0.5
    S, bias = clause_patterns(clauses, m.n_visible, eps)
    return np.array(units, dtype=int), S, bias


def train(m: Rbm, d: Dataset, cfg: TrainConfig) -> tuple[Rbm, list[dict]]:
    """SGD on the hybrid objective; returns a new network and a loss trace.

    Each step is ``param -= lr * (alpha * g_cd + beta * g_cond)`` over one
    batch.  The model needs tau > 0: both gradients sample or sum over the
    tau-scaled distributions.

    The trace records, per epoch, the exact mean discriminative NLL (when
    beta > 0) and the mean squared one-step reconstruction error as a proxy
    for the generative term.
    """
    if cfg.beta > 0 and not d.target_indices:
        raise ValueError("discriminative training needs target indices")
    if d.rows.shape[1] != m.n_visible:
        raise ValueError("dataset and model dimensions differ")
    out = m.copy()
    rng = np.random.default_rng(cfg.seed)
    targets = d.target_indices
    units, S, bias_pat = _clause_units(out) if cfg.freeze_structure \
        else (np.zeros(0, dtype=int), None, None)
    conf = np.array([float(out.clause_annotations[j]["confidence"]) for j in units])
    trace = []
    N = len(d.rows)
    batch = N if cfg.batch_size in (0, None) else cfg.batch_size
    for epoch in range(cfg.epochs):
        perm = rng.permutation(N) if batch < N else np.arange(N)
        for start in range(0, N, max(batch, 1)):
            rows = d.rows[perm[start:start + batch]]
            if len(rows) == 0:
                continue
            terms = []
            if cfg.alpha > 0:
                terms.append((cfg.alpha, cd_gradient(out, rows, cfg.cd_k, rng)))
            if cfg.beta > 0:
                terms.append((cfg.beta, _conditional(out, rows, targets)[1]))
            gW = sum(w * g.W for w, g in terms)
            gb = sum(w * g.b for w, g in terms)
            out.W -= cfg.lr * gW
            out.b -= cfg.lr * gb
            if cfg.freeze_structure:
                dc = np.einsum("ij,ij->j", S, gW[:, units]) + bias_pat * gb[units]
                conf = np.maximum(conf - cfg.lr * dc, 0.0)
                out.W[:, units] = S * conf
                out.b[units] = conf * bias_pat
            else:
                out.a -= cfg.lr * sum(w * g.a for w, g in terms)
        for j, c in zip(units, conf):
            out.clause_annotations[j]["confidence"] = float(c)
        entry = {"epoch": epoch}
        if cfg.beta > 0:
            entry["nll"] = float(_conditional(out, d.rows, targets, grad=False)[0].mean()) \
                if N else 0.0
        pv = p_visible_given_hidden(out, p_hidden_given_visible(out, d.rows))
        recon_err = float(np.mean((d.rows - pv) ** 2)) if N else 0.0
        entry["reconstruction_error"] = recon_err
        trace.append(entry)
    return out, trace
