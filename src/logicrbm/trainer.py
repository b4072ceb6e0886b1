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
constant terms are preserved.  ``compile_kb`` puts every single-literal
clause into the visible biases and e0, so frozen training does not tune
those clauses' confidences.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import formula as fm
from .compiler import clause_patterns, formula_to_sdnf_clauses
from .normal_forms import ConjunctiveClause
from .rbm import (Rbm, _TargetGrid, p_hidden_given_visible, p_visible_given_hidden,
                  _sigmoid)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The header and the non-blank rows of a CSV file, as strings.

    An empty file, or a row whose length differs from the header's, raises
    ``ValueError`` naming the file and the line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV, expected a header row")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}, line {reader.line_num}: row length {len(row)} "
                                 f"differs from header length {len(header)}")
            rows.append(row)
    return header, rows


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
        header, cells = read_csv(path)
        rows = [[float(v) for v in row] for row in cells]
        table = fm.PropositionTable(header)
        idx = _target_indices(table, targets)
        return cls(table, np.array(rows) if rows else np.zeros((0, len(header))), idx)

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.table.names)
            for row in self.rows:
                writer.writerow([int(v) for v in row])


def _target_indices(table: fm.PropositionTable, targets) -> tuple[int, ...]:
    """Column indices of the targets, given by name or by index."""
    for t in targets:
        if isinstance(t, str) and t not in table:
            raise ValueError(f"unknown target {t!r}: no proposition of that name")
    return tuple(table.index[t] if isinstance(t, str) else t for t in targets)


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
    return Dataset(kb.table, np.array(rows) if rows else np.zeros((0, n)),
                   _target_indices(kb.table, targets))


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
    trace: bool = False            # record epoch_losses after every epoch

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf
                and self.alpha + self.beta > 0):
            raise ValueError("need finite alpha, beta >= 0 with alpha + beta > 0")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be finite and > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = full batch)")
        if self.cd_k < 1:
            raise ValueError("cd_k must be >= 1")


@dataclass
class Grads:
    W: np.ndarray
    a: np.ndarray
    b: np.ndarray


def _conditional(m: Rbm, rows, targets, grad: bool = True, into: Grads | None = None):
    """Exact -log p(y | x) for each row, and the gradient of their mean.

    The gradient is added to ``into`` when given (the caller zeroes it),
    else to fresh zero arrays.

    Each row carries its own label y in the target columns, and p(y | x)
    comes from ``rbm._TargetGrid`` in its row blocks.  The wired units'
    gradient sums over the grid; for the loose ones, with ``D = sum_c
    coeff_c x_c`` (zero outside the target columns), ``gW[:, j] =
    -D sig(net0)_j / tau`` and ``gb[j] = 0``.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    k = _TargetGrid(m, targets)
    targets, grid, wired, loose, tau, step = k.targets, k.grid, k.wired, k.loose, k.tau, k.step
    N = len(rows)
    # index of each row's label in counting order
    true = (rows[:, targets] @ (2 ** np.arange(len(targets) - 1, -1, -1))).astype(int)
    nll = np.empty(N)
    g = into
    if grad and g is None:
        g = Grads(np.zeros_like(m.W), np.zeros_like(m.a), np.zeros_like(m.b))
    for start in range(0, N, step):
        X0 = rows[start:start + step].copy()
        X0[:, targets] = 0.0
        net0, z, buf, logp = k.log_p(X0)
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


def _cd_buffers(n_visible: int, n_hidden: int, rows: int) -> tuple:
    """Scratch arrays for one CD-k step over a batch of ``rows`` rows."""
    return (np.empty((rows, n_hidden)), np.empty((rows, n_hidden)),
            np.empty((rows, n_hidden)), np.empty((rows, n_visible)),
            np.empty((rows, n_visible)), np.empty((n_visible, n_hidden)))


def _cd_into(m: Rbm, X0, cd_k: int, rng, bufs: tuple, g: Grads, G):
    """CD-k estimate of the gradient of mean -log p(x) over X0, written into g.

    ``g`` holds W, a and b as views of the flat buffer ``G`` (see
    ``_flat_views``), and every intermediate lives in ``bufs`` (see
    ``_cd_buffers``).  The RNG draws and the arithmetic are those of the
    textbook step, regrouped only where IEEE arithmetic gives the same bits:
    a mean is a sum divided by B, ``-x / B`` is ``x / -B`` (one division
    over all of G), and ``_sigmoid`` divides by 2 tau in one step.
    """
    ph0, phk, H, pv, Xk, dW = bufs
    W, a, b, tau = m.W, m.a, m.b, m.tau
    np.matmul(X0, W, out=ph0)
    ph0 += b
    p = _sigmoid(ph0, ph0, tau)
    for _ in range(cd_k):
        np.less(rng.random(out=H), p, out=H)
        np.matmul(H, W.T, out=pv)
        pv += a
        np.less(rng.random(out=Xk), _sigmoid(pv, pv, tau), out=Xk)
        np.matmul(Xk, W, out=phk)
        phk += b
        p = _sigmoid(phk, phk, tau)
    np.matmul(X0.T, ph0, out=g.W)
    g.W -= np.matmul(Xk.T, phk, out=dW)
    np.add.reduce(np.subtract(X0, Xk, out=pv), axis=0, out=g.a)
    np.add.reduce(np.subtract(ph0, phk, out=H), axis=0, out=g.b)
    G /= -len(X0)


def _flat_views(flat, n_visible: int, n_hidden: int) -> tuple:
    """W, a and b as views into one flat parameter-shaped buffer."""
    k = n_visible * n_hidden
    return (flat[:k].reshape(n_visible, n_hidden), flat[k:k + n_visible],
            flat[k + n_visible:])


def _clause_units(m: Rbm):
    """Annotated hidden units with their sign matrix and bias pattern."""
    anns = m.clause_annotations or []
    units = [j for j, ann in enumerate(anns) if ann]
    clauses = [ConjunctiveClause(anns[j]["pos"], anns[j]["neg"]) for j in units]
    eps = m.epsilon if m.epsilon is not None else 0.5
    S, bias = clause_patterns(clauses, m.n_visible, eps)
    return np.array(units, dtype=int), S, bias


def epoch_losses(m: Rbm, d: Dataset, nll: bool) -> dict:
    """One trace entry of ``m`` on the whole of ``d``, without its epoch.

    ``reconstruction_error`` is the mean squared one-step reconstruction
    error, a proxy for the generative term; with ``nll`` the entry also
    holds the exact mean discriminative NLL over ``d``'s targets.  Both are
    0.0 on a dataset without rows.
    """
    N = len(d.rows)
    entry = {}
    if nll:
        entry["nll"] = float(_conditional(m, d.rows, d.target_indices, grad=False)[0].mean()) \
            if N else 0.0
    pv = p_visible_given_hidden(m, p_hidden_given_visible(m, d.rows))
    entry["reconstruction_error"] = float(np.mean((d.rows - pv) ** 2)) if N else 0.0
    return entry


def train(m: Rbm, d: Dataset, cfg: TrainConfig) -> tuple[Rbm, list[dict]]:
    """SGD on the hybrid objective; returns a new network and a loss trace.

    Each step is ``param -= lr * (alpha * g_cd + beta * g_cond)`` over one
    batch.  The model needs tau > 0: both gradients sample or sum over the
    tau-scaled distributions.

    The trace is opt-in: with ``cfg.trace`` it holds, per epoch, the
    ``epoch_losses`` of the network after that epoch (the NLL when beta > 0)
    under the key ``epoch``; otherwise it is ``[]`` and no loss is
    computed.  ``logicrbm train --loss-log`` switches it on.  The trained
    parameters do not depend on it.
    """
    if cfg.beta > 0 and not d.target_indices:
        raise ValueError("discriminative training needs target indices")
    if d.rows.shape[1] != m.n_visible:
        raise ValueError("dataset and model dimensions differ")
    if m.tau <= 0:
        raise ValueError("training needs tau > 0")
    out = m.copy()
    n, h = out.W.shape
    # The parameters and the gradient each live in one flat buffer, with
    # W, a and b as views, so that a step updates them all in one operation.
    theta = np.concatenate((out.W.ravel(), out.a, out.b))
    G = np.empty_like(theta)
    out.W, out.a, out.b = _flat_views(theta, n, h)
    g = Grads(*_flat_views(G, n, h))
    # the discriminative gradient is summed in a buffer of its own when it
    # is added to a CD estimate
    C = np.empty_like(theta) if cfg.alpha > 0 and cfg.beta > 0 else G
    c = Grads(*_flat_views(C, n, h))
    cd_buffers = {}                        # per batch length
    rng = np.random.default_rng(cfg.seed)
    targets = d.target_indices
    units, S, bias_pat = _clause_units(out) if cfg.freeze_structure \
        else (np.zeros(0, dtype=int), None, None)
    conf = np.array([float(out.clause_annotations[j]["confidence"]) for j in units])
    trace = []
    N = len(d.rows)
    batch = cfg.batch_size or max(N, 1)
    for epoch in range(cfg.epochs):
        # one gather per epoch: each batch is a slice of the shuffled rows
        shuffled = d.rows[rng.permutation(N)] if batch < N else d.rows
        for start in range(0, N, batch):
            rows = shuffled[start:start + batch]
            if cfg.alpha > 0:
                bufs = cd_buffers.get(len(rows))
                if bufs is None:
                    bufs = cd_buffers[len(rows)] = _cd_buffers(n, h, len(rows))
                _cd_into(out, rows, cfg.cd_k, rng, bufs, g, G)
                if cfg.alpha != 1.0:       # x * 1.0 is x, bit for bit
                    G *= cfg.alpha
            if cfg.beta > 0:
                C.fill(0.0)
                _conditional(out, rows, targets, into=c)
                C *= cfg.beta
                if C is not G:
                    G += C
            if cfg.freeze_structure:
                dc = np.einsum("ij,ij->j", S, g.W[:, units]) + bias_pat * g.b[units]
                conf = np.maximum(conf - cfg.lr * dc, 0.0)
                g.a.fill(0.0)              # visible biases stay fixed
            G *= cfg.lr
            theta -= G
            if cfg.freeze_structure:
                out.W[:, units] = S * conf
                out.b[units] = conf * bias_pat
        if cfg.trace:
            trace.append({"epoch": epoch, **epoch_losses(out, d, cfg.beta > 0)})
    if cfg.epochs:
        # nothing reads the annotations while training, so they take the
        # confidences once; with no epoch they keep their stored values
        for j, c_j in zip(units, conf):
            out.clause_annotations[j]["confidence"] = float(c_j)
    out.W, out.a, out.b = out.W.copy(), out.a.copy(), out.b.copy()
    return out, trace
