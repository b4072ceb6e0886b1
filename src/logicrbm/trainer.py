"""Confidence-value / full-parameter training on binary data.

The objective mixes a generative and a discriminative negative
log-likelihood,  alpha * (-log p(x, y)) + beta * (-log p(y | x)):
the generative term is estimated with CD-k, the discriminative term is
exact because the target configurations can be enumerated.

Two parameterisations are supported.  Full-parameter training updates W, a
and b freely, so its result carries no clause annotations.  With
``freeze_structure`` every clause-annotated hidden unit is written from
its clause before the first step, and then only its scalar confidence
value moves (weights c_j * sign pattern, bias c_j * (-T_j + eps)); free
hidden units still train fully, and visible biases stay fixed so compiled
constant terms are preserved.  ``compile_kb`` puts every single-literal clause into the
visible biases and e0, so frozen training does not tune those clauses'
confidences.
"""
from __future__ import annotations

import csv
import json
import math
from itertools import chain, repeat
from dataclasses import dataclass

import numpy as np

from . import formula as fm
from .compiler import formula_to_sdnf_clauses
from .errors import SizeLimitError
from .rbm import (SEARCH_LIMIT, Rbm, _Clamped, _ClauseUnits, _UniformBlocks, block_rows,
                  column_nonzeros, p_hidden_given_visible, p_visible_given_hidden, _sigmoid,
                  _twice_sigmoid)


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


@dataclass
class OneHotSpec:
    """The values of each categorical attribute; attribute ``a`` with value
    ``v`` becomes the proposition ``a_v``."""
    attributes: list[tuple[str, list[str]]]

    @classmethod
    def from_json(cls, path) -> "OneHotSpec":
        """A spec file {"attributes": [{"name": ..., "values": [...]}, ...]};
        a file of any other shape raises ``ValueError`` naming the field."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("an ingest spec must hold one JSON object")
        if "class" in doc:
            raise ValueError("spec field 'class' is not read: ingest encodes every attribute; "
                             "name the class columns (<attribute>_<value>) with "
                             "train --targets instead")
        attrs = doc.get("attributes")
        if not isinstance(attrs, list):
            raise ValueError("spec field 'attributes' must be a list of "
                             f"{{name, values}} objects, not {attrs!r}")
        out = []
        for k, att in enumerate(attrs):
            if not (isinstance(att, dict) and isinstance(att.get("name"), str)):
                raise ValueError(f"spec attribute {k} must be an object with a string "
                                 f"'name', not {att!r}")
            values = att.get("values")
            if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
                raise ValueError(f"spec attribute {att['name']!r}: field 'values' must be "
                                 f"a list of strings, not {values!r}")
            out.append((att["name"], values))
        return cls(out)

    @classmethod
    def infer(cls, header, rows) -> "OneHotSpec":
        """Every column of the table, with the sorted values it takes."""
        attrs = []
        for col, name in enumerate(header):
            values = sorted({row[col] for row in rows})
            attrs.append((name, values))
        return cls(attrs)

    def proposition_names(self) -> list[str]:
        names = []
        for attr, values in self.attributes:
            for v in values:
                names.append(f"{attr}_{v}")
        if len(set(names)) != len(names):
            raise ValueError("one-hot proposition names collide")
        return names


def ingest_categorical(rows, header, spec: OneHotSpec) -> Dataset:
    """Categorical rows -> one-hot binary Dataset (one true unit per attribute)."""
    col_of = {name: i for i, name in enumerate(header)}
    names = spec.proposition_names()
    table = fm.PropositionTable(names)
    for attr, _ in spec.attributes:
        if attr not in col_of:
            raise ValueError(f"attribute {attr!r} missing from the CSV header")
    out = np.zeros((len(rows), len(names)))
    for r, row in enumerate(rows):
        for attr, values in spec.attributes:
            val = row[col_of[attr]]
            if val not in values:
                raise ValueError(
                    f"row {r + 1}: unknown value {val!r} for attribute {attr!r}")
            out[r, table.index[f"{attr}_{val}"]] = 1.0
    return Dataset(table, out)


def dataset_from_kb(kb: fm.KnowledgeBase, targets=()) -> Dataset:
    """One preferred model per formula: both sides of the implication true.

    The row sets the positive literals of the formula's first strict-DNF
    clause.  For a clause, whether ``head <- body`` or ``l1 | ... | lk``
    (headed by l1), that is the full conjunct: the head and the negations of
    its other literals, so an implication's body and head both hold.  Other
    formulas get their first model.  Unmentioned propositions are left at 0,
    and a formula without models adds no row.
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
    else to fresh zero arrays.  Each row carries its own label y in the
    target columns.  p(y | x) is ``rbm._Clamped.log_p`` of each row block,
    whose configurations split only where one row's do not fit one block;
    the gradient makes a second pass over them for the wired units.
    For the loose ones, with ``D = sum_c coeff_c x_c`` (zero outside the
    target columns), ``gW[:, j] = -D sig(net0)_j / tau`` and ``gb[j] = 0``.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    targets, tau, N = list(targets), m.tau, len(rows)
    # index of each row's label in counting order
    true = (rows[:, targets] @ (2 ** np.arange(len(targets) - 1, -1, -1))).astype(int)
    nll = np.empty(N)
    g = into
    if grad and g is None:
        g = Grads(np.zeros_like(m.W), np.zeros_like(m.a), np.zeros_like(m.b))
    # rows per block: their configurations of every hidden unit fit one block
    step = block_rows(2 ** len(targets) * max(m.n_hidden, len(targets)))
    for start in range(0, N, step):
        X0 = rows[start:start + step].copy()
        X0[:, targets] = 0.0
        c = _Clamped(m, targets, X0)
        logp = c.log_p()
        r, y = np.arange(len(X0)), true[start:start + step]
        nll[start:start + step] = -logp[r, y]
        if not grad:
            continue
        coeff = -np.exp(logp)                                 # (B, C)
        coeff[r, y] += 1.0
        coeff /= N                                            # gradient of the mean
        sums = None
        for lo, Xf in c.blocks():
            cb = coeff[:, lo:lo + len(Xf)]
            P = _sigmoid(c.z(Xf))
            P *= cb[:, :, None]                               # coeff_rc * sig_rcw
            part = (cb @ Xf, P.sum(axis=1), (Xf.T @ P).sum(axis=0))
            sums = part if sums is None else [s + p for s, p in zip(sums, part)]
            del P                                             # before the next block's z
        D, P_c, P_grid = sums                                 # D: (B, T), target columns
        gb_w = -P_c / tau                                     # (B, wired), per row
        g.b[c.wired] += gb_w.sum(axis=0)
        g.W[:, c.wired] += X0.T @ gb_w
        g.W[np.ix_(targets, c.wired)] -= P_grid / tau
        g.W[np.ix_(targets, c.loose)] -= D.T @ _sigmoid(c.net0[:, c.loose] / tau) / tau
        g.a[targets] -= D.sum(axis=0) / tau
    return nll, g


def _cd_buffers(n_visible: int, n_hidden: int, rows: int) -> tuple:
    """Scratch arrays for one CD-k step over a batch of ``rows`` rows."""
    return (np.empty((rows, n_hidden)), np.empty((rows, n_hidden)),
            np.empty((rows, n_hidden)), np.empty((rows, n_visible)),
            np.empty((rows, n_visible)), np.empty((n_visible, n_hidden)))


def _cd_uniforms(steps: int, rows: int, n_visible: int, n_hidden: int,
                 cd_k: int) -> _UniformBlocks:
    """The doubled uniforms of ``steps`` CD-k steps over ``rows`` rows each:
    per Gibbs round, the hidden draws and then the visible ones."""
    return _UniformBlocks(steps, [(rows, n_hidden), (rows, n_visible)] * cd_k)


def _cd_into(m: Rbm, X0, U, bufs: tuple, g: Grads, G, ascent: bool = False):
    """CD-k estimate of the gradient of mean -log p(x) over X0, written into g.

    With ``ascent`` g gets the negated gradient, mean(pos - neg), which
    skips a pass over G at batch size 1.  ``U`` holds the step's doubled
    uniforms from ``_cd_uniforms``, ``g`` holds W, a and b as views of the
    flat buffer ``G`` (see ``_flat_views``), and every intermediate lives
    in ``bufs`` (see ``_cd_buffers``).  The arithmetic is that of the
    textbook step, regrouped only where IEEE arithmetic gives the same
    bits: a sample compares 2u with 2p (see ``_twice_sigmoid``), a mean is
    a sum divided by B, ``-x / B`` is ``x / -B`` and ``_sigmoid`` divides
    by 2 tau in one step.
    """
    ph0, phk, H, pv, Xk, dW = bufs
    W, a, b, tau = m.W, m.a, m.b, m.tau
    np.matmul(X0, W, out=ph0)
    ph0 += b
    p = _twice_sigmoid(ph0, ph0, tau)
    for k in range(0, len(U), 2):
        np.less(U[k], p, out=H)
        np.matmul(H, W.T, out=pv)
        pv += a
        np.less(U[k + 1], _twice_sigmoid(pv, pv, tau), out=Xk)
        np.matmul(Xk, W, out=phk)
        phk += b
        p = _twice_sigmoid(phk, phk, tau)
    ph0 *= 0.5                  # the probabilities of the gradient
    phk *= 0.5
    np.matmul(X0.T, ph0, out=g.W)
    g.W -= np.matmul(Xk.T, phk, out=dW)
    if len(X0) == 1:            # a sum over one row is that row
        np.subtract(X0[0], Xk[0], out=g.a)
        np.subtract(ph0[0], phk[0], out=g.b)
    else:
        np.add.reduce(np.subtract(X0, Xk, out=pv), axis=0, out=g.a)
        np.add.reduce(np.subtract(ph0, phk, out=H), axis=0, out=g.b)
    B = len(X0) if ascent else -len(X0)
    if B != 1:
        G /= B


def _flat_views(flat, n_visible: int, n_hidden: int) -> tuple:
    """W, a and b as views into one flat parameter-shaped buffer."""
    k = n_visible * n_hidden
    return (flat[:k].reshape(n_visible, n_hidden), flat[k:k + n_visible],
            flat[k + n_visible:])


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
    batch.

    With ``freeze_structure``, every clause unit is written from its clause
    once, before the first step, and then moves with its confidence alone.
    Steps run on the units that can move: with alpha = 0, a clause unit
    whose clause misses every target column keeps its confidence and is
    left out of the steps, so frozen training costs in proportion to the
    units wired to a target.

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
    N = len(d.rows)
    batch = cfg.batch_size or max(N, 1)
    # with a CD term every unit moves: a step draws cd_k uniforms per row and unit
    size = cfg.cd_k * min(batch, N) * (m.n_visible + m.n_hidden)
    if cfg.alpha > 0 and size > SEARCH_LIMIT:
        raise SizeLimitError(f"cd_k x rows x units = {size} exceeds the limit {SEARCH_LIMIT}")
    out = m.copy()
    n, h = out.W.shape
    targets = d.target_indices
    annotations = out.clause_annotations if cfg.freeze_structure else [None] * h
    frozen = _ClauseUnits(annotations, n, out.epsilon)
    # Every frozen unit is written from its clause before the first step.  A
    # unit with no weight on a target row takes its exact gradient on the
    # target rows alone, so without a CD term a frozen unit whose clause
    # misses every target gets a zero confidence gradient: it is still, and
    # the steps run on the sub-network of the other units, the columns ``cols``.
    live = np.ones(len(frozen.units), dtype=bool)
    if cfg.alpha == 0:
        live = frozen.mentions[:, targets].any(axis=1)
    moves = np.ones(h, dtype=bool)
    moves[frozen.units[~live]] = False
    cols = np.flatnonzero(moves)
    if cfg.epochs and N:
        # every frozen unit takes its clause values once, before the first
        # step: its column's nonzeros go to 0, then its literals are written
        nz_row, nz_col, _ = column_nonzeros(out.W)
        mine = np.isin(nz_col, frozen.units)
        out.W[nz_row[mine], nz_col[mine]] = 0.0
        frozen.write(out.W, out.b)
    # the sub-network's clause units, the frozen units that move, at ``at``
    moving = _ClauseUnits([annotations[j] for j in cols], n, out.epsilon)
    at, S, c_live = moving.units, moving.signs(), moving.c
    sub = Rbm(W=out.W[:, cols], a=out.a, b=out.b[cols], e0=out.e0, tau=out.tau)
    k = len(cols)
    # The parameters and the gradient each live in one flat buffer, with
    # W, a and b as views, so that a step updates them all in one operation.
    theta = np.concatenate((sub.W.ravel(), sub.a, sub.b))
    G = np.empty_like(theta)
    sub.W, sub.a, sub.b = _flat_views(theta, n, k)
    g = Grads(*_flat_views(G, n, k))
    # the discriminative gradient is summed in a buffer of its own when it
    # is added to a CD estimate
    C = np.empty_like(theta) if cfg.alpha > 0 and cfg.beta > 0 else G
    c = Grads(*_flat_views(C, n, k))
    cd_buffers = {}                        # per batch length
    rng = np.random.default_rng(cfg.seed)
    # a CD-only step adds the CD estimate's negation, which skips its
    # division at batch size 1
    ascent = cfg.beta == 0 and not cfg.freeze_structure
    trace = []
    # the doubled uniforms of one epoch: its full batches, then the ragged one
    draws = (_cd_uniforms(N // batch, batch, n, k, cfg.cd_k),
             _cd_uniforms(int(N % batch > 0), N % batch, n, k, cfg.cd_k)) \
        if cfg.alpha > 0 and N else ()

    def write_back():
        out.W[:, cols] = sub.W
        out.a[:] = sub.a
        out.b[cols] = sub.b

    for epoch in range(cfg.epochs):
        # one gather per epoch: each batch is a slice of the shuffled rows
        shuffled = d.rows[rng.permutation(N)] if batch < N else d.rows
        uniforms = chain(*(u(rng) for u in draws)) if draws else repeat(())
        for start, U in zip(range(0, N, batch), uniforms):
            rows = shuffled[start:start + batch]
            if cfg.alpha > 0:
                bufs = cd_buffers.get(len(rows))
                if bufs is None:
                    bufs = cd_buffers[len(rows)] = _cd_buffers(n, k, len(rows))
                _cd_into(sub, rows, U, bufs, g, G, ascent)
                if cfg.alpha != 1.0:       # x * 1.0 is x, bit for bit
                    G *= cfg.alpha
            if cfg.beta > 0:
                C.fill(0.0)
                _conditional(sub, rows, targets, into=c)
                if cfg.beta != 1.0:
                    C *= cfg.beta
                if C is not G:
                    G += C
            if cfg.freeze_structure:
                # einsum's order of summation follows its operands' layout:
                # g.W itself when every unit of the sub-network is frozen
                gW = g.W if len(at) == k else g.W[:, at]
                dc = np.einsum("ij,ij->j", S, gW) + moving.bias * g.b[at]
                c_live = np.maximum(c_live - cfg.lr * dc, 0.0)
                g.W[:, at] = 0.0           # frozen units move with c alone,
                g.b[at] = 0.0
                g.a.fill(0.0)              # and visible biases stay fixed
            G *= cfg.lr
            if ascent:                     # theta - (-x) is theta + x, bit for bit
                theta += G
            else:
                theta -= G
            if cfg.freeze_structure:
                moving.write(sub.W, sub.b, c_live)
        if cfg.trace:
            write_back()
            trace.append({"epoch": epoch, **epoch_losses(out, d, cfg.beta > 0)})
    write_back()
    if cfg.epochs:
        # nothing reads the annotations while training, so they take the
        # confidences once; with no epoch they keep their stored values.
        # Unfrozen training moves every unit off its clause pattern.
        frozen.c[live] = c_live
        for j, c_j in zip(frozen.units, frozen.c):
            out.clause_annotations[j]["confidence"] = float(c_j)
        if not cfg.freeze_structure:
            out.clause_annotations = [None] * h
    return out, trace
