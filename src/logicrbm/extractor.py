"""Recover weighted conjunctive clauses from trained weight columns.

Each hidden column w_j is matched against scaled sign patterns c * s with
s in {-1, 0, +1}^n: candidates come from pruning small entries at a few
fractions of the column's max magnitude, c is the mean absolute value of
the kept entries (the least-squares scale for a fixed pattern), and the
candidate with minimum Euclidean distance ||w_j - c*s|| wins.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .normal_forms import ConjunctiveClause
from .rbm import Rbm, column_nonzeros
from .trainer import Dataset

DEFAULT_PRUNE_FRACTIONS = (0.0, 0.25, 0.5, 0.75)


@dataclass
class ExtractedClause:
    clause: ConjunctiveClause
    c: float
    hidden_index: int
    distance: float
    reliability: tuple[int, int] | None = None
    empty: bool = False


# columns scored per block: each block array holds at most this many elements
EXTRACT_BLOCK = 1 << 15


def _block_scores(Wb: np.ndarray):
    """Each column's winning prune fraction, scored from its nonzeros.

    Returns the rows and columns of the block's nonzeros (``column_nonzeros``),
    the sign of each where the winner keeps it and 0 where it prunes it, and
    each column's scale c and distance.  Every column is scored against
    every fraction at once.  A zero entry is kept only where the fraction
    times the column's top magnitude is 0 (at fraction 0, or in an all-zero
    column); it then adds to the count of the mean alone.  A fraction
    replaces the running best only when its distance is smaller by more
    than 1e-15, so the first of near-equal candidates wins.  An all-zero
    column keeps every entry, and scores c = 0 at distance 0.
    """
    n, h = Wb.shape
    rows, cols, w = column_nonzeros(Wb)
    A = np.abs(w)
    nnz = np.bincount(cols, minlength=h)
    top = np.zeros(h)
    top[nnz > 0] = np.maximum.reduceat(A, (np.cumsum(nnz) - nnz)[nnz > 0])
    fractions = np.asarray(DEFAULT_PRUNE_FRACTIONS)
    best_k = np.zeros(h, dtype=int)
    for k, f in enumerate(fractions):
        keep = A >= f * top[cols]
        count = np.bincount(cols, keep, minlength=h) + np.where(f * top == 0, n - nnz, 0)
        # sums run down each column in row order, as dense sums over rows do;
        # a count is 0 only in a model without visible units
        c = np.bincount(cols, A * keep, minlength=h) / np.maximum(count, 1)
        resid = w - np.sign(w) * keep * c[cols]
        dist = np.sqrt(np.bincount(cols, resid * resid, minlength=h))
        if k == 0:
            best_c, best_d = c, dist
            continue
        better = dist < best_d - 1e-15
        best_k[better] = k
        best_c = np.where(better, c, best_c)
        best_d = np.where(better, dist, best_d)
    kept = np.sign(w) * (A >= (fractions[best_k] * top)[cols])
    return rows, cols, kept, best_c, best_d


def _rows_per_column(rows, cols, mask, h: int) -> list[tuple[int, ...]]:
    """The rows of the ``mask``ed cells of each of ``h`` columns, ascending;
    ``rows`` and ``cols`` run column by column."""
    ends = np.cumsum(np.bincount(cols[mask], minlength=h)).tolist()
    rows = rows[mask].tolist()
    return [tuple(rows[s:e]) for s, e in zip([0] + ends[:-1], ends)]


def extract_clauses(m: Rbm) -> list[ExtractedClause]:
    """Best-matching clause for every hidden column, scored in column blocks."""
    out = []
    step = max(1, EXTRACT_BLOCK // max(m.n_visible, 1))
    for start in range(0, m.n_hidden, step):
        rows, cols, kept, cs, dists = _block_scores(m.W[:, start:start + step])
        for j, (pos, neg) in enumerate(zip(_rows_per_column(rows, cols, kept > 0, len(cs)),
                                           _rows_per_column(rows, cols, kept < 0, len(cs)))):
            out.append(ExtractedClause(clause=ConjunctiveClause(pos, neg), c=float(cs[j]),
                                       hidden_index=start + j, distance=float(dists[j]),
                                       empty=not (pos or neg)))
    return out


def _reliability_ratio(clause: ConjunctiveClause, d: Dataset, cls: int) -> tuple[int, int]:
    """(satisfy, violate) counts on ``d`` of a clause whose one class literal
    is on column ``cls``.  Rows matching the other literals satisfy the
    clause when their class value agrees with that literal's polarity and
    violate it otherwise; the other rows are ignored."""
    pos = [i for i in clause.pos if i != cls]
    neg = [i for i in clause.neg if i != cls]
    match = (d.rows[:, pos] > 0.5).all(axis=1) & (d.rows[:, neg] < 0.5).all(axis=1)
    agrees = (d.rows[:, cls] > 0.5) == (cls in clause.pos)
    return int(np.count_nonzero(match & agrees)), int(np.count_nonzero(match & ~agrees))


def score_reliability(extracted, d: Dataset, class_indices) -> None:
    """Set ``reliability`` to the (satisfy, violate) counts on ``d`` of each
    extracted clause that mentions exactly one of the class columns."""
    cls = set(class_indices)
    for ec in extracted:
        hits = cls.intersection(ec.clause.variables())
        if len(hits) == 1:
            ec.reliability = _reliability_ratio(ec.clause, d, *hits)


def format_listing(extracted, names) -> str:
    """`c: literal & literal ... [rr=s/v]`, sorted by confidence descending,
    with ``names[i]`` for proposition i (a model's ``names``)."""
    lines = []
    for ec in sorted(extracted, key=lambda e: -e.c):
        lits = [names[i] for i in ec.clause.pos] + [f"~{names[i]}" for i in ec.clause.neg]
        body = " & ".join(lits) if lits else "<empty>"
        rr = f" [rr={ec.reliability[0]}/{ec.reliability[1]}]" if ec.reliability else ""
        lines.append(f"{ec.c:.4f}: {body}{rr}")
    return "\n".join(lines)


def listing_to_json(extracted, names) -> str:
    """The listing as JSON, one object per clause, named as in ``format_listing``."""
    docs = []
    for ec in sorted(extracted, key=lambda e: -e.c):
        docs.append({
            "confidence": ec.c,
            "pos": [names[i] for i in ec.clause.pos],
            "neg": [names[i] for i in ec.clause.neg],
            "hidden_index": ec.hidden_index,
            "distance": ec.distance,
            "reliability": list(ec.reliability) if ec.reliability else None,
            "empty": ec.empty,
        })
    return json.dumps(docs, indent=1)
