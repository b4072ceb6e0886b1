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
from .rbm import Rbm
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


def _candidates(column: np.ndarray, prune_fractions):
    top = np.abs(column).max()
    if top == 0.0:
        yield np.zeros_like(column), 0.0
        return
    for f in prune_fractions:
        keep = np.abs(column) >= f * top
        if not keep.any():
            continue
        s = np.sign(column) * keep
        c = float(np.abs(column[keep]).mean())
        yield s, c


def extract_clauses(m: Rbm) -> list[ExtractedClause]:
    """Best-matching clause for every hidden column."""
    out = []
    for j in range(m.n_hidden):
        column = m.W[:, j]
        best = None
        for s, c in _candidates(column, DEFAULT_PRUNE_FRACTIONS):
            dist = float(np.linalg.norm(column - c * s))
            if best is None or dist < best[0] - 1e-15:
                best = (dist, s, c)
        dist, s, c = best
        clause = ConjunctiveClause(
            tuple(np.flatnonzero(s > 0).tolist()),
            tuple(np.flatnonzero(s < 0).tolist()))
        out.append(ExtractedClause(clause=clause, c=c, hidden_index=j,
                                   distance=dist, empty=not clause.variables()))
    return out


def reliability_ratio(clause: ConjunctiveClause, d: Dataset, class_indices
                      ) -> tuple[int, int]:
    """(satisfy, violate) counts of a clause against labelled data.

    The clause must mention exactly one class literal; rows matching the
    remaining body literals count as satisfy when their class value agrees
    with the clause's polarity, violate otherwise.  Rows not matching the
    body are ignored.
    """
    class_indices = set(class_indices)
    in_pos = [i for i in clause.pos if i in class_indices]
    in_neg = [i for i in clause.neg if i in class_indices]
    if len(in_pos) + len(in_neg) != 1:
        raise ValueError("clause must mention exactly one class literal")
    cls, polarity = (in_pos[0], True) if in_pos else (in_neg[0], False)
    body_pos = [i for i in clause.pos if i != cls]
    body_neg = [i for i in clause.neg if i != cls]
    match = np.ones(len(d.rows), dtype=bool)
    for i in body_pos:
        match &= d.rows[:, i] > 0.5
    for i in body_neg:
        match &= d.rows[:, i] < 0.5
    agrees = (d.rows[:, cls] > 0.5) == polarity
    satisfy = int(np.count_nonzero(match & agrees))
    violate = int(np.count_nonzero(match & ~agrees))
    return satisfy, violate


def format_listing(extracted, names=None) -> str:
    """`c: literal & literal ... [rr=s/v]`, sorted by confidence descending."""
    def name(i):
        return names[i] if names else f"x{i}"

    lines = []
    for ec in sorted(extracted, key=lambda e: -e.c):
        lits = [name(i) for i in ec.clause.pos] + [f"~{name(i)}" for i in ec.clause.neg]
        body = " & ".join(lits) if lits else "<empty>"
        rr = f" [rr={ec.reliability[0]}/{ec.reliability[1]}]" if ec.reliability else ""
        lines.append(f"{ec.c:.4f}: {body}{rr}")
    return "\n".join(lines)


def listing_to_json(extracted, names=None) -> str:
    def name(i):
        return names[i] if names else f"x{i}"

    docs = []
    for ec in sorted(extracted, key=lambda e: -e.c):
        docs.append({
            "confidence": ec.c,
            "pos": [name(i) for i in ec.clause.pos],
            "neg": [name(i) for i in ec.clause.neg],
            "hidden_index": ec.hidden_index,
            "distance": ec.distance,
            "reliability": list(ec.reliability) if ec.reliability else None,
            "empty": ec.empty,
        })
    return json.dumps(docs, indent=1)
