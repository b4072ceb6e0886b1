"""Full-DNF and strict-DNF conversions.

A conjunctive clause is a pair of disjoint index sets (positive and negative
literals), and a DNF is a plain list of them.  A DNF is *strict* when no
assignment satisfies two of its clauses; for conjunctive clauses this is
exactly the condition that every pair of clauses shares a complementary
literal.  Strictness is what lets a clause become a single hidden unit
downstream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from . import formula as fm

DEFAULT_VAR_LIMIT = 20


@dataclass(frozen=True, order=True)
class ConjunctiveClause:
    pos: tuple[int, ...]
    neg: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "pos", tuple(sorted(self.pos)))
        object.__setattr__(self, "neg", tuple(sorted(self.neg)))
        if set(self.pos) & set(self.neg):
            raise ValueError("clause has a variable in both polarities")

    @property
    def is_true_clause(self) -> bool:
        return not self.pos and not self.neg

    def variables(self) -> frozenset[int]:
        return frozenset(self.pos) | frozenset(self.neg)


def all_assignments(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """All 0/1 vectors of length n, one per row, in binary counting order.

    ``start``/``stop`` select rows [start, stop) of that table without
    building the rest, so callers can enumerate 2^n in bounded blocks.
    """
    if n == 0:
        return np.zeros((1, 0))[start:stop]
    idx = np.arange(start, 2 ** n if stop is None else stop, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)


def to_full_dnf(f: fm.Formula) -> list[ConjunctiveClause]:
    """One clause per satisfying assignment over the free variables.

    Every free variable appears in every clause, so the result is both full
    and strict.  Exponential in the number of free variables; guarded.
    """
    variables = sorted(fm.free_vars(f))
    if len(variables) > DEFAULT_VAR_LIMIT:
        raise SizeLimitError(
            f"{len(variables)} free variables exceeds the full-DNF limit of {DEFAULT_VAR_LIMIT}")
    grid = all_assignments(len(variables))
    sat = fm._evaluate(f, dict(zip(variables, grid.T > 0.5)), len(grid))
    clauses = []
    for row in grid[sat]:
        pos = tuple(v for col, v in enumerate(variables) if row[col] > 0.5)
        neg = tuple(v for col, v in enumerate(variables) if row[col] < 0.5)
        clauses.append(ConjunctiveClause(pos, neg))
    clauses.sort()
    return clauses


def clause_to_sdnf(literals) -> list[ConjunctiveClause]:
    """Strict DNF of the clause ``l1 | ... | lk``, one clause per literal.

    ``literals`` are distinct-variable ``(variable, positive)`` pairs, head
    first.  The other literals in ascending variable order, then the head,
    each give the clause of that literal and the negations of the literals
    before it, so an assignment satisfies only the clause of its first true
    literal.  Returned in reverse, so the full conjunct (the head and the
    negations of all the others) comes first.  A repeated variable raises
    ``ValueError``.
    """
    if len({v for v, _ in literals}) < len(literals):
        raise ValueError("clause has a variable twice")
    pos, neg, clauses = [], [], []
    for v, positive in sorted(literals[1:]) + list(literals[:1]):
        if positive:
            clauses.append(ConjunctiveClause(pos + [v], neg))
            neg.append(v)
        else:
            clauses.append(ConjunctiveClause(pos, neg + [v]))
            pos.append(v)
    return clauses[::-1]
