"""Knowledge base -> RBM constructions.

The core construction assigns one hidden unit to each conjunctive clause of
a strict DNF: connection weights +-c on the clause's literals and hidden
bias c * (-T + eps), where T is the number of positive literals, c the
clause's confidence value and 0 < eps < 1.  The unit's net input is then
c*eps exactly when the clause holds and at most -c*(1 - eps) otherwise, so
the minimised energy satisfies

    weighted_sat(x) = -E_rank(x) / eps

for every total assignment.  Every construction here writes its units
through ``rbm._ClauseUnits``, from one clause annotation per unit.
``compile_kb`` needs no unit for a clause of fewer than two literals: a true
clause is a constant in e0 and a single literal a visible bias, so a
clause of k distinct literals, written as a disjunction or as ``head <-
body``, costs k - 1 units.  Two comparison baselines are provided:
the Penalty-logic quadratic form for Horn clauses and the one-unit-per-model
universal-approximator network.  All three take ``(kb, epsilon)`` and
return ``(Rbm, ClauseBase)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SizeLimitError
from . import formula as fm
from .normal_forms import ConjunctiveClause, clause_to_sdnf, to_full_dnf
from .rbm import SEARCH_LIMIT, Rbm, _annotation, _check_epsilon, _ClauseUnits


@dataclass(frozen=True)
class WeightedClause:
    clause: ConjunctiveClause
    c: float

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("confidence value must be non-negative")


@dataclass
class ClauseBase:
    table: fm.PropositionTable
    clauses: list[WeightedClause] = field(default_factory=list)
    per_formula: list[int] = field(default_factory=list)   # clauses of each formula


def _units(annotations, n_visible: int, epsilon: float):
    """W and b of one clause unit per annotation, at the bias pattern of ``epsilon``."""
    W, b = np.zeros((n_visible, len(annotations))), np.zeros(len(annotations))
    _ClauseUnits(annotations, n_visible, epsilon).write(W, b)
    return W, b


def _clause(f: fm.Formula):
    """The distinct literals ``(variable, positive)`` of a clause-shaped
    formula, head first; ``[]`` for a tautology and None for other shapes.

    An ``Or`` tree of literals, a lone literal included, is a clause headed
    by its first literal.  ``head <- body``, with ``head`` such a tree and
    ``body`` an ``And`` tree of literals, is the clause ``head | ~body``.
    """
    parts = [(f.head, fm.Or, True), (f.body, fm.And, False)] \
        if isinstance(f, fm.Implies) else [(f, fm.Or, True)]
    lits = []
    for tree, op, positive in parts:
        stack = [tree]
        while stack:
            g = stack.pop()
            if isinstance(g, op):
                stack += [g.right, g.left]
            elif isinstance(g, fm.Var):
                lits.append((g.index, positive))
            elif isinstance(g, fm.Not) and isinstance(g.operand, fm.Var):
                lits.append((g.operand.index, not positive))
            else:
                return None
    lits = list(dict.fromkeys(lits))
    return [] if len({v for v, _ in lits}) < len(lits) else lits


def formula_to_sdnf_clauses(f: fm.Formula) -> list[ConjunctiveClause]:
    """Strict-DNF clauses of a formula, by one of two routes.

    - A clause of k distinct literals, written as a disjunction ``l1 | ... |
      lk`` or as ``head <- body`` (``head | ~body``), gets its k clauses from
      ``clause_to_sdnf``; for ``head <- body`` with a literal head and T + K
      body literals that is T + K + 1.  A clause holding a literal and its
      negation is a tautology: one true clause, which ``compile_kb`` folds
      into ``e0``.
    - Anything else (XOR, iff, constants, other shapes) goes through
      ``to_full_dnf``: one clause per model, limited to 20 free variables.
      A formula true on every row of its variables is a tautology too.
    """
    lits = _clause(f)
    if lits is not None:
        return clause_to_sdnf(lits) if lits else [ConjunctiveClause((), ())]
    clauses = to_full_dnf(f)
    if clauses and len(clauses) == 2 ** len(clauses[0].variables()):
        return [ConjunctiveClause((), ())]
    return clauses


def merge_clauses(clauses) -> list[WeightedClause]:
    """Merge identical clauses by summing confidences, in canonical order."""
    merged: dict[ConjunctiveClause, float] = {}
    for wc in clauses:
        merged[wc.clause] = merged.get(wc.clause, 0.0) + wc.c
    return [WeightedClause(cl, merged[cl]) for cl in sorted(merged)]


def compile_kb(kb: fm.KnowledgeBase, epsilon: float = 0.5) -> tuple[Rbm, ClauseBase]:
    """Weighted KB -> RBM with weighted_sat(x) = -E_rank(x) / eps.

    Each merged clause of two or more literals becomes one annotated unit.
    The others become terms with the same energy at every x: a true clause
    adds -c*eps to e0, ``{p}`` adds c*eps to a_p (the term -c*eps*x_p) and
    ``{~p}`` adds -c*eps to both a_p and e0 (the term -c*eps*(1 - x_p)).
    """
    _check_epsilon(epsilon)
    weighted, per_formula = [], []
    for w, f in kb.items:
        if w < 0:
            raise ValueError("negative formula weights are not compilable")
        clauses = formula_to_sdnf_clauses(f)
        weighted += [WeightedClause(cl, w) for cl in clauses]
        per_formula.append(len(clauses))
    merged = merge_clauses(weighted)

    n = len(kb.table)
    a = np.zeros(n)
    e0 = -epsilon * sum(wc.c for wc in merged if wc.clause.is_true_clause)
    units = []
    for wc in merged:
        lits = wc.clause.pos + wc.clause.neg
        if len(lits) > 1:
            units.append(wc)
        elif lits and not 0 <= lits[0] < n:
            raise ValueError(f"clause {wc.clause} mentions a variable outside 0..{n - 1}")
        elif wc.clause.pos:
            a[lits[0]] += wc.c * epsilon
        elif lits:
            a[lits[0]] -= wc.c * epsilon
            e0 -= wc.c * epsilon
    annotations = [_annotation(wc.clause, wc.c) for wc in units]
    W, b = _units(annotations, n, epsilon)
    m = Rbm(W=W, a=a, b=b, e0=e0, tau=1.0,
            names=list(kb.table.names), epsilon=epsilon, clause_annotations=annotations)
    return m, ClauseBase(kb.table, merged, per_formula)


def _baseline(kb: fm.KnowledgeBase, groups, scale: float, epsilon: float,
              unit_epsilon: float, e0: float) -> tuple[Rbm, ClauseBase]:
    """One unit per clause of ``groups``, a ``(w, clauses)`` pair per formula,
    with the unit pattern at ``unit_epsilon`` scaled by c = scale * w.  The
    clause base lists every clause at its formula's weight."""
    n = len(kb.table)
    W, b = _units([_annotation(cl, scale * w) for w, part in groups for cl in part], n,
                  unit_epsilon)
    m = Rbm(W=W, a=np.zeros(n), b=b, e0=e0, tau=1.0, names=list(kb.table.names),
            epsilon=epsilon)
    return m, ClauseBase(kb.table, [WeightedClause(cl, w) for w, part in groups for cl in part],
                         [len(part) for _, part in groups])


def _horn_sdnf(f: fm.Formula) -> list[ConjunctiveClause]:
    """The clauses of a fact ``h``, or of ``h <- body`` with h not in the
    body, whose head is its only positive literal."""
    lits = _clause(f)
    horn = isinstance(f, fm.Var) or (isinstance(f, fm.Implies) and isinstance(f.head, fm.Var)
                                     and f.head.index not in fm.free_vars(f.body))
    if not (horn and lits) or [p for _, p in lits] != [True] + [False] * (len(lits) - 1):
        raise ValueError("penalty baseline requires Horn clauses (positive body and head)")
    return clause_to_sdnf(lits)


def penalty_network(kb: fm.KnowledgeBase, epsilon: float = 0.5) -> tuple[Rbm, ClauseBase]:
    """Penalty-logic network for a KB of weighted Horn clauses.

    Every formula must be a Horn clause (positive body and head; a positive
    fact is one with an empty body), else ``ValueError``.  Each clause of its
    strict DNF becomes a unit with doubled parameters (c = 2w) and the offset
    is the sum of the weights, which realises E_penalty(x) = 2 * E_sdnf(x) +
    sum(w) pointwise at epsilon = 0.5.
    """
    groups = [(w, _horn_sdnf(f)) for w, f in kb.items]
    _check_epsilon(epsilon)
    return _baseline(kb, groups, 2.0, epsilon, epsilon, float(sum(w for w, _ in groups)))


def universal_network(kb: fm.KnowledgeBase, epsilon: float = 0.5) -> tuple[Rbm, ClauseBase]:
    """One hidden unit per model of each formula, at lambda = ``epsilon``.

    A model v of a formula of weight w, over the formula's variables, gets
    weights w * (v - 1/2) on those variables and bias w * (-T / 2 + lambda),
    T being the number of true variables in v: the unit pattern at
    epsilon = 2 * lambda, scaled by c = w / 2.  For 0 < lambda <= 1/2 the
    net input is w * lambda exactly on v and at most w * (lambda - 1/2)
    elsewhere, so s(x) = -E_rank(x) / lambda.  A formula without models
    raises ``ValueError``.
    """
    groups = [(w, to_full_dnf(f)) for w, f in kb.items]
    if not 0 < epsilon <= 0.5:
        raise ValueError("the universal construction needs 0 < lambda <= 1/2")
    if any(not part for _, part in groups):
        raise ValueError("universal construction needs at least one model")
    return _baseline(kb, groups, 0.5, epsilon, 2 * epsilon, 0.0)


def attach_hidden_units(m: Rbm, count: int, init_scale: float, rng) -> Rbm:
    """Append free hidden units with parameters uniform in [-init_scale, init_scale).

    The scale must be finite and >= 0, and so must 2 * init_scale, the
    width that numpy draws over.  More than ``SEARCH_LIMIT`` new parameters,
    count * (n_visible + 1), raise ``SizeLimitError`` before any is drawn.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if count * (m.n_visible + 1) > SEARCH_LIMIT:
        raise SizeLimitError(f"{count} extra units x {m.n_visible + 1} parameters exceeds "
                             f"the limit {SEARCH_LIMIT}")
    if not (0 <= init_scale and math.isfinite(2 * init_scale)):
        raise ValueError(f"init scale must be finite and >= 0 (with 2 * scale finite), "
                         f"not {init_scale!r}")
    out = m.copy()
    if count == 0:
        return out
    extraW = rng.uniform(-init_scale, init_scale, size=(m.n_visible, count))
    extrab = rng.uniform(-init_scale, init_scale, size=count)
    return replace(out, W=np.hstack([out.W, extraW]), b=np.concatenate([out.b, extrab]),
                   clause_annotations=out.clause_annotations + [None] * count)
