"""Shared oracles and random-instance generators for the test suite.

The oracles deliberately re-derive quantities by brute force (hidden-state
enumeration, truth tables) so the library code is checked against an
independent implementation rather than against itself.  The recursive
formula evaluator, the joint and free energies, the partition function,
clause satisfaction and exclusivity, and the formula printer are needed
only by tests, so they live here and not in the library, as does
``cd_step``, which runs one CD-k estimate through the trainer's buffered
kernel.
"""
from pathlib import Path

import numpy as np
import pytest

from logicrbm import formula as fm
from logicrbm.errors import SizeLimitError
from logicrbm.normal_forms import all_assignments
from logicrbm.rbm import Rbm, _UniformBlocks, net_hidden
from logicrbm.trainer import Grads, _cd_kernel, _flat_views

KB_DIR = Path(__file__).resolve().parent.parent / "kb"


@pytest.fixture
def kb_dir():
    return KB_DIR


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def evaluate(f, a) -> bool:
    """Truth value of f under a, an Assignment or a 0/1 row, by recursion
    over the AST; a must cover the free variables of f."""
    values = a.values if isinstance(a, fm.Assignment) else {i: bool(v) for i, v in enumerate(a)}

    def truth(g):
        if isinstance(g, fm.Var):
            try:
                return values[g.index]
            except KeyError:
                raise ValueError(f"unassigned free variable {g.index}") from None
        if isinstance(g, fm.Not):
            return not truth(g.operand)
        if isinstance(g, fm.And):
            return truth(g.left) and truth(g.right)
        if isinstance(g, fm.Or):
            return truth(g.left) or truth(g.right)
        if isinstance(g, fm.Implies):
            return (not truth(g.body)) or truth(g.head)
        if isinstance(g, fm.Iff):
            return truth(g.left) == truth(g.right)
        if isinstance(g, fm.Xor):
            return truth(g.left) != truth(g.right)
        if isinstance(g, fm.Const):
            return g.value
        raise TypeError(f"not a formula node: {g!r}")

    return truth(f)


def energy(m, x, h) -> float:
    """The joint energy E(x, h) = -x W h - a.x - b.h + e0."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    if x.shape != (m.n_visible,) or h.shape != (m.n_hidden,):
        raise ValueError("dimension mismatch")
    return float(-x @ m.W @ h - m.a @ x - m.b @ h + m.e0)


def oracle_min_energy(m, x):
    """min_h E(x, h) by enumerating every hidden configuration."""
    best = np.inf
    for h in all_assignments(m.n_hidden):
        best = min(best, energy(m, x, h))
    return best


def free_energy(m, X):
    """-tau * log sum_h exp(-E(x,h)/tau); equals E_rank in the tau -> 0 limit."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    X2 = np.atleast_2d(X)
    net = net_hidden(m, X2)
    if m.tau > 0:
        soft = m.tau * np.logaddexp(0.0, net / m.tau).sum(axis=1)
    else:
        soft = np.maximum(net, 0.0).sum(axis=1)
    out = m.e0 - X2 @ m.a - soft
    return float(out[0]) if single else out


PARTITION_LIMIT = 24


def partition_brute(m) -> float:
    """Exact partition function by enumeration (small networks only)."""
    if m.n_visible + m.n_hidden > PARTITION_LIMIT:
        raise SizeLimitError(
            f"{m.n_visible}+{m.n_hidden} units exceeds partition limit {PARTITION_LIMIT}")
    if m.tau <= 0:
        raise ValueError("partition function needs tau > 0")
    X = all_assignments(m.n_visible)
    return float(np.exp(-free_energy(m, X) / m.tau).sum())


def cd_step(m, X, cd_k, rng) -> Grads:
    """The CD-k gradient estimate over the batch X, from the trainer's kernel,
    which returns it doubled and negated (both exact to undo)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n, h = m.W.shape
    theta = np.concatenate((m.W.ravel(), m.b, m.a))
    G = np.empty_like(theta)
    U = next(_UniformBlocks(1, [(len(X), h), (len(X), n)], cd_k)(rng))
    _cd_kernel(Rbm(*_flat_views(theta, n, h), tau=m.tau), len(X), G)(X, U)
    G *= -0.5
    return Grads(*_flat_views(G, n, h))


def satisfied_batch(clause, X):
    """Which rows of the 0/1 matrix X satisfy a conjunctive clause."""
    out = np.ones(len(X), dtype=bool)
    for i in clause.pos:
        out &= X[:, i] > 0.5
    for i in clause.neg:
        out &= X[:, i] < 0.5
    return out


def dnf_satisfied_batch(clauses, X):
    """Which rows of X satisfy at least one clause of a DNF."""
    out = np.zeros(len(X), dtype=bool)
    for c in clauses:
        out |= satisfied_batch(c, X)
    return out


def mutually_exclusive(c1, c2) -> bool:
    """True iff no assignment can satisfy both clauses."""
    return bool(set(c1.pos) & set(c2.neg)) or bool(set(c1.neg) & set(c2.pos))


def check_strict(clauses) -> bool:
    """True iff the clauses are pairwise mutually exclusive."""
    clauses = list(clauses)
    for i, c1 in enumerate(clauses):
        for c2 in clauses[i + 1:]:
            if not mutually_exclusive(c1, c2):
                return False
    return True


def format_formula(f, table=None) -> str:
    """A formula as knowledge-base text (inverse of the parser up to whitespace)."""
    def name(i):
        return table.names[i] if table is not None else f"x{i}"

    def atom(g):
        # parenthesise anything that is not an atom or a negation
        s = fmt(g)
        if isinstance(g, (fm.Var, fm.Const, fm.Not)):
            return s
        return f"({s})"

    def fmt(g):
        if isinstance(g, fm.Var):
            return name(g.index)
        if isinstance(g, fm.Const):
            return "(x0 | ~x0)" if g.value else "(x0 & ~x0)"  # no literal constants in the grammar
        if isinstance(g, fm.Not):
            return f"~{atom(g.operand)}"
        if isinstance(g, fm.And):
            return f"{atom(g.left)} & {atom(g.right)}"
        if isinstance(g, fm.Or):
            return f"{atom(g.left)} | {atom(g.right)}"
        if isinstance(g, fm.Xor):
            return f"{atom(g.left)} ^ {atom(g.right)}"
        if isinstance(g, fm.Iff):
            return f"{atom(g.left)} <-> {atom(g.right)}"
        if isinstance(g, fm.Implies):
            return f"{atom(g.head)} <- {atom(g.body)}"
        raise TypeError(f"not a formula node: {g!r}")

    return fmt(f)


def oracle_truth_table(f, n):
    """Truth value of f on every total assignment over n propositions."""
    X = all_assignments(n)
    return X, np.array([evaluate(f, row) for row in X])


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def random_rbm(rng, n_visible, n_hidden, scale=1.0, tau=1.0):
    return Rbm(
        W=rng.normal(0, scale, (n_visible, n_hidden)),
        a=rng.normal(0, scale, n_visible),
        b=rng.normal(0, scale, n_hidden),
        e0=float(rng.normal(0, scale)),
        tau=tau,
    )


def random_formula(rng, n_vars, depth=3):
    if depth == 0 or rng.random() < 0.3:
        v = fm.Var(int(rng.integers(n_vars)))
        return fm.Not(v) if rng.random() < 0.3 else v
    kind = rng.integers(6)
    left = random_formula(rng, n_vars, depth - 1)
    right = random_formula(rng, n_vars, depth - 1)
    if kind == 0:
        return fm.And(left, right)
    if kind == 1:
        return fm.Or(left, right)
    if kind == 2:
        return fm.Xor(left, right)
    if kind == 3:
        return fm.Iff(left, right)
    if kind == 4:
        return fm.Implies(body=left, head=right)
    return fm.Not(left)


def random_or_tree(rng, lits):
    """A randomly nested Or over ``lits`` that keeps their left-to-right order."""
    if len(lits) == 1:
        return lits[0]
    cut = int(rng.integers(1, len(lits)))
    return fm.Or(random_or_tree(rng, lits[:cut]), random_or_tree(rng, lits[cut:]))


def random_clause(rng, n_vars, p_complement=0.05):
    """A disjunction of 2-7 literals, repeats and complementary pairs allowed."""
    lits = []
    for _ in range(int(rng.integers(2, 8))):
        if lits and rng.random() < 0.15:
            lits.append(lits[int(rng.integers(len(lits)))])
        elif lits and rng.random() < p_complement:
            g = lits[int(rng.integers(len(lits)))]
            lits.append(g.operand if isinstance(g, fm.Not) else fm.Not(g))
        else:
            v = fm.Var(int(rng.integers(n_vars)))
            lits.append(fm.Not(v) if rng.random() < 0.5 else v)
    return random_or_tree(rng, lits)


def random_kb(rng, n_vars=6, n_formulas=5, w_low=0.1, w_high=1000.0):
    table = fm.PropositionTable([f"v{i}" for i in range(n_vars)])
    kb = fm.KnowledgeBase(table)
    for _ in range(int(rng.integers(1, n_formulas + 1))):
        kb.add(float(rng.uniform(w_low, w_high)), random_formula(rng, n_vars))
    return kb


def random_implication(rng, max_body=6, n_extra_vars=0):
    """(body_pos, body_neg, head, head_positive) over a fresh universe."""
    size = int(rng.integers(1, max_body + 1))
    variables = rng.permutation(size + 1 + n_extra_vars)[: size + 1]
    head = int(variables[0])
    body = [int(v) for v in variables[1:]]
    mask = rng.random(size) < 0.5
    body_pos = frozenset(v for v, m in zip(body, mask) if m)
    body_neg = frozenset(v for v, m in zip(body, mask) if not m)
    return body_pos, body_neg, head, bool(rng.random() < 0.8)


def implication_formula(body_pos, body_neg, head, head_positive):
    lits = [fm.Var(i) for i in sorted(body_pos)]
    lits += [fm.Not(fm.Var(i)) for i in sorted(body_neg)]
    body = lits[0]
    for lit in lits[1:]:
        body = fm.And(body, lit)
    head_f = fm.Var(head) if head_positive else fm.Not(fm.Var(head))
    return fm.Implies(body=body, head=head_f)
