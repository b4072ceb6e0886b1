"""DNF / strict-DNF conversion tests, checked against truth-table oracles."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logicrbm import formula as fm
from logicrbm.errors import SizeLimitError
from logicrbm.normal_forms import (
    ConjunctiveClause, all_assignments, clause_to_sdnf, to_full_dnf,
)

from conftest import (
    check_strict, dnf_satisfied_batch, mutually_exclusive,
    oracle_truth_table, random_formula, random_implication, satisfied_batch,
)
from reference_kernels import ref_implication_to_sdnf, ref_to_full_dnf


def clause_set(clauses):
    return {(c.pos, c.neg) for c in clauses}


def models_of(clauses, n):
    X = all_assignments(n)
    return dnf_satisfied_batch(clauses, X)


def assert_strict_by_enumeration(clauses, n):
    """Independent check: no assignment satisfies two clauses."""
    X = all_assignments(n)
    counts = np.zeros(len(X), dtype=int)
    for c in clauses:
        counts += satisfied_batch(c, X)
    assert counts.max(initial=0) <= 1


class TestConjunctiveClause:
    def test_sorted_and_frozen(self):
        c = ConjunctiveClause((3, 1), (2,))
        assert c.pos == (1, 3) and c.neg == (2,)

    def test_polarity_clash(self):
        with pytest.raises(ValueError):
            ConjunctiveClause((1,), (1,))

    def test_true_clause(self):
        assert ConjunctiveClause((), ()).is_true_clause

    def test_satisfied_batch(self):
        c = ConjunctiveClause((0,), (2,))
        X = all_assignments(3)
        want = (X[:, 0] > 0.5) & (X[:, 2] < 0.5)
        assert np.array_equal(satisfied_batch(c, X), want)


class TestMutualExclusion:
    def test_complementary_pair(self):
        assert mutually_exclusive(ConjunctiveClause((0,), ()),
                                  ConjunctiveClause((), (0,)))

    def test_overlapping(self):
        assert not mutually_exclusive(ConjunctiveClause((0,), ()),
                                      ConjunctiveClause((1,), ()))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        def rand_clause():
            polarity = rng.integers(0, 3, size=4)  # 0 absent, 1 pos, 2 neg
            return ConjunctiveClause(
                tuple(np.flatnonzero(polarity == 1)),
                tuple(np.flatnonzero(polarity == 2)))
        c1, c2 = rand_clause(), rand_clause()
        X = all_assignments(4)
        both = satisfied_batch(c1, X) & satisfied_batch(c2, X)
        assert mutually_exclusive(c1, c2) == (not both.any())
        assert check_strict([c1, c2]) == (not both.any())


class TestAllAssignments:
    def test_binary_counting_order(self):
        assert np.array_equal(
            all_assignments(2), [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_zero_vars(self):
        assert all_assignments(0).shape == (1, 0)


class TestToFullDnf:
    def test_xor_four_clauses(self):
        f = fm.parse_formula("(x ^ y) <-> z", fm.PropositionTable())
        assert clause_set(to_full_dnf(f)) == {
            ((), (0, 1, 2)), ((1, 2), (0,)), ((0, 2), (1,)), ((0, 1), (2,))}

    def test_single_literal(self):
        assert clause_set(to_full_dnf(fm.Var(0))) == {((0,), ())}

    def test_const_false(self):
        assert to_full_dnf(fm.FALSE) == []

    def test_variable_limit(self):
        f = fm.Var(0)
        for i in range(1, 21):
            f = fm.Or(f, fm.Var(i))
        with pytest.raises(SizeLimitError):
            to_full_dnf(f)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_model_preservation_and_fullness(self, seed):
        rng = np.random.default_rng(seed)
        f = random_formula(rng, 4)
        clauses = to_full_dnf(f)
        fv = fm.free_vars(f)
        n = max(fv, default=-1) + 1
        X, truth = oracle_truth_table(f, max(n, 1))
        assert np.array_equal(models_of(clauses, max(n, 1)), truth)
        assert_strict_by_enumeration(clauses, max(n, 1))
        for c in clauses:
            assert c.variables() == fv


def spread(f, col):
    """f with each variable v renamed to col[v]."""
    if isinstance(f, fm.Var):
        return fm.Var(col[f.index])
    if isinstance(f, fm.Not):
        return fm.Not(spread(f.operand, col))
    if isinstance(f, fm.Implies):
        return fm.Implies(body=spread(f.body, col), head=spread(f.head, col))
    if isinstance(f, fm.Const):
        return f
    return type(f)(spread(f.left, col), spread(f.right, col))


def xor_chain(variables):
    f = fm.Var(variables[0])
    for v in variables[1:]:
        f = fm.Xor(f, fm.Var(v))
    return f


def full_dnf_peak(f):
    tracemalloc.start()
    try:
        to_full_dnf(f)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFullDnfColumns:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_reference_on_sparse_indices(self, seed):
        rng = np.random.default_rng(seed)
        f = random_formula(rng, 5)
        col = {i: int(v) for i, v in enumerate(rng.choice(200, 5, replace=False))}
        f = spread(f, col)
        assert to_full_dnf(f) == ref_to_full_dnf(f)

    def test_memory_independent_of_variable_indices(self):
        low = full_dnf_peak(xor_chain(range(14)))
        high = full_dnf_peak(xor_chain(range(186, 200)))
        assert high <= 1.5 * low


def implication_literals(body_pos, body_neg, head, head_positive=True):
    """The literals of ``head <- body`` read as ``head | ~body``, head first."""
    return [(head, head_positive)] + [(v, False) for v in sorted(body_pos)] \
        + [(v, True) for v in sorted(body_neg)]


def random_literals(rng):
    """1-7 literals over distinct variables, in random order and polarity."""
    k = int(rng.integers(1, 8))
    return [(int(v), bool(rng.random() < 0.5)) for v in rng.permutation(k + 3)[:k]]


class TestImplicationToSdnf:
    """``clause_to_sdnf``: one clause per literal of ``head <- body`` (or of
    any clause), full conjunct first."""

    def test_worked_elimination_example(self):
        # y <- x1 & ~x2 & ~x3 with y=0, x1=1, x2=2, x3=3: x3, x2, x1 eliminated
        clauses = clause_to_sdnf(implication_literals({1}, {2, 3}, 0))
        assert [(c.pos, c.neg) for c in clauses] == [
            ((0, 1), (2, 3)),   # y  x1 ~x2 ~x3
            ((1, 3), (2,)),     # x1 ~x2  x3
            ((1, 2), ()),       # x1  x2
            ((), (1,)),         # ~x1
        ]

    def test_horn_single_body(self):
        clauses = clause_to_sdnf([(0, True), (1, False)])
        assert [(c.pos, c.neg) for c in clauses] == [((0, 1), ()), ((), (1,))]

    def test_negative_single_body(self):
        clauses = clause_to_sdnf([(0, True), (1, True)])
        assert [(c.pos, c.neg) for c in clauses] == [((0,), (1,)), ((1,), ())]

    def test_precondition_errors(self):
        for literals in ([(0, True), (1, False), (1, True)], [(0, True), (0, False)],
                         [(0, True), (0, True)], [(2, False), (1, True), (2, False)]):
            with pytest.raises(ValueError, match="twice"):
                clause_to_sdnf(literals)
        # the empty clause is false: no models, no clauses
        assert clause_to_sdnf([]) == []

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_models_count_strictness(self, seed):
        rng = np.random.default_rng(seed)
        lits = random_literals(rng)
        clauses = clause_to_sdnf(lits)
        assert len(clauses) == len(lits)
        f = fm.Var(lits[0][0]) if lits[0][1] else fm.Not(fm.Var(lits[0][0]))
        for v, positive in lits[1:]:
            f = fm.Or(f, fm.Var(v) if positive else fm.Not(fm.Var(v)))
        n = max(v for v, _ in lits) + 1
        X, truth = oracle_truth_table(f, n)
        assert np.array_equal(models_of(clauses, n), truth)
        assert_strict_by_enumeration(clauses, n)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_reference_elimination(self, seed):
        """The reference elimination loop's clause list, in the same order, for
        random implications of either head polarity and random disjunctions
        (``l1 | ... | lk`` as ``l1 <- ~l2 & ... & ~lk``)."""
        rng = np.random.default_rng(seed)
        if rng.random() < 0.5:
            body_pos, body_neg, head, head_positive = random_implication(rng, max_body=6)
            head_positive = bool(rng.random() < 0.5)
            lits = implication_literals(body_pos, body_neg, head, head_positive)
            rest = lits[1:]
            rng.shuffle(rest)       # the body's written order does not matter
            lits = lits[:1] + rest
        else:
            lits = random_literals(rng)
            (head, head_positive), rest = lits[0], lits[1:]
            body_pos = {v for v, positive in rest if not positive}
            body_neg = {v for v, positive in rest if positive}
        assert clause_to_sdnf(lits) == ref_implication_to_sdnf(
            body_pos, body_neg, head, head_positive=head_positive)
