"""KB -> RBM constructions, checked by enumeration against weighted_sat."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logicrbm as L
from logicrbm import formula as fm
from logicrbm.compiler import (
    WeightedClause, attach_hidden_units, compile_kb, formula_to_sdnf_clauses, merge_clauses,
    penalty_network, universal_network,
)
from logicrbm.normal_forms import ConjunctiveClause, all_assignments, to_full_dnf
from logicrbm.errors import SizeLimitError
from logicrbm.reasoner import verify_equivalence
from logicrbm.rbm import SEARCH_LIMIT, Rbm, energy_rank

from conftest import (
    check_strict, dnf_satisfied_batch, evaluate, implication_formula, oracle_truth_table,
    random_clause, random_formula, random_implication, random_kb, satisfied_batch,
)
from reference_kernels import (
    ref_compile_implication, ref_compile_sdnf, ref_implication_to_sdnf, ref_sdnf_clauses,
)


def assert_equivalent(m, kb, epsilon, n=None, atol=1e-9):
    n = len(kb.table) if n is None else n
    X = all_assignments(n)
    np.testing.assert_allclose(
        fm.weighted_sat_batch(kb, X), -energy_rank(m, X) / epsilon, atol=atol)


def one_formula_kb(f, n, w=1.0):
    """A knowledge base of the single formula f over v0 .. v(n-1)."""
    return fm.KnowledgeBase(fm.PropositionTable([f"v{i}" for i in range(n)]), [(w, f)])


def implication_network(body_pos, body_neg, head, head_positive=True, n=None, c=1.0):
    """``compile_kb`` of the single implication ``head <- body`` at weight c."""
    n = max(body_pos | body_neg | {head}) + 1 if n is None else n
    f = implication_formula(frozenset(body_pos), frozenset(body_neg), head, head_positive)
    m, _ = compile_kb(one_formula_kb(f, n, c))
    return m


class TestCompileSdnf:
    """``compile_kb`` on one formula: a unit for each clause of its strict DNF
    with two or more literals, a visible bias for a single literal."""

    def test_xor_parameters(self):
        f = fm.parse_formula("(x ^ y) <-> z", fm.PropositionTable())
        m, _ = compile_kb(one_formula_kb(f, 3))
        assert m.n_hidden == 4
        assert sorted(m.b.tolist()) == [-1.5, -1.5, -1.5, 0.5]
        assert set(np.unique(m.W)) <= {-1.0, 0.0, 1.0}
        # clauses are canonical (lexicographic), so columns are reproducible
        assert np.array_equal(m.W.T, [[-1, -1, -1], [1, 1, -1],
                                      [1, -1, 1], [-1, 1, 1]])
        # no clause of fewer than two literals: the biases and the offset
        # keep their signed zeros
        assert m.a.tobytes() == np.zeros(3).tobytes()
        assert np.array(m.e0).tobytes() == np.array(-0.0).tobytes()

    def test_single_positive_literal(self):
        m, _ = compile_kb(fm.parse_kb("x\n"))
        assert m.n_hidden == 0 and m.W.shape == (1, 0)
        assert m.a.tolist() == [0.5] and m.e0 == 0.0
        m, _ = compile_kb(fm.parse_kb("2: ~x\n"))
        assert m.n_hidden == 0
        assert m.a.tolist() == [-1.0] and m.e0 == -1.0
        assert_equivalent(m, fm.parse_kb("2: ~x\n"), m.epsilon)

    def test_rejects_negative_confidence(self):
        with pytest.raises(ValueError):
            WeightedClause(ConjunctiveClause((0,), ()), -1.0)
        kb = fm.parse_kb("~x\n")
        kb.items[0] = (-1.0, kb.items[0][1])
        with pytest.raises(ValueError, match="negative"):
            compile_kb(kb)

    def test_equivalence_on_random_strict_dnfs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            body_pos, body_neg, head, head_positive = random_implication(rng, max_body=4)
            clauses = formula_to_sdnf_clauses(
                implication_formula(body_pos, body_neg, head, head_positive))
            n = max(body_pos | body_neg | {head}) + 1
            m = implication_network(body_pos, body_neg, head, head_positive)
            X = all_assignments(n)
            np.testing.assert_allclose(
                dnf_satisfied_batch(clauses, X).astype(float),
                -energy_rank(m, X) / m.epsilon, atol=1e-9)

    def test_epsilon_validation(self):
        kb = fm.parse_kb("y <- x\n")
        for eps in (1.0, 0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="epsilon"):
                compile_kb(kb, eps)
            with pytest.raises(ValueError, match="epsilon"):
                Rbm(W=np.zeros((1, 0)), a=np.zeros(1), b=np.zeros(0), epsilon=eps)


class TestClauseRange:
    """A clause variable outside 0..n_visible-1 is refused, not wrapped."""

    @pytest.mark.parametrize("var", [-1, 2, 3])
    def test_every_construction_refuses(self, var):
        for f in (fm.Var(var), fm.Not(fm.Var(var)),
                  fm.Implies(body=fm.Var(var), head=fm.Var(0)),
                  fm.Implies(body=fm.Var(0), head=fm.Var(var))):
            with pytest.raises(ValueError, match="outside"):
                compile_kb(one_formula_kb(f, 2))
        with pytest.raises(ValueError, match="outside"):
            penalty_network(one_formula_kb(fm.Implies(body=fm.Var(var), head=fm.Var(0)), 2))


class TestCompileImplication:
    """An implication whose body has K + T literals compiles to K + T units."""

    def test_three_literal_body_structure(self):
        # y <- x1 & ~x2 & ~x3: 3 hidden units + visible-bias term for ~x1
        m, _ = compile_kb(fm.parse_kb("y <- x1 & ~x2 & ~x3\n"))
        assert m.n_hidden == 3
        assert m.a.tolist() == [0.0, -0.5, 0.0, 0.0]  # last clause is {~x1}
        assert m.e0 == -0.5

    def test_horn_t1(self):
        m = implication_network({1}, set(), 0)
        assert m.n_hidden == 1
        kb = fm.KnowledgeBase(fm.PropositionTable(["y", "x"]))
        kb.add(1.0, implication_formula({1}, frozenset(), 0, True))
        assert_equivalent(m, kb, m.epsilon)

    def test_negative_body(self):
        m = implication_network(set(), {1}, 0)
        assert m.n_hidden == 1
        kb = fm.KnowledgeBase(fm.PropositionTable(["y", "x"]))
        kb.add(1.0, implication_formula(frozenset(), {1}, 0, True))
        assert_equivalent(m, kb, m.epsilon)

    def test_unit_count_and_equivalence_random(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            body_pos, body_neg, head, head_positive = random_implication(rng, max_body=5)
            conf = float(rng.uniform(0.1, 10))
            m = implication_network(body_pos, body_neg, head, head_positive, c=conf)
            assert m.n_hidden == len(body_pos) + len(body_neg)
            # the same units (in canonical order) and bias term as the oracle
            ref = ref_compile_implication(body_pos, body_neg, head, confidence=conf,
                                          head_positive=head_positive)
            order = sorted(range(ref.n_hidden), key=lambda j: (
                ref.clause_annotations[j]["pos"], ref.clause_annotations[j]["neg"]))
            assert m.W.tobytes() == ref.W[:, order].tobytes()
            assert m.b.tobytes() == ref.b[order].tobytes()
            assert m.a.tobytes() == ref.a.tobytes() and m.e0 == ref.e0
            n = max(body_pos | body_neg | {head}) + 1
            kb = fm.KnowledgeBase(fm.PropositionTable([f"v{i}" for i in range(n)]))
            kb.add(conf, implication_formula(body_pos, body_neg, head, head_positive))
            assert_equivalent(m, kb, m.epsilon, n=n, atol=1e-8)

    def test_pointwise_equal_to_sdnf_compilation(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            body_pos, body_neg, head, head_positive = random_implication(rng, max_body=4)
            conf = float(rng.uniform(0.1, 10))
            compact = implication_network(body_pos, body_neg, head, head_positive, c=conf)
            # every clause a unit, under another elimination order
            clauses = ref_implication_to_sdnf(
                body_pos, body_neg, head,
                order=sorted(body_pos | body_neg),
                head_positive=head_positive)
            n = max(body_pos | body_neg | {head}) + 1
            full = ref_compile_sdnf(clauses, n_visible=n,
                                    confidences=[conf] * len(clauses))
            assert full.n_hidden == compact.n_hidden + 1
            X = all_assignments(n)
            np.testing.assert_allclose(energy_rank(compact, X),
                                       energy_rank(full, X), atol=1e-9)

    def test_negative_confidence_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            implication_network({1}, set(), 0, c=-1.0)


def sdnf_of(text):
    """``formula_to_sdnf_clauses`` of one formula, as (pos, neg) pairs."""
    f = fm.parse_formula(text, fm.PropositionTable())
    return [(c.pos, c.neg) for c in formula_to_sdnf_clauses(f)]


class TestMatchImplication:
    """``head <- body`` and ``l1 | ... | lk`` take the clause route; the
    clauses come full conjunct first."""

    def test_literal_implication(self):
        assert sdnf_of("y <- x1 & ~x2") == [((0, 1), (2,)), ((1, 2), ()), ((), (1,))]

    def test_negated_head(self):
        assert sdnf_of("~p <- r") == [((1,), (0,)), ((), (1,))]

    def test_non_implication(self):
        # a disjunction is the implication from the negations of its tail
        assert sdnf_of("x | y") == sdnf_of("x <- ~y") == [((0,), (1,)), ((1,), ())]
        assert sdnf_of("~x") == [((), (0,))]

    def test_non_literal_body_rejected(self):
        f = fm.parse_formula("y <- x1 | x2", fm.PropositionTable())
        assert formula_to_sdnf_clauses(f) == to_full_dnf(f)
        assert len(to_full_dnf(f)) == 5


class TestDegenerateClauses:
    """Implications with a repeated or complementary literal, or with a
    disjunction as head, take the clause route over their distinct literals:
    still strict and exact, with fewer clauses than their full DNF."""

    @pytest.mark.parametrize("text, count, full", [
        ("x0 <- x0", 1, 2),
        ("x4 <- ~x4 & x2 & ~x3", 3, 7),
        ("h <- a & ~a", 1, 4),
        ("h <- a & a", 2, 3),
        ("(a | ~b) <- c & a", 1, 8),
        ("(a | b) <- c", 3, 7),
        ("(a | b | a) <- ~c", 3, 7),
    ])
    def test_strict_exact_and_smaller(self, text, count, full):
        table = fm.PropositionTable()
        f = fm.parse_formula(text, table)
        clauses = formula_to_sdnf_clauses(f)
        X, truth = oracle_truth_table(f, len(table))
        assert check_strict(clauses)
        assert np.array_equal(dnf_satisfied_batch(clauses, X), truth)
        assert (len(clauses), len(to_full_dnf(f))) == (count, full)
        assert clauses == ref_sdnf_clauses(f)
        kb = fm.KnowledgeBase(table, [(3.0, f)])
        assert verify_equivalence(compile_kb(kb)[0], kb, 0.5).max_deviation == 0.0


class TestFormulaRoutes:
    """Every route of ``formula_to_sdnf_clauses`` returns a strict DNF of the
    formula: pairwise-exclusive clauses whose union is exactly its models."""

    @staticmethod
    def draw(rng):
        route = int(rng.integers(3))
        if route == 0:
            return route, implication_formula(
                *random_implication(rng, max_body=5, n_extra_vars=2))
        if route == 1:
            return route, random_clause(rng, 6, p_complement=0.2)
        return route, random_formula(rng, 5)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_exclusive_and_exact_on_every_route(self, seed):
        route, f = self.draw(np.random.default_rng(seed))
        clauses = formula_to_sdnf_clauses(f)
        n = max(fm.free_vars(f), default=0) + 1
        X, truth = oracle_truth_table(f, n)
        hits = np.zeros(len(X), dtype=int)
        for c in clauses:
            hits += satisfied_batch(c, X)   # a true clause holds everywhere
        assert hits.max(initial=0) <= 1
        assert check_strict(clauses)
        assert np.array_equal(dnf_satisfied_batch(clauses, X), truth)
        if route == 0:                      # head <- body: |body| + 1 clauses
            assert len(clauses) == len(fm.free_vars(f))
        elif truth.all():                   # a tautology is one true clause
            assert clauses == [ConjunctiveClause((), ())]


class TestMergeClauses:
    def test_identical_summed(self):
        c = ConjunctiveClause((), (0,))
        out = merge_clauses([WeightedClause(c, 1000.0), WeightedClause(c, 1000.0)])
        assert out == [WeightedClause(c, 2000.0)]

    def test_disjoint_unchanged(self):
        cs = [WeightedClause(ConjunctiveClause((0,), ()), 1.0),
              WeightedClause(ConjunctiveClause((1,), ()), 2.0)]
        assert set(merge_clauses(cs)) == set(cs)


class TestCompileKb:
    def test_nixon_units_and_coefficients(self, kb_dir):
        kb = L.load_kb(kb_dir / "nixon.kb")
        m, base = compile_kb(kb)
        assert m.n_hidden == 4
        got = {(tuple(a["pos"]), tuple(a["neg"])): a["confidence"]
               for a in m.clause_annotations}
        # names: n=0 r=1 q=2 p=3
        assert got == {
            ((0, 1), ()): 1000.0,   # n & r
            ((0, 2), ()): 1000.0,   # n & q
            ((1,), (3,)): 10.0,     # r & ~p
            ((2, 3), ()): 10.0,     # q & p
        }
        # ~n (merged to 2000), ~r and ~q are each -c*eps*(1 - x): for ~n this
        # is the printed term -h(-2000 n + 1000) minimised over h
        assert m.a.tolist() == [-1000.0, -5.0, -5.0, 0.0]
        assert m.e0 == -1010.0
        merged = {(wc.clause.pos, wc.clause.neg): wc.c for wc in base.clauses}
        assert merged[((), (0,))] == 2000.0
        assert_equivalent(m, kb, m.epsilon)

    def test_single_formula_matches_compile_sdnf(self):
        f = fm.parse_formula("(x ^ y) <-> z", fm.PropositionTable())
        kb = fm.KnowledgeBase(fm.PropositionTable(["x", "y", "z"]), [(1.0, f)])
        m, _ = compile_kb(kb)
        ref = ref_compile_sdnf(to_full_dnf(f), n_visible=3)
        assert m.W.tobytes() == ref.W.tobytes() and m.b.tobytes() == ref.b.tobytes()

    def test_random_kbs_equivalent(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            kb = random_kb(rng, n_vars=5, n_formulas=4)
            m, _ = compile_kb(kb)
            X = all_assignments(5)
            dev = np.abs(fm.weighted_sat_batch(kb, X)
                         + energy_rank(m, X) / m.epsilon)
            scale = max(1.0, np.abs(fm.weighted_sat_batch(kb, X)).max())
            assert dev.max() <= 1e-9 * scale

    def test_true_clause_becomes_offset(self):
        kb = fm.KnowledgeBase(fm.PropositionTable(["x"]), [(2.0, fm.TRUE)])
        m, base = compile_kb(kb)
        assert m.n_hidden == 0
        assert m.e0 == pytest.approx(-2.0 * 0.5)
        assert_equivalent(m, kb, m.epsilon)

    @pytest.mark.parametrize("text", ["(a ^ b) | ~(a ^ b)", "a <-> a", "(a -> b) -> a -> a"])
    def test_full_dnf_tautology_becomes_offset(self, text):
        """A formula outside the clause shapes that holds on every row costs
        no unit: one true clause, folded into e0, and no visible bias."""
        kb = fm.parse_kb(f"2: {text}\n")
        assert formula_to_sdnf_clauses(kb.items[0][1]) == [ConjunctiveClause((), ())]
        m, base = compile_kb(kb)
        assert (m.n_hidden, base.per_formula, m.e0) == (0, [1], -1.0)
        assert not m.a.any()
        assert_equivalent(m, kb, m.epsilon)
        # the universal baseline keeps one unit per model
        assert universal_network(kb)[0].n_hidden == 2 ** len(kb.table)

    def test_negative_weight_rejected(self):
        kb = fm.parse_kb("x | y\n")
        kb.items[0] = (-1.0, kb.items[0][1])
        with pytest.raises(ValueError):
            compile_kb(kb)

    def test_clause_base_counts_clauses_per_formula(self, kb_dir):
        # n -> r style implications have two SDNF clauses each
        _, base = compile_kb(L.load_kb(kb_dir / "nixon.kb"))
        assert base.per_formula == [2, 2, 2, 2]
        f = fm.parse_formula("(x ^ y) <-> z", fm.PropositionTable())
        _, base = compile_kb(fm.KnowledgeBase(fm.PropositionTable(["x", "y", "z"]),
                                              [(1.0, f), (2.0, fm.TRUE)]))
        assert base.per_formula == [4, 1]

    def test_clause_base_canonical_unique(self):
        rng = np.random.default_rng(37)
        kb = random_kb(rng, n_vars=4)
        _, base = compile_kb(kb)
        keys = [(wc.clause.pos, wc.clause.neg) for wc in base.clauses]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def penalty_horn(body_pos, head, epsilon=0.5, n_visible=None, confidence=1.0):
    """The penalty network of one Horn clause ``head <- body``."""
    n_visible = max(body_pos | {head}) + 1 if n_visible is None else n_visible
    f = implication_formula(frozenset(body_pos), frozenset(), head, True)
    m, _ = penalty_network(one_formula_kb(f, n_visible, confidence), epsilon)
    return m


class TestPenaltyBaseline:
    def test_identity_and_argmin_random_horn(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            size = int(rng.integers(1, 6))
            variables = rng.permutation(size + 1)
            head, body = int(variables[0]), frozenset(int(v) for v in variables[1:])
            conf = float(rng.uniform(0.1, 5))
            n = size + 1
            pen = penalty_horn(body, head, n_visible=n, confidence=conf)
            sdnf = implication_network(body, frozenset(), head, n=n, c=conf)
            X = all_assignments(n)
            ep, es = energy_rank(pen, X), energy_rank(sdnf, X)
            np.testing.assert_allclose(ep, 2.0 * es + conf, atol=1e-9)
            assert set(map(tuple, X[np.isclose(ep, ep.min())])) \
                == set(map(tuple, X[np.isclose(es, es.min())]))

    def test_y_from_x_unit_count(self):
        pen = penalty_horn({1}, 0)
        assert pen.n_hidden == 2  # both SDNF clauses stay as (doubled) units

    def test_rejects_negative_confidence_and_bad_epsilon(self):
        with pytest.raises(ValueError):
            penalty_horn({1}, 0, confidence=-1.0)
        with pytest.raises(ValueError):
            penalty_horn({1}, 0, epsilon=1.0)

    @pytest.mark.parametrize("text", [
        "y <- x & ~z", "~y <- x", "x | y", "x ^ y", "~x", "y <- x\nz <- x & ~y",
    ], ids=["negative body", "negative head", "disjunction", "xor", "negative fact", "second"])
    def test_rejects_non_horn_kb(self, text):
        with pytest.raises(ValueError, match="Horn"):
            penalty_network(fm.parse_kb(text + "\n"))

    @pytest.mark.parametrize("text, horn", [
        ("h <- a & a", True), ("h", True), ("h | ~a", False), ("h <- h & a", False),
        ("h <- ~h & a", False), ("~x", False), ("(h | a) <- b", False),
    ])
    def test_horn_acceptance(self, text, horn):
        """A fact, or an implication from positive literals to a positive head
        outside its body; repeated body literals count once."""
        kb = fm.parse_kb(text + "\n")
        if horn:
            _, base = penalty_network(kb)
            assert base.per_formula == [len(kb.table)]
        else:
            with pytest.raises(ValueError, match="Horn"):
                penalty_network(kb)

    def test_kb_order_names_and_clause_base(self):
        kb = fm.parse_kb("2: y <- x1 & x2\n0.5: x1 <- x3\n")
        m, base = penalty_network(kb, 0.3)
        assert m.names == ["y", "x1", "x2", "x3"] and m.epsilon == 0.3
        assert base.per_formula == [3, 2] and m.n_hidden == 5 and m.e0 == 2.5
        assert [wc.c for wc in base.clauses] == [2.0] * 3 + [0.5] * 2


def universal(f, lam=0.5):
    """The universal network of one formula at weight 1."""
    m, _ = universal_network(one_formula_kb(f, max(fm.free_vars(f), default=-1) + 1), lam)
    return m


class TestUniversalBaseline:
    def test_horn3_fifteen_units(self):
        f = fm.parse_formula("y <- x1 & ~x2 & ~x3", fm.PropositionTable())
        m = universal(f)
        assert m.n_hidden == 15  # 2^(K+T+1) - 1 with T=1, K=2

    def test_model_1101_unit(self):
        m = universal(fm.parse_formula("v0 & v1 & ~v2 & v3", fm.PropositionTable()))
        assert m.W[:, 0].tolist() == [0.5, 0.5, -0.5, 0.5]
        assert m.b[0] == pytest.approx(-3 / 2 + 0.5)

    def test_equivalence(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            body_pos, body_neg, head, head_positive = random_implication(rng, max_body=4)
            f = implication_formula(body_pos, body_neg, head, head_positive)
            m = universal(f)
            assert m.n_hidden == 2 ** (len(body_pos) + len(body_neg) + 1) - 1
            n = max(body_pos | body_neg | {head}) + 1
            X = all_assignments(n)
            truth = np.array([evaluate(f, r) for r in X])
            np.testing.assert_allclose(truth.astype(float),
                                       -energy_rank(m, X) / m.epsilon, atol=1e-9)

    def test_per_formula_full_dnfs_side_by_side(self):
        # each formula gets the full DNF over its own variables
        kb = fm.parse_kb("2: x\ny ^ z\n")
        m, base = universal_network(kb)
        assert base.per_formula == [1, 2] and m.n_hidden == 3
        assert_equivalent(m, kb, 0.5)

    def test_lambda_range(self):
        # at Hamming distance 1 from a model the net input is lam - 1/2
        f = fm.parse_formula("y <- x1 & ~x2 & ~x3", fm.PropositionTable())
        for lam in (0.0, -0.1, 0.5000001, 0.7):
            with pytest.raises(ValueError):
                universal(f, lam=lam)
        kb = fm.KnowledgeBase(fm.PropositionTable(["y", "x1", "x2", "x3"]), [(1.0, f)])
        for lam in (0.01, 0.25, 0.5):
            assert_equivalent(universal(f, lam=lam), kb, lam)

    def test_rejects_formula_without_models(self):
        with pytest.raises(ValueError, match="at least one model"):
            universal(fm.parse_formula("x & ~x", fm.PropositionTable()))


class TestAttachHiddenUnits:
    def test_zero_count_identical(self):
        f = fm.parse_formula("(x ^ y) <-> z", fm.PropositionTable())
        kb = fm.KnowledgeBase(fm.PropositionTable(["x", "y", "z"]), [(1.0, f)])
        m, _ = compile_kb(kb)
        out = attach_hidden_units(m, 0, 0.1, np.random.default_rng(0))
        assert np.array_equal(out.W, m.W) and out.n_hidden == m.n_hidden

    def test_annotations_and_ranges(self):
        f = fm.parse_formula("(x ^ y) <-> z", fm.PropositionTable())
        kb = fm.KnowledgeBase(fm.PropositionTable(["x", "y", "z"]), [(1.0, f)])
        m, _ = compile_kb(kb)
        out = attach_hidden_units(m, 10, 0.05, np.random.default_rng(1))
        assert out.n_hidden == m.n_hidden + 10
        assert out.clause_annotations[:m.n_hidden] == m.clause_annotations
        assert out.clause_annotations[m.n_hidden:] == [None] * 10
        assert np.abs(out.W[:, m.n_hidden:]).max() <= 0.05
        # energy change bounded by the new units' best-case contribution
        X = all_assignments(3)
        bound = np.abs(out.W[:, m.n_hidden:]).sum() + np.abs(out.b[m.n_hidden:]).sum()
        assert np.abs(energy_rank(out, X) - energy_rank(m, X)).max() <= bound + 1e-12

    def test_size_limit_draws_nothing(self):
        m, _ = compile_kb(fm.parse_kb("x <- y\n"))  # 2 visible: 3 parameters a unit
        rng = np.random.default_rng(0)
        with pytest.raises(SizeLimitError):
            attach_hidden_units(m, SEARCH_LIMIT // 3 + 1, 0.1, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_negative_count(self):
        m, _ = compile_kb(fm.parse_kb("x <- y\n"))
        with pytest.raises(ValueError):
            attach_hidden_units(m, -1, 0.1, np.random.default_rng(0))
