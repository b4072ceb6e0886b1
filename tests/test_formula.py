"""Parser, AST, evaluation, and knowledge-base tests."""
import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logicrbm as L
from logicrbm import formula as fm
from logicrbm.errors import ParseError
from logicrbm.normal_forms import ConjunctiveClause, all_assignments, to_full_dnf

from conftest import evaluate, format_formula, random_formula, random_kb
from reference_kernels import ref_formula, ref_parse_formula


def table(*names):
    return fm.PropositionTable(names)


# ---------------------------------------------------------------------------
# PropositionTable / Assignment
# ---------------------------------------------------------------------------

class TestPropositionTable:
    def test_first_appearance_order(self):
        t = fm.PropositionTable()
        assert [t.add("b"), t.add("a"), t.add("b")] == [0, 1, 0]
        assert t.names == ["b", "a"]
        assert t.index == {"b": 0, "a": 1}

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            fm.PropositionTable().add("")

    def test_len_and_contains(self):
        t = table("x", "y")
        assert len(t) == 2 and "x" in t and "z" not in t


class TestAssignment:
    def test_total(self):
        a = fm.Assignment({2: True, 0: True, 1: False}, 3)
        assert a.unassigned() == ()

    def test_partial(self):
        a = fm.Assignment({0: True}, 3)
        assert a.unassigned() == (1, 2)

    def test_out_of_universe_index(self):
        with pytest.raises(ValueError):
            fm.Assignment({3: True}, 3)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class TestParsing:
    def test_xor_iff_example(self):
        t = table()
        f = fm.parse_formula("(x ^ y) <-> z", t)
        assert f == fm.Iff(fm.Xor(fm.Var(0), fm.Var(1)), fm.Var(2))
        assert t.names == ["x", "y", "z"]

    def test_negated_literal(self):
        f = fm.parse_formula("~n", table("n"))
        assert f == fm.Not(fm.Var(0))

    def test_backward_implication_is_head_first(self):
        t = table("r", "n")
        f = fm.parse_formula("r <- n", t)
        assert f == fm.Implies(body=fm.Var(1), head=fm.Var(0))

    def test_forward_implication_normalized(self):
        t = table("n", "r")
        assert fm.parse_formula("n -> r", t) \
            == fm.Implies(body=fm.Var(0), head=fm.Var(1))

    def test_precedence_and_over_or(self):
        t = table("a", "b", "c")
        assert fm.parse_formula("a | b & c", t) \
            == fm.Or(fm.Var(0), fm.And(fm.Var(1), fm.Var(2)))

    def test_precedence_or_over_xor(self):
        t = table("a", "b", "c")
        assert fm.parse_formula("a ^ b | c", t) \
            == fm.Xor(fm.Var(0), fm.Or(fm.Var(1), fm.Var(2)))

    def test_implication_right_associative(self):
        t = table("a", "b", "c")
        assert fm.parse_formula("a -> b -> c", t) \
            == fm.Implies(body=fm.Var(0),
                          head=fm.Implies(body=fm.Var(1), head=fm.Var(2)))

    def test_not_binds_tightest(self):
        t = table("a", "b")
        assert fm.parse_formula("~a & b", t) \
            == fm.And(fm.Not(fm.Var(0)), fm.Var(1))

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            fm.parse_formula("a & $b", table(), line_no=7)
        assert err.value.line == 7
        assert err.value.column is not None

    def test_error_without_column_names_the_line(self):
        with pytest.raises(ParseError, match=r"^unexpected end of input \(line 7\)$") as err:
            fm.parse_formula("a &", table(), line_no=7)
        assert (err.value.line, err.value.column) == (7, None)

    def test_empty_formula(self):
        with pytest.raises(ParseError):
            fm.parse_formula("   ", table())

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            fm.parse_formula("(a & b", table())

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            fm.parse_formula("a b", table())


class TestParseKb:
    def test_weights_comments_blank_lines(self):
        kb = fm.parse_kb(
            "# header comment\n"
            "1000: r <- n\n"
            "\n"
            "q <- n   # unweighted line\n")
        assert [w for w, _ in kb.items] == [1000.0, 1.0]
        assert kb.table.names == ["r", "n", "q"]

    def test_bad_weight(self):
        with pytest.raises(ParseError):
            fm.parse_kb("abc: x | y\n")

    def test_load_kb_files(self, kb_dir):
        kb = L.load_kb(kb_dir / "nixon.kb")
        assert kb.table.names == ["n", "r", "q", "p"]
        assert [w for w, _ in kb.items] == [1000.0, 1000.0, 10.0, 10.0]


class TestParserOracle:
    """The operator-precedence loop against the recursive-descent oracle:
    the same AST and proposition table, or the same error and position."""

    TOKENS = ["a", "b", "c", "~", "&", "|", "^", "->", "<-", "<->", "(", ")"]

    @staticmethod
    def outcome(parse, text, line_no=1):
        t = fm.PropositionTable()
        try:
            return parse(text, t, line_no), t.names
        except ParseError as err:
            return (str(err), err.line, err.column), t.names

    def assert_same(self, text, line_no=1):
        try:
            want = self.outcome(ref_parse_formula, text, line_no)
        except RecursionError:      # past the oracle's reach
            return
        assert self.outcome(fm.parse_formula, text, line_no) == want, text

    def random_text(self, rng):
        """Up to 30 tokens.  Most follow the grammar's turns of operand and
        connective, closing only open parentheses, and one in ten is any
        token."""
        tokens, operand, depth = [], True, 0
        for _ in range(int(rng.integers(31))):
            if rng.random() < 0.1:
                tok = self.TOKENS[rng.integers(len(self.TOKENS))]
            elif operand:
                tok = self.TOKENS[rng.choice([0, 0, 1, 1, 2, 3, 10])]
            elif depth and rng.random() < 0.3:
                tok = ")"
            else:
                tok = self.TOKENS[rng.integers(4, 10)]
            tokens.append(tok)
            operand = tok not in ("a", "b", "c", ")")
            depth += (tok == "(") - (tok == ")")
        return (" " if rng.random() < 0.7 else "").join(tokens)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_token_strings(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(2500):
            self.assert_same(self.random_text(rng), int(rng.integers(1, 10)))

    @pytest.mark.parametrize("seed", range(2))
    def test_formatted_random_formulas(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(500):
            f = random_formula(rng, 4, depth=int(rng.integers(1, 7)))
            self.assert_same(format_formula(f))

    def test_shipped_kbs(self, kb_dir, monkeypatch):
        kbs = {path: L.load_kb(path) for path in sorted(kb_dir.glob("*.kb"))}
        monkeypatch.setattr(fm, "parse_formula", ref_parse_formula)
        for path, kb in kbs.items():
            ref = L.load_kb(path)
            assert (kb.items, kb.table.names) == (ref.items, ref.table.names), path.name

    @pytest.mark.parametrize("text", [
        "(" * 1000 + "x" + ")" * 1000,
        "~" * 1000 + "x",
        " -> ".join(f"x{i}" for i in range(1001)),
        "~(" * 500 + "x" + ")" * 500,
    ], ids=["parentheses", "negations", "implications", "negated parentheses"])
    def test_nesting_limit(self, text):
        """``NESTING_LIMIT`` pending tokens parse; one more is refused."""
        assert fm.NESTING_LIMIT == 1000
        fm.parse_formula(text, table())
        deeper = "(" + text + ")"
        with pytest.raises(ParseError, match="nested too deeply") as err:
            fm.parse_formula(deeper, table(), line_no=4)
        assert (err.value.line, err.value.column) == (4, None)

    def test_deep_parentheses_from_deep_stack(self):
        """The parser takes no interpreter frames per level: 900 nested
        parentheses parse from inside 800 nested calls."""
        text = "(" * 900 + "x" + ")" * 900

        def nest(depth):
            return nest(depth - 1) if depth else fm.parse_formula(text, table())

        assert nest(800) == fm.Var(0)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def xor_formula():
    return fm.parse_formula("(x ^ y) <-> z", table())


def truth_rows(f, X):
    """The library's truth values of f on the rows of X: the weighted_sat
    of a knowledge base holding f alone at weight 1."""
    return fm.weighted_sat_batch(fm.KnowledgeBase(table(), [(1.0, f)]), X) == 1.0


class TestEvaluate:
    def test_xor_truth_values(self):
        f = xor_formula()
        assert evaluate(f, [1, 1, 0]) is True
        assert evaluate(f, [1, 1, 1]) is False

    def test_xor_all_models(self):
        f = xor_formula()
        models = {bits for bits in
                  [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
                  if evaluate(f, bits)}
        assert models == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}

    def test_const(self):
        assert evaluate(fm.TRUE, []) is True
        assert evaluate(fm.FALSE, []) is False

    def test_unassigned_variable(self):
        with pytest.raises(ValueError):
            evaluate(fm.Var(1), fm.Assignment({0: True}, 2))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        X = all_assignments(4)
        for _ in range(200):
            f = random_formula(rng, 4, depth=4)
            want = [evaluate(f, row) for row in X]
            assert np.array_equal(truth_rows(f, X), want)

    def test_batch_const_and_bad_node(self):
        X = np.zeros((3, 1))
        assert truth_rows(fm.And(fm.TRUE, fm.Not(fm.FALSE)), X).tolist() == [True] * 3
        with pytest.raises(TypeError):
            truth_rows(fm.And(fm.Var(0), "x"), X)


def left_chain(op, leaves):
    f = leaves[0]
    for g in leaves[1:]:
        f = op(f, g)
    return f


class TestDeepFormulas:
    """5 000 nested nodes, far past the interpreter's recursion limit."""

    def test_not_chain(self):
        f = fm.Var(1)
        for _ in range(5000):
            f = fm.Not(f)
        X = all_assignments(2)
        assert fm.free_vars(f) == {1}
        assert np.array_equal(truth_rows(f, X), X[:, 1] > 0.5)

    def test_and_chain(self):
        f = left_chain(fm.And, [fm.Var(i % 3) for i in range(5001)])
        X = all_assignments(3)
        assert fm.free_vars(f) == {0, 1, 2}
        assert truth_rows(f, X).tolist() == [False] * 7 + [True]
        assert to_full_dnf(f) == [ConjunctiveClause((0, 1, 2), ())]

    def test_xor_chain(self):
        # x0 appears 1 251 times and x1..x3 1 250 times each, so f is x0
        f = left_chain(fm.Xor, [fm.Var(i % 4) for i in range(5001)])
        X = all_assignments(4)
        assert fm.free_vars(f) == {0, 1, 2, 3}
        assert np.array_equal(truth_rows(f, X), X[:, 0] > 0.5)
        clauses = to_full_dnf(f)
        assert len(clauses) == 8 and all(cl.pos[:1] == (0,) for cl in clauses)
        assert all(cl.variables() == {0, 1, 2, 3} for cl in clauses)


class TestFormulaIdentity:
    """Equality, hashing and printing, against the methods that frozen
    dataclasses generate (``reference_kernels.REF_NODES``), and past the
    interpreter's recursion limit."""

    def test_shallow_formulas_match_generated_methods(self):
        rng = np.random.default_rng(43)
        # few variables and shallow trees, so that many pairs are equal
        fs = [random_formula(rng, 2, depth=int(rng.integers(0, 3))) for _ in range(300)]
        fs += [fm.TRUE, fm.FALSE, fm.Const(True), fm.Not(fm.TRUE)]
        fs += [copy.deepcopy(f) for f in fs[:100]]
        refs = [ref_formula(f) for f in fs]
        equal = 0
        for i in rng.integers(len(fs), size=(3000, 2)):
            (f, g), (rf, rg) = [fs[k] for k in i], [refs[k] for k in i]
            assert (f == g, f != g) == (rf == rg, rf != rg)
            if f == g:
                assert hash(f) == hash(g)
                equal += f is not g
        assert equal > 100
        assert [repr(f) for f in fs] == [repr(r) for r in refs]
        assert len(set(fs)) == len(set(refs))
        assert (fm.Var(0) == 0, fm.Var(0) != "x") == (refs[0] == 0, True)

    @pytest.mark.parametrize("kind", ["800-long -> chain", "900 nested parentheses"])
    def test_deep_formulas(self, kind):
        if kind == "800-long -> chain":
            text = " -> ".join(f"x{i % 14}" for i in range(800))
            expected = "Var(index=1)"   # x799, the last head
            for i in range(798, -1, -1):
                expected = f"Implies(body=Var(index={i % 14}), head={expected})"
        else:
            text = "(" * 900 + "x" + ") & y" * 900
            expected = "Var(index=0)"
            for _ in range(900):
                expected = f"And(left={expected}, right=Var(index=1))"
        t = table()
        f, g = fm.parse_formula(text, t), fm.parse_formula(text, t)
        other = fm.parse_formula(text[:-1] + "z", t)  # the last variable differs
        assert f == g and not f != g and hash(f) == hash(g)
        assert f != other and not f == other
        assert len({f, g, other}) == 2
        assert repr(f) == expected


class TestWeightedSat:
    def test_nixon_all_true(self, kb_dir):
        kb = L.load_kb(kb_dir / "nixon.kb")
        assert fm.weighted_sat_batch(kb, np.ones((1, 4))).tolist() == [2010.0]

    def test_nixon_all_false(self, kb_dir):
        kb = L.load_kb(kb_dir / "nixon.kb")
        assert fm.weighted_sat_batch(kb, np.zeros((1, 4))).tolist() == [2020.0]

    def test_empty_kb(self):
        kb = fm.KnowledgeBase(table("x"))
        assert fm.weighted_sat_batch(kb, all_assignments(1)).tolist() == [0.0, 0.0]

    def test_linear_in_weights(self):
        rng = np.random.default_rng(1)
        kb = random_kb(rng, n_vars=4)
        scaled = fm.KnowledgeBase(kb.table, [(3.5 * w, f) for w, f in kb.items])
        X = all_assignments(4)
        np.testing.assert_allclose(
            fm.weighted_sat_batch(scaled, X),
            3.5 * fm.weighted_sat_batch(kb, X), rtol=1e-12)

    def test_non_finite_weight_rejected(self):
        kb = fm.KnowledgeBase(table("x"))
        with pytest.raises(ValueError):
            kb.add(float("inf"), fm.Var(0))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@st.composite
def formulas(draw, n_vars=4):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_formula(np.random.default_rng(seed), n_vars)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(formulas())
    def test_print_parse_round_trip(self, f):
        t = table("x0", "x1", "x2", "x3")
        assert fm.parse_formula(format_formula(f, t), t) == f

    @settings(max_examples=100, deadline=None)
    @given(formulas(), st.integers(0, 15))
    def test_implication_equals_or_not(self, f, bits):
        a = [(bits >> i) & 1 for i in range(4)]
        g = fm.Implies(body=f, head=fm.Var(0))
        assert evaluate(g, a) == evaluate(fm.Or(fm.Not(f), fm.Var(0)), a)

    @settings(max_examples=50, deadline=None)
    @given(formulas())
    def test_free_vars_covers_evaluation_needs(self, f):
        fv = fm.free_vars(f)
        a = fm.Assignment({i: True for i in fv}, 4)
        evaluate(f, a)  # must not raise
