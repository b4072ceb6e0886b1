"""Clause extraction from weight columns and reliability scoring."""
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from logicrbm import formula as fm
from logicrbm.compiler import compile_kb
from logicrbm.extractor import (
    EXTRACT_BLOCK, ExtractedClause, extract_clauses, format_listing, listing_to_json,
    score_reliability,
)
from logicrbm.normal_forms import ConjunctiveClause
from logicrbm.rbm import Rbm
from logicrbm.trainer import Dataset, TrainConfig, train

from conftest import random_kb
from reference_kernels import ref_candidates, ref_extract_clauses


def rbm_with_columns(*columns):
    W = np.array(columns, dtype=float).T
    return Rbm(W=W, a=np.zeros(W.shape[0]), b=np.zeros(W.shape[1]))


class TestExtractClauses:
    def test_reported_column_example(self):
        m = rbm_with_columns([6.2166, -6.7347, 6.3059])
        [ec] = extract_clauses(m)
        assert (ec.clause.pos, ec.clause.neg) == ((0, 2), (1,))
        assert ec.c == pytest.approx(6.419, abs=1e-3)
        assert not ec.empty

    def test_exact_pattern_distance_zero(self):
        m = rbm_with_columns([2.5, -2.5, 0.0, 0.0])
        [ec] = extract_clauses(m)
        assert (ec.clause.pos, ec.clause.neg) == ((0,), (1,))
        assert ec.c == pytest.approx(2.5) and ec.distance == pytest.approx(0.0)

    def test_all_zero_column_flagged_empty(self):
        m = rbm_with_columns([0.0, 0.0])
        [ec] = extract_clauses(m)
        assert ec.empty and ec.clause.is_true_clause and ec.c == 0.0

    def test_pruning_drops_small_entries(self):
        m = rbm_with_columns([5.0, 5.0, 0.1])
        [ec] = extract_clauses(m)
        assert (ec.clause.pos, ec.clause.neg) == ((0, 1), ())

    def test_round_trip_on_random_kbs(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            kb = random_kb(rng, n_vars=5, n_formulas=3, w_low=0.1, w_high=10.0)
            m, base = compile_kb(kb)
            # a clause of fewer than two literals is a bias, not a unit
            units = [wc for wc in base.clauses if len(wc.clause.variables()) > 1]
            extracted = extract_clauses(m)
            assert len(extracted) == len(units)
            for ec, wc in zip(extracted, units):
                assert ec.clause == wc.clause
                assert ec.c == pytest.approx(wc.c, abs=1e-9)
                assert ec.distance == pytest.approx(0.0, abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        W = rng.normal(0, 2, (4, 5))
        m = Rbm(W=W, a=np.zeros(4), b=np.zeros(5))
        perm = rng.permutation(5)
        m2 = Rbm(W=W[:, perm], a=np.zeros(4), b=np.zeros(5))
        set1 = {(e.clause.pos, e.clause.neg, round(e.c, 12))
                for e in extract_clauses(m)}
        set2 = {(e.clause.pos, e.clause.neg, round(e.c, 12))
                for e in extract_clauses(m2)}
        assert set1 == set2

    def test_distance_is_minimal_among_candidates(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            col = rng.normal(0, 3, 5)
            m = rbm_with_columns(col)
            [ec] = extract_clauses(m)
            dists = [np.linalg.norm(col - c * s)
                     for s, c in ref_candidates(col)]
            assert ec.distance == pytest.approx(min(dists), abs=1e-12)


def fields(extracted):
    return [(e.clause, e.hidden_index, e.empty) for e in extracted]


def assert_matches_reference(m):
    """Same clauses as the per-column loop; c and distance to rounding, since
    BLAS dot and numpy's pairwise mean sum in another order than the
    blocked reductions."""
    new, ref = extract_clauses(m), ref_extract_clauses(m)
    assert fields(new) == fields(ref)
    np.testing.assert_allclose([e.c for e in new], [e.c for e in ref], rtol=1e-12)
    np.testing.assert_allclose([e.distance for e in new], [e.distance for e in ref],
                               rtol=1e-12, atol=1e-12)


class TestAgainstReferenceLoop:
    """The blocked array scoring against the per-column, per-fraction loop."""

    def test_dense_columns_across_blocks(self):
        rng = np.random.default_rng(48)
        n = 40
        H = 2 * (EXTRACT_BLOCK // n) + 7          # three column blocks
        W = rng.normal(0, 2, (n, H))
        W[rng.random(W.shape) < 0.3] = 0.0
        W[:, 5] = 0.0
        W[:, 9] = np.where(rng.random(n) < 0.5, 1.5, -1.5)
        assert_matches_reference(Rbm(W=W, a=np.zeros(n), b=np.zeros(H)))

    def test_compiled_and_frozen_trained_networks(self):
        rng = np.random.default_rng(49)
        for _ in range(15):
            kb = random_kb(rng, n_vars=6, n_formulas=4, w_low=0.1, w_high=10.0)
            m, _ = compile_kb(kb)
            rows = (rng.random((6, 6)) < 0.5).astype(float)
            trained, _ = train(m, Dataset(kb.table, rows, (0, 1)),
                               TrainConfig(beta=1.0, lr=0.05, epochs=3,
                                           freeze_structure=True))
            assert_matches_reference(m)
            assert_matches_reference(trained)

    def test_exact_tie_keeps_the_first_fraction(self):
        # keeping all four entries (c = 1.5) and keeping only the 3 (c = 3)
        # both leave a residual of norm sqrt(3); the earlier fraction wins
        m = rbm_with_columns([3.0, 1.0, 1.0, 1.0])
        [ec] = extract_clauses(m)
        assert (ec.clause.pos, ec.clause.neg) == ((0, 1, 2, 3), ())
        assert_matches_reference(m)

    def test_no_hidden_units(self):
        m = Rbm(W=np.zeros((3, 0)), a=np.zeros(3), b=np.zeros(0))
        assert extract_clauses(m) == []

    @pytest.mark.parametrize("W", [
        [[0.0], [0.0], [2.5], [0.0]],
        [[-1.0], [-3.0], [-0.5]],
        [[1.0, 0.0, 0.3], [-2.0, 0.0, 0.0], [0.5, 0.0, -4.0]],
        # pruning at 0.25 (the zero goes, c = 1.5) and at 0.5 (the 3 alone stays,
        # c = 3) leave residuals of equal norm; the earlier fraction wins
        [[-3.0, 3.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [0.0, 0.0]],
        [[2.0, 0.0, -0.5]],
        np.zeros((3, 0)),
    ], ids=["single nonzero", "all negative", "all-zero column inside a block",
            "exact fraction tie", "one visible unit", "no hidden units"])
    def test_edge_columns(self, W):
        W = np.array(W, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert_matches_reference(Rbm(W=W, a=np.zeros(W.shape[0]), b=np.zeros(W.shape[1])))

    def test_working_memory_does_not_grow_with_the_network(self):
        rng = np.random.default_rng(50)
        W = rng.normal(0, 1, (200, 8000))
        W[rng.random(W.shape) < 0.97] = 0.0
        m = Rbm(W=W, a=np.zeros(200), b=np.zeros(8000))
        tracemalloc.start()
        try:
            extracted = extract_clauses(m)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(extracted) == 8000
        assert peak - kept < W.nbytes / 4


def labelled_dataset():
    # columns: f0, f1, cls; clause under test: cls & f0 & ~f1
    table = fm.PropositionTable(["f0", "f1", "cls"])
    rows = np.array([
        [1, 0, 1],   # body matches, class agrees      -> satisfy
        [1, 0, 1],   # satisfy
        [1, 0, 0],   # body matches, class disagrees   -> violate
        [0, 0, 1],   # body fails                      -> ignored
        [1, 1, 0],   # body fails                      -> ignored
    ], dtype=float)
    return Dataset(table, rows)


def reliability_ratio(clause, d, class_indices):
    """The reliability ``score_reliability`` gives one clause (None when the
    clause does not mention exactly one class column)."""
    ec = ExtractedClause(clause, 1.0, 0, 0.0)
    score_reliability([ec], d, class_indices)
    return ec.reliability


class TestReliabilityRatio:
    def test_constructed_counts(self):
        clause = ConjunctiveClause((0, 2), (1,))
        assert reliability_ratio(clause, labelled_dataset(), (2,)) == (2, 1)

    def test_negative_class_literal(self):
        clause = ConjunctiveClause((0,), (1, 2))
        assert reliability_ratio(clause, labelled_dataset(), (2,)) == (1, 2)

    def test_no_matching_body(self):
        clause = ConjunctiveClause((1, 2), (0,))
        assert reliability_ratio(clause, labelled_dataset(), (2,)) == (0, 0)

    def test_class_literal_requirements(self):
        # no class literal, or two: the clause is left unscored
        d = labelled_dataset()
        assert reliability_ratio(ConjunctiveClause((0,), (1,)), d, (2,)) is None
        assert reliability_ratio(ConjunctiveClause((0, 1, 2), ()), d, (1, 2)) is None

    def test_one_hot_style_fixture(self):
        # two-value class encoded one-hot, mirroring the categorical pipeline
        table = fm.PropositionTable(["safe_low", "buy_high", "cls_acc", "cls_unacc"])
        rows = np.zeros((10, 4))
        rows[:6, 0] = 1          # six rows with safe_low
        rows[:6, 3] = 1          # ... all classed unacc
        rows[6:, 1] = 1
        rows[6:, 2] = 1
        d = Dataset(table, rows)
        clause = ConjunctiveClause((0, 3), ())
        assert reliability_ratio(clause, d, (2, 3)) == (6, 0)


class TestScoreReliability:
    def test_scores_clauses_with_one_class_column(self):
        d = labelled_dataset()
        clauses = [ConjunctiveClause((0, 2), (1,)),     # one class literal
                   ConjunctiveClause((0,), (1, 2)),     # one, negated
                   ConjunctiveClause((0,), (1,)),       # none
                   ConjunctiveClause((), ())]           # empty
        extracted = [ExtractedClause(cl, 1.0, j, 0.0, empty=not cl.variables())
                     for j, cl in enumerate(clauses)]
        score_reliability(extracted, d, [2])
        assert [ec.reliability for ec in extracted] == [(2, 1), (1, 2), None, None]

    def test_two_class_columns_are_not_scored(self):
        # a one-hot class: a clause over both of its columns is skipped, one
        # over a single column is scored against that column
        table = fm.PropositionTable(["f", "cls_a", "cls_b"])
        d = Dataset(table, [[1, 1, 0], [1, 0, 1], [0, 0, 1]])
        extracted = [ExtractedClause(ConjunctiveClause((0, 1), (2,)), 1.0, 0, 0.0),
                     ExtractedClause(ConjunctiveClause((0, 2), ()), 1.0, 1, 0.0)]
        score_reliability(extracted, d, (1, 2))
        assert [ec.reliability for ec in extracted] == [None, (1, 1)]


class TestListing:
    def test_format_sorted_with_rr(self):
        m = rbm_with_columns([1.0, 0.0], [3.0, -3.0])
        extracted = extract_clauses(m)
        extracted[0].reliability = (4, 1)
        text = format_listing(extracted, names=["u", "v"])
        lines = text.splitlines()
        assert lines[0].startswith("3.0000: u & ~v")
        assert lines[1] == "1.0000: u [rr=4/1]"

    def test_json_fields(self):
        m = rbm_with_columns([1.5, -1.5])
        docs = json.loads(listing_to_json(extract_clauses(m), m.names))
        assert docs[0]["pos"] == ["x0"] and docs[0]["neg"] == ["x1"]
        assert docs[0]["confidence"] == pytest.approx(1.5)
