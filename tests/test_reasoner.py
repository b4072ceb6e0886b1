"""Inference: the MaxSAT oracle, Gibbs search, descent, exact search,
conditionals, verify."""
import tracemalloc

import numpy as np
import pytest

import logicrbm as L
from logicrbm import formula as fm, rbm
from logicrbm.errors import SizeLimitError
from logicrbm.normal_forms import all_assignments
from logicrbm.reasoner import (
    DeterministicConfig, GibbsConfig, Query, _best, infer_conditional, infer_deterministic,
    infer_exact, infer_gibbs, verify_equivalence,
)
from logicrbm.rbm import Rbm, energy_rank
from logicrbm.trainer import _conditional

from conftest import random_kb, random_rbm
from reference_kernels import ref_brute_force_maxsat, ref_conditional_nll, ref_infer_exact


@pytest.fixture
def xor():
    kb = fm.parse_kb("(x ^ y) <-> z")
    m, _ = L.compile_kb(kb)
    return kb, m


@pytest.fixture
def nixon(kb_dir):
    kb = L.load_kb(kb_dir / "nixon.kb")
    m, _ = L.compile_kb(kb)
    return kb, m


def horn_network():
    """400 weighted Horn rules over 200 variables, each with three body
    literals (30% negated); every variable occurs in 8 rules."""
    rng = np.random.default_rng(1)
    stream = np.concatenate([rng.permutation(200) for _ in range(8)])
    rules = []
    for r in range(400):
        body, head = stream[4 * r:4 * r + 3], stream[4 * r + 3]
        lits = " & ".join(("~" if rng.random() < 0.3 else "") + f"v{i}" for i in body)
        rules.append(f"{1 + r % 10}: v{head} <- {lits}")
    return rng, L.compile_kb(fm.parse_kb("\n".join(rules)))[0]


def traced_peak(kernel):
    """The kernel's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        out = kernel()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBruteForceMaxsat:
    def test_nixon_given_n(self, nixon):
        kb, _ = nixon
        winners, best = ref_brute_force_maxsat(kb, fm.Assignment({0: True}, 4))
        assert best == 2010.0
        assert winners == [(1, 1, 1, 0), (1, 1, 1, 1)]  # p is the tie variable

    def test_empty_kb_all_tie(self):
        kb = fm.KnowledgeBase(fm.PropositionTable(["x", "y"]))
        winners, best = ref_brute_force_maxsat(kb, fm.Assignment({}, 2))
        assert best == 0.0 and len(winners) == 4

    def test_xor_completion(self, xor):
        kb, _ = xor
        winners, best = ref_brute_force_maxsat(kb, fm.Assignment({0: True, 1: True}, 3))
        assert best == 1.0 and winners == [(1, 1, 0)]

    def test_size_limit(self):
        kb = fm.KnowledgeBase(fm.PropositionTable([f"v{i}" for i in range(30)]))
        with pytest.raises(SizeLimitError):
            ref_brute_force_maxsat(kb, fm.Assignment({}, 30))

    def test_blocks_match_full_enumeration(self, monkeypatch):
        # exact search on the compiled network, in blocks of at most 64
        # elements, reaches one of the knowledge base's maximisers
        monkeypatch.setattr(rbm, "BLOCK_ELEMENTS", 64)
        rng = np.random.default_rng(31)
        for _ in range(10):
            kb = random_kb(rng, n_vars=8, n_formulas=5, w_low=1.0, w_high=3.0)
            kb.add(0.5, fm.parse_formula("v0 | ~v0", kb.table))  # a tie-rich case too
            X = all_assignments(8)
            scores = fm.weighted_sat_batch(kb, X)
            near = np.isclose(scores, scores.max(), rtol=0, atol=1e-9)
            winners, best = ref_brute_force_maxsat(kb, fm.Assignment({}, 8))
            assert best == scores.max()
            assert winners == sorted(tuple(int(v) for v in row) for row in X[near])
            rep = infer_exact(L.compile_kb(kb)[0], fm.Assignment({}, 8))
            assert rep.weighted_sat == pytest.approx(best, abs=1e-9)
            assert tuple(int(rep.assignment[i]) for i in range(8)) in winners


class TestBest:
    """The one rule that picks every search's answer."""

    def test_exact_ties_go_to_the_smallest_state(self):
        Xf = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        x, e = _best(Xf, np.array([-1.0, -1.0, 0.0]))
        assert x.tolist() == [0.0, 1.0] and e == -1.0
        assert not np.shares_memory(x, Xf)

    def test_incumbent_kept_unless_clearly_lower_or_tied_and_smaller(self):
        best = (np.array([0.0, 1.0]), -1.0)
        larger, smaller = np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])
        # 0.5e-12 lower but lexicographically larger: the incumbent stays
        assert _best(larger, np.array([-1.0 - 0.5e-12]), best) is best
        # 2e-12 lower: the new state wins although it is larger
        x, e = _best(larger, np.array([-1.0 - 2e-12]), best)
        assert x.tolist() == [1.0, 0.0] and e == -1.0 - 2e-12
        # within 1e-12 either way: the smaller state wins
        for energy in (-1.0 + 0.5e-12, -1.0, -1.0 - 0.5e-12):
            x, e = _best(smaller, np.array([energy]), best)
            assert x.tolist() == [0.0, 0.0] and e == energy
        assert _best(larger, np.array([-1.0]), best) is best
        # 2e-12 higher: the incumbent stays although it is smaller
        assert _best(smaller, np.array([-1.0 + 2e-12]), best) is best


class TestSearchConfigs:
    def test_counts_validated(self):
        for bad in (dict(restarts=0), dict(restarts=-1), dict(steps=-3)):
            with pytest.raises(ValueError):
                GibbsConfig(**bad)
        for bad in (dict(restarts=0), dict(sweeps=-1)):
            with pytest.raises(ValueError):
                DeterministicConfig(**bad)
        GibbsConfig(steps=0, restarts=1)
        DeterministicConfig(sweeps=0, restarts=1)


class TestInferGibbs:
    def test_all_clamped_echo(self, xor):
        _, m = xor
        q = Query(evidence=fm.Assignment({0: True, 1: True, 2: False}, 3))
        rep = infer_gibbs(m, q)
        assert rep.assignment == {0: True, 1: True, 2: False}
        assert rep.energy_rank == pytest.approx(-0.5)

    def test_xor_completes_to_model(self, xor):
        _, m = xor
        q = Query(evidence=fm.Assignment({0: True, 1: True}, 3))
        rep = infer_gibbs(m, q, GibbsConfig(steps=100, restarts=5, seed=0))
        assert rep.assignment[2] is False
        assert rep.energy_rank == pytest.approx(-0.5)
        assert rep.weighted_sat == pytest.approx(1.0)

    def test_nixon_given_n(self, nixon):
        kb, m = nixon
        q = Query(evidence=fm.Assignment({0: True}, 4))
        rep = infer_gibbs(m, q)
        _, best = ref_brute_force_maxsat(kb, q.evidence)
        assert rep.weighted_sat == pytest.approx(best)

    def test_seed_reproducible(self, nixon):
        _, m = nixon
        q = Query(evidence=fm.Assignment({0: True}, 4))
        r1 = infer_gibbs(m, q, GibbsConfig(seed=5))
        r2 = infer_gibbs(m, q, GibbsConfig(seed=5))
        assert r1.assignment == r2.assignment
        assert r1.energy_trace == r2.energy_trace

    def test_trace_is_best_so_far(self, nixon):
        _, m = nixon
        q = Query(evidence=fm.Assignment({0: True}, 4))
        rep = infer_gibbs(m, q)
        assert all(b <= a + 1e-12 for a, b in zip(rep.energy_trace,
                                                  rep.energy_trace[1:]))


class TestInferDeterministic:
    def test_xor_clamp_x(self, xor):
        _, m = xor
        q = Query(evidence=fm.Assignment({0: True}, 3))
        rep = infer_deterministic(m, q)
        assert rep.energy_rank == pytest.approx(-0.5)
        assert (rep.assignment[1], rep.assignment[2]) in {(False, True), (True, False)}

    def test_traces_non_increasing_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_rbm(rng, int(rng.integers(2, 7)), int(rng.integers(1, 5)))
            clamp = {int(i): bool(rng.random() < 0.5)
                     for i in rng.permutation(m.n_visible)[: rng.integers(0, m.n_visible)]}
            q = Query(evidence=fm.Assignment(clamp, m.n_visible))
            rep = infer_deterministic(m, q, DeterministicConfig(sweeps=20, restarts=3,
                                                                seed=int(rng.integers(1e6))))
            trace = rep.energy_trace
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


class TestSearchQuality:
    def test_horn_queries_reach_the_exact_optimum(self):
        """Both searches reach the optimum of 14-free queries on 200 variables."""
        rng, m = horn_network()
        for seed in range(10):
            free = rng.choice(200, 14, replace=False).tolist()
            x = rng.random(200) < 0.5
            evidence = fm.Assignment({i: bool(x[i]) for i in range(200) if i not in free}, 200)
            best = infer_exact(m, evidence).weighted_sat
            for rep in (infer_deterministic(m, Query(evidence), DeterministicConfig(seed=seed)),
                        infer_gibbs(m, Query(evidence), GibbsConfig(seed=seed))):
                assert rep.weighted_sat == pytest.approx(best, abs=1e-9)

    def test_horn_traces_end_at_the_answer(self):
        """The last trace entry is the energy after the descent, the
        answer's, in both modes."""
        rng, m = horn_network()
        for seed in range(10):
            free = rng.choice(200, 14, replace=False).tolist()
            x = rng.random(200) < 0.5
            q = Query(fm.Assignment({i: bool(x[i]) for i in range(200) if i not in free}, 200))
            for rep in (infer_deterministic(m, q, DeterministicConfig(seed=seed)),
                        infer_gibbs(m, q, GibbsConfig(seed=seed))):
                assert abs(rep.energy_trace[-1] - rep.energy_rank) <= 1e-9

    def test_dense_free_rows_in_bounded_memory(self):
        """10 restarts x about 2^20 nonzero free weights: the flips of a
        block of ``block_rows(nnz)`` restarts (here one) are scored at a
        time, where all restarts at once would take 80 MiB per array."""
        rng = np.random.default_rng(41)
        m = random_rbm(rng, 64, 16384)
        q = Query(fm.Assignment({0: True}, 64))
        for search in (lambda: infer_deterministic(m, q, DeterministicConfig(sweeps=2)),
                       lambda: infer_gibbs(m, q, GibbsConfig(steps=2))):
            _, peak = traced_peak(search)
            assert peak <= 7 * rbm.BLOCK_ELEMENTS * 8, peak


class TestInferExact:
    def test_random_kbs_reach_the_optimum(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            kb = random_kb(rng, n_vars=5, n_formulas=4, w_low=0.5, w_high=5.0)
            m, _ = L.compile_kb(kb)
            evidence = fm.Assignment({0: bool(rng.random() < 0.5)}, 5)
            winners, best = ref_brute_force_maxsat(kb, evidence)
            rep = infer_exact(m, evidence)
            assert rep.weighted_sat == pytest.approx(best, abs=1e-9)
            assert tuple(int(rep.assignment[i]) for i in range(5)) in winners

    def test_blocks_match_full_enumeration(self):
        # 4096 hidden units: 256 completions per block, 1024 completions
        rng = np.random.default_rng(29)
        m = random_rbm(rng, 12, 4096)
        evidence = fm.Assignment({3: True, 7: False}, 12)
        free = evidence.unassigned()
        X = np.zeros((1024, 12))
        X[:, 3] = 1.0
        X[:, free] = all_assignments(10)
        e = energy_rank(m, X)
        rep = infer_exact(m, evidence)
        assert rep.assignment == {i: bool(v) for i, v in enumerate(X[np.argmin(e)])}
        assert rep.energy_rank == pytest.approx(e.min(), abs=1e-9)

    def test_ties_go_to_the_smallest_state(self):
        m = Rbm(W=np.zeros((3, 1)), a=np.zeros(3), b=np.zeros(1))
        rep = infer_exact(m, fm.Assignment({1: True}, 3))
        assert rep.assignment == {0: False, 1: True, 2: False}

    @pytest.mark.parametrize("limit", [1, 7, 64, 1 << 20])
    def test_small_blocks_match_the_reference(self, monkeypatch, limit):
        monkeypatch.setattr(rbm, "BLOCK_ELEMENTS", limit)
        rng = np.random.default_rng(37)
        for _ in range(20):
            m = random_rbm(rng, 7, int(rng.integers(0, 6)))
            m.epsilon = 0.5
            clamp = {int(i): bool(rng.random() < 0.5)
                     for i in rng.permutation(7)[: rng.integers(0, 8)]}
            evidence = fm.Assignment(clamp, 7)
            rep, ref = infer_exact(m, evidence), ref_infer_exact(m, evidence)
            assert rep.assignment == ref.assignment
            assert rep.energy_rank == ref.energy_rank
            assert (rep.steps, rep.restarts) == (ref.steps, ref.restarts)

    def test_memory_bounded_in_blocks(self):
        # 20 free variables: the full completion matrix alone would be 160 MB
        kb = fm.parse_kb("\n".join(f"2: x{i} -> x{i + 1}" for i in range(20)))
        m, _ = L.compile_kb(kb)
        tracemalloc.start()
        try:
            rep = infer_exact(m, fm.Assignment({0: True}, 21))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert rep.weighted_sat == pytest.approx(40.0, abs=1e-9)
        assert rep.assignment == {i: True for i in range(21)}
        assert rep.steps == 2 ** 20

    def test_size_limit_before_allocation(self):
        m = Rbm(W=np.zeros((71, 1)), a=np.zeros(71), b=np.zeros(1))
        with pytest.raises(SizeLimitError):
            infer_exact(m, fm.Assignment({}, 71))


class TestEvidenceUniverse:
    """A search refuses evidence over a universe other than the model's."""

    SEARCHES = {
        "gibbs": lambda m, ev: infer_gibbs(m, Query(ev), GibbsConfig(steps=5)),
        "deterministic": lambda m, ev: infer_deterministic(m, Query(ev)),
        "exact": infer_exact,
    }

    @pytest.mark.parametrize("mode", sorted(SEARCHES))
    @pytest.mark.parametrize("evidence", [fm.Assignment({0: True}, 2), fm.Assignment({}, 4)],
                             ids=["smaller", "larger"])
    def test_other_universe_rejected(self, kb_dir, mode, evidence):
        m, _ = L.compile_kb(L.load_kb(kb_dir / "xor.kb"))
        with pytest.raises(ValueError, match=f"evidence over {evidence.n} variables"):
            self.SEARCHES[mode](m, evidence)


class TestInferConditional:
    def test_zero_weights_uniform(self):
        m = Rbm(W=np.zeros((3, 2)), a=np.zeros(3), b=np.zeros(2))
        rep = infer_conditional(m, fm.Assignment({0: True}, 3), (1, 2))
        np.testing.assert_allclose(rep.probabilities, 0.25)

    def test_xor_prefers_model(self, xor):
        _, m = xor
        rep = infer_conditional(m, fm.Assignment({0: True, 1: True}, 3), (2,))
        assert rep.marginals[2] < 0.5
        assert rep.decision[2] is False
        assert rep.map_config == (0,)

    def test_agrees_with_maxsat_on_random_kbs(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 10:
            kb = random_kb(rng, n_vars=4, n_formulas=3, w_low=0.5, w_high=5.0)
            m, _ = L.compile_kb(kb)
            evidence = fm.Assignment({0: bool(rng.random() < 0.5)}, 4)
            winners, _ = ref_brute_force_maxsat(kb, evidence)
            if len(winners) != 1:
                continue
            m.tau = 0.05  # sharpen so the conditional concentrates on the MAP
            rep = infer_conditional(m, evidence, (1, 2, 3))
            assert tuple(winners[0][1:]) == rep.map_config
            done += 1

    def test_targets_and_evidence_disjoint(self, xor):
        _, m = xor
        with pytest.raises(ValueError, match="disjoint"):
            infer_conditional(m, fm.Assignment({0: True, 1: True}, 3), (1, 2))

    def test_coverage_required(self, xor):
        _, m = xor
        with pytest.raises(ValueError):
            infer_conditional(m, fm.Assignment({0: True}, 3), (1,))

    def test_target_limit(self):
        m = Rbm(W=np.zeros((18, 1)), a=np.zeros(18), b=np.zeros(1))
        with pytest.raises(SizeLimitError):
            infer_conditional(m, fm.Assignment({0: True}, 18), tuple(range(1, 18)))

    def test_repeated_target_rejected(self, xor):
        _, m = xor
        with pytest.raises(ValueError, match="distinct"):
            infer_conditional(m, fm.Assignment({0: True, 1: True}, 3), (2, 2))

    def test_twelve_targets_in_bounded_memory(self):
        rng, m = horn_network()
        targets = rng.choice(200, 12, replace=False).tolist()
        x = (rng.random(200) < 0.5).astype(float)
        evidence = fm.Assignment({i: bool(x[i]) for i in range(200) if i not in targets}, 200)
        rep, peak = traced_peak(lambda: infer_conditional(m, evidence, targets))
        assert peak <= 48 * 2**20, peak
        y = [int(x[t]) for t in targets]
        k = int("".join(map(str, y)), 2)
        assert np.log(rep.probabilities[k]) == pytest.approx(
            -ref_conditional_nll(m, x, y, targets), abs=1e-9)

    def test_sixteen_targets_in_bounded_memory(self):
        """At the target limit one row's 2^16 configurations x wired units
        no longer fit one block: both exact kernels split them, and agree."""
        rng, m = horn_network()
        targets = rng.choice(200, 16, replace=False).tolist()
        rows = (rng.random((4, 200)) < 0.5).astype(float)
        x = rows[0]
        evidence = fm.Assignment({i: bool(x[i]) for i in range(200) if i not in targets}, 200)
        rep, peak = traced_peak(lambda: infer_conditional(m, evidence, targets))
        assert peak <= 48 * 2**20, peak
        (nll, g), peak = traced_peak(lambda: _conditional(m, rows, targets))
        assert peak <= 24 * 2**20, peak
        assert rep.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        k = int("".join(str(int(x[t])) for t in targets), 2)
        assert nll[0] == pytest.approx(-np.log(rep.probabilities[k]), abs=1e-9)
        assert np.isfinite(g.W).all() and np.isfinite(g.a).all() and np.isfinite(g.b).all()

    def test_probabilities_normalize(self, nixon):
        _, m = nixon
        rep = infer_conditional(m, fm.Assignment({0: True}, 4), (1, 2, 3))
        assert rep.probabilities.sum() == pytest.approx(1.0)


class TestVerifyEquivalence:
    def test_nixon_zero_deviation(self, nixon):
        kb, m = nixon
        rep = verify_equivalence(m, kb, m.epsilon)
        assert rep.ok() and rep.max_deviation <= 1e-9
        assert rep.n_assignments == 16

    def test_xor_zero_deviation(self, xor):
        kb, m = xor
        assert verify_equivalence(m, kb, m.epsilon).ok()

    def test_perturbation_detected(self, xor):
        kb, m = xor
        m.b[0] += 0.1  # raises the active net input of unit 0 at its model
        rep = verify_equivalence(m, kb, m.epsilon)
        assert not rep.ok() and rep.max_deviation > 0.01
        assert set(rep.witness) == {0, 1, 2}

    @pytest.mark.parametrize("limit", [1, 7, 64])
    def test_small_blocks_match_full_enumeration(self, monkeypatch, limit):
        monkeypatch.setattr(rbm, "BLOCK_ELEMENTS", limit)
        rng = np.random.default_rng(41)
        for _ in range(10):
            kb = random_kb(rng, n_vars=6, n_formulas=4)
            m, _ = L.compile_kb(kb)
            # distinct visible-bias errors: one worst assignment, by a margin
            m.a += 1e-3 * rng.normal(size=6)
            X = all_assignments(6)
            dev = np.abs(fm.weighted_sat_batch(kb, X) + energy_rank(m, X) / m.epsilon)
            k = int(np.argmax(dev))
            rep = verify_equivalence(m, kb, m.epsilon)
            assert rep.max_deviation == pytest.approx(dev[k], rel=1e-12)
            assert rep.witness == {i: bool(X[k, i]) for i in range(6)}
            assert rep.n_assignments == 64

    def test_size_limit(self):
        kb = fm.KnowledgeBase(fm.PropositionTable([f"v{i}" for i in range(17)]))
        m = Rbm(W=np.zeros((17, 0)), a=np.zeros(17), b=np.zeros(0))
        with pytest.raises(SizeLimitError):
            verify_equivalence(m, kb, 0.5)

    def test_epsilon_outside_unit_interval(self, xor):
        kb, m = xor
        for eps in (0.0, -1.0, 1.0, float("nan"), None):
            with pytest.raises(ValueError, match="epsilon"):
                verify_equivalence(m, kb, eps)

    def test_other_universe_rejected(self, xor, nixon):
        (_, m), (kb, _) = xor, nixon
        with pytest.raises(ValueError, match="different universes"):
            verify_equivalence(m, kb, m.epsilon)

    def test_argmin_argmax_duality(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            kb = random_kb(rng, n_vars=4, n_formulas=3)
            m, _ = L.compile_kb(kb)
            X = all_assignments(4)
            s = fm.weighted_sat_batch(kb, X)
            e = energy_rank(m, X)
            assert set(map(tuple, X[np.isclose(s, s.max())])) \
                == set(map(tuple, X[np.isclose(e, e.min())]))

    def test_wide_xor_in_bounded_memory(self):
        kb = fm.parse_kb(" ^ ".join(f"v{i}" for i in range(12)))
        m, _ = L.compile_kb(kb)
        assert m.n_hidden == 2048
        # distinct visible-bias errors: the unique worst assignment sets the
        # odd-indexed variables
        m.a += 1e-3 * np.array([(-1) ** i * (i + 1) for i in range(12)])
        X = all_assignments(12)
        dev = np.abs(fm.weighted_sat_batch(kb, X) + energy_rank(m, X) / m.epsilon)
        k = int(np.argmax(dev))
        tracemalloc.start()
        try:
            rep = verify_equivalence(m, kb, m.epsilon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert rep.max_deviation == pytest.approx(dev[k], rel=1e-12)
        assert rep.witness == {i: bool(X[k, i]) for i in range(12)}
        assert rep.witness == {i: i % 2 == 1 for i in range(12)}
        assert rep.n_assignments == 4096
