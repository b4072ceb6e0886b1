"""The incremental search kernels, the batched conditional-likelihood
kernel and the CD-k training step against the straightforward loops in
``reference_kernels``."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import logicrbm as L
from logicrbm import formula as fm, rbm, reasoner
from logicrbm.compiler import attach_hidden_units
from logicrbm.normal_forms import all_assignments
from logicrbm.rbm import block_rows, energy_rank
from logicrbm.reasoner import (
    DeterministicConfig, GibbsConfig, Query, _clamped, infer_conditional, infer_exact,
)
from logicrbm.trainer import Dataset, TrainConfig, _conditional

from conftest import cd_step, random_kb, random_rbm
from reference_kernels import (
    ref_brute_force_maxsat, ref_cd_gradient, ref_conditional_nll, ref_discriminative_gradient,
    ref_infer_deterministic, ref_infer_exact, ref_infer_gibbs, ref_train,
)

SEEDS = st.integers(0, 2**32 - 1)


def random_query(rng, m):
    n = m.n_visible
    clamp = {int(i): bool(rng.random() < 0.5)
             for i in rng.permutation(n)[: rng.integers(0, n + 1)]}
    return Query(evidence=fm.Assignment(clamp, n))


def random_search_instance(seed):
    rng = np.random.default_rng(seed)
    m = random_rbm(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    m.epsilon = 0.5
    return rng, m, random_query(rng, m)


def assert_same_answer(new, ref):
    assert new.assignment == ref.assignment
    assert abs(new.weighted_sat - ref.weighted_sat) <= 1e-9
    assert (new.steps, new.restarts) == (ref.steps, ref.restarts)


class TestSearchKernels:
    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_gibbs_matches_reference(self, seed):
        rng, m, q = random_search_instance(seed)
        cfg = GibbsConfig(steps=int(rng.integers(0, 40)), restarts=int(rng.integers(1, 6)),
                          seed=int(rng.integers(1 << 31)))
        new, ref = L.infer_gibbs(m, q, cfg), ref_infer_gibbs(m, q, cfg)
        assert_same_answer(new, ref)
        assert len(new.energy_trace) == len(ref.energy_trace) == cfg.steps + 2
        np.testing.assert_allclose(new.energy_trace, ref.energy_trace, rtol=0, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_descent_matches_reference(self, seed):
        rng, m, q = random_search_instance(seed)
        cfg = DeterministicConfig(sweeps=int(rng.integers(0, 20)),
                                  restarts=int(rng.integers(1, 6)),
                                  seed=int(rng.integers(1 << 31)))
        new, ref = L.infer_deterministic(m, q, cfg), ref_infer_deterministic(m, q, cfg)
        assert_same_answer(new, ref)
        assert len(new.energy_trace) == len(ref.energy_trace) == 2
        np.testing.assert_allclose(new.energy_trace, ref.energy_trace, rtol=0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(SEEDS)
    @example(seed=106777)
    def test_compiled_kbs_reach_the_same_weight(self, seed):
        rng = np.random.default_rng(seed)
        kb = random_kb(rng, n_vars=5, n_formulas=4, w_low=0.5, w_high=5.0)
        m, _ = L.compile_kb(kb)
        q = random_query(rng, m)
        s = int(rng.integers(1 << 31))
        gibbs = (L.infer_gibbs(m, q, GibbsConfig(steps=30, restarts=3, seed=s)),
                 ref_infer_gibbs(m, q, GibbsConfig(steps=30, restarts=3, seed=s)))
        descent = (L.infer_deterministic(m, q, DeterministicConfig(restarts=3, seed=s)),
                   ref_infer_deterministic(m, q, DeterministicConfig(restarts=3, seed=s)))
        for new, ref in (gibbs, descent):
            assert abs(new.weighted_sat - ref.weighted_sat) <= 1e-9
        assert descent[0].assignment == descent[1].assignment
        if gibbs[0].assignment != gibbs[1].assignment:
            # Both kernels break ties within 1e-12 by state, but the library
            # scores the clamped network and the reference the full one, so
            # energies near a tie's edge can fall on either side of it;
            # then both answers must weigh the same.
            weights = fm.weighted_sat_batch(
                kb, np.array([r.vector(m.n_visible) for r in gibbs]))
            assert abs(weights[0] - weights[1]) <= 1e-9

    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_answers_are_single_flip_minima(self, seed):
        rng, m, q = random_search_instance(seed)
        s = int(rng.integers(1 << 31))
        # every flip lowers the energy, so no state repeats within 2^n rounds
        reports = (L.infer_gibbs(m, q, GibbsConfig(steps=int(rng.integers(0, 40)),
                                                   restarts=int(rng.integers(1, 6)), seed=s)),
                   L.infer_deterministic(m, q, DeterministicConfig(
                       sweeps=2 ** m.n_visible, restarts=int(rng.integers(1, 6)), seed=s)))
        free = list(q.evidence.unassigned())
        for rep in reports:
            x = rep.vector(m.n_visible)
            flipped = np.repeat(x[None, :], len(free), axis=0)
            flipped[np.arange(len(free)), free] = 1.0 - x[free]
            assert (energy_rank(m, flipped) >= rep.energy_rank - 1e-9).all()

    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_gibbs_answer_never_above_its_anneal(self, seed):
        rng, m, q = random_search_instance(seed)
        cfg = GibbsConfig(steps=int(rng.integers(0, 40)), restarts=int(rng.integers(1, 6)),
                          seed=int(rng.integers(1 << 31)))
        rep = L.infer_gibbs(m, q, cfg)
        assert rep.energy_rank <= rep.energy_trace[-2] + 1e-9
        assert rep.energy_rank == pytest.approx(rep.energy_trace[-1], abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_gibbs_without_steps_descends_from_every_restart(self, seed):
        """Deterministic search is the Gibbs search with no anneal step: the
        same seed draws the same starts, which descend until no flip helps."""
        rng, m, q = random_search_instance(seed)
        restarts, s = int(rng.integers(1, 6)), int(rng.integers(1 << 31))
        gibbs = L.infer_gibbs(m, q, GibbsConfig(steps=0, restarts=restarts, seed=s))
        descent = L.infer_deterministic(
            m, q, DeterministicConfig(sweeps=10 ** 6, restarts=restarts, seed=s))
        assert gibbs.assignment == descent.assignment
        assert gibbs.energy_trace == descent.energy_trace
        assert len(gibbs.energy_trace) == 2

    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_traces_never_rise(self, seed):
        """Both traces are the best energy so far; only the answer rule's
        1e-12 tie margin lets an entry rise."""
        rng, m, q = random_search_instance(seed)
        gibbs_cfg, descent_cfg = search_configs(rng)
        for rep in (L.infer_gibbs(m, q, gibbs_cfg), L.infer_deterministic(m, q, descent_cfg)):
            rises = np.diff(rep.energy_trace)
            assert (rises <= 1e-12).all()

    @pytest.mark.parametrize("rows_per_block", [1, 2])
    def test_descent_across_blocks_matches_whole(self, monkeypatch, rows_per_block):
        """Restart blocks of ``block_rows(nnz)`` rows change no flip."""
        default, split = rbm.BLOCK_ELEMENTS, 0
        for seed in range(40):
            rng, m, q = random_search_instance(seed)
            cfg = DeterministicConfig(sweeps=int(rng.integers(1, 20)),
                                      restarts=int(rng.integers(2, 6)),
                                      seed=int(rng.integers(1 << 31)))
            monkeypatch.setattr(rbm, "BLOCK_ELEMENTS", default)
            whole = L.infer_deterministic(m, q, cfg)
            nnz = int((_clamped(m, q.evidence).W != 0).sum())
            monkeypatch.setattr(rbm, "BLOCK_ELEMENTS", rows_per_block * nnz + nnz // 2)
            new = L.infer_deterministic(m, q, cfg)
            split += nnz > 0 and cfg.restarts > rows_per_block
            assert new.assignment == whole.assignment
            assert new.energy_trace == whole.energy_trace
        assert split >= 20


def sparse_rbm(rng, n_visible, n_hidden, zero_columns=()):
    """A random network with most weights zero, so a query leaves units loose."""
    m = random_rbm(rng, n_visible, n_hidden)
    m.W[rng.random(m.W.shape) < rng.uniform(0.4, 0.9)] = 0.0
    m.W[:, list(zero_columns)] = 0.0
    m.epsilon = 0.5
    return m


def sparse_search_instance(seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, 12))
    m = sparse_rbm(rng, int(rng.integers(1, 9)), h,
                   zero_columns=np.flatnonzero(rng.random(h) < 0.2))
    return rng, m, random_query(rng, m)


def search_configs(rng):
    s = int(rng.integers(1 << 31))
    return (GibbsConfig(steps=int(rng.integers(0, 40)), restarts=int(rng.integers(1, 6)),
                        seed=s),
            DeterministicConfig(sweeps=int(rng.integers(0, 20)),
                                restarts=int(rng.integers(1, 6)), seed=s))


def assert_same_search(m, q, gibbs_cfg, descent_cfg, weigh=None):
    """Gibbs, descent and exact search all agree with the full-network loops.

    With ``weigh`` (a weighted_sat of state rows) differing answers pass
    when they weigh the same: states that tie exactly can round apart once
    the loose units' constant regroups the energy sum.
    """
    pairs = ((L.infer_gibbs(m, q, gibbs_cfg), ref_infer_gibbs(m, q, gibbs_cfg)),
             (L.infer_deterministic(m, q, descent_cfg),
              ref_infer_deterministic(m, q, descent_cfg)),
             (infer_exact(m, q.evidence), ref_infer_exact(m, q.evidence)))
    for new, ref in pairs:
        assert abs(new.weighted_sat - ref.weighted_sat) <= 1e-9
        assert (new.steps, new.restarts) == (ref.steps, ref.restarts)
        np.testing.assert_allclose(new.energy_trace, ref.energy_trace, rtol=0, atol=1e-9)
        if new.assignment != ref.assignment:
            assert weigh is not None
            w = weigh(np.array([r.vector(m.n_visible) for r in (new, ref)]))
            assert abs(w[0] - w[1]) <= 1e-9


def loose_units(m, evidence):
    return int((~(m.W[list(evidence.unassigned())] != 0).any(axis=0)).sum())


class TestSparseSearch:
    """Searches fold the units no free variable reaches into one constant."""

    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_clamped_kernel_keeps_only_wired_units(self, seed):
        rng, m, q = sparse_search_instance(seed)
        c = _clamped(m, q.evidence)
        assert c.W.shape[1] == m.n_hidden - loose_units(m, q.evidence)
        Xf = (rng.random((4, len(c.free))) < 0.5).astype(float)
        _, E = c.net_and_energy(Xf)
        X = np.repeat(c.X0, len(Xf), axis=0)
        X[:, c.free] = Xf
        np.testing.assert_allclose(E, energy_rank(m, X), rtol=0, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(SEEDS)
    def test_searches_match_reference(self, seed):
        rng, m, q = sparse_search_instance(seed)
        assert_same_search(m, q, *search_configs(rng))

    @pytest.mark.parametrize("case", ["all clamped", "none clamped", "zero column"])
    def test_edge_cases(self, case):
        for seed in range(20):
            rng = np.random.default_rng([seed, 9])
            m = sparse_rbm(rng, 6, 8, zero_columns=[3] if case == "zero column" else [])
            n_clamped = {"all clamped": 6, "none clamped": 0, "zero column": 3}[case]
            clamp = {int(i): bool(rng.random() < 0.5)
                     for i in rng.permutation(6)[:n_clamped]}
            q = Query(evidence=fm.Assignment(clamp, 6))
            if case == "all clamped":
                assert loose_units(m, q.evidence) == m.n_hidden
            assert_same_search(m, q, *search_configs(rng))

    def test_compiled_kbs_with_most_variables_clamped(self):
        loose = 0
        for seed in range(40):
            rng = np.random.default_rng([seed, 10])
            kb = random_kb(rng, n_vars=8, n_formulas=6, w_low=0.5, w_high=5.0)
            m, _ = L.compile_kb(kb)
            free = rng.permutation(8)[: rng.integers(1, 4)]
            evidence = fm.Assignment({i: bool(rng.random() < 0.5)
                                      for i in range(8) if i not in free}, 8)
            q = Query(evidence=evidence)
            loose += loose_units(m, evidence)
            assert_same_search(m, q, GibbsConfig(steps=30, restarts=3, seed=seed),
                               DeterministicConfig(restarts=3, seed=seed),
                               weigh=lambda X: fm.weighted_sat_batch(kb, X))
            winners, best = ref_brute_force_maxsat(kb, evidence)
            rep = infer_exact(m, evidence)
            assert abs(rep.weighted_sat - best) <= 1e-9
            assert tuple(int(rep.assignment[i]) for i in range(8)) in winners
        assert loose > 0


def integer_rbm(rng, n_visible, n_hidden):
    """A sparse network with small integer parameters, so every energy sum
    is exact whatever the order of its terms."""
    W = rng.integers(-3, 4, (n_visible, n_hidden)).astype(float)
    W[rng.random(W.shape) < rng.uniform(0.3, 0.8)] = 0.0
    return L.Rbm(W=W, a=rng.integers(-3, 4, n_visible).astype(float),
                 b=rng.integers(-3, 4, n_hidden).astype(float),
                 e0=float(rng.integers(-3, 4)), tau=1.0, epsilon=0.5)


def integer_search_instance(seed):
    rng = np.random.default_rng(seed)
    m = integer_rbm(rng, int(rng.integers(1, 9)), int(rng.integers(1, 12)))
    cfg = GibbsConfig(steps=int(rng.integers(0, 40)), restarts=int(rng.integers(1, 6)),
                      seed=int(rng.integers(1 << 31)))
    return rng, m, random_query(rng, m), cfg


class TestGibbsInvariance:
    """Gibbs draws uniforms only for the wired units and anneals at the
    network's weight scale, so neither unreachable units nor a common
    scale of the parameters changes its search."""

    @settings(max_examples=100, deadline=None)
    @given(SEEDS)
    def test_appended_dead_units_change_nothing(self, seed):
        rng, m, q, cfg = integer_search_instance(seed)
        k = int(rng.integers(1, 6))
        grown = L.Rbm(W=np.hstack([m.W, np.zeros((m.n_visible, k))]), a=m.a,
                      b=np.concatenate([m.b, rng.integers(-3, 1, k).astype(float)]),
                      e0=m.e0, tau=m.tau, epsilon=m.epsilon)
        rep, grown_rep = L.infer_gibbs(m, q, cfg), L.infer_gibbs(grown, q, cfg)
        assert grown_rep.assignment == rep.assignment
        assert grown_rep.energy_trace == rep.energy_trace

    @settings(max_examples=100, deadline=None)
    @given(SEEDS)
    def test_scaled_network_scales_the_trace(self, seed):
        _, m, q, cfg = integer_search_instance(seed)
        # the anneal follows the largest |W|; an all-zero W keeps scale 1
        assume(m.W.any())
        scaled = L.Rbm(W=4 * m.W, a=4 * m.a, b=4 * m.b, e0=4 * m.e0, tau=m.tau,
                       epsilon=m.epsilon)
        rep, scaled_rep = L.infer_gibbs(m, q, cfg), L.infer_gibbs(scaled, q, cfg)
        assert scaled_rep.assignment == rep.assignment
        assert scaled_rep.energy_trace == [4 * e for e in rep.energy_trace]


def mixed_network(rng, n, free_units):
    """A compiled KB (annotated units) with dense free units attached."""
    kb = random_kb(rng, n_vars=n, n_formulas=3, w_low=0.5, w_high=3.0)
    m, _ = L.compile_kb(kb)
    return attach_hidden_units(m, free_units, 0.5, rng), kb.table


def assert_untraced_same(m, d, cfg, traced):
    """With the trace off, train returns [] and the traced run's bytes."""
    out, trace = L.train(m, d, replace(cfg, trace=False))
    assert trace == []
    assert same_bytes(out, traced)
    assert out.clause_annotations == traced.clause_annotations


def assert_same_training(m, d, cfg):
    out, trace = L.train(m, d, replace(cfg, trace=True))
    ref, ref_trace = ref_train(m, d, cfg)
    assert_untraced_same(m, d, cfg, out)
    for new_p, ref_p in ((out.W, ref.W), (out.a, ref.a), (out.b, ref.b)):
        np.testing.assert_allclose(new_p, ref_p, rtol=0, atol=1e-10)
    assert len(trace) == len(ref_trace) == cfg.epochs
    for t, r in zip(trace, ref_trace):
        assert t.keys() == r.keys()
        for key in t:
            assert abs(t[key] - r[key]) <= 1e-10
    if cfg.freeze_structure:
        for ann, ref_ann in zip(out.clause_annotations, ref.clause_annotations):
            if ann:
                assert abs(ann["confidence"] - ref_ann["confidence"]) <= 1e-10


class TestConditionalKernel:
    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.booleans())
    def test_train_matches_reference(self, seed, frozen):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        m, table = mixed_network(rng, n, int(rng.integers(0, 4)))
        targets = tuple(sorted(rng.permutation(n)[: rng.integers(1, 4)].tolist()))
        rows = (rng.random((int(rng.integers(1, 9)), n)) < 0.5).astype(float)
        d = Dataset(table, rows, targets)
        cfg = TrainConfig(alpha=float(rng.choice([0.0, 0.5])), beta=1.0, lr=0.05,
                          epochs=int(rng.integers(1, 6)),
                          batch_size=int(rng.integers(0, 4)),
                          seed=int(rng.integers(1 << 31)), freeze_structure=frozen)
        assert_same_training(m, d, cfg)

    @settings(max_examples=60, deadline=None)
    @given(SEEDS)
    def test_frozen_units_off_the_targets_stay(self, seed):
        """A compiled network trained frozen without a CD term: the units whose
        clauses miss every target keep their columns, biases and confidences
        bit for bit, and the rest train as in the reference."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        kb = random_kb(rng, n_vars=n, n_formulas=4, w_low=0.5, w_high=3.0)
        m, _ = L.compile_kb(kb)
        assume(m.n_hidden > 0)
        assert all(m.clause_annotations)
        # the targets miss one unit's clause, so that unit is loose
        ann = m.clause_annotations[int(rng.integers(m.n_hidden))]
        outside = np.setdiff1d(np.arange(n), ann["pos"] + ann["neg"])
        assume(len(outside))
        targets = tuple(sorted(rng.permutation(outside)[
            : rng.integers(1, min(3, len(outside)) + 1)].tolist()))
        rows = (rng.random((int(rng.integers(1, 9)), n)) < 0.5).astype(float)
        d = Dataset(kb.table, rows, targets)
        cfg = TrainConfig(alpha=0.0, beta=float(rng.choice([1.0, 0.3])), lr=0.05,
                          epochs=int(rng.integers(1, 6)), batch_size=int(rng.integers(0, 4)),
                          seed=int(rng.integers(1 << 31)), freeze_structure=True)
        assert_same_training(m, d, cfg)
        out, _ = L.train(m, d, cfg)
        loose = [j for j, a in enumerate(m.clause_annotations)
                 if not set(targets) & set(a["pos"] + a["neg"])]
        assert loose
        for j in loose:
            assert out.W[:, j].tobytes() == m.W[:, j].tobytes()
            assert out.b[j].tobytes() == m.b[j].tobytes()
            assert out.clause_annotations[j]["confidence"] == m.clause_annotations[j]["confidence"]

    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.sampled_from([0.3, 1.0, 2.5]))
    def test_inference_matches_reference(self, seed, tau):
        rng = np.random.default_rng(seed)
        n, h = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        m = sparse_rbm(rng, n, h, zero_columns=[0])       # unit 0 is always loose
        m.tau = tau
        targets = rng.permutation(n)[: rng.integers(1, min(n, 5) + 1)].tolist()
        if targets == sorted(targets):
            targets.reverse()
        x = (rng.random(n) < 0.5).astype(float)
        evidence = fm.Assignment({i: bool(x[i]) for i in range(n) if i not in targets}, n)
        rep = infer_conditional(m, evidence, targets)
        grid = all_assignments(len(targets))
        ref = np.exp([-ref_conditional_nll(m, x, y, targets) for y in grid])
        np.testing.assert_allclose(rep.probabilities, ref, rtol=0, atol=1e-12)
        assert rep.map_config == tuple(int(v) for v in grid[np.argmax(rep.probabilities)])
        for col, t in enumerate(targets):
            assert abs(rep.marginals[t] - ref[grid[:, col] > 0.5].sum()) <= 1e-12

    @pytest.mark.parametrize("limit", [1, 7, 64])
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS)
    def test_split_configurations_match_reference(self, limit, seed):
        """With ``BLOCK_ELEMENTS`` patched small, one row's configurations
        span several blocks (at limit 1, one configuration each): the
        probabilities, the NLL and the gradient still match the reference."""
        rng = np.random.default_rng(seed)
        n, h = int(rng.integers(2, 8)), int(rng.integers(1, 10))
        m = sparse_rbm(rng, n, h, zero_columns=[0])       # unit 0 is always loose
        m.tau = float(rng.choice(TAUS))
        targets = rng.permutation(n)[: rng.integers(1, min(n, 5) + 1)].tolist()
        rows = (rng.random((int(rng.integers(1, 5)), n)) < 0.5).astype(float)
        x = rows[0]
        evidence = fm.Assignment({i: bool(x[i]) for i in range(n) if i not in targets}, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rbm, "BLOCK_ELEMENTS", limit)
            rep = infer_conditional(m, evidence, targets)
            nll, g = _conditional(m, rows, targets)
        grid = all_assignments(len(targets))
        ref = np.exp([-ref_conditional_nll(m, x, y, targets) for y in grid])
        np.testing.assert_allclose(rep.probabilities, ref, rtol=0, atol=1e-12)
        ref_nll = [ref_conditional_nll(m, r, r[targets], targets) for r in rows]
        np.testing.assert_allclose(nll, ref_nll, rtol=0, atol=1e-12)
        grads = [ref_discriminative_gradient(m, r, r[targets], targets) for r in rows]
        for part in ("W", "a", "b"):
            ref_part = sum(getattr(gr, part) for gr in grads) / len(rows)
            np.testing.assert_allclose(getattr(g, part), ref_part, rtol=0, atol=1e-12)

    def test_ten_targets_span_several_row_blocks(self):
        rng = np.random.default_rng(10)
        n, hidden, N = 14, 64, 40
        assert block_rows(2 ** 10 * hidden) < N  # every unit is wired to a target
        table = fm.PropositionTable([f"v{i}" for i in range(n)])
        m = random_rbm(rng, n, hidden, scale=0.3)
        d = Dataset(table, (rng.random((N, n)) < 0.5).astype(float), tuple(range(2, 12)))
        assert_same_training(m, d, TrainConfig(beta=1.0, lr=0.05, epochs=2, seed=3))

    def test_frozen_wide_targets_span_several_row_blocks(self):
        rng = np.random.default_rng(11)
        m, table = mixed_network(rng, 12, 40)
        N = 48
        assert block_rows(2 ** 10 * 40) < N
        d = Dataset(table, (rng.random((N, 12)) < 0.5).astype(float), tuple(range(10)))
        assert_same_training(m, d, TrainConfig(beta=1.0, lr=0.05, epochs=2, seed=4,
                                               freeze_structure=True))

    def test_sixteen_targets_within_reference_memory(self):
        rng = np.random.default_rng(16)
        m = random_rbm(rng, 20, 30)
        x = (rng.random(20) < 0.5).astype(float)
        targets = tuple(range(16))
        results, peaks = [], []
        kernels = (lambda: _conditional(m, x, targets)[1],
                   lambda: ref_discriminative_gradient(m, x, x[list(targets)], targets))
        for kernel in kernels:
            tracemalloc.start()
            try:
                results.append(kernel())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.1 * peaks[1]
        assert peaks[0] <= 40 * 2**20, peaks[0]
        new, ref = results
        for arr, ref_arr in ((new.W, ref.W), (new.a, ref.a), (new.b, ref.b)):
            np.testing.assert_allclose(arr, ref_arr, rtol=0, atol=1e-10)


def same_bytes(new, ref):
    return all(x.tobytes() == y.tobytes()
               for x, y in ((new.W, ref.W), (new.a, ref.a), (new.b, ref.b)))


# temperatures other than 1 exercise the net / (2 tau) regrouping of the kernel
TAUS = (1.0, 0.3, 0.7, 2.5)


class TestCdKernel:
    """CD-k and the SGD step agree with the momentum-buffer loop bit for bit.

    The random networks hold no -0.0 parameter: an entry stored as -0.0
    whose gradient is exactly zero is the one case where the buffered loop
    could return +0.0 and the direct step -0.0 (equal as numbers).
    """

    @settings(max_examples=60, deadline=None)
    @given(SEEDS, st.integers(1, 3), st.integers(1, 6))
    def test_cd_gradient_matches_reference_bytes(self, seed, cd_k, batch):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = random_rbm(rng, n, int(rng.integers(1, 7)), tau=float(rng.choice(TAUS)))
        X = (rng.random((batch, n)) < 0.5).astype(float)
        s = int(rng.integers(1 << 31))
        new_rng, ref_rng = np.random.default_rng(s), np.random.default_rng(s)
        assert same_bytes(cd_step(m, X, cd_k, new_rng),
                          ref_cd_gradient(m, X, cd_k, ref_rng))
        assert new_rng.random() == ref_rng.random()

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.integers(1, 3), st.sampled_from([0, 1, 2, 3, 8]), st.none())
    @example(seed=29, cd_k=1, batch=1, shape=(12, 113))    # wide-dnf-cli's network
    def test_cd_training_matches_reference_bytes(self, seed, cd_k, batch, shape):
        """Random networks up to 5 x 5, and one as large as a workload's, so
        that larger BLAS kernels are covered too."""
        rng = np.random.default_rng(seed)
        n, h = shape or (int(rng.integers(2, 6)), int(rng.integers(1, 6)))
        m = random_rbm(rng, n, h, tau=float(rng.choice(TAUS)))
        table = fm.PropositionTable([f"v{i}" for i in range(n)])
        d = Dataset(table, (rng.random((int(rng.integers(1, 9)), n)) < 0.5).astype(float))
        cfg = TrainConfig(alpha=float(rng.choice([0.3, 1.0])), beta=0.0, lr=0.1,
                          epochs=int(rng.integers(1, 6)), batch_size=batch, cd_k=cd_k,
                          seed=int(rng.integers(1 << 31)), trace=True)
        out, trace = L.train(m, d, cfg)
        ref, ref_trace = ref_train(m, d, cfg)
        assert same_bytes(out, ref)
        assert trace == ref_trace
        assert_untraced_same(m, d, cfg, out)

    @pytest.mark.parametrize("tau", TAUS)
    def test_ragged_last_batch_matches_reference_bytes(self, tau):
        rng = np.random.default_rng(7)
        m = random_rbm(rng, 4, 3, tau=tau)
        table = fm.PropositionTable([f"v{i}" for i in range(4)])
        d = Dataset(table, (rng.random((7, 4)) < 0.5).astype(float))
        cfg = TrainConfig(alpha=0.7, beta=0.0, lr=0.1, epochs=4, batch_size=3, cd_k=2,
                          seed=5, trace=True)
        out, trace = L.train(m, d, cfg)          # batches of 3, 3 and 1 rows
        ref, ref_trace = ref_train(m, d, cfg)
        assert same_bytes(out, ref)
        assert trace == ref_trace
        assert_untraced_same(m, d, cfg, out)

    def test_ragged_hybrid_batch_matches_reference(self):
        rng = np.random.default_rng(8)
        m, table = mixed_network(rng, 5, 2)
        m.tau = 0.7
        d = Dataset(table, (rng.random((5, 5)) < 0.5).astype(float), (1, 3))
        for frozen in (False, True):
            assert_same_training(m, d, TrainConfig(alpha=0.5, beta=1.0, lr=0.05, epochs=3,
                                                   batch_size=2, seed=6,
                                                   freeze_structure=frozen))

    def test_hybrid_with_scaled_conditional_matches_reference(self):
        """With alpha > 0 and beta != 1 the exact gradient is scaled by beta
        in its own buffer before the CD estimate is added."""
        rng = np.random.default_rng(10)
        m, table = mixed_network(rng, 5, 2)
        d = Dataset(table, (rng.random((6, 5)) < 0.5).astype(float), (0, 4))
        for frozen in (False, True):
            assert_same_training(m, d, TrainConfig(alpha=0.5, beta=0.3, lr=0.05, epochs=3,
                                                   batch_size=2, seed=11,
                                                   freeze_structure=frozen))

    def test_returns_owned_arrays_and_leaves_input_alone(self):
        rng = np.random.default_rng(9)
        m = random_rbm(rng, 3, 4)
        before = m.copy()
        table = fm.PropositionTable(["x", "y", "z"])
        d = Dataset(table, (rng.random((4, 3)) < 0.5).astype(float))
        out, _ = L.train(m, d, TrainConfig(alpha=1.0, beta=0.0, epochs=2, batch_size=1))
        params = (out.W, out.a, out.b)
        for arr in params:
            assert arr.base is None and arr.flags.owndata and arr.flags.c_contiguous
        assert not any(np.shares_memory(x, y) for i, x in enumerate(params)
                       for y in params[i + 1:] + (m.W, m.a, m.b))
        assert same_bytes(m, before)

    def test_criterion_8_run_matches_reference_bytes(self):
        """500 epochs of the criterion-8 XOR run (seed 22), 2 000 CD-1 steps."""
        table = fm.PropositionTable(["x", "y", "z"])
        d = Dataset(table, [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
        init = np.random.default_rng(22)
        m = L.Rbm(W=init.normal(0, 1.5, (3, 4)), a=np.zeros(3), b=np.zeros(4))
        cfg = TrainConfig(alpha=1.0, beta=0.0, lr=0.1, epochs=500, cd_k=1, batch_size=1,
                          seed=22, trace=True)
        out, trace = L.train(m, d, cfg)
        ref, ref_trace = ref_train(m, d, cfg)
        assert same_bytes(out, ref)
        assert trace == ref_trace
        assert_untraced_same(m, d, cfg, out)


class TestUniformBlocks:
    """Uniforms drawn in blocks of whole steps, and doubled, give every
    sampler the draws and the RNG stream of one draw per array."""

    @pytest.mark.parametrize("limit, rounds", [
        pytest.param(limit, rounds, id=str(limit) if rounds is None else f"CD-{rounds}-{limit}")
        for rounds in (None, 3) for limit in (1, 7, 40, 1 << 20)])
    def test_blocks_equal_separate_draws(self, monkeypatch, limit, rounds):
        """A search step draws each shape once; a CD-k step draws them round
        by round and gets one (rounds, *shape) view of each."""
        monkeypatch.setattr(rbm, "BLOCK_ELEMENTS", limit)
        shapes = [(2, 3), (2, 0), (1, 4)]
        draws = rbm._UniformBlocks(9, shapes, rounds)
        per = 10 * (rounds or 1)
        assert len(draws.blocks) == -(-9 // min(9, max(1, limit // per)))
        lead = () if rounds is None else (rounds,)
        new_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        steps = 0
        for arrays in draws(new_rng):
            assert [u.shape for u in arrays] == [(*lead, *shape) for shape in shapes]
            for r in range(rounds or 1):
                for u, shape in zip(arrays, shapes):
                    assert np.shares_memory(u, draws.blocks[0][0]) or not u.size
                    u = u if rounds is None else u[r]
                    assert u.tobytes() == (2 * ref_rng.random(shape)).tobytes()
            steps += 1
        assert steps == 9
        assert new_rng.random() == ref_rng.random()

    @pytest.mark.parametrize("steps_per_block", [1, 2, 3])
    def test_gibbs_across_blocks_matches_reference(self, monkeypatch, steps_per_block):
        blocks = []

        class Counted(rbm._UniformBlocks):
            def __init__(self, *args):
                super().__init__(*args)
                blocks.append(len(self.blocks))

        monkeypatch.setattr(reasoner, "_UniformBlocks", Counted)
        default, split = rbm.BLOCK_ELEMENTS, 0
        for seed in range(40):
            rng, m, q = random_search_instance(seed)
            cfg = GibbsConfig(steps=int(rng.integers(4, 30)), restarts=int(rng.integers(1, 6)),
                              seed=int(rng.integers(1 << 31)))
            monkeypatch.setattr(rbm, "BLOCK_ELEMENTS", default)
            whole = L.infer_gibbs(m, q, cfg)
            c = _clamped(m, q.evidence)
            per_step = cfg.restarts * (len(c.wired) + len(c.free))
            # a limit that is not a whole number of steps leaves a ragged last block
            monkeypatch.setattr(rbm, "BLOCK_ELEMENTS", steps_per_block * per_step + per_step // 2)
            new, ref = L.infer_gibbs(m, q, cfg), ref_infer_gibbs(m, q, cfg)
            if per_step:
                assert blocks[-1] == -(-cfg.steps // steps_per_block) > 1
                split += 1
            assert new.assignment == whole.assignment == ref.assignment
            assert new.energy_trace == whole.energy_trace
            assert_same_answer(new, ref)
            np.testing.assert_allclose(new.energy_trace, ref.energy_trace, rtol=0, atol=1e-9)
        assert split >= 30

    @pytest.mark.parametrize("limit", [1, "2.5 steps", 1 << 20])
    def test_cd_training_across_blocks_matches_reference(self, monkeypatch, limit):
        """Batches of 2, 2, 2 and a ragged 1 row; the full batches' draws
        split across blocks, and the training generator ends in the
        reference loop's state."""
        rng = np.random.default_rng(12)
        m = random_rbm(rng, 4, 3, tau=0.7)
        table = fm.PropositionTable([f"v{i}" for i in range(4)])
        d = Dataset(table, (rng.random((7, 4)) < 0.5).astype(float))
        cfg = TrainConfig(alpha=1.0, beta=0.0, lr=0.1, epochs=5, batch_size=2, cd_k=2,
                          seed=13, trace=True)
        per_step = cfg.cd_k * cfg.batch_size * (4 + 3)
        monkeypatch.setattr(rbm, "BLOCK_ELEMENTS",
                            5 * per_step // 2 if limit == "2.5 steps" else limit)
        generators = []
        default_rng = np.random.default_rng

        def recorded(seed):
            generators.append(default_rng(seed))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recorded)
        out, trace = L.train(m, d, cfg)
        ref, ref_trace = ref_train(m, d, cfg)
        assert same_bytes(out, ref)
        assert trace == ref_trace
        new_rng, ref_rng = generators
        assert new_rng.random() == ref_rng.random()
