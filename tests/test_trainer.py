"""Training: exact discriminative gradients, CD estimates, hybrid SGD."""
import time
from dataclasses import replace

import numpy as np
import pytest

import logicrbm as L
from logicrbm import formula as fm, trainer
from logicrbm.errors import SizeLimitError
from logicrbm.normal_forms import all_assignments
from logicrbm.rbm import Rbm
from logicrbm.trainer import (
    Dataset, TrainConfig, _conditional, dataset_from_kb, read_csv, train,
)

from conftest import cd_step, free_energy, random_rbm

XOR_ROWS = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)


def xor_dataset(targets=(2,)):
    table = fm.PropositionTable(["x", "y", "z"])
    return Dataset(table, XOR_ROWS, targets)


class TestDataset:
    def test_binary_validation(self):
        with pytest.raises(ValueError):
            Dataset(fm.PropositionTable(["x"]), np.array([[0.5]]))

    def test_row_length_validation(self):
        with pytest.raises(ValueError):
            Dataset(fm.PropositionTable(["x", "y"]), np.array([[1.0]]))

    def test_csv_round_trip(self, tmp_path):
        d = xor_dataset()
        path = tmp_path / "data.csv"
        d.to_csv(path)
        d2 = Dataset.from_csv(path, targets=["z"])
        assert d2.table.names == ["x", "y", "z"]
        assert np.array_equal(d.rows, d2.rows)
        assert d2.target_indices == (2,)

    def test_csv_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y\n\n1,0\n\n0,1\n\n")
        assert read_csv(path) == (["x", "y"], [["1", "0"], ["0", "1"]])


class TestDatasetFromKb:
    def test_implication_preferred_models(self):
        kb = fm.parse_kb("y <- x1 & ~x2\nq <- y\n")
        d = dataset_from_kb(kb)
        # names: y, x1, x2, q; rows set body and head true, the rest 0
        assert d.table.names == ["y", "x1", "x2", "q"]
        assert np.array_equal(d.rows, [[1, 1, 0, 0], [1, 0, 0, 1]])

    def test_negated_head_sets_head_false(self):
        kb = fm.parse_kb("~p <- r\n")
        d = dataset_from_kb(kb)
        assert np.array_equal(d.rows, [[0, 1]])

    def test_disjunction_first_literal_true_others_false(self):
        # ~a | b | ~c reads as ~a <- ~b & c: a = 0, b = 0, c = 1
        kb = fm.parse_kb("~a | b | ~c\n")
        d = dataset_from_kb(kb)
        assert d.table.names == ["a", "b", "c"]
        assert np.array_equal(d.rows, [[0, 0, 1]])

    def test_tautology_zero_row_and_contradiction_skipped(self):
        kb = fm.parse_kb("x | ~x\nx & ~x\n")
        assert np.array_equal(dataset_from_kb(kb).rows, [[0]])

    def test_wide_disjunction_needs_no_full_dnf(self):
        kb = fm.parse_kb(" | ".join(f"v{i}" for i in range(21)) + "\n")
        d = dataset_from_kb(kb)
        assert np.array_equal(d.rows, [[1] + [0] * 20])


class TestTrainConfig:
    def test_alpha_beta_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=0.0, beta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(alpha=-1.0)

    def test_cd_k_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=1.0, beta=0.0, cd_k=0)

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")])
    def test_lr_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_objective_weights_must_be_finite(self, field):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="alpha"):
                TrainConfig(**{field: value})

    def test_negative_epochs_and_batch_size(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=-3)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=-1)
        TrainConfig(epochs=0, batch_size=0)           # the boundaries stay valid


class TestConditionalNll:
    def test_matches_manual_softmax(self):
        m = random_rbm(np.random.default_rng(0), 3, 2)
        x = np.array([1.0, 0.0, 0.0])
        targets = (1, 2)
        grid = all_assignments(2)
        F = []
        for row in grid:
            xx = x.copy()
            xx[1], xx[2] = row
            F.append(free_energy(m, xx))
        logp = -np.array(F) / m.tau
        logp -= np.log(np.exp(logp).sum())
        # the row's label y = (0, 1) is config index 1 in binary counting order
        nll, _ = _conditional(m, [1.0, 0.0, 1.0], targets, grad=False)
        assert nll.tolist() == [pytest.approx(-logp[1], rel=1e-9)]

    def test_repeated_target_rejected(self):
        m = random_rbm(np.random.default_rng(0), 3, 2)
        for grad in (False, True):
            with pytest.raises(ValueError, match="distinct"):
                _conditional(m, [1.0, 0.0, 0.0], (2, 2), grad=grad)


class TestDiscriminativeGradient:
    def test_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(10):
            m = random_rbm(rng, 6, 4)
            x = (rng.random(6) < 0.5).astype(float)    # carries its label y
            targets = (4, 5)
            _, g = _conditional(m, x, targets)
            for arr, garr in ((m.W, g.W), (m.a, g.a), (m.b, g.b)):
                it = np.nditer(arr, flags=["multi_index"])
                for _v in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = _conditional(m, x, targets, grad=False)[0][0]
                    arr[idx] = orig - h
                    down = _conditional(m, x, targets, grad=False)[0][0]
                    arr[idx] = orig
                    fd = (up - down) / (2 * h)
                    assert garr[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_confident_model_has_tiny_gradient(self):
        # one strong hidden unit pins target x1 = 1 when x0 = 1
        m = Rbm(W=np.array([[50.0], [50.0]]), a=np.zeros(2), b=np.array([-75.0]))
        _, g = _conditional(m, [1.0, 1.0], (1,))
        assert max(np.abs(g.W).max(), np.abs(g.a).max(), np.abs(g.b).max()) <= 1e-6

    def test_label_flip_flips_bias_gradient_sign(self):
        m = Rbm(W=np.zeros((2, 1)), a=np.zeros(2), b=np.zeros(1))
        _, g1 = _conditional(m, [1.0, 1.0], (1,))
        _, g0 = _conditional(m, [1.0, 0.0], (1,))
        assert g1.a[1] == pytest.approx(-g0.a[1], abs=1e-12)


class TestCdGradient:
    def test_uniform_fixed_point_mean_zero(self):
        m = Rbm(W=np.zeros((3, 2)), a=np.zeros(3), b=np.zeros(2))
        X = all_assignments(3)
        rng = np.random.default_rng(0)
        total_a = np.zeros(3)
        reps = 400
        for _ in range(reps):
            g = cd_step(m, X, 1, rng)
            total_a += g.a
        assert np.abs(total_a / reps).max() < 0.05

    def test_variance_shrinks_with_batch(self):
        rng = np.random.default_rng(1)
        m = random_rbm(rng, 4, 3, scale=0.5)
        def var_of(batch_rows, reps=120):
            vals = []
            for _ in range(reps):
                vals.append(cd_step(m, batch_rows, 1, rng).W[0, 0])
            return np.var(vals)
        small = (rng.random((2, 4)) < 0.5).astype(float)
        big = np.tile(small, (16, 1))
        assert var_of(big) < var_of(small)


class TestTrain:
    def test_zero_epochs_unchanged(self, kb_dir, tmp_path):
        kb = L.load_kb(kb_dir / "nixon.kb")
        m, _ = L.compile_kb(kb)
        for ann in m.clause_annotations:
            ann["confidence"] = int(ann["confidence"])     # as a hand-written file may hold
        L.save_model(m, tmp_path / "before.json")
        d = Dataset(kb.table, np.tile([1, 1, 1, 0], (2, 1)).astype(float), (3,))
        for frozen in (False, True):
            out, trace = train(m, d, TrainConfig(epochs=0, freeze_structure=frozen))
            L.save_model(out, tmp_path / "after.json")
            assert trace == []
            assert (tmp_path / "after.json").read_bytes() == \
                (tmp_path / "before.json").read_bytes()

    def test_discriminative_nll_decreases_on_xor(self):
        m = random_rbm(np.random.default_rng(2), 3, 4, scale=0.1)
        cfg = TrainConfig(alpha=0.0, beta=1.0, lr=0.05, epochs=100, seed=0, trace=True)
        _, trace = train(m, xor_dataset(), cfg)
        nll = [t["nll"] for t in trace]
        assert nll[-1] < nll[0]
        # with full-batch exact gradients and a small step the curve is
        # monotone up to tiny numerical wiggle
        assert all(b <= a + 1e-6 for a, b in zip(nll, nll[1:]))

    def test_cd_uniforms_bounded(self, monkeypatch):
        """cd_k x rows per step x units beyond ``SEARCH_LIMIT`` raises before
        anything is drawn or allocated; without a CD term, or without rows,
        cd_k sizes nothing."""
        m = random_rbm(np.random.default_rng(0), 3, 4)
        cfg = TrainConfig(alpha=1.0, beta=0.0, epochs=1, cd_k=10 ** 9)
        t0 = time.perf_counter()
        with pytest.raises(SizeLimitError, match="cd_k"):
            train(m, xor_dataset(targets=()), cfg)
        assert time.perf_counter() - t0 < 0.5
        # 4 rows x 7 units per round: 10 rounds fit 280 uniforms, 11 do not
        monkeypatch.setattr(trainer, "SEARCH_LIMIT", 280)
        with pytest.raises(SizeLimitError):
            train(m, xor_dataset(targets=()), replace(cfg, cd_k=11))
        train(m, xor_dataset(targets=()), replace(cfg, cd_k=10))
        monkeypatch.undo()
        out, _ = train(m, xor_dataset(), replace(cfg, alpha=0.0, beta=1.0))
        assert not np.array_equal(out.W, m.W)
        empty = Dataset(xor_dataset().table, np.zeros((0, 3)))
        out, _ = train(m, empty, cfg)
        assert np.array_equal(out.W, m.W)

    def test_requires_targets_for_discriminative(self):
        m = random_rbm(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError):
            train(m, xor_dataset(targets=()), TrainConfig(beta=1.0))

    def test_dimension_mismatch(self):
        m = random_rbm(np.random.default_rng(0), 4, 2)
        with pytest.raises(ValueError):
            train(m, xor_dataset(), TrainConfig())

    def test_bitwise_reproducible(self):
        cfg = TrainConfig(alpha=1.0, beta=1.0, lr=0.1, epochs=20, cd_k=2,
                          seed=9, batch_size=2)
        m = random_rbm(np.random.default_rng(3), 3, 3)
        out1, _ = train(m, xor_dataset(), cfg)
        out2, _ = train(m, xor_dataset(), cfg)
        assert np.array_equal(out1.W, out2.W)
        assert np.array_equal(out1.a, out2.a)
        assert np.array_equal(out1.b, out2.b)

    def test_freeze_structure_preserves_patterns(self, kb_dir):
        kb = L.load_kb(kb_dir / "nixon.kb")
        m, _ = L.compile_kb(kb)
        signs_before = np.sign(m.W)
        rows = np.array([[1, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0]], dtype=float)
        d = Dataset(kb.table, rows, (3,))
        cfg = TrainConfig(alpha=0.5, beta=1.0, lr=0.01, epochs=30, seed=1,
                          freeze_structure=True)
        out, _ = train(m, d, cfg)
        live = np.sign(out.W) != 0
        assert np.array_equal(np.sign(out.W)[live], signs_before[live])
        # every column stays a rescaled clause pattern with a consistent bias
        for j, ann in enumerate(out.clause_annotations):
            c = ann["confidence"]
            col = np.zeros(4)
            col[ann["pos"]] = c
            col[ann["neg"]] = -c
            np.testing.assert_allclose(out.W[:, j], col, atol=1e-12)
            assert out.b[j] == pytest.approx(c * (-len(ann["pos"]) + 0.5))
        assert np.array_equal(out.a, m.a)  # visible biases frozen

    def test_unfrozen_training_drops_annotations(self, kb_dir):
        """Full-parameter training moves every unit off its clause pattern, so
        the trained model carries no annotation, and a frozen step afterwards
        leaves the units where training put them."""
        m, _ = L.compile_kb(L.load_kb(kb_dir / "xor.kb"))
        out, _ = train(m, xor_dataset(), TrainConfig(alpha=0.5, beta=1.0, epochs=7))
        assert out.clause_annotations == [None] * 4 and len(m.clause_annotations) == 4
        assert not np.allclose(out.W, m.W)
        again, _ = train(out, xor_dataset(), TrainConfig(alpha=0.5, beta=1.0, lr=1e-12,
                                                         epochs=1, freeze_structure=True))
        np.testing.assert_allclose(again.W, out.W, atol=1e-9)
        np.testing.assert_allclose(again.b, out.b, atol=1e-9)

    def test_freeze_structure_confidences_move(self, kb_dir):
        kb = L.load_kb(kb_dir / "nixon.kb")
        m, _ = L.compile_kb(kb)
        rows = np.tile([1, 1, 1, 0], (8, 1)).astype(float)
        d = Dataset(kb.table, rows, (3,))
        cfg = TrainConfig(alpha=0.0, beta=1.0, lr=0.5, epochs=5, seed=0,
                          freeze_structure=True)
        out, _ = train(m, d, cfg)
        before = [a["confidence"] for a in m.clause_annotations]
        after = [a["confidence"] for a in out.clause_annotations]
        assert before != after
        assert min(after) >= 0.0

    def test_trace_fields(self):
        m = random_rbm(np.random.default_rng(1), 3, 2)
        out, trace = train(m, xor_dataset(), TrainConfig(alpha=1.0, beta=1.0,
                                                         epochs=3, lr=0.01, trace=True))
        assert [t["epoch"] for t in trace] == [0, 1, 2]
        assert all("nll" in t and "reconstruction_error" in t for t in trace)
        assert trace[-1] == {"epoch": 2, **L.epoch_losses(out, xor_dataset(), True)}
        _, trace = train(m, xor_dataset(targets=()),
                         TrainConfig(alpha=1.0, beta=0.0, epochs=2, lr=0.01, trace=True))
        assert trace and all("nll" not in t for t in trace)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_untraced_training_computes_no_loss(self, kb_dir, monkeypatch, frozen):
        """With the trace off (the default) no per-epoch loss is computed."""
        kb = L.load_kb(kb_dir / "nixon.kb")
        m, _ = L.compile_kb(kb)
        m = L.attach_hidden_units(m, 2, 0.5, np.random.default_rng(0))
        d = Dataset(kb.table, np.array([[1, 1, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0]],
                                       dtype=float), (3,))
        calls = []
        real = L.trainer.epoch_losses

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(L.trainer, "epoch_losses", counted)
        cfg = TrainConfig(alpha=0.5, beta=1.0, lr=0.05, epochs=4, batch_size=2, seed=1,
                          freeze_structure=frozen)
        _, trace = train(m, d, cfg)
        assert trace == [] and calls == []
        _, trace = train(m, d, replace(cfg, trace=True))
        assert len(trace) == len(calls) == 4


class TestZeroTemperature:
    """A tau <= 0 is refused when the network is built and whenever tau is
    set, so the exact conditional and training never divide by it."""

    def test_conditional_refuses(self):
        with pytest.raises(ValueError, match="tau"):
            random_rbm(np.random.default_rng(0), 3, 2, tau=0.0)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (1.0, 0.0), (0.5, 1.0)])
    def test_train_refuses(self, alpha, beta):
        # tau is checked whenever it is set, so setting it to 0 after the
        # build is refused and training runs at the tau the network kept
        m = random_rbm(np.random.default_rng(0), 3, 2)
        with pytest.raises(ValueError, match="tau"):
            m.tau = 0.0
        assert m.tau == 1.0
        targets = (2,) if beta > 0 else ()
        out, _ = train(m, xor_dataset(targets), TrainConfig(alpha=alpha, beta=beta, epochs=1))
        assert out.tau == 1.0
