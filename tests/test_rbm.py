"""Energy kernels, sampling distributions, and model I/O."""
import json
from dataclasses import fields, replace

import numpy as np
import pytest

import logicrbm as L
from logicrbm import formula as fm
from logicrbm.errors import SizeLimitError
from logicrbm.normal_forms import all_assignments
from logicrbm.rbm import (
    Rbm, energy_rank, load_model, model_from_dict, model_to_dict,
    p_hidden_given_visible, p_visible_given_hidden, save_model,
)

from conftest import (
    KB_DIR, energy, free_energy, oracle_min_energy, partition_brute, random_rbm,
)


def load_model_back(m):
    return model_from_dict(json.loads(json.dumps(model_to_dict(m))))


def xor_rbm():
    kb = fm.parse_kb("(x ^ y) <-> z")
    m, _ = L.compile_kb(kb)
    return m


class TestConstruction:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Rbm(W=np.zeros((2, 3)), a=np.zeros(3), b=np.zeros(3))

    def test_non_finite(self):
        with pytest.raises(ValueError):
            Rbm(W=np.full((1, 1), np.nan), a=np.zeros(1), b=np.zeros(1))

    def test_negative_temperature(self):
        with pytest.raises(ValueError):
            Rbm(W=np.zeros((1, 1)), a=np.zeros(1), b=np.zeros(1), tau=-1.0)

    @pytest.mark.parametrize("field, value, message", [
        ("names", ["x", "x", "y"], "'names' repeats a name"),
        ("names", ["x", "y"], "lists 2 names for 3 visible units"),
        ("clause_annotations", [None] * 5, "lists 5 clause annotations for 4 hidden units"),
    ], ids=["repeated names", "names length", "annotations length"])
    def test_model_that_would_not_load_is_refused(self, field, value, message):
        """What ``load_model`` refuses cannot be built, so every model the
        library builds can be saved and loaded back."""
        with pytest.raises(ValueError, match=message):
            replace(xor_rbm(), **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("tau", 0.0, "tau must be finite and > 0"),
        ("tau", float("inf"), "tau must be finite and > 0"),
        ("epsilon", 2.0, "epsilon must lie in"),
        ("epsilon", 0.0, "epsilon must lie in"),
        ("e0", float("nan"), "must be finite"),
        ("e0", float("-inf"), "must be finite"),
    ])
    def test_scalars_checked_when_set(self, field, value, message):
        """tau, epsilon and e0 are checked on every assignment, not only when
        the network is built, and a refused value leaves the field as it was."""
        m = xor_rbm()
        before = getattr(m, field)
        with pytest.raises(ValueError, match=message):
            setattr(m, field, value)
        assert getattr(m, field) == before
        with pytest.raises(ValueError, match=message):
            replace(m, **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("epsilon", None, "clause annotations need the model's epsilon"),
        ("names", ["a", "a", "b"], "'names' repeats a name"),
        ("names", ["a", "b"], "lists 2 names for 3 visible units"),
        ("clause_annotations", [None] * 5, "lists 5 clause annotations for 4 hidden units"),
    ], ids=["no epsilon", "repeated names", "names length", "annotations length"])
    def test_fields_checked_when_set(self, field, value, message):
        """Names and the annotations' need of an epsilon are checked on every
        assignment, so ``save_model`` never writes what ``load_model``
        refuses; a refused value leaves the field as it was."""
        m = xor_rbm()
        before = getattr(m, field)
        with pytest.raises(ValueError, match=message):
            setattr(m, field, value)
        assert getattr(m, field) == before
        m.names = ["a", "b", "c"]
        assert load_model_back(m).names == ["a", "b", "c"]

    @pytest.mark.parametrize("field, value, message", [
        ("a", np.zeros(5), "inconsistent parameter shapes"),
        ("b", np.zeros(3), "inconsistent parameter shapes"),
        ("W", np.zeros((4, 4)), "inconsistent parameter shapes"),
        ("b", np.full(4, np.nan), "must be finite"),
        ("a", np.array([0.0, np.inf, 0.0]), "must be finite"),
        ("W", np.full((3, 4), np.nan), "must be finite"),
    ], ids=["a length", "b length", "W shape", "NaN b", "infinite a", "NaN W"])
    def test_parameter_arrays_checked_when_set(self, field, value, message):
        """W, a and b keep matching shapes and finite values on every
        assignment, so ``save_model`` never writes what ``load_model``
        refuses; an accepted float array, a view included, is kept as is."""
        m = xor_rbm()
        before = getattr(m, field).copy()
        with pytest.raises(ValueError, match=message):
            setattr(m, field, value)
        assert np.array_equal(getattr(m, field), before)
        flat = np.concatenate([m.W.ravel(), m.b])
        m.W, m.b = flat[:12].reshape(3, 4), flat[12:]
        assert np.shares_memory(m.W, flat) and np.shares_memory(m.b, flat)
        assert np.array_equal(load_model_back(m).b, flat[12:])

    def test_annotations_refused_without_epsilon(self):
        annotated = xor_rbm()
        m = Rbm(W=annotated.W, a=annotated.a, b=annotated.b, e0=annotated.e0)
        with pytest.raises(ValueError, match="clause annotations need the model's epsilon"):
            m.clause_annotations = annotated.clause_annotations
        assert m.clause_annotations == [None] * 4
        m.epsilon = annotated.epsilon
        m.clause_annotations = annotated.clause_annotations
        grown = L.attach_hidden_units(m, 2, 0.1, np.random.default_rng(0))
        assert grown.clause_annotations == annotated.clause_annotations + [None, None]

    def test_copy_is_deep_for_arrays(self):
        m = random_rbm(np.random.default_rng(0), 3, 2)
        m2 = m.copy()
        m2.W[0, 0] += 1.0
        assert m.W[0, 0] != m2.W[0, 0]

    def test_copy_owns_its_lists(self):
        m = xor_rbm()
        m2 = m.copy()
        m2.names[0] = "renamed"
        m2.clause_annotations[0]["confidence"] = 7.0
        m2.clause_annotations[1] = None
        assert m.names[0] == "x" and m.clause_annotations[0]["confidence"] == 1.0
        assert m.clause_annotations[1] is not None

    def test_missing_names_and_annotations_filled_in(self):
        m = Rbm(W=np.zeros((3, 2)), a=np.zeros(3), b=np.zeros(2))
        assert m.names == ["x0", "x1", "x2"] and m.clause_annotations == [None, None]


class TestEnergy:
    def test_all_zero(self):
        m = Rbm(W=np.zeros((2, 2)), a=np.zeros(2), b=np.zeros(2))
        assert energy(m, [0, 0], [0, 0]) == 0.0

    def test_hand_evaluated_1x1(self):
        m = Rbm(W=[[2.0]], a=[-1.0], b=[-0.5])
        assert energy(m, [1], [1]) == pytest.approx(-0.5, abs=1e-12)

    def test_xor_unit_for_110(self):
        # the hidden unit whose clause is x & y & ~z contributes x+y-z-1.5
        m = xor_rbm()
        j = next(j for j, ann in enumerate(m.clause_annotations)
                 if ann["pos"] == [0, 1] and ann["neg"] == [2])
        h = np.zeros(m.n_hidden)
        h[j] = 1.0
        assert energy(m, [1, 1, 0], h) == pytest.approx(-0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        m = Rbm(W=np.zeros((2, 2)), a=np.zeros(2), b=np.zeros(2))
        with pytest.raises(ValueError):
            energy(m, [0, 0, 0], [0, 0])


class TestEnergyRank:
    def test_xor_table(self):
        m = xor_rbm()
        X = all_assignments(3)
        models = {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}
        for row, e in zip(X, energy_rank(m, X)):
            want = -0.5 if tuple(int(v) for v in row) in models else 0.0
            assert e == pytest.approx(want, abs=1e-12)

    def test_matches_hidden_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_rbm(rng, 6, 4)
            x = (rng.random(6) < 0.5).astype(float)
            assert energy_rank(m, x) == pytest.approx(
                oracle_min_energy(m, x), abs=1e-9)

    def test_batch_equals_single(self):
        m = random_rbm(np.random.default_rng(3), 4, 3)
        X = all_assignments(4)
        batch = energy_rank(m, X)
        for row, e in zip(X, batch):
            assert energy_rank(m, row) == pytest.approx(e, abs=1e-12)


class TestConditionals:
    def test_net_zero_gives_half(self):
        m = Rbm(W=np.zeros((2, 3)), a=np.zeros(2), b=np.zeros(3))
        assert np.allclose(p_hidden_given_visible(m, [1, 0]), 0.5)
        assert np.allclose(p_visible_given_hidden(m, [1, 0, 1]), 0.5)

    def test_xor_unit_probability_at_origin(self):
        m = xor_rbm()
        j = next(j for j, ann in enumerate(m.clause_annotations)
                 if ann["pos"] == [] and ann["neg"] == [0, 1, 2])
        p = p_hidden_given_visible(m, [0, 0, 0])[j]
        assert p == pytest.approx(1.0 / (1.0 + np.exp(-0.5)), abs=1e-12)

    def test_low_temperature_saturates(self):
        m = random_rbm(np.random.default_rng(0), 3, 3)
        m.tau = 0.01
        x = np.array([1.0, 0.0, 1.0])
        net = x @ m.W + m.b
        p = p_hidden_given_visible(m, x)
        assert np.all((p > 0.99) == (net > 0.1))
        assert np.all((p < 0.01) == (net < -0.1))

    def test_monotone_in_net(self):
        rng = np.random.default_rng(5)
        m = random_rbm(rng, 4, 3)
        x = (rng.random(4) < 0.5).astype(float)
        p0 = p_hidden_given_visible(m, x)
        m.b += 0.3
        assert np.all(p_hidden_given_visible(m, x) >= p0)

    def test_tau_zero_rejected(self):
        # refused when the network is built, so no conditional divides by it
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            Rbm(W=np.zeros((1, 1)), a=np.zeros(1), b=np.zeros(1), tau=0.0)


class TestFreeEnergy:
    def test_zero_parameter_value(self):
        m = Rbm(W=np.zeros((2, 5)), a=np.zeros(2), b=np.zeros(5))
        assert free_energy(m, [0, 1]) == pytest.approx(-5 * np.log(2), abs=1e-12)

    def test_tau_to_zero_limit(self):
        m = random_rbm(np.random.default_rng(1), 4, 3)
        x = np.array([1.0, 0.0, 1.0, 1.0])
        m.tau = 1e-6
        assert free_energy(m, x) == pytest.approx(energy_rank(m, x), abs=1e-3)

    def test_consistency_with_energy_sum(self):
        m = random_rbm(np.random.default_rng(2), 3, 3)
        x = np.array([1.0, 1.0, 0.0])
        brute = sum(np.exp(-energy(m, x, h)) for h in all_assignments(3))
        assert np.exp(-free_energy(m, x)) == pytest.approx(brute, rel=1e-9)


class TestPartition:
    def test_single_free_visible(self):
        m = Rbm(W=np.zeros((1, 0)), a=np.zeros(1), b=np.zeros(0))
        assert partition_brute(m) == pytest.approx(2.0)

    def test_zero_parameter_2x1(self):
        m = Rbm(W=np.zeros((2, 1)), a=np.zeros(2), b=np.zeros(1))
        assert partition_brute(m) == pytest.approx(8.0)

    def test_probabilities_normalize(self):
        m = random_rbm(np.random.default_rng(4), 4, 3)
        Z = partition_brute(m)
        X = all_assignments(4)
        p = np.exp(-free_energy(m, X) / m.tau) / Z
        assert p.sum() == pytest.approx(1.0, rel=1e-9)

    def test_size_limit(self):
        m = Rbm(W=np.zeros((20, 10)), a=np.zeros(20), b=np.zeros(10))
        with pytest.raises(SizeLimitError):
            partition_brute(m)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        m = xor_rbm()
        path = tmp_path / "model.json"
        save_model(m, path)
        m2 = load_model(path)
        assert np.array_equal(m.W, m2.W)
        assert np.array_equal(m.a, m2.a)
        assert np.array_equal(m.b, m2.b)
        assert (m.e0, m.tau, m.epsilon) == (m2.e0, m2.tau, m2.epsilon)
        assert m.names == m2.names
        assert m.clause_annotations == m2.clause_annotations

    def test_field_names(self, tmp_path):
        m = random_rbm(np.random.default_rng(0), 2, 2)
        path = tmp_path / "model.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"n_visible", "n_hidden", "names", "W", "a", "b",
                            "e0", "tau", "epsilon", "clause_annotations"}
        assert np.asarray(doc["W"]).shape == (2, 2)  # row-major visible-major

    def test_dict_round_trip_defaults(self):
        m = model_from_dict({"n_visible": 1, "n_hidden": 1,
                             "W": [[0.5]], "a": [0.0], "b": [0.0]})
        assert m.tau == 1.0 and m.e0 == 0.0
        assert model_to_dict(m)["names"] == ["x0"]

    def test_round_trip_without_names_or_annotations(self, tmp_path):
        m = Rbm(W=[[0.5, -1.0]], a=[0.25], b=[0.0, 2.0])
        path = tmp_path / "model.json"
        save_model(m, path)
        m2 = load_model(path)
        for f in fields(Rbm):
            assert np.array_equal(getattr(m, f.name), getattr(m2, f.name)), f.name

    def test_names_length_checked(self):
        doc = model_to_dict(xor_rbm())
        doc["names"] = doc["names"][:-1]
        with pytest.raises(ValueError, match="names"):
            model_from_dict(doc)

    def test_annotations_length_checked(self):
        doc = model_to_dict(xor_rbm())
        doc["clause_annotations"] = doc["clause_annotations"] + [None]
        with pytest.raises(ValueError, match="annotations"):
            model_from_dict(doc)


def nixon_doc():
    """The compiled nixon.kb model's fields; its first unit is n & r at 1000."""
    m, _ = L.compile_kb(L.load_kb(KB_DIR / "nixon.kb"))
    doc = model_to_dict(m)
    assert doc["clause_annotations"][0] == {"pos": [0, 1], "neg": [], "confidence": 1000.0}
    return doc


class TestClauseUnitCheck:
    """Loading compares every annotated unit with its clause: weights c * S
    and bias c * (-T + eps), to 1e-9 relative above 1, with c >= 0."""

    def test_shipped_kbs_load(self, kb_dir):
        for path in sorted(kb_dir.glob("*.kb")):
            for eps in (0.3, 0.5, 0.7):
                m, _ = L.compile_kb(L.load_kb(path), eps)
                model_from_dict(json.loads(json.dumps(model_to_dict(m))))

    @pytest.mark.parametrize("change, message", [
        (lambda d: d["W"][0].__setitem__(0, 3000.0), "hidden unit 0: weights or bias differ"),
        (lambda d: d["W"][3].__setitem__(0, 1e-6), "hidden unit 0: weights or bias differ"),
        (lambda d: d["b"].__setitem__(1, d["b"][1] + 1e-3), "hidden unit 1: weights or bias"),
        (lambda d: d["clause_annotations"][2].update(pos=[99]),
         "hidden unit 2: its clause mentions a variable"),
        (lambda d: d["clause_annotations"][0].update(neg=[0]), "both polarities"),
        (lambda d: d["clause_annotations"][1].update(confidence=-1000.0),
         "hidden unit 1: confidence"),
        # errors name the hidden unit, not the clause's place among the annotated ones
        (lambda d: (d["clause_annotations"].__setitem__(0, None),
                    d["clause_annotations"][1].update(pos=[5])),
         "hidden unit 1: its clause mentions a variable outside 0..3"),
        (lambda d: (d["clause_annotations"].__setitem__(0, None),
                    d["clause_annotations"][2].update(neg=d["clause_annotations"][2]["pos"])),
         "hidden unit 2: its clause has a variable in both polarities"),
        (lambda d: d.update(epsilon=None), "need the model's epsilon"),
        # n & r listed as n & r & r, with the bias of three positive literals
        (lambda d: (d["clause_annotations"][0].update(pos=[0, 1, 1]),
                    d["b"].__setitem__(0, 1000.0 * (d["epsilon"] - 3))),
         "hidden unit 0: weights or bias differ"),
    ], ids=["column tripled", "zero weight moved", "bias moved", "past the universe",
            "both polarities", "negative confidence", "unannotated first, past the universe",
            "unannotated first, both polarities", "no epsilon", "positive literal repeated"])
    def test_mismatch_refused(self, change, message):
        doc = nixon_doc()
        change(doc)
        with pytest.raises(ValueError, match=message):
            model_from_dict(doc)

    @pytest.mark.parametrize("key, j, delta, ok", [
        ("b", 0, 1.4e-6, True), ("b", 0, 1.6e-6, False),      # |b_0| = 1500
        ("W", 2, 0.9e-9, True), ("W", 2, 1.1e-9, False),      # W[2, 0] = 0
        ("W", 3, 5e-10, True), ("W", 3, -2e-9, False),        # W[3, 0] = 0
    ])
    def test_tolerance_is_relative_above_one(self, key, j, delta, ok):
        doc = nixon_doc()
        if key == "b":
            doc["b"][j] += delta
        else:
            doc["W"][j][0] += delta
        if ok:
            model_from_dict(doc)
        else:
            with pytest.raises(ValueError, match="hidden unit 0"):
                model_from_dict(doc)

    def test_repeated_literal_counts_once(self):
        # T is read from the pattern: n & r & r is n & r, bias c * (-2 + eps)
        doc = nixon_doc()
        doc["clause_annotations"][0]["pos"] = [0, 1, 1]
        assert model_from_dict(doc).clause_annotations[0]["pos"] == [0, 1, 1]

    def test_unannotated_units_and_no_epsilon_load(self):
        doc = nixon_doc()
        doc["clause_annotations"] = [None] * 4
        doc["epsilon"] = None
        assert model_from_dict(doc).clause_annotations == [None] * 4
