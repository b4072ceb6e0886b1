"""End-to-end command-line tests driving logicrbm.cli.main()."""
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import logicrbm
from logicrbm import formula as fm
from logicrbm.cli import main
from logicrbm.reasoner import (
    DeterministicConfig, GibbsConfig, Query, infer_conditional, infer_deterministic, infer_gibbs,
)
from logicrbm.rbm import Rbm, load_model, save_model
from logicrbm.trainer import Dataset, OneHotSpec, TrainConfig, ingest_categorical


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def xor_model(kb_dir, tmp_path, capsys):
    path = tmp_path / "xor.json"
    code, _, _ = run(capsys, "compile", str(kb_dir / "xor.kb"), "-o", str(path))
    assert code == 0
    return path


@pytest.fixture
def nixon_model(kb_dir, tmp_path, capsys):
    path = tmp_path / "nixon.json"
    code, _, _ = run(capsys, "compile", str(kb_dir / "nixon.kb"), "-o", str(path))
    assert code == 0
    return path


class TestCompile:
    def test_xor_four_units(self, kb_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, stdout, _ = run(capsys, "compile", str(kb_dir / "xor.kb"),
                              "-o", str(out))
        assert code == 0 and "hidden units: 4" in stdout
        assert load_model(out).n_hidden == 4

    def test_nixon_four_units(self, nixon_model):
        # n & r, n & q, r & ~p and q & p; ~n, ~r and ~q are visible biases
        m = load_model(nixon_model)
        assert m.n_hidden == 4
        assert m.a.tolist() == [-1000.0, -5.0, -5.0, 0.0] and m.e0 == -1010.0

    def test_horn3_universal_fifteen_units(self, kb_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, stdout, _ = run(capsys, "compile", str(kb_dir / "horn3.kb"),
                              "--baseline", "universal", "-o", str(out))
        assert code == 0 and "hidden units: 15" in stdout

    def test_universal_lambda_above_half_rejected(self, kb_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "compile", str(kb_dir / "horn3.kb"),
                           "--baseline", "universal", "--epsilon", "0.7", "-o", str(out))
        assert code == 2 and "lambda" in err and not out.exists()

    def test_universal_lambda_verifies(self, kb_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, _, _ = run(capsys, "compile", str(kb_dir / "horn3.kb"),
                         "--baseline", "universal", "--epsilon", "0.3", "-o", str(out))
        assert code == 0
        code, stdout, _ = run(capsys, "verify", str(out), str(kb_dir / "horn3.kb"))
        assert code == 0 and json.loads(stdout)["ok"]

    def test_baselines_reject_negative_weights(self, tmp_path, capsys):
        kb = tmp_path / "neg.kb"
        kb.write_text("-2: y <- x\n")
        for baseline in ("sdnf", "penalty", "universal"):
            code, _, err = run(capsys, "compile", str(kb), "--baseline", baseline,
                               "-o", str(tmp_path / "m.json"))
            assert code == 2 and "negative" in err

    def test_penalty_requires_horn(self, kb_dir, tmp_path, capsys):
        code, _, err = run(capsys, "compile", str(kb_dir / "horn3.kb"),
                           "--baseline", "penalty", "-o", str(tmp_path / "m.json"))
        assert code == 2 and "Horn" in err

    def test_penalty_on_horn_kb(self, tmp_path, capsys):
        kb = tmp_path / "horn.kb"
        kb.write_text("2.0: y <- x1 & x2\n")
        code, stdout, _ = run(capsys, "compile", str(kb), "--baseline", "penalty",
                              "-o", str(tmp_path / "m.json"))
        assert code == 0 and "hidden units: 3" in stdout

    @pytest.mark.parametrize("scale", ["nan", "inf", "1e308", "-0.5"])
    def test_extra_hidden_bad_init_scale(self, kb_dir, tmp_path, capsys, scale):
        out = tmp_path / "m.json"
        code, stdout, err = run(capsys, "compile", str(kb_dir / "xor.kb"),
                                "--extra-hidden", "2", "--init-scale", scale, "-o", str(out))
        assert code == 2 and "init scale" in err and stdout == "" and not out.exists()

    @pytest.mark.parametrize("count", ["1048577", "1000000000000000"])
    def test_extra_hidden_size_limit(self, kb_dir, tmp_path, capsys, count):
        # xor.kb has 3 visible units: 4 parameters per extra unit, 2^22 at most
        out = tmp_path / "m.json"
        code, stdout, err = run(capsys, "compile", str(kb_dir / "xor.kb"),
                                "--extra-hidden", count, "-o", str(out))
        assert (code, stdout, err.count("\n")) == (3, "", 1) and not out.exists()
        assert "exceeds the limit" in err

    def test_extra_hidden_units(self, kb_dir, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, stdout, _ = run(capsys, "compile", str(kb_dir / "xor.kb"),
                              "--extra-hidden", "10", "--seed", "3",
                              "-o", str(out))
        assert code == 0 and load_model(out).n_hidden == 14

    def test_deterministic_output(self, kb_dir, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "compile", str(kb_dir / "nixon.kb"), "-o", str(p1))
        run(capsys, "compile", str(kb_dir / "nixon.kb"), "-o", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "compile", str(tmp_path / "nope.kb"),
                           "-o", str(tmp_path / "m.json"))
        assert code == 2 and "error" in err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.kb"
        bad.write_text("x &\n")
        code, _, err = run(capsys, "compile", str(bad),
                           "-o", str(tmp_path / "m.json"))
        assert code == 2

    @pytest.mark.parametrize("eps", ["0", "1", "1.5", "-0.5"])
    def test_epsilon_outside_unit_interval(self, kb_dir, tmp_path, capsys, eps):
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "compile", str(kb_dir / "xor.kb"),
                           "--epsilon", eps, "-o", str(out))
        assert code == 2 and "epsilon" in err and not out.exists()

    def test_size_limit_exit_code(self, tmp_path, capsys):
        big = tmp_path / "big.kb"
        big.write_text(" ^ ".join(f"v{i}" for i in range(21)) + "\n")
        code, _, err = run(capsys, "compile", str(big),
                           "-o", str(tmp_path / "m.json"))
        assert code == 3

    def test_wide_disjunction_one_unit_per_literal_but_one(self, tmp_path, capsys):
        wide = tmp_path / "wide.kb"
        wide.write_text(" | ".join(f"{'~' * (i % 2)}v{i}" for i in range(21)) + "\n")
        out = tmp_path / "m.json"
        code, stdout, _ = run(capsys, "compile", str(wide), "-o", str(out))
        assert code == 0 and "clauses per formula: [21]" in stdout
        # the literal eliminated last, v1 false, is the visible bias
        m = load_model(out)
        assert m.n_hidden == 20
        assert np.flatnonzero(m.a).tolist() == [1] and m.a[1] == m.e0 == -0.5

    def test_wide_disjunction_verifies(self, tmp_path, capsys):
        wide = tmp_path / "wide.kb"
        wide.write_text("0.7: " + " | ".join(f"{'~' * (i % 3 == 0)}v{i}"
                                             for i in range(16)) + "\n")
        out = tmp_path / "m.json"
        code, _, _ = run(capsys, "compile", str(wide), "-o", str(out))
        assert code == 0 and load_model(out).n_hidden == 15
        code, stdout, _ = run(capsys, "verify", str(out), str(wide))
        assert code == 0 and json.loads(stdout)["ok"]


class TestReason:
    def query(self, tmp_path, doc):
        path = tmp_path / "query.json"
        path.write_text(json.dumps(doc))
        return path

    def test_deterministic_xor(self, xor_model, tmp_path, capsys):
        q = self.query(tmp_path, {"evidence": {"x": True, "y": True},
                                  "mode": "deterministic"})
        code, stdout, _ = run(capsys, "reason", str(xor_model), str(q))
        doc = json.loads(stdout)
        assert code == 0 and doc["assignment"]["z"] is False
        assert doc["energy_rank"] == pytest.approx(-0.5)

    def test_gibbs_nixon(self, nixon_model, tmp_path, capsys):
        q = self.query(tmp_path, {"evidence": {"n": True}, "mode": "gibbs",
                                  "steps": 200, "restarts": 10, "seed": 0})
        code, stdout, _ = run(capsys, "reason", str(nixon_model), str(q))
        doc = json.loads(stdout)
        assert code == 0 and doc["weighted_sat"] == pytest.approx(2010.0)

    def test_all_clamped_echo(self, xor_model, tmp_path, capsys):
        q = self.query(tmp_path, {"evidence": {"x": True, "y": True, "z": False}})
        code, stdout, _ = run(capsys, "reason", str(xor_model), str(q))
        doc = json.loads(stdout)
        assert doc["assignment"] == {"x": True, "y": True, "z": False}

    def test_unknown_mode(self, xor_model, tmp_path, capsys):
        q = self.query(tmp_path, {"evidence": {}, "mode": "annealing"})
        code, stdout, err = run(capsys, "reason", str(xor_model), str(q))
        assert (code, stdout, err) == (2, "", "error: unknown mode 'annealing'\n")

    def test_conditional(self, xor_model, tmp_path, capsys):
        q = self.query(tmp_path, {"evidence": {"x": True, "y": True},
                                  "targets": ["z"], "mode": "conditional"})
        code, stdout, _ = run(capsys, "reason", str(xor_model), str(q))
        doc = json.loads(stdout)
        assert code == 0 and doc["decision"]["z"] is False
        assert doc["marginals"]["z"] < 0.5

    def test_conditional_targets_out_of_index_order(self, nixon_model, tmp_path, capsys):
        # nixon.kb registers n, r, q, p; with n true and q false the unique
        # best completion makes r true and p false
        q = self.query(tmp_path, {"evidence": {"n": True, "q": False},
                                  "targets": ["p", "r"], "mode": "conditional"})
        code, stdout, _ = run(capsys, "reason", str(nixon_model), str(q))
        doc = json.loads(stdout)
        assert code == 0
        assert doc["map_config"] == {"p": False, "r": True}
        assert doc["decision"] == {"p": False, "r": True}
        rep = infer_conditional(load_model(nixon_model), fm.Assignment({0: True, 2: False}, 4),
                                (1, 3))
        assert doc["marginals"] == pytest.approx({"r": rep.marginals[1], "p": rep.marginals[3]},
                                                 rel=1e-12)

    def test_exact(self, nixon_model, tmp_path, capsys):
        q = self.query(tmp_path, {"evidence": {"n": True}, "mode": "exact"})
        code, stdout, _ = run(capsys, "reason", str(nixon_model), str(q))
        doc = json.loads(stdout)
        assert code == 0 and doc["weighted_sat"] == pytest.approx(2010.0)

    def test_exact_size_limit(self, tmp_path, capsys):
        model = tmp_path / "wide.json"
        save_model(Rbm(W=np.zeros((71, 1)), a=np.zeros(71), b=np.zeros(1)), model)
        q = self.query(tmp_path, {"mode": "exact"})
        code, _, err = run(capsys, "reason", str(model), str(q))
        assert code == 3 and "limit" in err

    @pytest.mark.parametrize("doc", [
        {"mode": "deterministic", "restarts": 1e9, "steps": 0},
        {"mode": "gibbs", "restarts": 1e9},
        {"mode": "gibbs", "restarts": 10 ** 7},
        {"mode": "gibbs", "steps": 1e30},
        {"mode": "deterministic", "steps": 10 ** 12},
    ])
    def test_search_size_limit_before_allocation(self, xor_model, tmp_path, doc):
        # under a 1 GiB address-space cap a search that sized its arrays
        # first would fail at once with a MemoryError rather than swap
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(logicrbm.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "logicrbm", "reason", str(xor_model),
             str(self.query(tmp_path, doc))],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3 and "search limit" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_model_names_mismatch(self, xor_model, tmp_path, capsys):
        doc = json.loads(xor_model.read_text())
        doc["names"].append("extra")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "reason", str(bad), str(self.query(tmp_path, {})))
        assert code == 2 and "names" in err

    def test_model_annotations_mismatch(self, xor_model, tmp_path, capsys):
        doc = json.loads(xor_model.read_text())
        doc["clause_annotations"].pop()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "reason", str(bad), str(self.query(tmp_path, {})))
        assert code == 2 and "annotations" in err

    def test_unknown_evidence_name(self, xor_model, tmp_path, capsys):
        q = self.query(tmp_path, {"evidence": {"bogus": True}})
        code, _, err = run(capsys, "reason", str(xor_model), str(q))
        assert code == 2

    @pytest.mark.parametrize("value", ["false", "true", 2, -1, 0.5, None, [1]])
    def test_evidence_value_must_be_boolean(self, xor_model, tmp_path, capsys, value):
        q = self.query(tmp_path, {"evidence": {"x": value, "y": True}, "mode": "exact"})
        code, stdout, err = run(capsys, "reason", str(xor_model), str(q))
        assert code == 2 and "evidence" in err and stdout == ""

    @pytest.mark.parametrize("value", [False, 0])
    def test_evidence_false_and_zero_clamp_false(self, xor_model, tmp_path, capsys, value):
        q = self.query(tmp_path, {"evidence": {"x": value, "y": True}, "mode": "exact"})
        code, stdout, _ = run(capsys, "reason", str(xor_model), str(q))
        assert code == 0 and json.loads(stdout)["assignment"] == \
            {"x": False, "y": True, "z": True}

    @pytest.mark.parametrize("mode", ["gibbs", "deterministic"])
    def test_zero_restarts_rejected(self, xor_model, tmp_path, capsys, mode):
        q = self.query(tmp_path, {"mode": mode, "restarts": 0})
        code, stdout, err = run(capsys, "reason", str(xor_model), str(q))
        assert code == 2 and "restarts >= 1" in err and stdout == ""

    @pytest.mark.parametrize("mode", ["gibbs", "deterministic"])
    def test_negative_steps_rejected(self, xor_model, tmp_path, capsys, mode):
        q = self.query(tmp_path, {"mode": mode, "steps": -3})
        code, stdout, err = run(capsys, "reason", str(xor_model), str(q))
        assert code == 2 and ">= 0" in err and stdout == ""

    @pytest.mark.parametrize("key", ["steps", "restarts", "seed"])
    @pytest.mark.parametrize("value", [None, True, "3", 2.7, float("nan"), [2]])
    def test_integer_fields_must_be_integers(self, xor_model, tmp_path, capsys, key, value):
        q = self.query(tmp_path, {"mode": "gibbs", key: value})
        code, stdout, err = run(capsys, "reason", str(xor_model), str(q))
        assert code == 2 and key in err and stdout == ""

    @pytest.mark.parametrize("mode, search, config", [
        ("gibbs", infer_gibbs, GibbsConfig()),
        ("deterministic", infer_deterministic, DeterministicConfig()),
    ])
    def test_search_defaults_are_the_library_defaults(self, nixon_model, tmp_path, capsys,
                                                      mode, search, config):
        q = self.query(tmp_path, {"evidence": {"n": True}, "mode": mode})
        code, stdout, _ = run(capsys, "reason", str(nixon_model), str(q))
        doc = json.loads(stdout)
        rep = search(load_model(nixon_model), Query(fm.Assignment({0: True}, 4)), config)
        assert code == 0 and (doc["steps"], doc["restarts"]) == (rep.steps, rep.restarts)
        assert doc["energy_rank"] == rep.energy_rank

    def test_integral_float_fields_accepted(self, xor_model, tmp_path, capsys):
        q = self.query(tmp_path, {"mode": "deterministic", "steps": 5.0, "restarts": 2.0})
        code, stdout, _ = run(capsys, "reason", str(xor_model), str(q))
        assert code == 0 and json.loads(stdout)["restarts"] == 2

    @pytest.mark.parametrize("doc", [[{"mode": "gibbs"}], "gibbs", 3, None])
    def test_query_must_be_an_object(self, xor_model, tmp_path, capsys, doc):
        q = self.query(tmp_path, doc)
        code, stdout, err = run(capsys, "reason", str(xor_model), str(q))
        assert code == 2 and "JSON object" in err and stdout == ""

    @pytest.mark.parametrize("evidence", [["x"], "x", 1, None])
    def test_evidence_must_be_an_object(self, xor_model, tmp_path, capsys, evidence):
        q = self.query(tmp_path, {"mode": "exact", "evidence": evidence})
        code, stdout, err = run(capsys, "reason", str(xor_model), str(q))
        assert code == 2 and "evidence" in err and stdout == ""

    @pytest.mark.parametrize("targets", ["z", [["z"]], ["q"], 3])
    def test_targets_must_name_propositions(self, xor_model, tmp_path, capsys, targets):
        q = self.query(tmp_path, {"mode": "conditional", "targets": targets})
        code, stdout, err = run(capsys, "reason", str(xor_model), str(q))
        assert code == 2 and "targets" in err and stdout == ""


class TestVerify:
    def test_compiled_model_passes(self, nixon_model, kb_dir, capsys):
        code, stdout, _ = run(capsys, "verify", str(nixon_model),
                              str(kb_dir / "nixon.kb"))
        doc = json.loads(stdout)
        assert code == 0 and doc["ok"] and doc["max_deviation"] <= 1e-9

    @pytest.mark.parametrize("eps", [0, -1, 1, None])
    def test_epsilon_outside_unit_interval(self, xor_model, kb_dir, tmp_path, capsys, eps):
        """verify checks the identity at the model's own epsilon: outside
        (0, 1) the file does not load, and a model without annotations and
        with a null epsilon has none to check at."""
        doc = json.loads(xor_model.read_text())
        doc.update(epsilon=eps, clause_annotations=None)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, err = run(capsys, "verify", str(bad), str(kb_dir / "xor.kb"))
        assert (code, stdout, err.count("\n")) == (2, "", 1)
        assert f"epsilon must lie in (0, 1), not {eps!r}" in err

    def test_no_epsilon_option(self, xor_model, kb_dir, capsys):
        code, stdout, _ = run(capsys, "verify", "--help")
        assert code == 0 and "--epsilon" not in stdout
        code, _, err = run(capsys, "verify", str(xor_model), str(kb_dir / "xor.kb"),
                           "--epsilon", "0.5")
        assert code == 2 and "unrecognized arguments: --epsilon" in err

    def test_reordered_kb_is_read_in_the_model_order(self, nixon_model, kb_dir, tmp_path,
                                                     capsys):
        # q -> p first registers q and p before n and r
        lines = (kb_dir / "nixon.kb").read_text().splitlines()
        shuffled = tmp_path / "nixon.kb"
        shuffled.write_text("\n".join(reversed(lines)) + "\n")
        code, stdout, _ = run(capsys, "verify", str(nixon_model), str(shuffled))
        doc = json.loads(stdout)
        assert code == 0 and doc["max_deviation"] <= 1e-9
        assert list(doc["witness"]) == ["n", "r", "q", "p"]

    def test_kb_over_other_names_rejected(self, xor_model, tmp_path, capsys):
        kb = tmp_path / "abc.kb"
        kb.write_text("1: (a ^ b) <-> c\n")
        code, stdout, err = run(capsys, "verify", str(xor_model), str(kb))
        assert code == 2 and "'a'" in err and stdout == ""

    def test_perturbed_model_fails(self, xor_model, kb_dir, tmp_path, capsys):
        # a visible bias has no annotation to disagree with: the model loads
        # and differs from its KB (a moved annotated unit does not load)
        doc = json.loads(xor_model.read_text())
        doc["a"][0] += 0.25
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, _ = run(capsys, "verify", str(bad), str(kb_dir / "xor.kb"))
        assert code == 1 and not json.loads(stdout)["ok"]


class TestTrainExtract:
    def test_train_from_clauses_and_extract(self, tmp_path, kb_dir, capsys):
        model = tmp_path / "m.json"
        run(capsys, "compile", str(kb_dir / "nixon.kb"), "-o", str(model))
        out = tmp_path / "trained.json"
        log = tmp_path / "loss.csv"
        code, stdout, _ = run(capsys, "train", str(model),
                              "--from-clauses", str(kb_dir / "nixon.kb"),
                              "--targets", "p", "--epochs", "5", "--lr", "0.01",
                              "--freeze-structure", "--loss-log", str(log),
                              "-o", str(out))
        assert code == 0 and out.exists()
        header, *rows = log.read_text().strip().splitlines()
        assert header == "epoch,nll,reconstruction_error" and len(rows) == 5
        code, stdout, _ = run(capsys, "extract", str(out))
        assert code == 0 and len(stdout.strip().splitlines()) == 4

    def test_frozen_training_keeps_single_literal_confidences(self, tmp_path, capsys):
        """Single-literal clauses live in a and e0, which frozen training
        holds fixed: a KB of facts trains to the model it compiled to, while
        full-parameter training on the same data moves the target's bias."""
        facts = tmp_path / "facts.kb"
        facts.write_text("2: p\n1: ~q\n3: r\n")
        model = tmp_path / "m.json"
        assert run(capsys, "compile", str(facts), "-o", str(model))[0] == 0
        compiled = json.loads(model.read_text())
        assert compiled["n_hidden"] == 0 and compiled["a"] == [1.0, -0.5, 1.5]
        for frozen, out in ((True, tmp_path / "frozen.json"), (False, tmp_path / "free.json")):
            code, _, err = run(capsys, "train", str(model), "--from-clauses", str(facts),
                               "--targets", "p", "--epochs", "5", "--lr", "0.1", "-o", str(out),
                               *(["--freeze-structure"] if frozen else []))
            assert code == 0, err
            trained = json.loads(out.read_text())
            assert (trained == compiled) is frozen
        assert trained["a"][0] != compiled["a"][0]

    def test_unfrozen_training_drops_annotations(self, tmp_path, kb_dir, capsys):
        """A model trained without --freeze-structure holds null for every
        unit's annotation, so a frozen run afterwards does not snap the moved
        units back onto their compiled clauses."""
        model, tuned, again = (tmp_path / f"{name}.json" for name in ("m", "tuned", "again"))
        data = tmp_path / "xor.csv"
        data.write_text("x,y,z\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        assert run(capsys, "compile", str(kb_dir / "xor.kb"), "-o", str(model))[0] == 0
        code, _, err = run(capsys, "train", str(model), str(data), "--targets", "z",
                           "--alpha", "0.5", "--epochs", "7", "-o", str(tuned))
        assert code == 0, err
        trained = load_model(tuned)
        assert json.loads(tuned.read_text())["clause_annotations"] == [None] * 4
        code, _, err = run(capsys, "train", str(tuned), str(data), "--targets", "z",
                           "--alpha", "0.5", "--epochs", "1", "--lr", "1e-12",
                           "--freeze-structure", "-o", str(again))
        assert code == 0, err
        np.testing.assert_allclose(load_model(again).W, trained.W, atol=1e-9)
        np.testing.assert_allclose(load_model(again).b, trained.b, atol=1e-9)

    @pytest.mark.parametrize("pos, neg, message", [
        ([0, 1], [1], "both polarities"),
        ([4], [], "outside 0..3"),
        ([-1], [], "outside 0..3"),
    ], ids=["both polarities", "past the universe", "negative"])
    def test_frozen_training_rejects_bad_annotations(self, tmp_path, kb_dir, nixon_model,
                                                     capsys, pos, neg, message):
        doc = json.loads(nixon_model.read_text())
        j = next(j for j, ann in enumerate(doc["clause_annotations"]) if ann)
        doc["clause_annotations"][j].update(pos=pos, neg=neg)
        bad, out = tmp_path / "bad.json", tmp_path / "trained.json"
        bad.write_text(json.dumps(doc))
        code, stdout, err = run(capsys, "train", str(bad), "--from-clauses",
                                str(kb_dir / "nixon.kb"), "--targets", "p", "--epochs", "1",
                                "--freeze-structure", "-o", str(out))
        assert code == 2 and message in err
        assert stdout == "" and not out.exists()

    def test_train_from_wide_disjunction(self, tmp_path, capsys):
        wide = tmp_path / "wide.kb"
        wide.write_text(" | ".join(f"v{i}" for i in range(21)) + "\n")
        model, out = tmp_path / "m.json", tmp_path / "trained.json"
        code, _, _ = run(capsys, "compile", str(wide), "-o", str(model))
        assert code == 0
        code, _, err = run(capsys, "train", str(model), "--from-clauses", str(wide),
                           "--targets", "v0", "--epochs", "2", "--freeze-structure",
                           "-o", str(out))
        assert code == 0, err
        assert load_model(out).n_hidden == 20

    def test_train_from_reordered_clauses(self, tmp_path, kb_dir, nixon_model, capsys):
        lines = (kb_dir / "nixon.kb").read_text().splitlines()
        shuffled = tmp_path / "nixon.kb"
        shuffled.write_text("\n".join(reversed(lines)) + "\n")
        trained = []
        for kb in (kb_dir / "nixon.kb", shuffled):
            out = tmp_path / f"trained-{len(trained)}.json"
            code, _, err = run(capsys, "train", str(nixon_model), "--from-clauses", str(kb),
                               "--targets", "p", "--epochs", "3", "-o", str(out))
            assert code == 0, err
            trained.append(load_model(out))
        # the same rows in another order: the same full-batch steps
        np.testing.assert_allclose(trained[0].W, trained[1].W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trained[0].b, trained[1].b, rtol=0, atol=1e-12)

    def test_train_from_clauses_over_other_names_rejected(self, tmp_path, nixon_model,
                                                          capsys):
        kb = tmp_path / "other.kb"
        kb.write_text("n -> r\nr -> s\n")
        out = tmp_path / "trained.json"
        code, _, err = run(capsys, "train", str(nixon_model), "--from-clauses", str(kb),
                           "--targets", "r", "-o", str(out))
        assert code == 2 and "'s'" in err and not out.exists()

    def test_train_csv_with_reordered_header_rejected(self, tmp_path, xor_model, capsys):
        data = tmp_path / "xor.csv"
        data.write_text("z,y,x\n0,0,0\n1,1,0\n1,0,1\n0,1,1\n")
        out = tmp_path / "trained.json"
        code, _, err = run(capsys, "train", str(xor_model), str(data),
                           "--targets", "z", "-o", str(out))
        assert code == 2 and "columns" in err and not out.exists()

    def test_train_csv_path(self, tmp_path, xor_model, capsys):
        data = tmp_path / "xor.csv"
        data.write_text("x,y,z\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        out = tmp_path / "trained.json"
        code, _, _ = run(capsys, "train", str(xor_model), str(data),
                         "--targets", "z", "--epochs", "3", "--lr", "0.01",
                         "-o", str(out))
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"),
                                             ("--epochs", "-3"), ("--batch-size", "-1")])
    def test_train_rejects_bad_hyperparameters(self, tmp_path, xor_model, capsys,
                                               flag, value):
        data = tmp_path / "xor.csv"
        data.write_text("x,y,z\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        out = tmp_path / "trained.json"
        code, stdout, err = run(capsys, "train", str(xor_model), str(data),
                                "--targets", "z", f"{flag}={value}", "-o", str(out))
        assert code == 2 and flag.lstrip("-").replace("-", "_") in err and stdout == ""
        assert not out.exists()

    def test_train_cd_k_size_limit(self, tmp_path, xor_model, capsys):
        """CD-k's uniforms are bounded before any is allocated: exit 3, one
        stderr line and no output file."""
        data = tmp_path / "xor.csv"
        data.write_text("x,y,z\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        out = tmp_path / "trained.json"
        code, stdout, err = run(capsys, "train", str(xor_model), str(data), "--alpha", "1",
                                "--beta", "0", "--cd-k", "1000000000", "--epochs", "1",
                                "-o", str(out))
        assert (code, stdout, err.count("\n")) == (3, "", 1) and not out.exists()
        assert "cd_k" in err

    def test_train_refuses_zero_temperature(self, tmp_path, xor_model, capsys):
        doc = json.loads(xor_model.read_text())
        doc["tau"] = 0
        xor_model.write_text(json.dumps(doc))
        data = tmp_path / "xor.csv"
        data.write_text("x,y,z\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        out = tmp_path / "trained.json"
        code, _, err = run(capsys, "train", str(xor_model), str(data),
                           "--targets", "z", "-o", str(out))
        assert code == 2 and "tau" in err
        assert not out.exists()

    @pytest.mark.parametrize("kw", [
        dict(beta=1.0, epochs=4, lr=0.05),
        dict(alpha=1.0, beta=0.0, epochs=3, batch_size=1, seed=5),
        dict(alpha=0.5, beta=1.0, epochs=3, batch_size=2, cd_k=2, freeze_structure=True),
    ], ids=["discriminative", "cd", "hybrid-frozen"])
    def test_train_summary_and_loss_log(self, tmp_path, xor_model, capsys, kw):
        """The summary line holds the last epoch's losses, with the NLL only
        when beta > 0, and reads the same with the loss log on or off; the
        log holds the library's trace, one row per epoch."""
        data = tmp_path / "xor.csv"
        data.write_text("x,y,z\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        targets = ("z",) if kw["beta"] > 0 else ()
        flags = [f"--{k.replace('_', '-')}" + ("" if v is True else f"={v}")
                 for k, v in kw.items()]
        flags += [f"--targets={t}" for t in targets]
        log, out = tmp_path / "loss.csv", tmp_path / "trained.json"
        results = []
        for extra in ((), ("--loss-log", str(log))):
            assert not log.exists()
            code, stdout, err = run(capsys, "train", str(xor_model), str(data), *flags,
                                    *extra, "-o", str(out))
            assert code == 0, err
            results.append((stdout, out.read_bytes()))
        assert results[0] == results[1]

        _, trace = logicrbm.train(load_model(xor_model), Dataset.from_csv(data, targets),
                                  TrainConfig(**kw, trace=True))
        last = trace[-1]
        line = f"epochs: {kw['epochs']}  final recon err: {last['reconstruction_error']:.6f}"
        if kw["beta"] > 0:
            line += f"  final nll: {last['nll']:.6f}"
        assert results[0][0] == line + "\n"
        header, *rows = log.read_text().splitlines()
        assert header == "epoch,nll,reconstruction_error" and len(rows) == kw["epochs"]
        for row, entry in zip(rows, trace):
            epoch, nll, recon = row.split(",")
            assert int(epoch) == entry["epoch"]
            assert float(recon) == entry["reconstruction_error"]
            assert (float(nll) == entry["nll"]) if kw["beta"] > 0 else nll == ""

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV"),
        ("x,y,z\n0,0,0\n0,1\n1,0,1\n", "line 3: row length 2 differs from header length 3"),
    ], ids=["empty", "ragged"])
    def test_train_bad_csv(self, tmp_path, xor_model, capsys, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        out = tmp_path / "trained.json"
        code, stdout, err = run(capsys, "train", str(xor_model), str(data),
                                "--targets", "z", "-o", str(out))
        assert code == 2 and message in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("source", ["csv", "clauses"])
    def test_train_unknown_target(self, tmp_path, kb_dir, xor_model, capsys, source):
        data = tmp_path / "xor.csv"
        data.write_text("x,y,z\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        rows = [str(data)] if source == "csv" else ["--from-clauses", str(kb_dir / "xor.kb")]
        out = tmp_path / "trained.json"
        code, stdout, err = run(capsys, "train", str(xor_model), *rows,
                                "--targets", "q", "-o", str(out))
        assert code == 2 and "unknown target 'q'" in err and stdout == ""
        assert not out.exists()

    def test_train_needs_data(self, xor_model, tmp_path, capsys):
        code, _, err = run(capsys, "train", str(xor_model),
                           "-o", str(tmp_path / "out.json"))
        assert code == 2

    def test_extract_with_reliability(self, tmp_path, xor_model, capsys):
        data = tmp_path / "xor.csv"
        data.write_text("x,y,z\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        code, stdout, _ = run(capsys, "extract", str(xor_model), str(data),
                              "--targets", "z")
        # each XOR model clause mentions z once and matches one row
        assert code == 0 and stdout == ("1.0000: ~x & ~y & ~z [rr=1/0]\n"
                                        "1.0000: x & y & ~z [rr=1/0]\n"
                                        "1.0000: x & z & ~y [rr=1/0]\n"
                                        "1.0000: y & z & ~x [rr=1/0]\n")

    def test_extract_targets_are_exact_column_names(self, tmp_path, capsys):
        """Only the named columns are class columns, not every column sharing
        their prefix: size_class_a and size_class_b are attributes here."""
        names = ["size_big", "size_small", "size_class_a", "size_class_b"]
        kb = tmp_path / "size.kb"
        kb.write_text("size_big <- size_small & size_class_a & size_class_b\n")
        model = tmp_path / "size.json"
        assert run(capsys, "compile", str(kb), "-o", str(model))[0] == 0
        data = tmp_path / "size.csv"
        data.write_text(",".join(names) + "\n1,0,1,0\n0,1,1,1\n0,1,1,0\n1,1,1,1\n0,1,0,1\n")
        code, stdout, err = run(capsys, "extract", str(model), str(data),
                                "--targets", "size_big,size_small")
        assert code == 0, err
        # the first clause mentions both targets, so it is not scored
        assert stdout == ("1.0000: size_big & size_small & size_class_a & size_class_b\n"
                          "1.0000: size_small & ~size_class_a [rr=1/0]\n"
                          "1.0000: size_small & size_class_a & ~size_class_b [rr=1/1]\n")
        for targets in ("size", ""):
            code, stdout, err = run(capsys, "extract", str(model), str(data),
                                    "--targets", targets)
            assert code == 2 and stdout == "" and "target" in err

    def test_extract_targets_need_data(self, tmp_path, xor_model, capsys):
        out = tmp_path / "clauses.json"
        code, stdout, err = run(capsys, "extract", str(xor_model), "--targets", "z",
                                "--json", str(out))
        assert (code, stdout, err.count("\n")) == (2, "", 1) and "--targets" in err
        assert not out.exists()

    def test_extract_data_over_other_names(self, tmp_path, xor_model, capsys):
        data = tmp_path / "xzy.csv"
        data.write_text("x,z,y\n0,0,0\n1,1,0\n")
        code, stdout, err = run(capsys, "extract", str(xor_model), str(data), "--targets", "z")
        assert (code, stdout) == (2, "") and "columns do not match the model" in err

    def test_extract_json_output(self, tmp_path, xor_model, capsys):
        out = tmp_path / "clauses.json"
        code, _, _ = run(capsys, "extract", str(xor_model), "--json", str(out))
        assert code == 0
        docs = json.loads(out.read_text())
        assert len(docs) == 4


def _unit(doc, j=0, W=1.0, b=0.0, **annotation):
    """The compiled XOR model's fields with hidden unit j's column scaled by
    W, b added to its bias and its annotation updated."""
    anns, bias = list(doc["clause_annotations"]), list(doc["b"])
    anns[j] = {**anns[j], **annotation}
    bias[j] += b
    return {"W": [[w * W if k == j else w for k, w in enumerate(row)] for row in doc["W"]],
            "b": bias, "clause_annotations": anns}


class TestModelFile:
    """A model file with a bad scalar or annotation, or an annotated unit
    that is not its clause, is an input error (exit 2) for every command,
    and no command writes its output.  A case is a field and its value, or
    a function of the compiled file giving the fields to replace."""

    CASES = {
        "epsilon zero": ("epsilon", 0),
        "epsilon above one": ("epsilon", 1.5),
        "e0 null": ("e0", None),
        "tau zero": ("tau", 0),
        "tau null": ("tau", None),
        "tau nan": ("tau", float("nan")),
        "tau infinite": ("tau", float("inf")),
        "tau string": ("tau", "1"),
        "names not a list": ("names", 5),
        "names not strings": ("names", [1, 2, 3]),
        "names repeated": ("names", ["x", "x", "y"]),
        "annotations not a list": ("clause_annotations", 7),
        "annotation string": ("clause_annotations", ["x", None, None, None]),
        "annotation without neg": ("clause_annotations",
                                   [{"pos": [0], "confidence": 1.0}, None, None, None]),
        "annotation confidence nan": ("clause_annotations", [
            {"pos": [0], "neg": [1, 2], "confidence": float("nan")}, None, None, None]),
        "annotated column tripled": lambda doc: _unit(doc, W=3.0),
        "annotated bias moved": lambda doc: _unit(doc, b=0.25),
        "annotation past the universe": lambda doc: _unit(doc, pos=[99]),
        # the unit is its clause at confidence -1: only the sign is wrong
        "negative confidence": lambda doc: _unit(doc, W=-1.0, b=-2 * doc["b"][0],
                                                 confidence=-1.0),
        # x & y & ~z listed as x & y & y & ~z, with the bias of three
        # positive literals: the unit would never fire on its clause
        "positive literal repeated": lambda doc: _unit(doc, 1, b=-1.0, pos=[0, 1, 1]),
        "annotations without epsilon": ("epsilon", None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_rejected(self, xor_model, kb_dir, tmp_path, capsys, case):
        doc = json.loads(xor_model.read_text())
        tamper = self.CASES[case]
        doc.update(tamper(doc) if callable(tamper) else [tamper])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        data = tmp_path / "xor.csv"
        data.write_text("x,y,z\n0,0,0\n0,1,1\n1,0,1\n1,1,0\n")
        query = tmp_path / "query.json"
        query.write_text(json.dumps({"evidence": {"x": True}}))
        out = tmp_path / "out.json"
        for argv in (["reason", str(bad), str(query)],
                     ["train", str(bad), str(data), "--targets", "z", "-o", str(out)],
                     ["extract", str(bad), "--json", str(out)],
                     ["verify", str(bad), str(kb_dir / "xor.kb")]):
            code, stdout, err = run(capsys, *argv)
            assert code == 2 and err.startswith("error: ") and stdout == "", argv[0]
            assert err.count("\n") == 1 and not out.exists()


class TestIngest:
    CSV = "color,size,label\nred,small,yes\nblue,large,no\nred,large,yes\n"

    @pytest.mark.parametrize("text, message", [
        ("", "empty CSV"),
        ("color,size\nred,small\nblue\n", "line 3: row length 1 differs from header length 2"),
    ], ids=["empty", "ragged"])
    def test_bad_csv(self, tmp_path, capsys, text, message):
        src = tmp_path / "cat.csv"
        src.write_text(text)
        out = tmp_path / "onehot.csv"
        code, stdout, err = run(capsys, "ingest", str(src), "-o", str(out))
        assert code == 2 and message in err and stdout == "" and not out.exists()

    @pytest.mark.parametrize("spec, field", [
        ([1], "one JSON object"),
        ({"attributes": 3}, "'attributes'"),
        ({"attributes": [["color", ["red"]]]}, "attribute 0"),
        ({"attributes": [{"name": "color", "values": 5}]}, "'values'"),
        ({"attributes": [{"name": "color"}]}, "'values'"),
        ({"attributes": [{"name": "color", "values": ["red"]}], "class": 1}, "'class'"),
        ({"attributes": [{"name": "color", "values": ["red"]}], "class": "color"},
         "train --targets"),
    ], ids=["top-level list", "attributes not a list", "attribute not an object",
            "values not a list", "values missing", "class not a string", "class"])
    def test_bad_spec(self, tmp_path, capsys, spec, field):
        src = tmp_path / "cat.csv"
        src.write_text(self.CSV)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "onehot.csv"
        code, stdout, err = run(capsys, "ingest", str(src), "--spec", str(spec_file),
                                "-o", str(out))
        assert code == 2 and field in err and stdout == "" and not out.exists()

    def test_inferred_spec(self, tmp_path, capsys):
        src = tmp_path / "cat.csv"
        src.write_text(self.CSV)
        out = tmp_path / "onehot.csv"
        code, stdout, _ = run(capsys, "ingest", str(src), "-o", str(out))
        assert code == 0 and "3 rows x 6 propositions" in stdout
        header, *rows = out.read_text().strip().splitlines()
        assert header == "color_blue,color_red,size_large,size_small,label_no,label_yes"
        assert rows[0] == "0,1,0,1,0,1"

    def test_explicit_spec(self, tmp_path, capsys):
        src = tmp_path / "cat.csv"
        src.write_text(self.CSV)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "attributes": [{"name": "color", "values": ["red", "blue"]},
                           {"name": "label", "values": ["yes", "no"]}]}))
        out = tmp_path / "onehot.csv"
        code, _, _ = run(capsys, "ingest", str(src), "--spec", str(spec),
                         "-o", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] \
            == "color_red,color_blue,label_yes,label_no"

    def test_class_is_chosen_by_train_targets(self, tmp_path, capsys):
        src = tmp_path / "cat.csv"
        src.write_text(self.CSV)
        out = tmp_path / "onehot.csv"
        code, _, err = run(capsys, "ingest", str(src), "--class", "label", "-o", str(out))
        assert code == 2 and "--class" in err and not out.exists()
        # the one-hot class columns are the training targets
        code, _, _ = run(capsys, "ingest", str(src), "-o", str(out))
        model = tmp_path / "m.json"
        kb = tmp_path / "prior.kb"
        kb.write_text("".join(f"0: {nm}\n" for nm in out.read_text().splitlines()[0].split(","))
                      + "label_yes <- color_red\n")
        assert run(capsys, "compile", str(kb), "-o", str(model))[0] == 0
        code, stdout, err = run(capsys, "train", str(model), str(out), "--targets",
                                "label_no,label_yes", "--epochs", "1", "-o", str(model))
        assert code == 0 and "final nll" in stdout, err

    def test_unknown_value_names_row_and_attribute(self, tmp_path, capsys):
        src = tmp_path / "cat.csv"
        src.write_text("color\nred\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"attributes":
                                    [{"name": "color", "values": ["blue"]}]}))
        code, _, err = run(capsys, "ingest", str(src), "--spec", str(spec),
                           "-o", str(tmp_path / "out.csv"))
        assert code == 2 and "row 1" in err and "color" in err

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n1,2\n"], ids=["header only", "rows"])
    def test_attribute_missing_from_header(self, tmp_path, capsys, text):
        src = tmp_path / "cat.csv"
        src.write_text(text)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"attributes": [{"name": "zz", "values": ["1"]}]}))
        out = tmp_path / "onehot.csv"
        code, stdout, err = run(capsys, "ingest", str(src), "--spec", str(spec),
                                "-o", str(out))
        assert code == 2 and "attribute 'zz' missing from the CSV header" in err
        assert stdout == "" and not out.exists()

    def test_name_collision(self, tmp_path, capsys):
        # attribute a with value b_c and attribute a_b with value c: both a_b_c
        spec = OneHotSpec([("a", ["b_c"]), ("a_b", ["c"])])
        with pytest.raises(ValueError, match="one-hot proposition names collide"):
            ingest_categorical([["b_c", "c"]], ["a", "a_b"], spec)
        src = tmp_path / "cat.csv"
        src.write_text("a,a_b\nb_c,c\n")
        out = tmp_path / "onehot.csv"
        code, stdout, err = run(capsys, "ingest", str(src), "-o", str(out))
        assert (code, stdout) == (2, "") and "collide" in err and not out.exists()

    def test_one_true_per_attribute(self):
        spec = OneHotSpec([("a", ["x", "y"]), ("b", ["u", "v"])])
        d = ingest_categorical([["x", "v"], ["y", "u"]], ["a", "b"], spec)
        assert np.array_equal(d.rows.reshape(2, 2, 2).sum(axis=2),
                              np.ones((2, 2)))


DEEP_FORMULAS = {
    # text, then the exit codes of compile and of compile --baseline universal
    "2000 negations": ("~" * 2000 + "x", 2, 2),
    "250 parentheses": ("(" * 250 + "x" + ")" * 250, 0, 0),
    "1500 parentheses": ("(" * 1500 + "x" + ")" * 1500, 2, 2),
    "1500 implications": (" -> ".join(f"x{i}" for i in range(1500)), 2, 2),
    "1500-variable xor": (" ^ ".join(f"x{i}" for i in range(1500)), 3, 3),
    "1500-variable and": (" & ".join(f"x{i}" for i in range(1500)), 3, 3),
    "1500-literal and over 3 variables": (" & ".join(f"x{i % 3}" for i in range(1500)), 0, 0),
    # each variable 500 times: even parity, so no model for the universal network
    "1500-literal xor over 3 variables": (" ^ ".join(f"x{i % 3}" for i in range(1500)), 0, 2),
    "1500-literal or over 3 variables": (" | ".join(f"x{i % 3}" for i in range(1500)), 0, 0),
    "800 implications over 14 variables": (" -> ".join(f"x{i % 14}" for i in range(800)), 0, 0),
}


@pytest.mark.parametrize("text, exit_code, universal_exit", DEEP_FORMULAS.values(),
                         ids=DEEP_FORMULAS)
def test_deep_formula_fails_cleanly(text, exit_code, universal_exit, xor_model, tmp_path,
                                    capsys):
    """Nesting too deep to parse exits 2 and a long chain over too many
    variables exits 3, with one line on stderr and never a traceback.  Any
    other chain, however long, compiles and verifies exactly."""
    kb = tmp_path / "deep.kb"
    kb.write_text(text + "\n")
    reason = {2: "nested too deeply", 3: "full-DNF limit"}.get(exit_code, "at least one model")
    for baseline, want in (("sdnf", exit_code), ("universal", universal_exit)):
        out = tmp_path / f"{baseline}.json"
        code, stdout, err = run(capsys, "compile", str(kb), "--baseline", baseline,
                                "-o", str(out))
        if want:
            assert (code, stdout, err.count("\n")) == (want, "", 1) and not out.exists()
            assert reason in err
            continue
        assert (code, err) == (0, "")
        code, stdout, err = run(capsys, "verify", str(out), str(kb))
        assert (code, err) == (0, "") and json.loads(stdout)["max_deviation"] == 0.0
    if exit_code == 2:
        code, stdout, err = run(capsys, "verify", str(xor_model), str(kb))
        assert (code, stdout, err.count("\n")) == (2, "", 1) and "nested too deeply" in err


@pytest.mark.parametrize("text, message", [
    ("x &", "unexpected end of input (line 2)"),
    ("(" * 1500 + "x" + ")" * 1500, "formula nested too deeply (line 2)"),
    ("x & )", "unexpected token ')' (line 2, column 5)"),
], ids=["end of input", "1500 parentheses", "unexpected token"])
def test_parse_error_text(text, message, tmp_path, capsys):
    """The line of a parse error, and its column where it has one."""
    kb = tmp_path / "bad.kb"
    kb.write_text("# one formula\n" + text + "\n")
    out = tmp_path / "m.json"
    code, stdout, err = run(capsys, "compile", str(kb), "-o", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n") and not out.exists()


def test_full_dnf_tautology_costs_no_unit(tmp_path, capsys):
    """The 800-long chain over 14 variables holds on every row (its last
    head, x1, is in its body): one true clause, folded into e0."""
    kb = tmp_path / "chain.kb"
    kb.write_text(DEEP_FORMULAS["800 implications over 14 variables"][0] + "\n")
    model = tmp_path / "chain.json"
    code, stdout, err = run(capsys, "compile", str(kb), "-o", str(model))
    assert (code, stdout, err) == (0, "hidden units: 0\nclauses per formula: [1]\n", "")
    code, stdout, err = run(capsys, "verify", str(model), str(kb))
    assert (code, err) == (0, "") and json.loads(stdout)["max_deviation"] == 0.0


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
