"""Every construction against the original per-construction unit loops in
``reference_kernels``: the networks must agree byte for byte, including the
sign of zero, and the command line must write the same model files.  A
disjunction of literals must compile exactly as its implication form does,
and ``compile_kb`` must fold exactly the single-literal clauses into the
visible biases.  Every construction's network, and a frozen-trained copy
of a compiled one, loads back bit for bit, and loading refuses a clause
unit moved off its clause past the 1e-9 rule."""
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from logicrbm import formula as fm
from logicrbm.cli import main
from logicrbm.compiler import (
    compile_kb, formula_to_sdnf_clauses, penalty_network, universal_network,
)
from logicrbm.normal_forms import all_assignments, to_full_dnf
from logicrbm.rbm import energy_rank, model_from_dict, model_to_dict, save_model
from logicrbm.reasoner import verify_equivalence
from logicrbm.trainer import Dataset, TrainConfig, train

from conftest import (
    KB_DIR, implication_formula, random_clause, random_formula, random_implication,
    random_kb,
)
from reference_kernels import (
    ref_compile_implication, ref_compile_kb, ref_compile_penalty_horn, ref_compile_sdnf,
    ref_compile_universal, ref_fold_literals, ref_hstack_models, ref_leaves,
    ref_literal, ref_literal_biases, ref_match_implication, ref_sdnf_clauses,
)

SEEDS = st.integers(0, 2**32 - 1)


def assert_same_network(m, ref):
    for name in ("W", "a", "b"):
        x, y = getattr(m, name), getattr(ref, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name
    assert json.dumps(model_to_dict(m)) == json.dumps(model_to_dict(ref))


def draw_confidence(rng):
    kind = rng.integers(4)
    if kind == 0:
        return 0.0
    if kind == 1:
        return float(rng.integers(1, 2000))
    return float(rng.uniform(0, 10 ** rng.integers(0, 4)))


def draw_epsilon(rng):
    return 0.5 if rng.random() < 0.3 else float(rng.uniform(0.01, 0.99))


def draw_lambda(rng):
    return 0.5 if rng.random() < 0.3 else float(rng.uniform(1e-3, 0.5))


def draw_n_visible(rng, top):
    return None if rng.random() < 0.5 else top + 1 + int(rng.integers(0, 3))


def satisfiable_formula(rng, n_vars):
    while True:
        f = random_formula(rng, n_vars)
        if to_full_dnf(f):
            return f


def horn_kb(rng, n_vars):
    table = fm.PropositionTable([f"v{i}" for i in range(n_vars)])
    kb = fm.KnowledgeBase(table)
    for _ in range(int(rng.integers(0, 5))):
        variables = rng.permutation(n_vars)[: rng.integers(2, n_vars + 1)]
        body = fm.Var(int(variables[1]))
        for v in variables[2:]:
            body = fm.And(body, fm.Var(int(v)))
        kb.add(draw_confidence(rng), fm.Implies(body=body, head=fm.Var(int(variables[0]))))
    return kb


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_compile_implication_matches_reference(seed):
    """``compile_kb`` of one implication (or, with an empty body, of the head
    literal alone) against the original implication loop with its
    single-literal units folded: the same K + T units in canonical order,
    byte for byte, and the same visible biases and offset.  a and e0 are
    compared by value, since a zero confidence gives them a sign of zero
    that depends on the order of the sums."""
    rng = np.random.default_rng(seed)
    body_pos, body_neg, head, head_positive = random_implication(rng, max_body=6)
    if rng.random() < 0.2:
        body_pos, body_neg = frozenset(), frozenset()
    n_visible = draw_n_visible(rng, max(body_pos | body_neg | {head}))
    n_visible = max(body_pos | body_neg | {head}) + 1 if n_visible is None else n_visible
    eps, c = draw_epsilon(rng), draw_confidence(rng)
    names = [f"v{i}" for i in range(n_visible)]
    kb = fm.KnowledgeBase(fm.PropositionTable(names))
    if body_pos or body_neg:
        kb.add(c, implication_formula(body_pos, body_neg, head, head_positive))
    else:
        kb.add(c, fm.Var(head) if head_positive else fm.Not(fm.Var(head)))
    m, _ = compile_kb(kb, eps)
    ref = ref_fold_literals(ref_compile_implication(
        body_pos, body_neg, head, eps, n_visible, c, head_positive, names))
    assert m.n_hidden == len(body_pos) + len(body_neg)
    order = sorted(range(ref.n_hidden), key=lambda j: (
        ref.clause_annotations[j]["pos"], ref.clause_annotations[j]["neg"]))
    assert m.W.tobytes() == ref.W[:, order].tobytes()
    assert m.b.tobytes() == ref.b[order].tobytes()
    assert m.clause_annotations == [ref.clause_annotations[j] for j in order]
    assert m.a.tolist() == ref.a.tolist() and m.e0 == ref.e0
    assert m.names == names and m.epsilon == eps


def on_clause_route(f):
    """True for a disjunction whose leaves are all literals."""
    return isinstance(f, fm.Or) and all(ref_literal(g) is not None for g in ref_leaves(f, fm.Or))


def as_implication(f):
    """A clause-route formula rewritten as the formula the reference compiles
    to the same clauses: ``l1 <- ~l2 & ... & ~lk`` over its distinct literals,
    the literal alone for k = 1, or TRUE for a tautology."""
    lits = list(dict.fromkeys(ref_literal(g) for g in ref_leaves(f, fm.Or)))
    if len({v for v, _ in lits}) < len(lits):
        return fm.TRUE
    if len(lits) == 1:
        return ref_leaves(f, fm.Or)[0]
    (head, head_positive), rest = lits[0], lits[1:]
    return implication_formula({v for v, positive in rest if not positive},
                               {v for v, positive in rest if positive}, head, head_positive)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_compile_kb_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n_vars = int(rng.integers(1, 7))
    kb = random_kb(rng, n_vars=n_vars)
    if rng.random() < 0.3:
        kb.add(draw_confidence(rng), fm.TRUE)
    kb.items = [(0.0 if rng.random() < 0.1 else w, f) for w, f in kb.items]
    eps = draw_epsilon(rng)
    m, base = compile_kb(kb, eps)
    assert_same_network(m, ref_fold_literals(ref_compile_kb(kb, eps)))
    assert base.per_formula == [len(ref_sdnf_clauses(f)) for _, f in kb.items]


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_single_literal_clauses_fold_into_biases(seed):
    """Implications, disjunctions, tautologies and other formulas, repeated
    and overlapping so that clauses merge across formulas, at dyadic weights
    and epsilon: the units are exactly the merged clauses of two or more
    literals, a and e0 are the folded sums, and E_rank equals that of the
    unfolded reference on every row."""
    rng = np.random.default_rng(seed)
    n_vars = int(rng.integers(2, 7))
    kb = fm.KnowledgeBase(fm.PropositionTable([f"v{i}" for i in range(n_vars)]))
    for _ in range(int(rng.integers(1, 9))):
        kind = rng.random()
        if kb.items and kind < 0.15:
            f = kb.items[int(rng.integers(len(kb.items)))][1]
        elif kind < 0.4:
            vs = rng.permutation(n_vars)[: rng.integers(2, n_vars + 1)].tolist()
            pos = frozenset(v for v in vs[1:] if rng.random() < 0.5)
            f = implication_formula(pos, frozenset(vs[1:]) - pos, vs[0], rng.random() < 0.8)
        elif kind < 0.65:
            f = random_clause(rng, n_vars, p_complement=0.2)
        elif kind < 0.8:
            f = fm.Var(int(rng.integers(n_vars)))
            f = fm.Not(f) if rng.random() < 0.5 else f
        else:
            f = fm.TRUE if kind < 0.83 else random_formula(rng, n_vars)
        kb.add(float(rng.integers(0, 4096)) / 64, f)
    eps = float(rng.integers(1, 16)) / 16
    m, _ = compile_kb(kb, eps)

    X = all_assignments(n_vars)
    assert np.array_equal(energy_rank(m, X), energy_rank(ref_compile_kb(kb, eps), X))

    merged = {}
    for w, f in kb.items:
        for cl in formula_to_sdnf_clauses(f):
            merged[cl] = merged.get(cl, 0.0) + w
    multi = sorted(cl for cl in merged if len(cl.variables()) > 1)
    units = ref_compile_sdnf(multi, eps, n_vars, [merged[cl] for cl in multi])
    assert m.W.tobytes() == units.W.tobytes() and m.b.tobytes() == units.b.tobytes()
    assert m.clause_annotations == units.clause_annotations

    a, e0 = ref_literal_biases(merged.items(), n_vars, eps)
    assert m.a.tolist() == a.tolist() and m.e0 == e0


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_clause_route_is_exact(seed):
    """Disjunctions of literals, mixed with implications and other formulas,
    at dyadic weights and epsilon, so that the identity holds exactly."""
    rng = np.random.default_rng(seed)
    n_vars = 8
    table = fm.PropositionTable([f"v{i}" for i in range(n_vars)])
    kb = fm.KnowledgeBase(table)
    for _ in range(int(rng.integers(1, 7))):
        kind = rng.random()
        if kind < 0.6:
            f = random_clause(rng, n_vars)
        elif kind < 0.85:
            f = implication_formula(*random_implication(rng, max_body=4, n_extra_vars=3))
        else:
            f = random_formula(rng, 4)
        kb.add(float(rng.integers(0, 4096)) / 64, f)
    eps = float(rng.integers(1, 16)) / 16
    m, base = compile_kb(kb, eps)

    assert verify_equivalence(m, kb, eps).max_deviation == 0.0
    expected = []
    for w, f in kb.items:
        if not on_clause_route(f):
            expected.append(len(ref_sdnf_clauses(f)))
            continue
        lits = list(dict.fromkeys(ref_literal(g) for g in ref_leaves(f, fm.Or)))
        tautology = len({v for v, _ in lits}) < len(lits)
        expected.append(1 if tautology else len(lits))
        alone, _ = compile_kb(fm.KnowledgeBase(table, [(w, f)]), eps)
        if tautology:
            assert (alone.n_hidden, alone.e0) == (0, -eps * w)
            continue
        # k literals: k - 1 units, and the literal eliminated last (the
        # head alone, else the body literal of the lowest index) is a bias
        _, last_positive = min(lits[1:]) if len(lits) > 1 else lits[0]
        assert alone.n_hidden == len(lits) - 1
        assert alone.e0 == (0.0 if last_positive else -eps * w)
    assert base.per_formula == expected
    rewritten = fm.KnowledgeBase(table, [(w, as_implication(f) if on_clause_route(f) else f)
                                         for w, f in kb.items])
    assert_same_network(m, ref_fold_literals(ref_compile_kb(rewritten, eps)))


def kb_over(n_visible, items):
    """A knowledge base over x0 .. x(n_visible - 1) holding ``items``."""
    return fm.KnowledgeBase(fm.PropositionTable([f"x{i}" for i in range(n_visible)]), items)


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_compile_penalty_horn_matches_reference(seed):
    """One Horn clause through ``penalty_network``."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, 7))
    variables = rng.permutation(size + 1)
    head, body = int(variables[0]), frozenset(int(v) for v in variables[1:])
    n_visible = size + 1 + int(rng.integers(0, 3))
    eps, c = draw_epsilon(rng), draw_confidence(rng)
    f = implication_formula(body, frozenset(), head, True) if body else fm.Var(head)
    kb = kb_over(n_visible, [(c, f)])
    m, base = penalty_network(kb, eps)
    assert_same_network(m, ref_compile_penalty_horn(body, head, eps, n_visible, c,
                                                    kb.table.names))
    assert base.per_formula == [size + 1]


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_compile_universal_matches_reference(seed):
    """One formula at weight 1 through ``universal_network``."""
    rng = np.random.default_rng(seed)
    f = satisfiable_formula(rng, int(rng.integers(1, 6)))
    n_visible = max(fm.free_vars(f), default=-1) + 1 + int(rng.integers(0, 3))
    lam = draw_lambda(rng)
    m, _ = universal_network(kb_over(n_visible, [(1.0, f)]), lam)
    assert_same_network(m, ref_compile_universal(to_full_dnf(f), lam, n_visible,
                                                 [f"x{i}" for i in range(n_visible)]))


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_baseline_networks_match_per_formula_assembly(seed):
    rng = np.random.default_rng(seed)
    n_vars = int(rng.integers(2, 7))
    eps = draw_epsilon(rng)
    kb = horn_kb(rng, n_vars)
    parts = []
    for w, f in kb.items:
        body_pos, _, head, _ = ref_match_implication(f)
        parts.append(ref_compile_penalty_horn(body_pos, head, eps, n_vars, w))
    assert_same_network(penalty_network(kb, eps)[0],
                        ref_hstack_models(parts, kb.table.names, eps))

    lam = draw_lambda(rng)
    weights = [draw_confidence(rng) for _ in range(int(rng.integers(0, 4)))]
    formulas = [satisfiable_formula(rng, n_vars) for _ in weights]
    parts = []
    for w, f in zip(weights, formulas):
        part = ref_compile_universal(to_full_dnf(f), lam, n_vars)
        part.W *= w
        part.b *= w
        parts.append(part)
    kb = fm.KnowledgeBase(kb.table, list(zip(weights, formulas)))
    assert_same_network(universal_network(kb, lam)[0],
                        ref_hstack_models(parts, kb.table.names, lam))


def reference_model(kb, baseline, epsilon):
    """The network the command line wrote before the shared kernel, with its
    clauses per formula, or None where it refused the KB."""
    n, names = len(kb.table), kb.table.names
    if baseline == "sdnf":
        return (ref_fold_literals(ref_compile_kb(kb, epsilon)),
                [len(ref_sdnf_clauses(f)) for _, f in kb.items])
    parts = []
    for w, f in kb.items:
        if baseline == "penalty":
            imp = ref_match_implication(f)
            if imp is None or imp[1] or not imp[3]:
                return None
            parts.append(ref_compile_penalty_horn(imp[0], imp[2], epsilon, n, w))
        else:
            part = ref_compile_universal(to_full_dnf(f), epsilon, n)
            part.W *= w
            part.b *= w
            parts.append(part)
    return ref_hstack_models(parts, names, epsilon), [p.n_hidden for p in parts]


@pytest.mark.parametrize("baseline", ["sdnf", "penalty", "universal"])
@pytest.mark.parametrize("kb_path", sorted(KB_DIR.glob("*.kb")), ids=lambda p: p.stem)
def test_cli_writes_the_reference_model(kb_path, baseline, tmp_path, capsys):
    kb = fm.load_kb(kb_path)
    expected = reference_model(kb, baseline, 0.5)
    out = tmp_path / "model.json"
    code = main(["compile", str(kb_path), "--baseline", baseline, "-o", str(out)])
    stdout = capsys.readouterr().out
    if expected is None:
        assert code == 2 and not out.exists()
        return
    ref, per_formula = expected
    assert code == 0
    save_model(ref, tmp_path / "ref.json")
    assert out.read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert stdout == f"hidden units: {ref.n_hidden}\nclauses per formula: {per_formula}\n"


def reloaded(m):
    return model_from_dict(json.loads(json.dumps(model_to_dict(m))))


def frozen_trained(rng, m, table):
    """``m`` after a few steps of frozen training on random rows."""
    n = m.n_visible
    rows = (rng.random((int(rng.integers(1, 9)), n)) < 0.5).astype(float)
    targets = tuple(int(t) for t in rng.permutation(n)[:rng.integers(1, min(n, 3) + 1)])
    cfg = TrainConfig(alpha=float(rng.choice([0.0, 0.5])), beta=1.0,
                      lr=float(rng.uniform(0.001, 0.2)), epochs=int(rng.integers(1, 4)),
                      batch_size=int(rng.integers(0, 4)), freeze_structure=True,
                      seed=int(rng.integers(1 << 31)))
    return train(m, Dataset(table, rows, targets), cfg)[0]


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_clause_units_load_back_and_hold_their_clauses(seed):
    """A save and load round trip returns W, a, b and the annotations bit for
    bit.  Moving one literal weight, the bias or a zero entry of a random
    clause unit's column by 2e-9 * max(1, |value|) is refused naming that
    unit; moving it by 5e-10 * max(1, |value|) is accepted."""
    rng = np.random.default_rng(seed)
    n_vars, lam = int(rng.integers(2, 6)), draw_lambda(rng)
    kb = random_kb(rng, n_vars=n_vars)
    compiled = compile_kb(kb, lam)[0]
    sat = fm.KnowledgeBase(kb.table, [(draw_confidence(rng), satisfiable_formula(rng, n_vars))
                                      for _ in range(int(rng.integers(1, 4)))])
    annotated = [compiled, frozen_trained(rng, compiled, kb.table)]
    for m in [*annotated, universal_network(sat, lam)[0],
              penalty_network(horn_kb(rng, n_vars), lam)[0]]:
        back = reloaded(m)
        for name in ("W", "a", "b"):
            assert getattr(back, name).tobytes() == getattr(m, name).tobytes(), name
        assert back.clause_annotations == m.clause_annotations
        assert (back.e0, back.epsilon) == (m.e0, m.epsilon)

    m = annotated[int(rng.integers(2))]
    units = [j for j, ann in enumerate(m.clause_annotations) if ann]
    if not units:
        return
    j = int(rng.choice(units))
    lits = m.clause_annotations[j]["pos"] + m.clause_annotations[j]["neg"]
    rows = lits + [i for i in range(n_vars) if i not in lits]
    pick, sign = int(rng.integers(len(rows) + 1)), float(rng.choice([-1.0, 1.0]))
    for step, ok in ((2e-9, False), (5e-10, True)):
        doc = json.loads(json.dumps(model_to_dict(m)))
        # a literal's weight, a zero entry of the column, or (pick = len(rows)) the bias
        holder = doc["b"] if pick == len(rows) else doc["W"][rows[pick]]
        holder[j] += sign * step * max(1.0, abs(holder[j]))
        if ok:
            model_from_dict(doc)
        else:
            with pytest.raises(ValueError, match=f"hidden unit {j}: weights or bias differ"):
                model_from_dict(doc)
