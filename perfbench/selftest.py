"""Fast self-test of the benchmark's checks.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/selftest.py

Each check first gets a correct output of the program on a small KB and
must pass it; then it gets the same output with one deliberate fault (a
broken evidence clamp, a perturbed weight, a swapped clause, a moved frozen
unit, a wrong reported value) and must count one failed operation.
"""
from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

import logicrbm as L
import oracle as orc
from oracle import Checker, Params, lit

ITEMS = [
    (1.0, ("iff", ("xor", [lit("x"), lit("y")]), lit("z"))),
    (3.0, ("imp", ("and", [lit("x"), lit("w", False)]), lit("v"))),
    (2.0, ("or", [lit("v", False), lit("w"), lit("y", False)])),
]


def main() -> int:
    kb = L.parse_kb(orc.render_kb(ITEMS))
    m, _ = L.compile_kb(kb)
    p = Params.from_model(m)
    index = p.index()
    n = len(index)
    evidence = {index["x"]: 1.0, index["w"]: 0.0}
    query = L.Query(L.Assignment({i: bool(v) for i, v in evidence.items()}, n))
    rep = L.infer_deterministic(m, query)
    x = rep.vector(n)
    best = orc.optimum(ITEMS, evidence, index)
    grid = orc.grid(n)
    data = L.Dataset(kb.table, grid[:8], (index["v"],))
    trained, _ = L.train(m, data, L.TrainConfig(epochs=5, lr=0.05, freeze_structure=True))
    tp = Params.from_model(trained)
    extracted = [(e.hidden_index, e.clause.pos, e.clause.neg, e.c)
                 for e in L.extract_clauses(trained)]

    flipped = x.copy()
    flipped[index["x"]] = 1.0 - flipped[index["x"]]
    perturbed = replace(p, W=p.W.copy())
    perturbed.W[index["y"], 0] += 0.25
    moved = replace(tp, W=tp.W.copy())
    moved.W[index["z"], 1] *= 1.5
    swapped = list(extracted)
    swapped[0], swapped[1] = ((swapped[0][0],) + swapped[1][1:],
                              (swapped[1][0],) + swapped[0][1:])

    cases = [
        # (name, check, must pass?)
        ("answer as given", lambda: orc.check_answer(p, ITEMS, x, rep.weighted_sat,
                                                     evidence, best), True),
        ("broken evidence clamp", lambda: orc.check_answer(
            p, ITEMS, flipped, -orc.energy_rank(p, flipped)[0] / p.eps, evidence, best),
         False),
        ("wrong reported weighted_sat", lambda: orc.check_answer(
            p, ITEMS, x, rep.weighted_sat + 1.0, evidence, best), False),
        ("answer above the optimum", lambda: orc.check_answer(
            p, ITEMS, x, rep.weighted_sat, evidence, rep.weighted_sat - 1.0), False),
        ("identity as compiled", lambda: orc.check_identity(
            p, ITEMS, grid, L.formula.weighted_sat_batch(kb, grid), L.energy_rank(m, grid)), True),
        ("perturbed weight", lambda: orc.check_identity(perturbed, ITEMS, grid), False),
        ("program energy disagrees", lambda: orc.check_identity(
            p, ITEMS, grid, None, L.energy_rank(m, grid) + 1e-3), False),
        ("frozen training as trained", lambda: orc.check_frozen(p, tp), True),
        ("frozen unit moved", lambda: orc.check_frozen(p, moved), False),
        ("extraction as extracted", lambda: orc.check_extraction(tp, extracted), True),
        ("swapped clause", lambda: orc.check_extraction(tp, swapped), False),
    ]
    ok = True
    for name, check, should_pass in cases:
        checker = Checker()
        checker.op(name, check())
        counted = checker.failed == (0 if should_pass else 1) and checker.attempted == 1
        ok &= counted
        print(f"{'ok ' if counted else 'BAD'} {name}: failed {checker.failed} of "
              f"{checker.attempted}" + (f" ({checker.problems[0]})" if checker.problems else ""))
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
