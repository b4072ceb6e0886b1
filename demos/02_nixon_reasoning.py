"""Reason over the Nixon-diamond network: conflicting soft rules.

The knowledge base gives strong weight to "Nixon is a republican and a
quaker" and weak, contradictory weights to "republicans are not pacifists"
and "quakers are pacifists".  Clamping n = 1 and minimising energy is the
same problem as weighted MaxSAT: one of the two weak rules must break, so
the optimum scores 2010 out of 2020 and the pacifist variable is a tie.

The demo lists both tied maximisers by scoring every completion of the
evidence with weighted_sat, then shows that annealed Gibbs search and
zero-temperature descent on the network each reach one of them, and prints
the exact conditional marginals.
"""
from pathlib import Path

import numpy as np

from logicrbm import (
    Assignment, compile_kb, infer_deterministic, infer_gibbs, load_kb,
)
from logicrbm.formula import weighted_sat_batch
from logicrbm.normal_forms import all_assignments
from logicrbm.reasoner import GibbsConfig, Query, infer_conditional

KB = Path(__file__).resolve().parent.parent / "kb" / "nixon.kb"


def show(names, assignment):
    return ", ".join(f"{names[i]}={int(v)}" for i, v in sorted(assignment.items()))


def main():
    kb = load_kb(KB)
    names = kb.table.names
    model, _ = compile_kb(kb)
    print(f"compiled Nixon diamond: {model.n_hidden} hidden units")

    evidence = Assignment({kb.table.index["n"]: True}, len(names))

    # every completion of n = 1, in counting order of the other variables
    free = list(evidence.unassigned())
    X = np.zeros((2 ** len(free), len(names)))
    X[:, kb.table.index["n"]] = 1.0
    X[:, free] = all_assignments(len(free))
    scores = weighted_sat_batch(kb, X)
    best = scores.max()
    print(f"\nexhaustive weighted MaxSAT given n=1: best score {best:g}")
    for w in X[np.isclose(scores, best, rtol=0, atol=1e-9)]:
        print(f"  maximizer: {', '.join(f'{nm}={int(v)}' for nm, v in zip(names, w))}")

    report = infer_gibbs(model, Query(evidence=evidence),
                         GibbsConfig(steps=200, restarts=10, seed=0))
    print(f"\nannealed Gibbs search: {show(names, report.assignment)}")
    print(f"  energy_rank = {report.energy_rank:g}, "
          f"weighted_sat = {report.weighted_sat:g} (matches the oracle: "
          f"{abs(report.weighted_sat - best) < 1e-9})")

    report = infer_deterministic(model, Query(evidence=evidence))
    print(f"\nzero-temperature descent: {show(names, report.assignment)}  "
          f"(weighted_sat {report.weighted_sat:g})")

    targets = tuple(kb.table.index[nm] for nm in ("r", "q", "p"))
    cond = infer_conditional(model, evidence, targets)
    print("\nexact conditional marginals given n=1 (tau = 1):")
    for t in targets:
        print(f"  p({names[t]}=1 | n=1) = {cond.marginals[t]:.4f}")
    print("the pacifist marginal sits near 0.5: the two weak rules conflict.")


if __name__ == "__main__":
    main()
