"""Learn XOR from data with CD-1, then read the rules back out.

Starts from a randomly initialised 3-visible / 4-hidden network, trains
generatively on the four XOR models, and extracts one conjunctive clause
per hidden column by matching it to the nearest scaled sign pattern.  A
successful run recovers the four strict-DNF clauses of XOR.
"""
import numpy as np

from logicrbm import Dataset, Rbm, TrainConfig, extract_clauses, train
from logicrbm.formula import PropositionTable

NAMES = ["x", "y", "z"]
XOR_MODELS = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)


def main():
    data = Dataset(PropositionTable(NAMES), XOR_MODELS)
    rng = np.random.default_rng(22)
    model = Rbm(W=rng.normal(0, 1.5, (3, 4)), a=np.zeros(3), b=np.zeros(4))

    cfg = TrainConfig(alpha=1.0, beta=0.0, lr=0.1, epochs=5000, cd_k=1,
                      batch_size=1, seed=22, trace=True)
    print("training 3x4 network with CD-1 on the four XOR models "
          f"({cfg.epochs} epochs, lr {cfg.lr}) ...")
    trained, trace = train(model, data, cfg)
    print(f"reconstruction error: {trace[0]['reconstruction_error']:.3f} "
          f"-> {trace[-1]['reconstruction_error']:.3f}")

    print("\nlearned weight columns:")
    for j in range(trained.n_hidden):
        col = ", ".join(f"{w:+7.3f}" for w in trained.W[:, j])
        print(f"  unit {j}: [{col}]  bias {trained.b[j]:+7.3f}")

    print("\nextracted clauses (nearest scaled sign pattern per column):")
    for ec in sorted(extract_clauses(trained), key=lambda e: -e.c):
        lits = [NAMES[i] for i in ec.clause.pos]
        lits += ["~" + NAMES[i] for i in ec.clause.neg]
        print(f"  {ec.c:6.3f}: {' & '.join(lits):<14} "
              f"(distance {ec.distance:.3f})")
    print("\ncompare with the strict DNF of (x ^ y) <-> z:")
    print("  ~x & ~y & ~z,  ~x & y & z,  x & ~y & z,  x & y & ~z")


if __name__ == "__main__":
    main()
