"""Categorical data to rules: ingest, compile, tune, extract, score.

A miniature end-to-end pipeline in the style of attribute-value
classification tasks: one-hot encode a categorical table (attribute ``a``
with value ``v`` becomes the proposition ``a_v``), take the class
attribute's columns as training targets, compile a prior rule alongside
free hidden units, tune confidences discriminatively, then extract clauses
and score each against the data with its reliability ratio
(satisfy/violate counts).
"""
import numpy as np

from logicrbm import (
    Dataset, OneHotSpec, TrainConfig, attach_hidden_units, compile_kb,
    extract_clauses, ingest_categorical, score_reliability, train,
)
from logicrbm.extractor import format_listing
from logicrbm.formula import parse_kb

ROWS = [
    ["low", "small", "unacc"], ["low", "big", "unacc"],
    ["low", "small", "unacc"], ["med", "big", "acc"],
    ["high", "big", "acc"], ["high", "small", "acc"],
    ["med", "small", "unacc"], ["high", "big", "acc"],
]
HEADER = ["safety", "boot", "cls"]


def main():
    spec = OneHotSpec.infer(HEADER, ROWS)
    onehot = ingest_categorical(ROWS, HEADER, spec)
    classes = [onehot.table.index[f"cls_{v}"] for v in dict(spec.attributes)["cls"]]
    data = Dataset(onehot.table, onehot.rows, classes)
    print(f"one-hot dataset: {len(data.rows)} rows x "
          f"{len(data.table)} propositions, targets {data.target_indices}")

    # prior knowledge: low safety is unacceptable
    kb = parse_kb("2.0: cls_unacc <- safety_low\n", table=data.table)
    model, _ = compile_kb(kb)
    model = attach_hidden_units(model, 3, 0.05, np.random.default_rng(0))
    print(f"compiled prior rule + 3 free hidden units "
          f"-> {model.n_hidden} hidden units")

    cfg = TrainConfig(alpha=0.0, beta=1.0, lr=0.05, epochs=200, seed=0,
                      freeze_structure=True, trace=True)
    tuned, trace = train(model, data, cfg)
    print(f"discriminative NLL: {trace[0]['nll']:.3f} -> {trace[-1]['nll']:.3f}")

    extracted = extract_clauses(tuned)
    score_reliability(extracted, data, classes)
    print("\nextracted clauses (reliability = satisfy/violate on the data):")
    print(format_listing(extracted, data.table.names))


if __name__ == "__main__":
    main()
