"""Command-line surface: compile, reason, train, extract, verify, ingest.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource limit exceeded.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from .errors import ParseError, SizeLimitError
from . import formula as fm
from .compiler import attach_hidden_units, compile_kb, penalty_network, universal_network
from .rbm import load_model, save_model
from .reasoner import (
    GibbsConfig, DeterministicConfig, Query,
    infer_conditional, infer_deterministic, infer_exact, infer_gibbs,
    verify_equivalence,
)
from .trainer import (
    Dataset, OneHotSpec, TrainConfig, dataset_from_kb, epoch_losses,
    ingest_categorical, read_csv, train,
)
from .extractor import extract_clauses, format_listing, listing_to_json, score_reliability


def _load_kb_over(path, m) -> fm.KnowledgeBase:
    """The KB at ``path`` over the model's propositions, in the model's order."""
    names = m.names
    with open(path, encoding="utf-8") as fh:
        kb = fm.parse_kb(fh.read(), fm.PropositionTable(names))
    if len(kb.table) > len(names):
        raise ValueError(f"the knowledge base mentions {kb.table.names[len(names)]!r}, "
                         "which the model does not have")
    return kb


def _dataset_over(path, m, targets) -> Dataset:
    """The 0/1 CSV at ``path``, whose columns must be the model's propositions."""
    d = Dataset.from_csv(path, targets=targets)
    if d.table.names != m.names:
        raise ValueError("dataset columns do not match the model")
    return d


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

def cmd_compile(args) -> int:
    kb = fm.load_kb(args.kb_file)
    construct = {"sdnf": compile_kb, "penalty": penalty_network,
                 "universal": universal_network}[args.baseline]
    m, base = construct(kb, args.epsilon)
    if args.extra_hidden:
        rng = np.random.default_rng(args.seed)
        m = attach_hidden_units(m, args.extra_hidden, args.init_scale, rng)
    save_model(m, args.output)
    print(f"hidden units: {m.n_hidden}")
    print(f"clauses per formula: {base.per_formula}")
    return 0


# ---------------------------------------------------------------------------
# reason
# ---------------------------------------------------------------------------

def _evidence_from_doc(doc, index) -> fm.Assignment:
    evidence = doc.get("evidence", {})
    if not isinstance(evidence, dict):
        raise ValueError(f"query evidence must be an object of name: value, not {evidence!r}")
    values = {}
    for nm, val in evidence.items():
        if nm not in index:
            raise ValueError(f"unknown proposition {nm!r} in evidence")
        if val not in (0, 1):
            raise ValueError(f"evidence for {nm!r} must be true, false, 0 or 1, not {val!r}")
        values[index[nm]] = bool(val)
    return fm.Assignment(values, len(index))


def _query_int(doc, key) -> int:
    """An integer field of a query file; an integral float such as 2.0 passes."""
    val = doc[key]
    if isinstance(val, bool) or not (
            isinstance(val, int) or isinstance(val, float) and val.is_integer()):
        raise ValueError(f"query field {key!r} must be an integer, not {val!r}")
    return int(val)


def cmd_reason(args) -> int:
    m = load_model(args.model_file)
    with open(args.query_file, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a query file must hold one JSON object")
    names = m.names
    index = {nm: i for i, nm in enumerate(names)}
    evidence = _evidence_from_doc(doc, index)
    targets = doc.get("targets", [])
    if not isinstance(targets, list) or not all(
            isinstance(t, str) and t in index for t in targets):
        raise ValueError(f"query targets must be a list of proposition names, not {targets!r}")
    targets = tuple(index[t] for t in targets)
    mode = doc.get("mode", "gibbs")
    # only the search fields the query sets; the configs hold the defaults
    search = {key: _query_int(doc, key) for key in ("steps", "restarts", "seed") if key in doc}

    if mode == "conditional":
        rep = infer_conditional(m, evidence, targets)
        print(json.dumps({
            "mode": mode,
            "marginals": {names[t]: rep.marginals[t] for t in targets},
            "decision": {names[t]: bool(rep.decision[t]) for t in targets},
            "map_config": {names[t]: bool(v)
                           for t, v in zip(targets, rep.map_config)},
        }, indent=1))
        return 0
    if mode == "exact":
        rep = infer_exact(m, evidence)
    elif mode == "deterministic":
        if "steps" in search:
            search["sweeps"] = search.pop("steps")
        rep = infer_deterministic(m, Query(evidence), DeterministicConfig(**search))
    elif mode == "gibbs":
        rep = infer_gibbs(m, Query(evidence), GibbsConfig(**search))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = {
        "mode": mode,
        "assignment": {names[i]: bool(v) for i, v in rep.assignment.items()},
        "energy_rank": rep.energy_rank,
        "weighted_sat": rep.weighted_sat,
    }
    if mode != "exact":
        out.update(steps=rep.steps, restarts=rep.restarts)
    print(json.dumps(out, indent=1))
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    m = load_model(args.model_file)
    if args.from_clauses:
        d = dataset_from_kb(_load_kb_over(args.from_clauses, m), targets=args.targets)
    elif args.data:
        d = _dataset_over(args.data, m, args.targets)
    else:
        raise ValueError("need a data CSV or --from-clauses")
    cfg = TrainConfig(alpha=args.alpha, beta=args.beta, lr=args.lr,
                      epochs=args.epochs, batch_size=args.batch_size,
                      cd_k=args.cd_k, seed=args.seed,
                      freeze_structure=args.freeze_structure,
                      trace=args.loss_log is not None)
    trained, trace = train(m, d, cfg)
    save_model(trained, args.output)
    if args.loss_log:
        with open(args.loss_log, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "nll", "reconstruction_error"])
            for entry in trace:
                writer.writerow([entry["epoch"], entry.get("nll", ""),
                                 entry["reconstruction_error"]])
    if cfg.epochs:
        last = epoch_losses(trained, d, cfg.beta > 0)
        print(f"epochs: {cfg.epochs}  final recon err: "
              f"{last['reconstruction_error']:.6f}"
              + (f"  final nll: {last['nll']:.6f}" if "nll" in last else ""))
    return 0


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def cmd_extract(args) -> int:
    if args.targets and not args.data:
        raise ValueError("--targets needs a data CSV to score reliability against")
    m = load_model(args.model_file)
    extracted = extract_clauses(m)
    if args.data:
        if not args.targets:
            raise ValueError("reliability scoring needs --targets (the class columns)")
        d = _dataset_over(args.data, m, args.targets)
        score_reliability(extracted, d, d.target_indices)
    print(format_listing(extracted, m.names))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(listing_to_json(extracted, m.names))
            fh.write("\n")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    m = load_model(args.model_file)
    kb = _load_kb_over(args.kb_file, m)
    report = verify_equivalence(m, kb, m.epsilon)
    names = kb.table.names
    out = {
        "max_deviation": report.max_deviation,
        "witness": {names[i]: v for i, v in report.witness.items()},
        "n_assignments": report.n_assignments,
        "ok": report.ok(),
    }
    print(json.dumps(out, indent=1))
    return 0 if report.ok() else 1


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    header, rows = read_csv(args.csv)
    spec = OneHotSpec.from_json(args.spec) if args.spec else OneHotSpec.infer(header, rows)
    d = ingest_categorical(rows, header, spec)
    d.to_csv(args.output)
    print(f"wrote {len(d.rows)} rows x {len(d.table)} propositions")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _name_list(text: str) -> list[str]:
    """A comma-separated list of proposition names; empty items are dropped."""
    return [t for t in text.split(",") if t]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="logicrbm")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a KB file to a model file")
    p.add_argument("kb_file")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--baseline", choices=("sdnf", "penalty", "universal"),
                   default="sdnf")
    p.add_argument("--extra-hidden", type=int, default=0)
    p.add_argument("--init-scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("reason", help="answer a JSON query against a model")
    p.add_argument("model_file")
    p.add_argument("query_file")
    p.set_defaults(func=cmd_reason)

    p = sub.add_parser("train", help="tune a model on 0/1 CSV data")
    p.add_argument("model_file")
    p.add_argument("data", nargs="?", default=None)
    p.add_argument("--from-clauses", default=None,
                   help="materialise one preferred model per clause of this KB")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=0)
    p.add_argument("--cd-k", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--freeze-structure", action="store_true")
    p.add_argument("--targets", type=_name_list, default=[])
    p.add_argument("--loss-log", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="read conjunctive clauses out of a model")
    p.add_argument("model_file")
    p.add_argument("data", nargs="?", default=None)
    p.add_argument("--targets", type=_name_list, default=[],
                   help="the class columns to score reliability against")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("verify", help="check model/KB equivalence by enumeration")
    p.add_argument("model_file")
    p.add_argument("kb_file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ingest", help="one-hot encode a categorical CSV")
    p.add_argument("csv")
    p.add_argument("--spec", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
