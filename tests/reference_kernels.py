"""Straightforward reference versions of the parser, constructions and loops.

These are the original recursive-descent parser, the original
per-construction unit loops, which give every clause a unit, the fold of
single-literal units into the visible biases done column by column, the
model concatenation the command line used for the baselines, the original
full-DNF conversion, the original implication matcher and body-variable
elimination with the formula-to-clause routing built on them, the original
full-column Gibbs and descent loops over every hidden unit (Gibbs samples
only the units wired to a free variable, and leaves the rest at 0), the CD-k
estimator, the per-row discriminative training loop with its zero-buffer
and velocity update and the per-column extraction loop, kept here only as
oracles for the operator-precedence parser in ``logicrbm.formula``, the
shared clause kernel in ``logicrbm.compiler`` and the incremental, batched
and blocked kernels in ``logicrbm.reasoner``, ``logicrbm.trainer`` and
``logicrbm.extractor``.  The search and training loops draw random numbers
in the same order as the library, so for the same seed both must reach the
same answers.  ``ref_brute_force_maxsat`` is exact search on the knowledge
base itself, weighted_sat over every completion, which no network enters:
the independent side of the identity weighted_sat = -E_rank / eps.
``REF_NODES`` rebuilds formulas as plain frozen dataclasses, whose generated
equality, hash and repr are the oracle for the iterative ones on
``Formula``.
"""
from dataclasses import fields, make_dataclass

import numpy as np

from logicrbm import formula as fm
from logicrbm.errors import ParseError, SizeLimitError
from logicrbm.extractor import DEFAULT_PRUNE_FRACTIONS, ExtractedClause
from logicrbm.normal_forms import ConjunctiveClause, all_assignments
from logicrbm.rbm import Rbm, energy_rank, net_hidden, net_visible, _sigmoid
from logicrbm.reasoner import BRUTE_LIMIT, DeterministicConfig, GibbsConfig, InferenceReport
from logicrbm.trainer import Grads

from conftest import evaluate, free_energy


# ---------------------------------------------------------------------------
# Parsing: the original recursive descent
# ---------------------------------------------------------------------------

class _RefParser:
    """Recursive-descent parser.

    Precedence, loosest first:  <-> / <- / ->  <  ^  <  |  <  &  <  ~
    Implication and iff associate to the right.
    """

    def __init__(self, tokens, table, line_no=1):
        self.tokens = tokens
        self.table = table
        self.i = 0
        self.line_no = line_no

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.line_no, None)
        self.i += 1
        return tok

    def parse(self):
        f = self.implication()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
        return f

    def implication(self):
        left = self.xor()
        tok = self.peek()
        if tok and tok[1] in ("<-", "->", "<->"):
            self.take()
            right = self.implication()
            if tok[1] == "<-":
                return fm.Implies(body=right, head=left)
            if tok[1] == "->":
                return fm.Implies(body=left, head=right)
            return fm.Iff(left, right)
        return left

    def xor(self):
        f = self.disjunction()
        while self.peek() and self.peek()[1] == "^":
            self.take()
            f = fm.Xor(f, self.disjunction())
        return f

    def disjunction(self):
        f = self.conjunction()
        while self.peek() and self.peek()[1] == "|":
            self.take()
            f = fm.Or(f, self.conjunction())
        return f

    def conjunction(self):
        f = self.unary()
        while self.peek() and self.peek()[1] == "&":
            self.take()
            f = fm.And(f, self.unary())
        return f

    def unary(self):
        tok = self.take()
        kind, text, ln, col = tok
        if text == "~":
            return fm.Not(self.unary())
        if text == "(":
            f = self.implication()
            close = self.peek()
            if close is None or close[1] != ")":
                raise ParseError("expected ')'", ln, col)
            self.take()
            return f
        if kind == "name":
            return fm.Var(self.table.add(text))
        raise ParseError(f"unexpected token {text!r}", ln, col)


def ref_parse_formula(text, table, line_no=1):
    """``parse_formula`` by recursive descent; nesting past the interpreter's
    recursion limit raises ``RecursionError``."""
    tokens = fm._tokenize(text, line_no)
    if not tokens:
        raise ParseError("empty formula", line_no, 1)
    return _RefParser(tokens, table, line_no).parse()


# Formula nodes as plain frozen dataclasses: their generated, recursive
# equality, hash and repr are the oracle for the iterative ones on ``Formula``.
REF_NODES = {cls: make_dataclass(cls.__name__, [f.name for f in fields(cls)], frozen=True)
             for cls in (fm.Var, fm.Const, fm.Not, fm.And, fm.Or, fm.Implies, fm.Iff, fm.Xor)}


def ref_formula(f):
    """f rebuilt from ``REF_NODES``; recursive, so for shallow formulas."""
    return REF_NODES[type(f)](*(ref_formula(v) if isinstance(v, fm.Formula) else v
                                for v in vars(f).values()))


# ---------------------------------------------------------------------------
# Constructions: one loop per construction, each writing +-c and c(-T+eps)
# ---------------------------------------------------------------------------

def _annotation(clause, c):
    return {"pos": list(clause.pos), "neg": list(clause.neg), "confidence": float(c)}


def _infer_n_visible(clauses, n_visible, extra=()):
    if n_visible is not None:
        return n_visible
    top = -1
    for cl in clauses:
        if cl.variables():
            top = max(top, max(cl.variables()))
    for i in extra:
        top = max(top, i)
    return top + 1


def ref_compile_sdnf(clauses, epsilon=0.5, n_visible=None, confidences=None, names=None):
    n_visible = _infer_n_visible(clauses, n_visible)
    if confidences is None:
        confidences = [1.0] * len(clauses)
    W = np.zeros((n_visible, len(clauses)))
    b = np.zeros(len(clauses))
    annotations = []
    for j, (cl, c) in enumerate(zip(clauses, confidences)):
        W[list(cl.pos), j] = c
        W[list(cl.neg), j] = -c
        b[j] = c * (-len(cl.pos) + epsilon)
        annotations.append(_annotation(cl, c))
    return Rbm(W=W, a=np.zeros(n_visible), b=b, e0=0.0, tau=1.0,
               names=names, epsilon=epsilon, clause_annotations=annotations)


def ref_literal(g):
    """(index, positive) if g is a literal, else None."""
    if isinstance(g, fm.Var):
        return g.index, True
    if isinstance(g, fm.Not) and isinstance(g.operand, fm.Var):
        return g.operand.index, False
    return None


def ref_match_implication(f):
    """(body_pos, body_neg, head, head_positive) if f is ``head <- body`` with
    a literal head and a body of distinct literals, none of them over the
    head's variable or in both polarities; else None."""
    if not isinstance(f, fm.Implies) or ref_literal(f.head) is None:
        return None
    head, head_positive = ref_literal(f.head)
    pos, neg = set(), set()
    for g in ref_leaves(f.body, fm.And):
        lit = ref_literal(g)
        if lit is None:
            return None
        (pos if lit[1] else neg).add(lit[0])
    if pos & neg or head in pos or head in neg:
        return None
    return frozenset(pos), frozenset(neg), head, head_positive


def ref_leaves(f, op):
    """The leaves of an ``op`` tree, left to right."""
    if isinstance(f, op):
        return ref_leaves(f.left, op) + ref_leaves(f.right, op)
    return [f]


def ref_clause_literals(f):
    """The literals of a disjunction of literals, or of ``head <- body`` read
    as ``head | ~body`` (``head`` such a disjunction, ``body`` a conjunction
    of literals), left to right with repeats; else None."""
    head, body = (f.head, f.body) if isinstance(f, fm.Implies) else (f, None)
    lits = [ref_literal(g) for g in ref_leaves(head, fm.Or)]
    if body is not None:
        lits += [None if lit is None else (lit[0], not lit[1])
                 for lit in map(ref_literal, ref_leaves(body, fm.And))]
    return None if None in lits else lits


def ref_implication_to_sdnf(body_pos, body_neg, head, order=None, head_positive=True):
    """Strict DNF of ``head <- body``: the full conjunct, then one clause per
    body variable eliminated in ``order`` (default descending), over the
    body literals not yet eliminated with the eliminated one flipped."""
    body_pos, body_neg = frozenset(body_pos), frozenset(body_neg)
    assert not body_pos & body_neg and head not in body_pos | body_neg
    if order is None:
        order = sorted(body_pos | body_neg, reverse=True)
    assert sorted(order) == sorted(body_pos | body_neg)
    if head_positive:
        clauses = [ConjunctiveClause(tuple(body_pos) + (head,), tuple(body_neg))]
    else:
        clauses = [ConjunctiveClause(tuple(body_pos), tuple(body_neg) + (head,))]
    rem_pos, rem_neg = set(body_pos), set(body_neg)
    for p in order:
        if p in rem_pos:
            rem_pos.remove(p)
            clauses.append(ConjunctiveClause(tuple(rem_pos), tuple(rem_neg) + (p,)))
        else:
            rem_neg.remove(p)
            clauses.append(ConjunctiveClause(tuple(rem_pos) + (p,), tuple(rem_neg)))
    return clauses


def ref_compile_implication(body_pos, body_neg, head, epsilon=0.5, n_visible=None,
                            confidence=1.0, head_positive=True, names=None):
    order = sorted(frozenset(body_pos) | frozenset(body_neg), reverse=True)
    sdnf = ref_implication_to_sdnf(body_pos, body_neg, head, order=order,
                                   head_positive=head_positive)
    n_visible = _infer_n_visible(sdnf, n_visible, extra=(head,))
    eps = epsilon
    c = confidence
    unit_clauses = sdnf if not order else sdnf[:-1]
    W = np.zeros((n_visible, len(unit_clauses)))
    b = np.zeros(len(unit_clauses))
    a = np.zeros(n_visible)
    e0 = 0.0
    annotations = []
    for j, cl in enumerate(unit_clauses):
        W[list(cl.pos), j] = c
        W[list(cl.neg), j] = -c
        b[j] = c * (-len(cl.pos) + eps)
        annotations.append(_annotation(cl, c))
    if order:
        last = sdnf[-1]
        if last.pos:
            a[last.pos[0]] = c * eps
        else:
            a[last.neg[0]] = -c * eps
            e0 = -c * eps
    return Rbm(W=W, a=a, b=b, e0=e0, tau=1.0, names=names,
               epsilon=eps, clause_annotations=annotations)


def ref_to_full_dnf(f, limit=20):
    """The full DNF evaluated on a table as wide as the highest variable."""
    variables = sorted(fm.free_vars(f))
    if len(variables) > limit:
        raise SizeLimitError(
            f"{len(variables)} free variables exceeds the full-DNF limit of {limit}")
    n = (max(variables) + 1) if variables else 0
    grid = all_assignments(len(variables))
    X = np.zeros((len(grid), n))
    for col, v in enumerate(variables):
        X[:, v] = grid[:, col]
    sat = np.array([evaluate(f, row) for row in X], dtype=bool)
    clauses = []
    for row in grid[sat]:
        pos = tuple(v for col, v in enumerate(variables) if row[col] > 0.5)
        neg = tuple(v for col, v in enumerate(variables) if row[col] < 0.5)
        clauses.append(ConjunctiveClause(pos, neg))
    clauses.sort()
    return clauses


def ref_sdnf_clauses(f):
    """Implication clauses for a literal implication.  Any other clause,
    ``l1 | ... | lk`` or ``head <- body`` over a disjunctive head or with
    repeated literals, is read as the implication ``l1 <- ~l2 & ... & ~lk``
    over its distinct literals; one true clause if it holds a literal and its
    negation.  Anything else gets the full DNF, or one true clause if that
    holds every row of the formula's variables."""
    imp = ref_match_implication(f)
    lits = ref_clause_literals(f) if imp is None else None
    if lits is not None:
        lits = list(dict.fromkeys(lits))
        if len({v for v, _ in lits}) < len(lits):
            return [ConjunctiveClause((), ())]
        (head, head_positive), rest = lits[0], lits[1:]
        imp = ({v for v, positive in rest if not positive},
               {v for v, positive in rest if positive}, head, head_positive)
    if imp is None:
        clauses = ref_to_full_dnf(f)
        n_rows = 2 ** len(fm.free_vars(f))
        return [ConjunctiveClause((), ())] if len(clauses) == n_rows else clauses
    return ref_implication_to_sdnf(*imp[:3], head_positive=imp[3])


def ref_compile_kb(kb, epsilon=0.5):
    merged = {}
    for w, f in kb.items:
        for cl in ref_sdnf_clauses(f):
            merged[cl] = merged.get(cl, 0.0) + w
    merged = [(cl, merged[cl]) for cl in sorted(merged)]
    n = len(kb.table)
    units = [(cl, c) for cl, c in merged if not cl.is_true_clause]
    e0 = -epsilon * sum(c for cl, c in merged if cl.is_true_clause)
    W = np.zeros((n, len(units)))
    b = np.zeros(len(units))
    annotations = []
    for j, (cl, c) in enumerate(units):
        W[list(cl.pos), j] = c
        W[list(cl.neg), j] = -c
        b[j] = c * (-len(cl.pos) + epsilon)
        annotations.append(_annotation(cl, c))
    return Rbm(W=W, a=np.zeros(n), b=b, e0=e0, tau=1.0,
               names=list(kb.table.names), epsilon=epsilon,
               clause_annotations=annotations)


def ref_fold_clause(a, e0, pos, neg, c, epsilon):
    """Fold one clause of at most one literal into ``a`` (in place) and
    return the new e0: a true clause adds -c*eps to e0, ``{p}`` adds c*eps to
    a_p and ``{~p}`` adds -c*eps to a_p and to e0."""
    if pos:
        a[pos[0]] += c * epsilon
        return e0
    if neg:
        a[neg[0]] -= c * epsilon
    return e0 - c * epsilon


def ref_literal_biases(clauses, n_visible, epsilon):
    """a and e0 of the ``(clause, c)`` pairs that have fewer than two
    literals, folded in the given order."""
    a, e0 = np.zeros(n_visible), 0.0
    for cl, c in clauses:
        if len(cl.variables()) < 2:
            e0 = ref_fold_clause(a, e0, cl.pos, cl.neg, c, epsilon)
    return a, e0


def ref_fold_literals(m):
    """The network with every single-literal unit folded into the visible
    biases by ``ref_fold_clause``, column by column."""
    keep, a, e0 = [], m.a.copy(), m.e0
    for j, ann in enumerate(m.clause_annotations):
        if len(ann["pos"] + ann["neg"]) != 1:
            keep.append(j)
        else:
            e0 = ref_fold_clause(a, e0, ann["pos"], ann["neg"], ann["confidence"], m.epsilon)
    return Rbm(W=m.W[:, keep], a=a, b=m.b[keep], e0=e0, tau=m.tau, names=m.names,
               epsilon=m.epsilon, clause_annotations=[m.clause_annotations[j] for j in keep])


def ref_compile_penalty_horn(body_pos, head, epsilon=0.5, n_visible=None,
                             confidence=1.0, names=None):
    body_pos = frozenset(body_pos)
    sdnf = ref_implication_to_sdnf(body_pos, (), head, order=sorted(body_pos, reverse=True))
    n_visible = _infer_n_visible(sdnf, n_visible, extra=(head,))
    W = np.zeros((n_visible, len(sdnf)))
    b = np.zeros(len(sdnf))
    for j, cl in enumerate(sdnf):
        W[list(cl.pos), j] = 2.0 * confidence
        W[list(cl.neg), j] = -2.0 * confidence
        b[j] = 2.0 * confidence * (-len(cl.pos) + epsilon)
    return Rbm(W=W, a=np.zeros(n_visible), b=b, e0=1.0 * confidence, tau=1.0,
               names=names, epsilon=epsilon)


def ref_compile_universal(clauses, lam=0.5, n_visible=None, names=None):
    n_visible = _infer_n_visible(clauses, n_visible)
    W = np.zeros((n_visible, len(clauses)))
    b = np.zeros(len(clauses))
    for j, cl in enumerate(clauses):
        W[list(cl.pos), j] = 0.5
        W[list(cl.neg), j] = -0.5
        b[j] = -0.5 * len(cl.pos) + lam
    return Rbm(W=W, a=np.zeros(n_visible), b=b, e0=0.0, tau=1.0,
               names=names, epsilon=lam)


def ref_hstack_models(parts, names, epsilon):
    """The command line's baseline assembly: one network per formula, side by side."""
    n = len(names)
    W = np.hstack([p.W for p in parts]) if parts else np.zeros((n, 0))
    b = np.concatenate([p.b for p in parts]) if parts else np.zeros(0)
    a = sum((p.a for p in parts), np.zeros(n))
    e0 = sum(p.e0 for p in parts)
    return Rbm(W=W, a=a, b=b, e0=float(e0), tau=1.0, names=list(names),
               epsilon=epsilon)


# ---------------------------------------------------------------------------
# Search and training loops
# ---------------------------------------------------------------------------

def _report_from_state(m, x, steps, restarts, trace):
    er = energy_rank(m, x)
    ws = None if m.epsilon is None else -er / m.epsilon
    return InferenceReport(
        assignment={i: bool(v > 0.5) for i, v in enumerate(x)},
        energy_rank=er, weighted_sat=ws,
        steps=steps, restarts=restarts, energy_trace=trace)


def _init_states(m, evidence, restarts, rng):
    X = (rng.random((restarts, m.n_visible)) < 0.5).astype(float)
    for i, v in evidence.values.items():
        X[:, i] = float(v)
    return X


def _best(X, energies):
    order = np.lexsort(tuple(X[:, c] for c in range(X.shape[1] - 1, -1, -1)))
    ordered = order[np.argsort(energies[order], kind="stable")]
    k = ordered[0]
    return X[k].copy(), float(energies[k])


def _ref_descend(m, x, free, rounds=None):
    """Steepest single-flip descent of the full row ``x`` over its ``free``
    columns, in place: each round scores every flip by ``energy_rank`` of
    the flipped row and, if the lowest change is below -1e-12, takes the
    lowest index whose change is below -1e-12 and within 1e-12 of it.  At
    most ``rounds`` flips (None: until none lowers the energy)."""
    e, done = float(energy_rank(m, x)), 0
    while free and (rounds is None or done < rounds):
        flipped = np.repeat(x[None, :], len(free), axis=0)
        flipped[np.arange(len(free)), free] = 1.0 - x[free]
        delta = energy_rank(m, flipped) - e
        low = delta.min()
        if not low < -1e-12:
            break
        i = free[int(np.argmax((delta <= low + 1e-12) & (delta < -1e-12)))]
        x[i] = 1.0 - x[i]
        e, done = float(energy_rank(m, x)), done + 1
    return x


def _replaces(cand_x, cand_e, best_x, best_e):
    """The running-best rule: more than 1e-12 lower, or within 1e-12 and smaller."""
    return best_x is None or cand_e < best_e - 1e-12 or (
        abs(cand_e - best_e) <= 1e-12 and tuple(cand_x) < tuple(best_x))


def ref_infer_gibbs(m, q, config=None):
    config = config or GibbsConfig()
    rng = np.random.default_rng(config.seed)
    evidence = q.evidence
    free = [i for i in range(m.n_visible) if i not in evidence.values]
    # hidden units with a nonzero weight on some free variable; the others
    # cannot reach a free visible and draw no uniforms
    wired = [j for j in range(m.n_hidden) if any(m.W[i, j] != 0 for i in free)]
    scale = np.abs(m.W).max() if (m.W != 0).any() else 1.0
    X = _init_states(m, evidence, config.restarts, rng)
    best_x, best_e = _best(X, energy_rank(m, X))
    trace = [best_e]
    taus = scale * np.geomspace(1.0, 0.05, max(config.steps, 1))
    for step in range(config.steps):
        tau = taus[step]
        ph = _sigmoid(net_hidden(m, X) / tau)
        H = np.zeros(ph.shape)
        H[:, wired] = rng.random((config.restarts, len(wired))) < ph[:, wired]
        if free:
            pv = _sigmoid(net_visible(m, H)[:, free] / tau)
            X[:, free] = (rng.random(pv.shape) < pv).astype(float)
        cand_x, cand_e = _best(X, energy_rank(m, X))
        if _replaces(cand_x, cand_e, best_x, best_e):
            best_x, best_e = cand_x, cand_e
        trace.append(best_e)
    return _descend_all(m, X, best_x, best_e, free, None, trace, config.steps,
                        config.restarts)


def _descend_all(m, X, best_x, best_e, free, rounds, trace, steps, restarts):
    """Every chain's last state and the best state, each descended to a
    single-flip local minimum (at most ``rounds`` flips); the answer is the
    best of those and the incumbent, whose energy ends the trace."""
    ends = np.array([_ref_descend(m, x.copy(), free, rounds) for x in [*X, best_x]])
    cand_x, cand_e = _best(ends, energy_rank(m, ends))
    if _replaces(cand_x, cand_e, best_x, best_e):
        best_x, best_e = cand_x, cand_e
    return _report_from_state(m, best_x, steps, restarts, [*trace, best_e])


def ref_infer_deterministic(m, q, config=None):
    """GSAT-style descent from random starts: Gibbs search without its anneal."""
    config = config or DeterministicConfig()
    rng = np.random.default_rng(config.seed)
    free = [i for i in range(m.n_visible) if i not in q.evidence.values]
    X = _init_states(m, q.evidence, config.restarts, rng)
    best_x, best_e = _best(X, energy_rank(m, X))
    return _descend_all(m, X, best_x, best_e, free, config.sweeps, [best_e], config.sweeps,
                        config.restarts)


def _completions(evidence):
    """Every completion of the evidence as full rows, in counting order of
    the free variables, which is also the lexicographic order of the rows."""
    free = evidence.unassigned()
    X = np.zeros((2 ** len(free), evidence.n))
    for i, v in evidence.values.items():
        X[:, i] = float(v)
    X[:, list(free)] = all_assignments(len(free))
    return X


def ref_infer_exact(m, evidence):
    """Every completion at once, scored over every hidden unit; ties go to
    the first completion in counting order, the smallest state."""
    X = _completions(evidence)
    E = energy_rank(m, X)
    k = int(np.argmin(E))
    return _report_from_state(m, X[k], len(X), 1, [])


def ref_brute_force_maxsat(kb, evidence):
    """The best weighted_sat over every completion of the evidence, and the
    completions within 1e-9 of it, sorted."""
    if len(evidence.unassigned()) > BRUTE_LIMIT:
        raise SizeLimitError(
            f"{len(evidence.unassigned())} unassigned variables exceeds limit {BRUTE_LIMIT}")
    X = _completions(evidence)
    scores = fm.weighted_sat_batch(kb, X)
    best = float(scores.max())
    near = np.isclose(scores, best, rtol=0, atol=1e-9)
    return sorted(tuple(int(v) for v in row) for row in X[near]), best


def _target_grid(x, targets):
    grid = all_assignments(len(targets))
    X = np.tile(np.asarray(x, dtype=float), (len(grid), 1))
    for col, t in enumerate(targets):
        X[:, t] = grid[:, col]
    return X


def ref_conditional_nll(m, x, y_true, targets):
    targets = tuple(targets)
    X = _target_grid(x, targets)
    logp = -free_energy(m, X) / m.tau
    logp -= np.logaddexp.reduce(logp)
    true = int("".join(str(int(v)) for v in y_true), 2) if targets else 0
    return float(-logp[true])


def ref_discriminative_gradient(m, x, y_true, targets):
    targets = tuple(targets)
    X = _target_grid(x, targets)
    logp = -free_energy(m, X) / m.tau
    logp -= np.logaddexp.reduce(logp)
    p = np.exp(logp)
    true = int("".join(str(int(v)) for v in y_true), 2) if targets else 0
    coeff = -p
    coeff[true] += 1.0
    sig = _sigmoid(net_hidden(m, X) / m.tau)
    gW = -(X.T * coeff) @ sig / m.tau
    ga = -(coeff @ X) / m.tau
    gb = -(coeff @ sig) / m.tau
    return Grads(gW, ga, gb)


def ref_cd_gradient(m, x_batch, cd_k, rng):
    X0 = np.atleast_2d(np.asarray(x_batch, dtype=float))
    B = len(X0)
    ph0 = _sigmoid(net_hidden(m, X0) / m.tau)
    Xk = X0
    for _ in range(cd_k):
        ph = _sigmoid(net_hidden(m, Xk) / m.tau)
        H = (rng.random(ph.shape) < ph).astype(float)
        pv = _sigmoid(net_visible(m, H) / m.tau)
        Xk = (rng.random(pv.shape) < pv).astype(float)
    phk = _sigmoid(net_hidden(m, Xk) / m.tau)
    gW = -(X0.T @ ph0 - Xk.T @ phk) / B
    ga = -(X0 - Xk).mean(axis=0)
    gb = -(ph0 - phk).mean(axis=0)
    return Grads(gW, ga, gb)


def _zeros(m):
    return Grads(np.zeros_like(m.W), np.zeros_like(m.a), np.zeros_like(m.b))


def _scaled_add(g, other, scale):
    g.W += scale * other.W
    g.a += scale * other.a
    g.b += scale * other.b


def _clause_patterns(m):
    out = []
    for j, ann in enumerate(m.clause_annotations):
        if not ann:
            continue
        s = np.zeros(m.n_visible)
        s[ann["pos"]] = 1.0
        s[ann["neg"]] = -1.0
        out.append((j, s, -len(set(ann["pos"])) + m.epsilon))
    return out


def ref_train(m, d, cfg):
    out = m.copy()
    rng = np.random.default_rng(cfg.seed)
    targets = d.target_indices
    patterns = _clause_patterns(out) if cfg.freeze_structure else []
    conf = {j: float(out.clause_annotations[j]["confidence"]) for j, _, _ in patterns}
    vel = _zeros(out)
    trace = []
    N = len(d.rows)
    batch = N if cfg.batch_size in (0, None) else cfg.batch_size
    for epoch in range(cfg.epochs):
        perm = rng.permutation(N) if batch < N else np.arange(N)
        for start in range(0, N, max(batch, 1)):
            rows = d.rows[perm[start:start + batch]]
            if len(rows) == 0:
                continue
            g = _zeros(out)
            if cfg.alpha > 0:
                _scaled_add(g, ref_cd_gradient(out, rows, cfg.cd_k, rng), cfg.alpha)
            if cfg.beta > 0:
                for row in rows:
                    dg = ref_discriminative_gradient(out, row, row[list(targets)], targets)
                    _scaled_add(g, dg, cfg.beta / len(rows))
            if cfg.freeze_structure:
                for j, s, bias_pat in patterns:
                    dc = float(s @ g.W[:, j] + bias_pat * g.b[j])
                    conf[j] = max(conf[j] - cfg.lr * dc, 0.0)
                    g.W[:, j] = 0.0
                    g.b[j] = 0.0
                g.a[:] = 0.0
            vel.W = 0.0 * vel.W - cfg.lr * g.W
            vel.a = 0.0 * vel.a - cfg.lr * g.a
            vel.b = 0.0 * vel.b - cfg.lr * g.b
            out.W += vel.W
            out.a += vel.a
            out.b += vel.b
            for j, s, bias_pat in patterns:
                out.W[:, j] = conf[j] * s
                out.b[j] = conf[j] * bias_pat
            for j, s, _ in patterns:
                out.clause_annotations[j]["confidence"] = conf[j]
        entry = {"epoch": epoch}
        if cfg.beta > 0:
            entry["nll"] = float(np.mean([
                ref_conditional_nll(out, row, row[list(targets)], targets)
                for row in d.rows])) if N else 0.0
        ph = _sigmoid(net_hidden(out, d.rows) / out.tau)
        pv = _sigmoid(net_visible(out, ph) / out.tau)
        entry["reconstruction_error"] = float(np.mean((d.rows - pv) ** 2)) if N else 0.0
        trace.append(entry)
    return out, trace


# ---------------------------------------------------------------------------
# Extraction: one column and one prune fraction at a time
# ---------------------------------------------------------------------------

def ref_candidates(column, prune_fractions=DEFAULT_PRUNE_FRACTIONS):
    """(sign pattern, scale) for each prune fraction of one column."""
    top = np.abs(column).max()
    if top == 0.0:
        yield np.zeros_like(column), 0.0
        return
    for f in prune_fractions:
        keep = np.abs(column) >= f * top
        if not keep.any():
            continue
        s = np.sign(column) * keep
        c = float(np.abs(column[keep]).mean())
        yield s, c


def ref_extract_clauses(m):
    out = []
    for j in range(m.n_hidden):
        column = m.W[:, j]
        best = None
        for s, c in ref_candidates(column):
            dist = float(np.linalg.norm(column - c * s))
            if best is None or dist < best[0] - 1e-15:
                best = (dist, s, c)
        dist, s, c = best
        clause = ConjunctiveClause(
            tuple(np.flatnonzero(s > 0).tolist()),
            tuple(np.flatnonzero(s < 0).tolist()))
        out.append(ExtractedClause(clause=clause, c=c, hidden_index=j,
                                   distance=dist, empty=not clause.variables()))
    return out
