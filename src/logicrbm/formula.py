"""Proposition universe, formula ASTs, parsing, and truth evaluation.

The knowledge-base text format is line oriented:

    [<weight> :] <formula>      # comment

with connectives ``~`` (not), ``&`` (and), ``|`` (or), ``^`` (xor),
``<-`` / ``->`` (implication) and ``<->`` (iff).  Implications are stored
head-first: ``r <- n`` and ``n -> r`` both parse to the same AST.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError


class PropositionTable:
    """Ordered registry of proposition names.

    The order of first appearance fixes the visible-unit order of every
    network compiled downstream, so it must be deterministic.
    """

    def __init__(self, names=()):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        if not name:
            raise ValueError("proposition name must be non-empty")
        if name in self.index:
            return self.index[name]
        self.index[name] = len(self.names)
        self.names.append(name)
        return self.index[name]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name) -> bool:
        return name in self.index

    def __repr__(self):
        return f"PropositionTable({self.names!r})"


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------

class Formula:
    """A formula node.  Equality, hashing and printing walk the nodes with
    explicit stacks, so they work at any depth; they agree with what frozen
    dataclasses would generate, except that hash values differ."""

    def _key(self) -> tuple:
        # the post-order of node types and leaf values fixes the tree
        return tuple((type(g), *vars(g).values()) if isinstance(g, (Var, Const)) else type(g)
                     for g in _postorder(self))

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        texts = []                    # a value stack over the post-order
        for g in _postorder(self):
            fields = vars(g)
            if isinstance(g, (Var, Const)):
                values = [repr(v) for v in fields.values()]
            else:
                values = texts[len(texts) - len(fields):]
                del texts[len(texts) - len(fields):]
            args = ", ".join(f"{name}={v}" for name, v in zip(fields, values))
            texts.append(f"{type(g).__name__}({args})")
        return texts[0]


@dataclass(frozen=True, eq=False, repr=False)
class Var(Formula):
    index: int


@dataclass(frozen=True, eq=False, repr=False)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Implies(Formula):
    """Implication, stored as head <- body."""
    body: Formula
    head: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Xor(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, repr=False)
class Const(Formula):
    value: bool


TRUE = Const(True)
FALSE = Const(False)


def _postorder(f: Formula) -> list[Formula]:
    """The nodes of f, each after its operands and left before right.

    Built without recursion, so any depth works: the pre-order that visits
    right before left, taken with an explicit stack, reversed.  A node that
    is not a formula raises ``TypeError``.
    """
    order, stack = [], [f]
    while stack:
        g = stack.pop()
        order.append(g)
        if isinstance(g, Not):
            stack.append(g.operand)
        elif isinstance(g, Implies):
            stack += [g.body, g.head]
        elif isinstance(g, (And, Or, Iff, Xor)):
            stack += [g.left, g.right]
        elif not isinstance(g, (Var, Const)):
            raise TypeError(f"not a formula node: {g!r}")
    order.reverse()
    return order


def free_vars(f: Formula) -> frozenset[int]:
    """The variables of f."""
    return frozenset(g.index for g in _postorder(f) if isinstance(g, Var))


# ---------------------------------------------------------------------------
# Assignments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Assignment:
    """Total or partial truth assignment over a universe of n propositions."""

    values: dict[int, bool]
    n: int

    def __post_init__(self):
        for i in self.values:
            if not 0 <= i < self.n:
                raise ValueError(f"proposition index {i} outside universe of size {self.n}")

    def unassigned(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self.values)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# The truth of a binary node from its operands, taken in field order:
# ``Implies`` reads (body, head), and ~body | head is body <= head.
_BINARY = {And: np.logical_and, Or: np.logical_or, Xor: np.not_equal,
           Iff: np.equal, Implies: np.less_equal}


def _evaluate(f: Formula, columns, rows: int) -> np.ndarray:
    """Truth values of f over ``rows`` assignments, variable v's being the
    boolean vector ``columns[v]``; a value stack over the post-order."""
    values = []
    for g in _postorder(f):
        if isinstance(g, Var):
            values.append(columns[g.index])
        elif isinstance(g, Const):
            values.append(np.full(rows, g.value))
        elif isinstance(g, Not):
            values.append(~values.pop())
        else:
            right = values.pop()
            values.append(_BINARY[type(g)](values.pop(), right))
    return values[0]


# ---------------------------------------------------------------------------
# Knowledge bases
# ---------------------------------------------------------------------------

@dataclass
class KnowledgeBase:
    table: PropositionTable
    items: list[tuple[float, Formula]] = field(default_factory=list)

    def add(self, weight: float, f: Formula):
        if not np.isfinite(weight):
            raise ValueError("formula weight must be finite")
        self.items.append((float(weight), f))


def weighted_sat_batch(kb: KnowledgeBase, X: np.ndarray) -> np.ndarray:
    """The summed weights of the formulas true on each row of a 0/1 matrix."""
    columns = (X > 0.5).T
    out = np.zeros(len(X))
    for w, f in kb.items:
        out += w * _evaluate(f, columns, len(X))
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><->|<-|->|[~&|^()]))"
)


def _tokenize(text, line_no=1):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = pos + (len(text[pos:]) - len(stripped)) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", line_no, col)
        if m.lastgroup:  # skip pure-whitespace matches
            tokens.append((m.lastgroup, m.group(m.lastgroup), line_no, m.start(m.lastgroup) + 1))
        pos = m.end()
    return tokens


# The binary connectives: binding strength, loosest first, and the node
# built from the left and right operands.  Strength 0 associates to the
# right, the others to the left.
_CONNECTIVES = {
    "<->": (0, Iff),
    "<-": (0, lambda left, right: Implies(body=right, head=left)),
    "->": (0, lambda left, right: Implies(body=left, head=right)),
    "^": (1, Xor),
    "|": (2, Or),
    "&": (3, And),
}

# Pending "~", "(" and connective tokens allowed at once.  It also bounds
# the value stack of ``_evaluate`` on what the parser builds.
NESTING_LIMIT = 1000


def _reduce(operands, pending, floor):
    """Build the pending connectives of strength ``floor`` or more, innermost
    first, from the top of ``operands``."""
    while pending and pending[-1][1] in _CONNECTIVES \
            and _CONNECTIVES[pending[-1][1]][0] >= floor:
        right = operands.pop()
        operands[-1] = _CONNECTIVES[pending.pop()[1]][1](operands[-1], right)


def parse_formula(text: str, table: PropositionTable, line_no: int = 1) -> Formula:
    """Parse a single formula, appending new proposition names to the table.

    Precedence, loosest first:  <-> / <- / ->  <  ^  <  |  <  &  <  ~.
    Implication and iff associate to the right, the others to the left.
    One operator-precedence loop keeps two stacks, the operands and the
    pending ``~``, ``(`` and connective tokens; more than ``NESTING_LIMIT``
    pending tokens raise ``ParseError``.
    """
    tokens = _tokenize(text, line_no)
    if not tokens:
        raise ParseError("empty formula", line_no, 1)
    operands, pending = [], []
    want_operand = True
    for tok in [*tokens, None]:          # None marks the end of input
        if len(pending) > NESTING_LIMIT:
            raise ParseError("formula nested too deeply", line_no, None)
        op = tok and tok[1]
        if want_operand:
            if tok is None:
                raise ParseError("unexpected end of input", line_no, None)
            if op in ("~", "("):
                pending.append(tok)
                continue
            if tok[0] != "name":
                raise ParseError(f"unexpected token {op!r}", tok[2], tok[3])
            operands.append(Var(table.add(op)))
        elif op in _CONNECTIVES:
            strength = _CONNECTIVES[op][0]
            _reduce(operands, pending, strength + (strength == 0))
            pending.append(tok)
            want_operand = True
            continue
        else:
            # ")", the end, or a token that cannot follow an operand: every
            # connective is built, leaving the innermost "(" on top, if any
            _reduce(operands, pending, 0)
            if pending and op == ")":
                pending.pop()
            elif pending:
                raise ParseError("expected ')'", pending[-1][2], pending[-1][3])
            elif tok is None:
                return operands[0]
            else:
                raise ParseError(f"unexpected token {op!r}", tok[2], tok[3])
        # an operand is complete: the negations just before it close on it
        while pending and pending[-1][1] == "~":
            pending.pop()
            operands[-1] = Not(operands[-1])
        want_operand = False


def parse_kb(text: str, table: PropositionTable | None = None) -> KnowledgeBase:
    """Parse a knowledge-base file; unweighted lines default to weight 1.0."""
    table = PropositionTable() if table is None else table
    kb = KnowledgeBase(table)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        weight = 1.0
        if ":" in line:
            left, line = line.split(":", 1)
            try:
                weight = float(left)
            except ValueError:
                raise ParseError(f"bad weight {left.strip()!r}", line_no, 1) from None
        kb.add(weight, parse_formula(line, table, line_no))
    return kb


def load_kb(path) -> KnowledgeBase:
    with open(path, encoding="utf-8") as fh:
        return parse_kb(fh.read())
