"""RBM parameter container and energy/probability kernels.

Energy convention (visible x, hidden h, both binary):

    E(x, h) = -sum_ij W[i,j] x_i h_j - sum_i a_i x_i - sum_j b_j h_j + e0

The constant offset e0 lets compiled networks carry energy terms that have
no corresponding unit.  Because hidden units decouple given x, the energy
minimised over h has the closed form used throughout:

    E_rank(x) = e0 - a.x - sum_j max(0, net_j),   net_j = (x W)_j + b_j
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SizeLimitError
from .normal_forms import all_assignments

# Enumerating kernels (verification, exact search, exact conditionals)
# work in row blocks of at most this many float64 elements per
# intermediate array, whatever the size of the enumeration.
BLOCK_ELEMENTS = 1 << 20
# Search states (restarts x units), a search's steps or rounds, CD-k's
# uniforms (cd_k x rows per step x units) and ``attach_hidden_units``' new
# parameters stay within this bound.
SEARCH_LIMIT = 1 << 22
CONDITIONAL_LIMIT = 16                  # targets of an exact p(y | x)


def block_rows(width: int) -> int:
    """Rows per block when each row holds ``width`` elements (at least 1)."""
    return max(1, BLOCK_ELEMENTS // max(width, 1))


def assignment_blocks(k: int, width: int):
    """(start, rows): all 2^k 0/1 rows of length k in binary counting order,
    from row ``start`` on, in blocks of ``block_rows(width)`` rows."""
    total, step = 2 ** k, block_rows(width)
    for start in range(0, total, step):
        yield start, all_assignments(k, start, min(start + step, total))


def _check_epsilon(epsilon: float | None):
    """The margin of the identity weighted_sat = -E_rank / eps lies in (0, 1)."""
    if epsilon is None or not 0 < epsilon < 1:
        raise ValueError(f"epsilon must lie in (0, 1), not {epsilon!r}")


@dataclass
class Rbm:
    W: np.ndarray                       # (n_visible, n_hidden)
    a: np.ndarray                       # visible biases
    b: np.ndarray                       # hidden biases
    e0: float = 0.0
    tau: float = 1.0
    names: list[str] | None = None      # None: x0, x1, ...
    epsilon: float | None = None
    clause_annotations: list | None = None   # per hidden unit: dict or None; None: all None

    def __setattr__(self, name, value):
        """Every field is checked whenever it is set, in the dataclass's
        ``__init__`` as after it, and a refused value leaves it as it was.
        W, a and b are finite float arrays, a float array or view kept as it
        is, with a and b shaped by W and a new W by them.  A None ``names``
        or ``clause_annotations`` takes its default, and an annotation needs
        an epsilon, from either side."""
        if name in ("W", "a", "b"):
            value = np.asarray(value, dtype=float)
            if name == "W":
                fits = value.ndim == 2 and (not hasattr(self, "b")
                                            or value.shape == (len(self.a), len(self.b)))
            else:
                fits = value.shape == (self.W.shape[name == "b"],)
            if not fits:
                raise ValueError("inconsistent parameter shapes")
            if not np.isfinite(value).all():
                raise ValueError("RBM parameters must be finite")
        if name == "e0" and not np.isfinite(value):
            raise ValueError("RBM parameters must be finite")
        if name == "tau" and not 0 < value < np.inf:
            raise ValueError("temperature tau must be finite and > 0")
        if name == "epsilon":
            if value is not None:
                _check_epsilon(value)
            elif any(getattr(self, "clause_annotations", None) or ()):
                raise ValueError("clause annotations need the model's epsilon")
        if name == "names":
            if value is None:
                value = [f"x{i}" for i in range(self.n_visible)]
            if len(set(value)) != len(value):
                raise ValueError("model field 'names' repeats a name")
            if len(value) != self.n_visible:
                raise ValueError(f"model lists {len(value)} names for "
                                 f"{self.n_visible} visible units")
        if name == "clause_annotations":
            if value is None:
                value = [None] * self.n_hidden
            if len(value) != self.n_hidden:
                raise ValueError(f"model lists {len(value)} clause annotations "
                                 f"for {self.n_hidden} hidden units")
            if self.epsilon is None and any(value):
                raise ValueError("clause annotations need the model's epsilon")
        super().__setattr__(name, value)

    @property
    def n_visible(self) -> int:
        return self.W.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "Rbm":
        return replace(
            self, W=self.W.copy(), a=self.a.copy(), b=self.b.copy(), names=list(self.names),
            clause_annotations=[dict(ann) if ann else ann for ann in self.clause_annotations])


def net_hidden(m: Rbm, X) -> np.ndarray:
    return np.asarray(X, dtype=float) @ m.W + m.b


def net_visible(m: Rbm, H) -> np.ndarray:
    return np.asarray(H, dtype=float) @ m.W.T + m.a


def energy_rank(m: Rbm, X) -> np.ndarray | float:
    """min_h E(x, h); accepts a single vector or a batch of rows.  It holds
    one (rows, n_hidden) array, the net input, rectified in place."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    net = X @ m.W
    net += m.b
    out = m.e0 - X @ m.a - np.maximum(net, 0.0, out=net).sum(axis=1)
    return float(out[0]) if single else out


def _twice_sigmoid(z, out=None, tau: float = 1.0):
    """2 sigmoid(z / tau) as 1 + tanh(z / (2 tau)), in ``out`` when given.

    Dividing by 2 tau rounds exactly as dividing by tau and then halving.
    The result lies in [0, 2] and is never subnormal, so halving it is
    exact, and a uniform u falls below the probability exactly when 2u
    falls below this value: samplers compare it with ``_UniformBlocks``'
    doubled uniforms and skip the halving.
    """
    out = np.divide(z, 2.0 * tau, out=out)
    np.tanh(out, out=out)
    out += 1.0
    return out


def _sigmoid(z, out=None, tau: float = 1.0):
    """sigmoid(z / tau) as 0.5 * (1 + tanh(z / (2 tau))), in ``out`` when given."""
    out = _twice_sigmoid(z, out, tau)
    out *= 0.5
    return out


class _UniformBlocks:
    """Doubled uniforms 2u, u from ``rng.random()``, for ``steps`` steps that
    each draw arrays of ``shapes``, in that order, ``rounds`` times over.

    ``Generator.random`` fills doubles one after another, so one draw of a
    block of whole steps gives every step the values that separate draws
    would, and leaves the generator in the same state.  A block holds at
    most ``BLOCK_ELEMENTS`` values, or one step if that is larger, and is
    doubled in one pass (doubling is exact).  Calling the object with a
    generator yields each step's arrays, one per shape, as views into one
    reused buffer, valid until the next step is taken; with ``rounds`` each
    has shape ``(rounds, *shape)``, its rounds strided through the step's
    values.  A block is drawn only when its first step is reached.
    """

    def __init__(self, steps: int, shapes, rounds: int | None = None):
        sizes = [math.prod(shape) for shape in shapes]
        lead = () if rounds is None else (rounds,)
        per = math.prod(lead) * sum(sizes)
        span = min(steps, block_rows(per))
        buf = np.empty(span * per)
        offsets = np.cumsum([0, *sizes])

        def block(k):
            flat = buf[:k * per]
            rows = flat.reshape(k, math.prod(lead), sum(sizes))
            # splitting the contiguous last axis keeps every part a view
            return flat, [rows[:, :, lo:hi].reshape(k, *lead, *shape)
                          for lo, hi, shape in zip(offsets, offsets[1:], shapes)]

        full, rest = divmod(steps, span) if span else (0, 0)
        self.blocks = [block(span)] * full + ([block(rest)] if rest else [])

    def __call__(self, rng):
        for flat, parts in self.blocks:
            rng.random(out=flat)
            flat += flat
            yield from zip(*parts)


def p_hidden_given_visible(m: Rbm, x) -> np.ndarray:
    return _sigmoid(net_hidden(m, x), tau=m.tau)


def p_visible_given_hidden(m: Rbm, h) -> np.ndarray:
    return _sigmoid(net_visible(m, h), tau=m.tau)


class _Clamped:
    """The network with its visible columns ``free`` (in the caller's order)
    left free and the others fixed by the evidence rows ``X0`` (free
    columns at 0).

    The evidence's hidden net input ``net0`` is computed once.  Only the
    ``wired`` units, those with a nonzero weight on some free variable, can
    move; a ``loose`` unit's net input stays ``net0_j``.  ``W`` and ``base``
    keep the wired columns of the free rows and of ``net0``, and ``e_base``
    is each row's ``e0 - a.x0`` less its loose units' ``max(net0_j, 0)``, so
    free parts ``Xf`` (columns in ``free`` order) cost one product with W.
    """

    def __init__(self, m: Rbm, free, X0):
        self.tau, self.free, self.X0 = m.tau, np.asarray(free, dtype=int), X0
        W_free = m.W[self.free]
        touches = (W_free != 0).any(axis=0)
        self.wired, self.loose = np.flatnonzero(touches), np.flatnonzero(~touches)
        self.W, self.a, self.net0 = W_free[:, self.wired], m.a[self.free], net_hidden(m, X0)
        self.base = self.net0[:, self.wired]
        self.e_base = m.e0 - X0 @ m.a - np.maximum(self.net0[:, self.loose], 0.0).sum(axis=1)

    def blocks(self):
        """(start, Xf): the free configurations in counting order, in blocks
        that keep every row's wired net inputs within ``BLOCK_ELEMENTS``."""
        k = len(self.free)
        return assignment_blocks(k, len(self.X0) * max(len(self.wired), k))

    def net_and_energy(self, Xf, net=None):
        """The wired net input, in ``net`` when given, and E_rank of each row
        of free values under the one evidence row."""
        net = np.matmul(Xf, self.W, out=net)
        net += self.base
        return net, self.e_base[0] - Xf @ self.a - np.maximum(net, 0.0).sum(axis=1)

    def descend(self, Xf, net, rounds=None):
        """Steepest single-flip descent on E_rank, the tau = 0 limit of search.

        Flipping free variable i (d = 1 - 2 x_i) changes E_rank by
        ``-a_i d - sum_j [relu(net_j + d W_ij) - relu(net_j)]`` over the
        nonzeros of its row, so a round scores every flip of every row in
        O(rows x nnz(W)), in row blocks of ``block_rows(nnz)``.  Each row
        whose lowest change is below -1e-12 flips the lowest free index whose
        change is below -1e-12 and within 1e-12 of it, so every flip lowers
        the energy; ``Xf`` and ``net`` are updated in place.  Stops after
        ``rounds`` rounds (None: no bound) or when no row moves, every row
        then being a single-flip local minimum.  Draws no random numbers.
        """
        nonzero = self.W != 0
        # the nonzeros in row-major order, so each variable's form one run
        w, counts = self.W[nonzero], nonzero.sum(axis=1)
        col = np.broadcast_to(np.arange(self.W.shape[1]), self.W.shape)[nonzero]
        touched = np.flatnonzero(counts)
        first = (np.cumsum(counts) - counts)[touched]

        def deltas(rows):
            """d = 1 - 2 x and the energy change of every flip, for the rows ``rows``."""
            d = 1.0 - 2.0 * Xf[rows]
            old = net[rows[:, None], col]
            new = np.repeat(d, counts, axis=1)
            new *= w
            new += old
            np.maximum(new, 0.0, out=new)
            np.maximum(old, 0.0, out=old)
            new -= old                                    # relu gain of each nonzero
            delta = -d * self.a
            if len(touched):
                delta[:, touched] -= np.add.reduceat(new, first, axis=1)
            return d, delta

        step, k = block_rows(len(w)), len(self.free)
        active, done = np.arange(len(Xf)), 0
        while k and len(active) and (rounds is None or done < rounds):
            done += 1
            moved = []
            for lo in range(0, len(active), step):
                rows = active[lo:lo + step]
                d, delta = deltas(rows)
                lowest = delta <= delta.min(axis=1, keepdims=True) + 1e-12
                lowest &= delta < -1e-12
                go = lowest.any(axis=1)
                i = lowest.argmax(axis=1)[go]
                rows, sign = rows[go], d[go, i]
                Xf[rows, i] += sign
                net[rows] += sign[:, None] * self.W[i]
                moved.append(rows)
            active = np.concatenate(moved)

    def net_visible(self, H, out=None):
        """Free visibles' net input from the wired units' states."""
        out = np.matmul(H, self.W.T, out=out)
        out += self.a
        return out

    def z(self, Xf):
        """net / tau of the wired units at each evidence row and configuration
        ``Xf``: (rows, configurations, wired)."""
        z = np.add(self.base[:, None, :], Xf @ self.W)
        z /= self.tau
        return z

    def log_p(self):
        """log p(c | x) of each evidence row x at the configurations c of the
        free columns, in counting order, normalised once over the blocks.  A
        loose unit adds the same soft-plus term at every c, which cancels."""
        k = len(self.free)
        if k > CONDITIONAL_LIMIT:
            raise SizeLimitError(f"{k} targets exceeds limit {CONDITIONAL_LIMIT}")
        if len(set(self.free.tolist())) < k:
            raise ValueError("targets must be distinct")
        logp = np.concatenate([Xf @ self.a / self.tau + np.logaddexp(0.0, self.z(Xf)).sum(axis=2)
                               for _, Xf in self.blocks()], axis=1)
        logp -= np.logaddexp.reduce(logp, axis=1, keepdims=True)
        return logp


# ---------------------------------------------------------------------------
# Clause units and model file I/O
# ---------------------------------------------------------------------------

def column_nonzeros(W: np.ndarray):
    """Rows, columns and values of the nonzeros of ``W``, column by column
    and down each column.  Its temporaries are two booleans per entry."""
    cols, rows = np.divmod(np.flatnonzero(W.T != 0), W.shape[0])
    return rows, cols, W[rows, cols]


class _ClauseUnits:
    """The clause units of a network: hidden unit ``units[j]`` is clause j,
    with weight ``sign * c_j`` on each literal, 0 elsewhere in its column,
    and bias ``c_j * (eps - T_j)``, T_j the number of distinct positive
    literals, so a variable listed twice counts once.

    Built from one annotation per hidden unit ({pos, neg, confidence}, or
    None for a unit that is no clause), it holds the literals as cells,
    variable ``var``, clause ``col`` and ``sign`` (+1 or -1, positive
    literals first), which variables each clause ``mentions`` (clauses x
    n_visible), the bias pattern ``bias = eps - T`` and the confidences
    ``c``.  A variable outside ``0 .. n_visible - 1`` or in both
    polarities, or a negative confidence (its unit would never fire on a
    satisfied clause), raises ``ValueError`` naming the hidden unit.
    """

    def __init__(self, annotations, n_visible: int, epsilon: float | None):
        units = [j for j, ann in enumerate(annotations) if ann]
        anns = [annotations[j] for j in units]
        self.units = np.array(units, dtype=int)
        sides = [[ann[key] for ann in anns] for key in ("pos", "neg")]
        var = np.array([i for lists in sides for v in lists for i in v], dtype=int)
        col = np.concatenate([np.repeat(np.arange(len(anns)), [len(v) for v in lists])
                              for lists in sides])
        bad = (var < 0) | (var >= n_visible)
        if bad.any():
            self._refuse(col[bad.argmax()], f"its clause mentions a variable outside "
                                            f"0..{n_visible - 1}")
        p = sum(map(len, sides[0]))                 # cells [:p] are positive literals
        self.mentions = np.zeros((len(anns), n_visible), dtype=bool)
        self.mentions[col[:p], var[:p]] = True
        T = self.mentions.sum(axis=1)
        both = self.mentions[col[p:], var[p:]]
        if both.any():
            self._refuse(col[p + both.argmax()], "its clause has a variable in both polarities")
        self.mentions[col[p:], var[p:]] = True
        self.c = np.array([float(ann["confidence"]) for ann in anns])
        if (self.c < 0).any():
            self._refuse((self.c < 0).argmax(), "confidence value must be non-negative")
        self.var, self.col, self.sign = var, col, np.repeat([1.0, -1.0], [p, len(var) - p])
        self.bias = (epsilon or 0.0) - T            # 0.0 only when no unit reads it

    def _refuse(self, j, why: str):
        raise ValueError(f"hidden unit {self.units[j]}: {why}")

    def signs(self) -> np.ndarray:
        """S (n_visible x clauses): ``sign`` on each clause's literals, 0
        elsewhere.  Fortran-ordered, as a selection of columns is: a sum over
        its rows with ``np.einsum`` takes its order from the layout."""
        S = np.zeros(self.mentions.shape[::-1], order="F")
        S[self.var, self.col] = self.sign
        return S

    def values(self, c=None):
        """The rule: each cell's weight ``sign * c_j`` and each unit's bias
        ``bias_j * c_j``, at the confidences ``c`` (by default its own)."""
        c = self.c if c is None else c
        return self.sign * c[self.col], self.bias * c

    def write(self, W, b, c=None):
        """Each unit's literal weights and bias at the confidences ``c`` into
        W and b; the other entries of its column are left as they are."""
        W[self.var, self.units[self.col]], b[self.units] = self.values(c)

    def check(self, W, b):
        """Refuse, naming the first, a unit off its clause: a literal's weight
        or the bias more than 1e-9 (relative above 1) from its clause value,
        or any other nonzero of its column above 1e-9.  Only the literals'
        entries and the nonzeros of W are read."""
        lit, bias = self.values()
        off = np.zeros(len(self.units), dtype=bool)
        far = np.abs(W[self.var, self.units[self.col]] - lit) > 1e-9 * np.maximum(1.0, np.abs(lit))
        off[self.col[far]] = True
        off |= np.abs(b[self.units] - bias) > 1e-9 * np.maximum(1.0, np.abs(bias))
        clause_of = np.full(W.shape[1], -1)      # each column's clause, -1 for none
        clause_of[self.units] = np.arange(len(self.units))
        rows, cols, w = column_nonzeros(W)
        mine = np.flatnonzero(clause_of[cols] >= 0)
        j, i = clause_of[cols[mine]], rows[mine]
        off[j[(np.abs(w[mine]) > 1e-9) & ~self.mentions[j, i]]] = True
        if off.any():
            self._refuse(off.argmax(), "weights or bias differ from its clause annotation")


def _annotation(clause, c: float) -> dict:
    return {"pos": list(clause.pos), "neg": list(clause.neg), "confidence": float(c)}


def model_to_dict(m: Rbm) -> dict:
    return {
        "n_visible": m.n_visible,
        "n_hidden": m.n_hidden,
        "names": list(m.names),
        "W": m.W.tolist(),
        "a": m.a.tolist(),
        "b": m.b.tolist(),
        "e0": m.e0,
        "tau": m.tau,
        "epsilon": m.epsilon,
        "clause_annotations": list(m.clause_annotations),
    }


def save_model(m: Rbm, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=1)
        fh.write("\n")


def _number(doc: dict, key: str, default):
    """A numeric field of a model file, as a float; a bool is not a number."""
    val = doc.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"model field {key!r} must be a number, not {val!r}")
    return float(val)


def _is_annotation(ann) -> bool:
    """None, or {pos, neg, confidence}: two lists of indices and a finite number."""
    return ann is None or isinstance(ann, dict) and {"pos", "neg", "confidence"} <= set(ann) \
        and all(isinstance(v, list) and all(type(i) is int for i in v)
                for v in (ann["pos"], ann["neg"])) \
        and type(ann["confidence"]) in (int, float) and np.isfinite(ann["confidence"])


def model_from_dict(doc: dict) -> Rbm:
    if not isinstance(doc, dict):
        raise ValueError("a model file must hold one JSON object")
    n, h = (_number(doc, key, None) for key in ("n_visible", "n_hidden"))
    if not (n.is_integer() and h.is_integer()):
        raise ValueError("model fields 'n_visible' and 'n_hidden' must be integers")
    names, annotations = doc.get("names"), doc.get("clause_annotations")
    if not (names is None or isinstance(names, list) and all(type(x) is str for x in names)):
        raise ValueError("model field 'names' must be null or a list of strings")
    if not (annotations is None or isinstance(annotations, list)
            and all(map(_is_annotation, annotations))):
        raise ValueError("model field 'clause_annotations' must be null or a list whose "
                         "entries are null or {pos, neg, confidence}")
    m = Rbm(W=np.array(doc["W"], dtype=float).reshape(int(n), int(h)), a=doc["a"], b=doc["b"],
            e0=_number(doc, "e0", 0.0), tau=_number(doc, "tau", 1.0), names=names,
            epsilon=None if doc.get("epsilon") is None else _number(doc, "epsilon", None),
            clause_annotations=annotations)
    _ClauseUnits(m.clause_annotations, m.n_visible, m.epsilon).check(m.W, m.b)
    return m


def load_model(path) -> Rbm:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
