"""Query answering over compiled networks.

Minimising E_rank over completions of the evidence is the same search as
maximising weighted satisfiability, so the module offers: annealed Gibbs
search, zero-temperature single-flip descent, exact search by enumeration,
exact conditional inference over a small target set, and an enumeration
check that a network really is equivalent to its knowledge base.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeLimitError
from .formula import Assignment, KnowledgeBase, weighted_sat_batch
from .normal_forms import all_assignments
from .rbm import (SEARCH_LIMIT, Rbm, _Clamped, _UniformBlocks, assignment_blocks, energy_rank,
                  _check_epsilon, _twice_sigmoid)

BRUTE_LIMIT = 24
VERIFY_LIMIT = 16
# Gibbs anneals geometrically from TAU_START down to TAU_END over its steps,
# both multiplied by the network's largest |W| (1 when W is all zero), so
# that the chains do not freeze in the first steps on large confidences.
TAU_START = 1.0
TAU_END = 0.05


@dataclass
class Query:
    evidence: Assignment


@dataclass
class GibbsConfig:
    steps: int = 50
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0 or self.restarts < 1:
            raise ValueError("need steps >= 0 and restarts >= 1")


@dataclass
class DeterministicConfig:
    sweeps: int = 100
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.sweeps < 0 or self.restarts < 1:
            raise ValueError("need sweeps >= 0 and restarts >= 1")


@dataclass
class InferenceReport:
    assignment: dict[int, bool] | None = None
    energy_rank: float | None = None
    weighted_sat: float | None = None
    steps: int = 0
    restarts: int = 0
    energy_trace: list = field(default_factory=list)

    def vector(self, n) -> np.ndarray:
        return np.array([float(self.assignment[i]) for i in range(n)])


def _report_from_state(m: Rbm, c: _Clamped, xf, steps, restarts, trace) -> InferenceReport:
    """The report of the free values ``xf`` under the evidence row of ``c``."""
    x = c.X0[0].copy()
    x[c.free] = xf
    er = energy_rank(m, x)
    ws = None if m.epsilon is None else -er / m.epsilon
    return InferenceReport(
        assignment={i: bool(v > 0.5) for i, v in enumerate(x)},
        energy_rank=er, weighted_sat=ws,
        steps=steps, restarts=restarts, energy_trace=trace)


def _clamped(m: Rbm, evidence: Assignment, free=None) -> _Clamped:
    """The network clamped by the evidence, with ``free`` or else the rest left free."""
    if evidence.n != m.n_visible:
        raise ValueError(f"evidence over {evidence.n} variables for a model of {m.n_visible}")
    x0 = np.array([[float(evidence.values.get(i, 0)) for i in range(m.n_visible)]])
    return _Clamped(m, evidence.unassigned() if free is None else free, x0)


def _best(Xf, energies, best=None):
    """The (state, energy) of the rows ``Xf`` that is lexicographically
    smallest among those within 1e-12 of the lowest energy (the clamped
    columns are shared, so the free parts decide): states that tie in exact
    arithmetic may round a few ulps apart.  An incumbent ``best`` is kept
    unless that state is more than 1e-12 lower, or within 1e-12 and smaller."""
    near = np.flatnonzero(energies <= energies.min() + 1e-12)
    k = near[0] if len(near) == 1 else min(near, key=lambda r: tuple(Xf[r]))
    x, e = Xf[k].copy(), float(energies[k])
    if best is None or e < best[1] - 1e-12 or (abs(e - best[1]) <= 1e-12
                                               and tuple(x) < tuple(best[0])):
        return x, e
    return best


def _search(m: Rbm, q: Query, restarts: int, seed: int, steps: int,
            rounds: int | None = None) -> InferenceReport:
    """The one energy search: random starts, an anneal of ``steps`` Gibbs
    steps, then descent for at most ``rounds`` rounds (None: no bound).

    The ``restarts`` starts are uniform random free parts, drawn over every
    visible column.  The chains run in lockstep and update only the free
    columns and the wired hidden units, drawing uniforms for those alone in
    blocks of whole steps (``rbm._UniformBlocks``); a sample compares the
    doubled uniform 2u with ``1 + tanh(net / 2 tau)``, which is u < p
    exactly.  The temperature falls from ``TAU_START`` to ``TAU_END`` times
    the largest ``|W|``, so a network with some nonzero weight, scaled as a
    whole, anneals through the same probabilities.  Every chain's last
    state and the best state visited then descend (``_Clamped.descend``);
    the answer is the ``_best`` of all, and ``energy_trace`` is the best
    energy over the starts, after each step and after the descent, the
    answer's.  With no step there is no anneal work.  A state beyond
    ``SEARCH_LIMIT``, or more steps or rounds, raises ``SizeLimitError`` first.
    """
    width, work = m.n_visible + m.n_hidden, max(steps, rounds or 0)
    if restarts * width > SEARCH_LIMIT:
        raise SizeLimitError(
            f"{restarts} restarts x {width} units exceeds the search limit {SEARCH_LIMIT}")
    if work > SEARCH_LIMIT:
        raise SizeLimitError(f"{work} steps exceeds the search limit {SEARCH_LIMIT}")
    rng = np.random.default_rng(seed)
    c = _clamped(m, q.evidence)
    Xf = (rng.random((restarts, m.n_visible)) < 0.5)[:, c.free].astype(float)
    net, E = c.net_and_energy(Xf)
    best = _best(Xf, E)
    trace = [best[1]]
    if steps:
        scale = float(np.abs(m.W).max(initial=0.0)) or 1.0
        taus = scale * np.geomspace(TAU_START, TAU_END, steps)
        # samples go to C-ordered buffers: the initial states come from a
        # column gather that may be ordered otherwise, and a product over
        # another memory layout can round differently
        H, PV, X = np.empty(net.shape), np.empty(Xf.shape), np.empty(Xf.shape)
        draws = _UniformBlocks(steps, [H.shape, PV.shape])
        for tau, (Uh, Uv) in zip(taus, draws(rng)):
            np.less(Uh, _twice_sigmoid(net, H, tau), out=H)
            if len(c.free):
                Xf = np.less(Uv, _twice_sigmoid(c.net_visible(H, PV), PV, tau), out=X)
                net, E = c.net_and_energy(Xf, net)
            # only a state within 1e-12 of the best can replace it
            if E.min() - best[1] <= 1e-12:
                best = _best(Xf, E, best)
            trace.append(best[1])
        del H, PV, draws                   # the samples are not kept through the descent
        # with no step the best state is one of the starts and needs no row
        Xf = np.vstack([Xf, best[0]])
        net, _ = c.net_and_energy(Xf)
    c.descend(Xf, net, rounds)
    best = _best(Xf, c.net_and_energy(Xf)[1], best)
    trace.append(best[1])
    return _report_from_state(m, c, best[0], work, restarts, trace)


def infer_gibbs(m: Rbm, q: Query, config: GibbsConfig | None = None) -> InferenceReport:
    """Annealed Gibbs search from random restarts, then descent until no
    single flip helps (``_search``); ``energy_trace`` has ``steps + 2``
    entries."""
    config = config or GibbsConfig()
    return _search(m, q, config.restarts, config.seed, config.steps)


def infer_deterministic(m: Rbm, q: Query,
                        config: DeterministicConfig | None = None) -> InferenceReport:
    """tau = 0 search, the Gibbs search with no anneal step: steepest
    single-flip descent (a GSAT move) from random restarts for at most
    ``sweeps`` rounds (``_search``); ``energy_trace`` has 2 entries."""
    config = config or DeterministicConfig()
    return _search(m, q, config.restarts, config.seed, 0, config.sweeps)


def infer_exact(m: Rbm, evidence: Assignment) -> InferenceReport:
    """Lowest-energy completion of the evidence by enumeration.

    Ties go to the lexicographically smallest state.  The free parts are
    scored in bounded row blocks after the size check; only the winner
    becomes a full row.
    """
    c = _clamped(m, evidence)
    k = len(c.free)
    if k > BRUTE_LIMIT:
        raise SizeLimitError(
            f"{k} unassigned variables exceeds the exact-mode limit {BRUTE_LIMIT}")
    best_xf, best_e = None, np.inf
    for _, Xf in c.blocks():
        # the first minimum in counting order is the smallest of the exact ties
        _, E = c.net_and_energy(Xf)
        r = int(np.argmin(E))
        if best_xf is None or E[r] < best_e:
            best_xf, best_e = Xf[r].copy(), float(E[r])
    return _report_from_state(m, c, best_xf, 2 ** k, 1, [])


@dataclass
class ConditionalReport:
    targets: tuple[int, ...]
    probabilities: np.ndarray
    marginals: dict[int, float]
    decision: dict[int, bool]
    map_config: tuple[int, ...]


def infer_conditional(m: Rbm, evidence: Assignment, targets) -> ConditionalReport:
    """Exact p(targets | evidence) when the evidence covers all other visibles,
    from the kernel of the exact training conditional.  ``probabilities``
    follows binary counting order over ``targets`` as given."""
    targets = tuple(targets)
    if sorted(targets + tuple(evidence.values)) != list(range(m.n_visible)):
        raise ValueError("targets must be distinct, disjoint from the evidence "
                         "and with it cover every visible unit")
    p = np.exp(_clamped(m, evidence, targets).log_p()[0])
    p /= p.sum()
    grid = all_assignments(len(targets))
    marginals = {t: float(p[grid[:, col] > 0.5].sum()) for col, t in enumerate(targets)}
    decision = {t: marginals[t] >= 0.5 for t in targets}
    return ConditionalReport(targets, p, marginals, decision,
                             map_config=tuple(int(v) for v in grid[int(np.argmax(p))]))


@dataclass
class VerificationReport:
    max_deviation: float
    witness: dict[int, bool]
    n_assignments: int

    def ok(self, tol: float = 1e-9) -> bool:
        return self.max_deviation <= tol


def verify_equivalence(m: Rbm, kb: KnowledgeBase, epsilon: float | None) -> VerificationReport:
    """Enumerate every assignment and report max |weighted_sat + E_rank/eps|.

    The 2^n assignments are checked in bounded row blocks; the witness is
    the first assignment, in counting order, with the largest deviation.
    ``epsilon`` outside (0, 1), or None, raises ``ValueError``.
    """
    _check_epsilon(epsilon)
    n = len(kb.table)
    if n > VERIFY_LIMIT:
        raise SizeLimitError(f"universe of {n} variables exceeds limit {VERIFY_LIMIT}")
    if n != m.n_visible:
        raise ValueError("model and knowledge base have different universes")
    worst, witness = -np.inf, None
    for _, X in assignment_blocks(n, max(m.n_hidden, n)):
        dev = np.abs(weighted_sat_batch(kb, X) + energy_rank(m, X) / epsilon)
        k = int(np.argmax(dev))
        if witness is None or dev[k] > worst:
            worst, witness = float(dev[k]), X[k]
    return VerificationReport(max_deviation=worst,
                              witness={i: bool(witness[i] > 0.5) for i in range(n)},
                              n_assignments=2 ** n)
