"""Simulation entry points: backend dispatch and the batch API.

The actual stepping lives in :mod:`repro.sim.backends`; this module is
the single dispatch point every caller (experiments, Pareto sweeps, the
CLI pipeline, benchmarks) routes through:

* :func:`simulate` — one agent, one trajectory.  ``backend="auto"``
  always resolves to the reference loop: a single lane gives the
  vectorized stepper nothing to amortize over, and keeping the default
  on the loop preserves seeded results bit for bit.
* :func:`simulate_many` / :func:`simulate_replications` — the batch
  API.  Stationary Markov policies are grouped into one vectorized
  batch (many policies x many replications stepped together);
  stateful heuristics fall back to per-run loops, each with its own
  child generator.
* :func:`simulate_sessions` — geometric-session estimates of the
  discounted totals (paper Section IV).  For stationary policies the
  sessions are packed into the batch dimension and stepped by the
  batch tier.

Every function accepts ``backend`` in ``{"auto", "loop", "vector",
"jit"}``; requesting ``"vector"``/``"jit"`` for an agent that is not
provably stationary raises
:class:`~repro.util.validation.ValidationError`, and requesting
``"jit"`` without numba installed fails with a message listing the
importable backends.  ``"auto"`` prefers the jit tier for batched
stationary runs when numba imports and falls back to ``"vector"``
(byte-identical results) when it does not.

The batch entry points also expose ``chunk_slices``: the number of
slices stepped per uniform-block draw.  ``None`` (default) keeps the
lane-count-scaled heuristic.  Pinning it is what the fleet runtime
does for bitwise grouping-invariance; note that *changing* the pin
regroups the chunk-local partial sums of the float metric totals, so
results are chunk-invariant only at the integer-trajectory level
(uniform consumption, counters, final states) — the documented
reproducibility caveat.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.costs import CostModel
from repro.core.policy import MarkovPolicy
from repro.core.system import PowerManagedSystem
from repro.policies.base import PolicyAgent
from repro.sim.backends import (
    get_backend,
    is_vectorizable,
    preferred_batch_backend,
    resolve_backend,
)
from repro.sim.result import SimulationResult
from repro.sim.rng import child_rngs
from repro.sim.stats import SampleStats
from repro.util.validation import ValidationError, check_probability

__all__ = [
    "SimulationResult",
    "simulate",
    "simulate_many",
    "simulate_replications",
    "simulate_sessions",
]


def _check_n_slices(n_slices: int) -> int:
    n_slices = int(n_slices)
    if n_slices <= 0:
        raise ValidationError(f"n_slices must be > 0, got {n_slices}")
    return n_slices


def _as_agent(candidate, system: PowerManagedSystem) -> PolicyAgent:
    """Accept agents or bare policy matrices in batch entry points."""
    if isinstance(candidate, PolicyAgent):
        return candidate
    if isinstance(candidate, MarkovPolicy):
        from repro.policies.stochastic import StationaryPolicyAgent

        return StationaryPolicyAgent(system, candidate)
    raise ValidationError(
        f"expected a PolicyAgent or MarkovPolicy, got {type(candidate).__name__}"
    )


def simulate(
    system: PowerManagedSystem,
    costs: CostModel,
    agent: PolicyAgent,
    n_slices: int,
    rng: np.random.Generator,
    initial_state=None,
    backend: str = "auto",
    chunk_slices: int | None = None,
) -> SimulationResult:
    """Simulate ``agent`` on ``system`` for ``n_slices`` slices.

    Parameters
    ----------
    system:
        The composed system to simulate.
    costs:
        Metrics to accumulate (every registered metric is reported).
    agent:
        The power-management policy; ``agent.reset()`` is called first.
    n_slices:
        Number of slices to run.
    rng:
        Random generator driving all stochastic choices.
    initial_state:
        ``(provider, requester, queue)`` start (names or indices);
        defaults to all components in their first state, empty queue.
    backend:
        ``"auto"`` (the reference loop for single runs), ``"loop"``,
        ``"vector"``, or ``"jit"`` (stationary policies only).
    chunk_slices:
        Pin the batch tier's chunk length (see :func:`simulate_many`);
        ignored by the loop backend.
    """
    n_slices = _check_n_slices(n_slices)
    chosen = resolve_backend(backend, agent, batch_size=1)
    return chosen.simulate(
        system, costs, agent, n_slices, rng, initial_state,
        chunk_slices=chunk_slices,
    )


def simulate_many(
    system: PowerManagedSystem,
    costs: CostModel,
    agents: Sequence[PolicyAgent | MarkovPolicy],
    n_slices: int,
    rng: np.random.Generator | int | None = None,
    *,
    n_replications: int = 1,
    initial_state=None,
    backend: str = "auto",
    chunk_slices: int | None = None,
) -> list[list[SimulationResult]]:
    """Simulate many agents/policies, ``n_replications`` runs each.

    The workhorse behind policy sweeps and replication studies: all
    stationary Markov policies in ``agents`` are compiled into a single
    vectorized batch (one lane per policy x replication), while
    stateful heuristics run through the reference loop one trajectory
    at a time.  Bare :class:`~repro.core.policy.MarkovPolicy` entries
    are wrapped automatically.

    Parameters
    ----------
    rng:
        A generator, a seed, or ``None`` (fresh entropy).  Each loop
        run and the vector batch get independent child streams, so
        results are reproducible from one seed.  Note that streams are
        assigned by position: reordering the agent list, changing the
        backend grouping, or moving an agent between groups changes the
        uniforms each run consumes (the estimates stay exchangeable,
        the trajectories do not).
    backend:
        ``"auto"`` (batch what can be proven stationary, when the run
        is actually batched, through the preferred batch tier — jit if
        numba imports, else vector), ``"loop"`` (everything through
        the reference loop), or ``"vector"``/``"jit"`` (require every
        agent to be stationary).
    chunk_slices:
        Pin the batch tier's chunk length (slices per uniform-block
        draw) instead of the lane-count-scaled heuristic.  Integer
        trajectories and counters are chunk-invariant; float metric
        totals are bitwise-reproducible only for a *fixed* pin (see
        the module docstring).  Ignored by the loop backend.

    Returns
    -------
    list[list[SimulationResult]]
        One list of ``n_replications`` results per agent, input order.
    """
    n_slices = _check_n_slices(n_slices)
    n_replications = int(n_replications)
    if n_replications <= 0:
        raise ValidationError(
            f"n_replications must be > 0, got {n_replications}"
        )
    resolved = [_as_agent(a, system) for a in agents]
    if not resolved:
        return []

    batch_backend = None
    if backend in ("vector", "jit"):
        batch_backend = get_backend(backend)
        for agent in resolved:
            if not batch_backend.supports(agent):
                raise ValidationError(
                    f"backend {backend!r} does not support "
                    f"{agent.describe()}; use backend='loop'"
                )
        vector_idx = list(range(len(resolved)))
    elif backend == "loop":
        vector_idx = []
    elif backend == "auto":
        vector_idx = [
            i for i, agent in enumerate(resolved) if is_vectorizable(agent)
        ]
        # A single-lane "batch" has nothing to amortize; keep it on the
        # loop, consistent with resolve_backend() and simulate().
        if len(vector_idx) * n_replications <= 1:
            vector_idx = []
        if vector_idx:
            batch_backend = preferred_batch_backend()
    else:
        get_backend(backend)  # raises with the canonical message
        vector_idx = []

    vectorized = set(vector_idx)
    loop_idx = [i for i in range(len(resolved)) if i not in vectorized]
    # Child streams: one for the whole batched run, then one per
    # (loop agent, replication) pair in agent-major order.
    streams = child_rngs(rng, 1 + len(loop_idx) * n_replications)
    results: list[list[SimulationResult] | None] = [None] * len(resolved)

    if vector_idx:
        policies = [
            resolved[i].stationary_policy(system) for i in vector_idx
        ]
        batched = batch_backend.simulate_batch(
            system,
            costs,
            policies,
            n_slices,
            streams[0],
            initial_state=initial_state,
            n_replications=n_replications,
            chunk_slices=chunk_slices,
        )
        for slot, replications in zip(vector_idx, batched):
            results[slot] = replications
    if loop_idx:
        loop = get_backend("loop")
        loop_results = loop.simulate_many(
            system,
            costs,
            [resolved[i] for i in loop_idx],
            n_slices,
            streams[1:],
            initial_state=initial_state,
            n_replications=n_replications,
        )
        for slot, replications in zip(loop_idx, loop_results):
            results[slot] = replications
    return results  # type: ignore[return-value]


def simulate_replications(
    system: PowerManagedSystem,
    costs: CostModel,
    agent: PolicyAgent | MarkovPolicy,
    n_slices: int,
    n_replications: int,
    rng: np.random.Generator | int | None = None,
    *,
    initial_state=None,
    backend: str = "auto",
    chunk_slices: int | None = None,
) -> list[SimulationResult]:
    """Independent replications of one agent (batched when possible)."""
    return simulate_many(
        system,
        costs,
        [agent],
        n_slices,
        rng,
        n_replications=n_replications,
        initial_state=initial_state,
        backend=backend,
        chunk_slices=chunk_slices,
    )[0]


def simulate_sessions(
    system: PowerManagedSystem,
    costs: CostModel,
    agent: PolicyAgent,
    gamma: float,
    n_sessions: int,
    rng: np.random.Generator,
    initial_state=None,
    max_session_slices: int | None = None,
    backend: str = "auto",
    chunk_slices: int | None = None,
) -> dict[str, SampleStats]:
    """Estimate *discounted* totals by simulating geometric sessions.

    The discounted formulation of Section IV equals the expected
    undiscounted sum over a session of geometric length with mean
    ``1/(1-gamma)`` (the trap-state construction, Fig. 5).  Each session
    draws its length accordingly, runs the engine, and contributes one
    sample of each metric's session total; the returned statistics
    estimate the LP's discounted objective values.

    For stationary Markov policies ``backend="auto"`` packs all the
    sessions into the batch dimension of the vector backend (lengths
    drawn up front, finished sessions compacted away); heuristics run
    session by session through the loop.

    Parameters
    ----------
    gamma:
        Discount factor in (0, 1).
    n_sessions:
        Independent sessions to run (each resets the agent and state).
    max_session_slices:
        Optional cap on a single session's length (guards runaway
        budgets when ``gamma`` is very close to one).
    backend:
        ``"auto"``, ``"loop"``, ``"vector"``, or ``"jit"``.
    chunk_slices:
        Pin the batch tier's chunk length (see :func:`simulate_many`);
        ignored by the loop backend.
    """
    gamma = check_probability(gamma, "gamma")
    if not 0.0 < gamma < 1.0:
        raise ValidationError(f"gamma must be in (0, 1), got {gamma!r}")
    n_sessions = int(n_sessions)
    if n_sessions <= 0:
        raise ValidationError(f"n_sessions must be > 0, got {n_sessions}")

    chosen = resolve_backend(backend, agent, batch_size=n_sessions)
    return chosen.simulate_sessions(
        system,
        costs,
        agent,
        gamma,
        n_sessions,
        rng,
        initial_state=initial_state,
        max_session_slices=max_session_slices,
        chunk_slices=chunk_slices,
    )
