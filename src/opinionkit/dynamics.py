"""Opinion-formation dynamics over influence networks.

All models share the anchored-averaging update family
    x(k+1) = Lambda W x(k) + (I - Lambda) x(0)  (+ model-specific terms)
where Lambda = diag(lambda) holds susceptibilities and x(0) the innate
opinions. Pure averaging is the lambda = 1 special case. Multi-issue
variants act on n x m opinion matrices.
"""

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from ._files import read_table, write_table
from .errors import (
    ConfigError,
    NumericalError,
    ParameterError,
    StabilityError,
    StructuralError,
)
from .netgraph import InfluenceNetwork, MultiplexNetwork
from .numkit import CONDITION_MAX, DENSE_MAX_N, STABILITY_MARGIN, STRUCTURAL_ZERO, SUM_TOL
from .numkit import DRAW_BLOCK, philox_stream, spectral_radius

# The synchronous step loop reads one number per step, the move max|dX|:
# PLATEAU_RUN consecutive moves below the tolerance mark convergence, and a
# move above DIVERGENCE_CAP, or NaN (as from inf), raises NumericalError.
PLATEAU_TOL = 1e-10
PLATEAU_RUN = 3
DIVERGENCE_CAP = 1e12

# A partial gossip run resolves its activation draws into subsets against a
# boolean membership mask of this many cells, max(1, cells // n) rows of n.
ACTIVATION_MASK_CELLS = 1 << 22
# cesaro_average accumulates its running sums in blocks of this many cells.
CESARO_BLOCK_CELLS = 1 << 15

@dataclass(frozen=True)
class ModelDescriptor:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int | None = None


@dataclass(frozen=True)
class OpinionTrajectory:
    """States indexed as states[k, agent, issue] for k = 0..horizon."""

    states: np.ndarray
    model: ModelDescriptor
    converged_at: int | None = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 2:
            states = states[:, :, None]
        if states.ndim != 3:
            raise StructuralError("trajectory states must be (steps, agents, issues)")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def n_issues(self) -> int:
        return self.states.shape[2]


@dataclass(frozen=True)
class StabilityReport:
    """Graph stability certificate for Lambda W.

    schur_stable holds iff every agent either has lambda < 1 or can reach
    one that does by a walk along influence edges; the numerically
    computed spectral radius must agree and is cross-checked. The radius
    comes from numkit.spectral_radius: a dense eigen-solve up to
    DENSE_MAX_N agents, beyond that a certified ARPACK value on the CSR
    coupling (or the dense fallback). Every solve with I - Lambda W makes
    the walk check and bounds kappa_inf(I - Lambda W); it certifies the
    radius of a nonnegative coupling from its own solve (_anchored_system).
    """

    schur_stable: bool
    spectral_radius: float
    open_set: tuple[int, ...]
    unanchored: tuple[int, ...]


@dataclass(frozen=True)
class AppraisalPath:
    """Per-stage transition matrices and the social-power sequence."""

    w_seq: np.ndarray      # (stages, n, n)
    c_seq: np.ndarray      # (stages + 1, n)


def _as_profile(x0, n: int) -> np.ndarray:
    """x0 as an (n, m) array of finite opinions, m >= 1, an (n,) vector as
    one column; every simulator and equilibrium reads its initial profile
    here."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 1:
        x0 = x0[:, None]
    if x0.ndim != 2 or x0.shape[0] != n:
        raise StructuralError(f"initial profile must be ({n},) or ({n}, m)")
    if not x0.shape[1]:
        raise StructuralError("initial profile has no issues")
    if not np.isfinite(x0).all():
        raise ParameterError("initial profile must be finite")
    return x0


def _check_steps(steps: int) -> None:
    if steps < 0:
        raise ParameterError(f"steps must be >= 0, got {steps}")


def _coupling(net: InfluenceNetwork):
    """Lambda W, dense up to DENSE_MAX_N agents and CSR beyond.

    Scaling the rows of W gives the entries of np.diag(lambda) @ W bit for
    bit. Generated networks keep about k nonzeros per row, so beyond the
    cutoff a CSR product or factorisation does O(nnz) work; below it a
    dense product costs less than the per-call overhead of a sparse one,
    and small systems stay bit-identical to dense arithmetic.
    Beyond the cutoff the network's cached CSR is scaled row by row and
    the zero products (lambda = 0, underflow) are dropped: the result is
    sparse.csr_array(lam[:, None] * w) bit for bit, in arrays of its own.
    """
    if net.n <= DENSE_MAX_N:
        return net.lam[:, None] * net.w
    nonzeros = net.nonzeros
    data = nonzeros.data * np.repeat(net.lam, np.diff(nonzeros.indptr))
    keep = data != 0.0
    kept = np.concatenate(([0], np.cumsum(keep)))
    indptr = kept[nonzeros.indptr].astype(nonzeros.indptr.dtype)
    return sparse.csr_array((data[keep], nonzeros.indices[keep], indptr), shape=nonzeros.shape)


def _stability(net: InfluenceNetwork, coupling, what: str | None = None,
               certified: bool = False) -> StabilityReport:
    """Decide Schur stability of coupling = Lambda W by the walk criterion.

    The open set collects agents with lambda < 1; stability holds iff no
    agent is cut off from it. The eigenvalue radius is computed
    independently and the two routes must agree (the graph criterion is
    authoritative for ties at radius 1). With `what` given, an unstable
    network raises StabilityError naming it. With certified, the caller
    certifies the radius of a walk-stable network (NaN in the report).
    """
    lam = net.lam
    reaches = lam < 1.0
    rows, cols, _ = net.support
    # Propagate reachability backwards along influence edges until stable.
    changed = True
    while changed:
        grown = reaches.copy()
        grown[rows[reaches[cols]]] = True
        changed = bool((grown != reaches).any())
        reaches = grown
    unanchored = tuple(np.flatnonzero(~reaches).tolist())
    stable = not unanchored

    radius = float("nan") if certified and stable else spectral_radius(coupling)
    if (radius >= 1.0 + 1e-9) if stable else (radius < 1.0 - 1e-10):
        verdict = "stable" if stable else "unstable"
        raise NumericalError(f"graph criterion says {verdict} but spectral radius is {radius:.12g}")
    if what is not None and not stable:
        raise StabilityError(f"{what} needs a Schur-stable Lambda W, but agents "
                             f"{unanchored} cannot reach any agent with lambda < 1")
    return StabilityReport(
        schur_stable=stable,
        spectral_radius=radius,
        open_set=tuple(np.flatnonzero(lam < 1.0).tolist()),
        unanchored=unanchored,
    )


def is_schur_stable(net: InfluenceNetwork) -> StabilityReport:
    """Decide Schur stability of Lambda W (see StabilityReport)."""
    return _stability(net, _coupling(net))


def _anchored_system(net: InfluenceNetwork, what: str):
    """solve(rhs, transpose=False) with S = I - Lambda W, the one code path
    for S^{-1}. The network must be Schur stable (else StabilityError naming
    `what`) and kappa = ||S||_inf max|S^{-1} 1| at most CONDITION_MAX (else
    NumericalError): the exact infinity-norm condition number when
    Lambda W >= 0, as S^{-1} = sum_k (Lambda W)^k >= 0, else a lower bound.
    Then y = S^{-1} 1 > 0 with y - Lambda W y >= STABILITY_MARGIN certifies
    rho < 1 (else NumericalError); a signed coupling keeps _stability's
    radius cross-check instead.
    Up to DENSE_MAX_N agents each solve is numpy's dense one (scipy's LU
    differs from it in the last bit); beyond, SuperLU factorises S once.
    A walk-stable nonnegative coupling makes S a nonsingular M-matrix,
    whose LU factorisation under any symmetric permutation is stable with
    positive diagonal pivots (Berman & Plemmons, Nonnegative Matrices in
    the Mathematical Sciences, ch. 6): SuperLU then takes a minimum-degree
    ordering of S' + S and the diagonal pivots, which keeps the fill near
    that of the graph. A signed coupling keeps COLAMD with partial pivoting.
    """
    coupling = _coupling(net)
    entries = coupling.data if sparse.issparse(coupling) else coupling
    if not np.isfinite(entries).all():
        raise ParameterError(f"{what}: Lambda W holds a non-finite weight")
    signed = entries.min(initial=0.0) < 0.0
    _stability(net, coupling, what, certified=not signed)
    if net.n <= DENSE_MAX_N:
        system, factor = np.eye(net.n) - coupling, None
    else:
        system = sparse.identity(net.n, format="csc") - sparse.csc_array(coupling)
        if signed:
            factor = splu(system)
        else:
            factor = splu(system, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})

    def solve(rhs, transpose=False):
        if factor is None:
            return np.linalg.solve(system.T if transpose else system, rhs)
        return factor.solve(rhs, trans="T" if transpose else "N")

    y = solve(np.ones(net.n))
    condition = abs(system).sum(axis=1).max() * np.abs(y).max()
    if condition > CONDITION_MAX:
        raise NumericalError(f"{what}: I - Lambda W has condition number {condition:.3g} (inf-norm)")
    if not (signed or (y.min() > 0.0 and (y - coupling @ y).min() >= STABILITY_MARGIN)):
        raise NumericalError(f"{what}: graph criterion says stable but (I - Lambda W)^-1 1 "
                             "does not certify a spectral radius below 1")
    return solve


def _synchronous(net: InfluenceNetwork, x0, steps: int, issue_map, kind: str) -> OpinionTrajectory:
    """X(k+1) = Lambda W X(k) issue_map + (I - Lambda) X(0); no map skips that
    product (X @ I would turn -0.0 into +0.0). Each step's move
    max|X(k+1) - X(k)| feeds both the plateau detector and DIVERGENCE_CAP."""
    _check_steps(steps)
    x0 = _as_profile(x0, net.n)
    coupling = _coupling(net)
    anchor = (1.0 - net.lam)[:, None] * x0
    states = np.empty((steps + 1, net.n, x0.shape[1]))
    states[0] = x0
    converged_at, run = None, 0
    for k in range(steps):
        pulled = coupling @ states[k]
        states[k + 1] = (pulled if issue_map is None else pulled @ issue_map) + anchor
        move = np.max(np.abs(states[k + 1] - states[k]))
        if not move <= DIVERGENCE_CAP:
            raise NumericalError(f"{kind} trajectory diverged at step {k + 1} (move {move:.3g})")
        run = run + 1 if move < PLATEAU_TOL else 0
        if run >= PLATEAU_RUN and converged_at is None:
            converged_at = k + 1
    descriptor = ModelDescriptor(kind=kind, params={"steps": steps})
    return OpinionTrajectory(states=states, model=descriptor, converged_at=converged_at)


def simulate_fj(net: InfluenceNetwork, x0, steps: int) -> OpinionTrajectory:
    """Run x(k+1) = Lambda W x(k) + (I - Lambda) x(0) for `steps` steps.

    Works for any susceptibility vector; with lambda = 1 everywhere this
    is pure averaging. Returns the full trajectory including x(0). A step
    moving an opinion by more than DIVERGENCE_CAP raises NumericalError.
    """
    return _synchronous(net, x0, steps, None, "anchored_averaging")


def fj_equilibrium(net: InfluenceNetwork, x0) -> tuple[np.ndarray, np.ndarray]:
    """Equilibrium profile and the control matrix V with x(inf) = V x(0).

    V = (I - Lambda W)^{-1} (I - Lambda) is row-stochastic; requires Schur
    stability and kappa_inf(I - Lambda W) <= CONDITION_MAX (_anchored_system).
    """
    x0 = np.asarray(x0, dtype=float)
    _as_profile(x0, net.n)
    solve = _anchored_system(net, "equilibrium")
    control = solve(np.diag(1.0 - net.lam))
    row_err = np.max(np.abs(control.sum(axis=1) - 1.0))
    if row_err > SUM_TOL or control.min() < -1e-9:
        raise NumericalError(
            f"control matrix failed stochasticity check (row error {row_err:.3g})"
        )
    return control @ x0, control


def simulate_belief_system(
    net: InfluenceNetwork, c_matrix: np.ndarray, x0, steps: int
) -> OpinionTrajectory:
    """Multi-issue dynamics X(k+1) = Lambda W X(k) C' + (I - Lambda) X(0).

    C couples the issues; row-contractive C (sum of |row| <= 1) keeps the
    recursion bounded. A violated contract is flagged, and a step moving
    an entry by more than DIVERGENCE_CAP aborts with a numerical error.
    """
    c_matrix = np.atleast_2d(np.asarray(c_matrix, dtype=float))
    m = _as_profile(x0, net.n).shape[1]
    if c_matrix.shape != (m, m):
        raise StructuralError(f"issue coupling must be ({m}, {m}), got {c_matrix.shape}")
    if np.abs(c_matrix).sum(axis=1).max() > 1.0 + 1e-12:
        warnings.warn("issue-coupling matrix is not row-contractive; dynamics may diverge",
                      stacklevel=2)
    return _synchronous(net, x0, steps, c_matrix.T, "belief_system")


def simulate_reflected_appraisal(
    c_influence: np.ndarray, c0: np.ndarray, n_issues: int
) -> AppraisalPath:
    """Issue-sequence evolution of self-weights under reflected appraisal.

    Between issues, each agent's self-weight becomes its realized social
    power: with Lambda(s) = I - diag(c(s)) and
    W(s) = I - Lambda(s) + Lambda(s) C, the next power vector is
    c(s+1)' = (1'/n) (I - Lambda(s) W(s))^{-1} (I - Lambda(s)), the influence
    centrality of (W(s), 1 - c(s)) under the guards of _anchored_system.
    C must be zero-diagonal with unit row sums; c0 lies on the open simplex.
    """
    c_influence = np.atleast_2d(np.asarray(c_influence, dtype=float))
    n = c_influence.shape[0]
    if c_influence.shape != (n, n):
        raise StructuralError("appraisal matrix must be square")
    if np.abs(np.diag(c_influence)).max() > STRUCTURAL_ZERO:
        raise ParameterError("appraisal matrix must have a zero diagonal")
    if np.max(np.abs(c_influence.sum(axis=1) - 1.0)) > SUM_TOL:
        raise ParameterError("appraisal matrix rows must sum to 1")
    c = np.asarray(c0, dtype=float).ravel()
    if c.shape[0] != n:
        raise StructuralError("c0 length does not match the appraisal matrix")
    if abs(c.sum() - 1.0) > SUM_TOL or c.min() <= 0.0 or c.max() >= 1.0:
        raise ParameterError("c0 must lie strictly inside the simplex")
    if n_issues < 1:
        raise ParameterError("n_issues must be >= 1")

    w_seq = np.empty((n_issues, n, n))
    c_seq = np.empty((n_issues + 1, n))
    c_seq[0] = c
    for s in range(n_issues):
        w_stage = np.diag(c) + (1.0 - c)[:, None] * c_influence
        w_seq[s] = w_stage
        stage = InfluenceNetwork(w=w_stage, lam=1.0 - c)
        solve = _anchored_system(stage, f"reflected appraisal stage {s + 1}")
        c = c * solve(np.ones(n), transpose=True) / n
        if abs(c.sum() - 1.0) > SUM_TOL or c.min() <= 0.0:
            raise NumericalError(f"social power left the simplex at stage {s + 1}")
        c_seq[s + 1] = c
    return AppraisalPath(w_seq=w_seq, c_seq=c_seq)


def _poll_lists(net: InfluenceNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(starts, counts, cols, weights): the network's row-major support with
    self-loops dropped. Agent i's neighbors, ascending, are the counts[i]
    entries of cols from starts[i] on, so slot s polls cols[starts[i] + s]
    with weight weights[starts[i] + s]."""
    rows, cols, weights = net.support
    off_diagonal = rows != cols
    counts = np.bincount(rows[off_diagonal], minlength=net.n)
    if (counts == 0).any():
        lonely = np.flatnonzero(counts == 0).tolist()
        raise StructuralError(f"agents {lonely} have no neighbors to poll")
    return np.cumsum(counts) - counts, counts, cols[off_diagonal], weights[off_diagonal]


def simulate_gossip_fj(
    net: InfluenceNetwork,
    x0,
    steps: int,
    activation_size: int,
    seed: int | None = None,
) -> OpinionTrajectory:
    """Asynchronous anchored averaging with random activation.

    Each step draws an activation set uniformly among subsets of the given
    size; every active agent polls one uniformly chosen neighbor theta
    (self excluded) and moves to
    lambda_i ((1 - w_i,theta) x_i + w_i,theta x_theta) + (1 - lambda_i) x_i(0).
    Updates within a step read the previous state.

    Random-stream layout of a Philox(seed) stream, for a = activation_size:
    - a < n: with d = min(a, n - a), d columns of steps integers, column
      i drawn in one call as rng.integers(0, n - d + i + 1, size=steps);
      by Floyd's sample, step k's member i is column i's entry k unless an
      earlier member of step k holds it, and then n - d + i. For a <= n/2
      these members are step k's active set, in that order; for a > n/2
      they are its inactive agents, and the active set is every other
      agent, in ascending order. Then steps x a uniform poll draws (entry
      [k, i] picks the neighbor of step k's member i). The draws cost
      O(min(a, n - a)) columns per run and O(a) numbers per step.
    - a = n (beta = 1): steps x n uniform activation keys, skipped with
      Philox's advance (every agent is active), then steps x n uniform poll draws
      (entry [k, i] picks agent i's neighbor at step k). Each step
      updates the whole state vector at once, with the same arithmetic
      per agent as a step over an active subset.
    Seeded trajectories depend on this layout only, not on how the draws
    are blocked in memory (DRAW_BLOCK cells at a time). Neighbors are read
    from the network's cached support: O(edges + DRAW_BLOCK + steps a).
    """
    _check_steps(steps)
    x0 = _as_profile(np.ravel(x0), net.n)[:, 0]
    if not 1 <= activation_size <= net.n:
        raise ParameterError(f"activation_size must lie in [1, {net.n}]")
    # nonzeros, not support: a NaN weight fails |w| > STRUCTURAL_ZERO
    if not np.isfinite(net.nonzeros.data).all():
        raise ParameterError("gossip: W holds a non-finite weight")
    lists = _poll_lists(net)
    rng = philox_stream(seed)
    states = np.empty((steps + 1, net.n))
    states[0] = x0
    if activation_size == net.n:
        _full_activation_steps(net, rng, states, *lists)
    else:
        _partial_activation_steps(net, rng, states, activation_size, *lists)
    descriptor = ModelDescriptor(
        kind="gossip",
        params={"activation_size": activation_size, "beta": activation_size / net.n},
        seed=seed,
    )
    return OpinionTrajectory(states=states[:, :, None], model=descriptor)


def _full_activation_steps(net, rng, states, starts, counts, cols, weights) -> None:
    """Gossip steps with every agent active, written into states[1:]: the
    stream is moved past the activation keys (each step's set is all
    agents), then each block of poll draws (DRAW_BLOCK cells) picks every
    agent's neighbor and weight in agent order, and a step updates the
    whole state vector at once."""
    steps, x0 = len(states) - 1, states[0]
    rows = max(1, DRAW_BLOCK // net.n)
    _skip_doubles(rng, steps * net.n)
    lam = net.lam
    anchor = (1.0 - lam) * x0
    for lo in range(0, steps, rows):
        pick = starts + (rng.random((min(rows, steps - lo), net.n)) * counts).astype(int)
        polled, weight = cols[pick], weights[pick]
        per_step = zip(states[lo:], states[lo + 1 :], polled, 1.0 - weight, weight)
        for x, x_next, p, keep, weight_k in per_step:
            np.add(lam * (keep * x + weight_k * x[p]), anchor, out=x_next)


def _skip_doubles(rng, count: int) -> None:
    """Move a Philox generator to where rng.random(count) would leave it,
    without drawing. Each double takes one word of Philox's 4-word blocks;
    advance() skips whole blocks but drops the words still buffered (even
    advance(0) does), so those are drawn first."""
    buffered = min(count, 4 - rng.bit_generator.state["buffer_pos"])
    blocks, tail = divmod(count - buffered, 4)
    rng.random(buffered)
    if blocks:
        rng.bit_generator.advance(blocks)
    rng.random(tail)


def _activation_sets(rng, n: int, activation_size: int, steps: int) -> np.ndarray:
    """(steps, activation_size) active agents, row k a uniform subset for
    step k, by Floyd's sample (Bentley and Floyd, CACM 30(9), 1987) of
    d = min(a, n - a) agents for a = activation_size.

    Column i is drawn for every step at once as integers in [0, n - d + i];
    member i of a step's sample is its drawn value, or n - d + i when an
    earlier member of the step already holds that value. The replacements
    are resolved one row block at a time against a membership mask of
    ACTIVATION_MASK_CELLS cells. For 2a <= n the sample is the active set;
    for 2a > n it is the inactive set, and a step's active agents are the
    others, in ascending order. Either way the Python loop runs over
    min(a, n - a) columns."""
    drawn_size = min(activation_size, n - activation_size)
    offset = n - drawn_size
    drawn = np.empty((steps, drawn_size), dtype=np.intp)
    for i in range(drawn_size):
        drawn[:, i] = rng.integers(0, offset + i + 1, size=steps)
    complement = drawn_size < activation_size
    active = np.empty((steps, activation_size), dtype=np.intp) if complement else drawn
    rows = max(1, ACTIVATION_MASK_CELLS // n)
    member = np.zeros((min(rows, steps), n), dtype=bool)
    for lo in range(0, steps, rows):
        block = drawn[lo : lo + rows]
        row = np.arange(len(block))
        for i, column in enumerate(block.T):
            column[member[row, column]] = offset + i
            member[row, column] = True
        if complement:
            # flat indices of the unmarked cells, row by row, made agents
            others = np.flatnonzero(~member[: len(block)]).reshape(len(block), activation_size)
            others -= (row * n)[:, None]
            active[lo : lo + rows] = others
        member[row[:, None], block] = False
    return active


def _partial_activation_steps(net, rng, states, size, starts, counts, cols, weights) -> None:
    """Gossip steps with size < n agents active, written into states[1:].
    The active sets and then the poll draws (in blocks of DRAW_BLOCK
    cells) are made before the loop, and neighbors, weights, lambda and
    anchors are gathered per block inside it, so that only the (steps,
    size) arrays active and pick span the run."""
    steps, x0 = len(states) - 1, states[0]
    active = _activation_sets(rng, net.n, size, steps)
    rows = max(1, DRAW_BLOCK // size)
    pick = np.empty((steps, size), dtype=np.intp)
    for lo in range(0, steps, rows):
        block = active[lo : lo + rows]
        slot = (rng.random(block.shape) * counts[block]).astype(int)
        pick[lo : lo + rows] = starts[block] + slot
    for lo in range(0, steps, rows):
        block, pick_block = active[lo : lo + rows], pick[lo : lo + rows]
        weight, lam_active = weights[pick_block], net.lam[block]
        anchor = (1.0 - lam_active) * x0[block]
        per_step = zip(states[lo:], states[lo + 1 :], block, cols[pick_block],
                       lam_active, 1.0 - weight, weight, anchor)
        for x, x_next, a, p, lam_a, keep_a, weight_a, anchor_a in per_step:
            x_next[:] = x
            x_next[a] = lam_a * (keep_a * x[a] + weight_a * x[p]) + anchor_a


def expected_gossip_dynamics(
    net: InfluenceNetwork, beta: float, x0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean update of the gossip process: (Gamma_bar, b_bar, x_mean_inf).

    E[x(k+1)] = Gamma_bar E[x(k)] + b_bar with
    Gamma_bar = (1 - beta) I + beta Lambda (I - D^{-1} (I - W)) and
    b_bar = beta (I - Lambda) x(0), where D holds neighbor counts
    (self excluded) and beta the activation fraction. Exact for
    row-stochastic W under the activation model of simulate_gossip_fj.
    """
    if not 0.0 < beta <= 1.0:
        raise ParameterError("beta must lie in (0, 1]")
    x0 = _as_profile(np.ravel(x0), net.n)[:, 0]
    counts = _poll_lists(net)[1]
    n = net.n
    gamma_bar = (1.0 - beta) * np.eye(n) + beta * net.lam[:, None] * (
        np.eye(n) - (1.0 / counts)[:, None] * (np.eye(n) - net.w)
    )
    b_bar = beta * (1.0 - net.lam) * x0
    radius = spectral_radius(gamma_bar)
    if radius >= 1.0 - 1e-10:
        raise StabilityError(
            f"expected gossip update has spectral radius {radius:.12g}"
        )
    x_mean_inf = np.linalg.solve(np.eye(n) - gamma_bar, b_bar)
    return gamma_bar, b_bar, x_mean_inf


def cesaro_average(traj: OpinionTrajectory) -> np.ndarray:
    """Running time-averages (1/(k+1)) sum_{l<=k} x(l), same shape as states.

    The running sums are taken a block of CESARO_BLOCK_CELLS cells (whole
    states) at a time: each block starts from the previous block's last
    sum, so the same terms are added in the same order as one cumsum."""
    states = traj.states
    cumulative = np.empty_like(states)
    rows = max(1, CESARO_BLOCK_CELLS // max(1, states.shape[1] * states.shape[2]))
    for lo in range(0, len(states), rows):
        block = cumulative[lo : lo + rows]
        block[:] = states[lo : lo + rows]
        if lo:
            block[0] += cumulative[lo - 1]
        np.cumsum(block, axis=0, out=block)
    steps = np.arange(1, len(states) + 1, dtype=float)
    cumulative /= steps[:, None, None]
    return cumulative


def _noise_factor(q: np.ndarray, n: int) -> np.ndarray:
    q = np.atleast_2d(np.asarray(q, dtype=float))
    if q.shape != (n, n):
        raise StructuralError(f"noise covariance must be ({n}, {n})")
    if not np.allclose(q, q.T, atol=1e-9):
        raise ParameterError("noise covariance must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(q)
    if eigvals.min() < -1e-10:
        raise ParameterError("noise covariance must be positive semidefinite")
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def simulate_multiplex_fj(
    mx: MultiplexNetwork,
    u,
    q_noise,
    steps: int,
    seed: int | None = None,
    lambdas=None,
) -> list[OpinionTrajectory]:
    """Noisy anchored averaging on every layer, from x(0) = u.

    Layer s runs x(k+1) = Lambda_s W_s x(k) + (I - Lambda_s) u_s + eta(k)
    with eta ~ N(0, q_noise), using independent spawned noise streams.
    u and q_noise may be shared across layers or given per layer.
    All layers advance in one step: one batched product over the stacked
    dense couplings, or one CSR product over their block diagonal beyond
    DENSE_MAX_N agents. Each row sums the same terms in the same order as
    its own layer's product, so the states match per-layer stepping bit
    for bit.
    """
    _check_steps(steps)
    n, n_layers = mx.n, mx.n_layers
    u_layers = _per_layer_vectors(u, n, n_layers)
    q_layers = _per_layer_matrices(q_noise, n, n_layers)
    couplings = []
    # Step-major, so each step reads and writes one contiguous
    # (n_layers, n, 1) stack of columns.
    frames = np.empty((steps + 1, n_layers, n, 1))
    anchors = np.empty((n_layers, n, 1))
    noise = np.empty((steps, n_layers, n, 1))
    for s, layer in enumerate(mx.layers):
        lam = np.asarray(
            layer.lam if lambdas is None else lambdas[s], dtype=float
        ).ravel()
        net = layer._with_susceptibilities(lam)
        coupling = _coupling(net)
        _stability(net, coupling, f"multiplex layer {s}")
        couplings.append(coupling)
        factor = _noise_factor(q_layers[s], n)
        rng = philox_stream(seed, 3, s)
        anchors[s, :, 0] = (1.0 - lam) * u_layers[s]
        frames[0, s, :, 0] = u_layers[s]
        # One GEMM for all steps; row k equals factor @ shock(k) up to the
        # summation order inside BLAS (exactly when factor is diagonal).
        noise[:, s, :, 0] = rng.standard_normal((steps, n)) @ factor.T
    if sparse.issparse(couplings[0]):
        block = sparse.block_diag(couplings, format="csr")

        def advance(x):
            return (block @ x.ravel()).reshape(x.shape)
    else:
        advance = partial(np.matmul, np.stack(couplings))  # one gemv per layer
    for x, x_next, eta in zip(frames, frames[1:], noise):
        np.add(advance(x), anchors, out=x_next)
        x_next += eta
    del noise  # freed before the per-layer copies below
    return [
        OpinionTrajectory(
            states=np.ascontiguousarray(frames[:, s]),
            model=ModelDescriptor(
                kind="multiplex_noisy", params={"layer": s, "steps": steps}, seed=seed
            ),
        )
        for s in range(n_layers)
    ]


def _per_layer_vectors(u, n: int, n_layers: int) -> list[np.ndarray]:
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        vectors = [u] * n_layers
    elif u.ndim == 2 and u.shape == (n_layers, n):
        vectors = list(u)
    else:
        raise StructuralError(f"u must be ({n},) or ({n_layers}, {n})")
    return [_as_profile(v, n)[:, 0] for v in vectors]


def _per_layer_matrices(q, n: int, n_layers: int) -> list[np.ndarray]:
    q = np.asarray(q, dtype=float)
    if q.ndim == 2:
        return [q] * n_layers
    if q.ndim == 3 and q.shape[0] == n_layers:
        return list(q)
    raise StructuralError(f"q_noise must be ({n}, {n}) or ({n_layers}, {n}, {n})")


def cross_correlation_recursion(
    gamma_bar: np.ndarray,
    b_bar: np.ndarray,
    x_mean: np.ndarray,
    sigma0: np.ndarray,
    n_lags: int,
) -> np.ndarray:
    """Propagate stationary cross-correlations across lags.

    Sigma[l+1] = Sigma[l] Gamma_bar' + x_mean b_bar', starting from the
    supplied lag-0 matrix; returns an (n_lags + 1, n, n) stack.
    """
    gamma_bar = np.atleast_2d(np.asarray(gamma_bar, dtype=float))
    n = gamma_bar.shape[0]
    drift = np.outer(np.asarray(x_mean, float).ravel(), np.asarray(b_bar, float).ravel())
    out = np.empty((n_lags + 1, n, n))
    out[0] = np.asarray(sigma0, dtype=float)
    for lag in range(n_lags):
        out[lag + 1] = out[lag] @ gamma_bar.T + drift
    return out


# ---- file format ----------------------------------------------------------
#
# Trajectories are tables (see _files) with header k,agent,issue,value; a
# thinning stride keeps every stride-th step (step 0 always included).


def save_trajectory(traj: OpinionTrajectory, path, stride: int = 1) -> None:
    if stride < 1:
        raise ParameterError("stride must be >= 1")
    steps = range(0, traj.states.shape[0], stride)
    write_table(path, "k,agent,issue,value", traj.states[::stride], keys=steps)


def load_trajectory(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a trajectory file; returns (step indices, states array)."""
    (ks, agents, issues), values = read_table(path, "k,agent,issue,value", "trajectory")
    if values.size == 0:
        raise ConfigError(f"trajectory file {path} holds no samples")
    if (ks[1:] >= ks[:-1]).all():  # steps in file order: frames count step changes
        starts = np.concatenate(([True], ks[1:] != ks[:-1]))
        steps, frames = ks[starts], np.cumsum(starts)
        frames -= 1
    else:
        steps, frames = np.unique(ks, return_inverse=True)
    shape = (steps.size, int(agents.max()) + 1, int(issues.max()) + 1)
    # read_table rejects repeated rows, so the table is complete exactly
    # when it has one row per cell
    if values.size != shape[0] * shape[1] * shape[2]:
        # name the first missing cell in row-major order (error path only)
        present = set(zip(frames.tolist(), agents.tolist(), issues.tolist()))
        cells = (
            (f, a, i) for f in range(shape[0]) for a in range(shape[1]) for i in range(shape[2])
        )
        frame, agent, issue = next(cell for cell in cells if cell not in present)
        raise ConfigError(
            f"trajectory file {path} is missing (k={steps[frame]}, agent={agent}, issue={issue})"
        )
    states = np.empty(shape)
    states[frames, agents, issues] = values
    return steps, states
