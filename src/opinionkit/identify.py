"""Reconstruction of influence networks from opinion data.

Three data regimes are covered: finite trajectories (banded row-wise
programs), equilibrium snapshots (l1 row programs on the fixed-point
identity), and stationary second moments of randomly observed streams
(lag-correlation identities solved for the mean update). All estimators
decompose into per-row or per-column programs and report supports,
metrics, and solver diagnostics in one record type.
"""

import warnings
from dataclasses import dataclass, field
from math import log, pi as _PI

import numpy as np
from scipy.special import multigammaln

from ._files import is_int, is_number, read_json, write_json
from .errors import (
    ConfigError,
    EstimationError,
    IdentifiabilityError,
    InfeasibleError,
    NumericalError,
    ParameterError,
    StructuralError,
    TransformError,
)
from .dynamics import OpinionTrajectory, _per_layer_vectors, is_schur_stable
from .netgraph import MULTIPLEX_MODELS, InfluenceNetwork
from .numkit import (
    L1Problem,
    PINV_RCOND,
    STRUCTURAL_ZERO,
    SUM_TOL,
    minimal_band,
    pseudoinverse,
    solve_l1_rows,
)
from .observe import ObservationStream, observation_moments

# Number of lag matrices averaged into Sigma_minus / Sigma_plus unless a
# caller sets n_sigma; identify_multiplex also estimates lags 0..N_SIGMA.
N_SIGMA = 5

# Off-diagonal entries of Gamma-hat below this fraction of the largest one
# are treated as absent edges.
SUPPORT_FRACTION = 0.05

# Entries of an equilibrium or finite-horizon W-hat above this magnitude form
# its support: ten times HiGHS's 1e-7 feasibility tolerance, so noise is no edge.
SUPPORT_TOL = 1e-6

# Entries of a plain estimate matrix above this magnitude count as edges
# in evaluate_estimate unless the caller sets tol.
EVALUATE_TOL = 1e-8

# fit_hyperparameters stops after HYPER_MAX_ITER alternating updates, or
# as converged once the objective changes by at most HYPER_REL_TOL of itself.
HYPER_MAX_ITER = 200
HYPER_REL_TOL = 1e-8


@dataclass(frozen=True)
class EstimationReport:
    """One reconstructed network: weights, susceptibilities when
    estimated, the mean-update matrix when one was formed, the thresholded
    support, and solver diagnostics."""

    w_hat: np.ndarray
    lambda_hat: np.ndarray | None
    gamma_hat: np.ndarray | None
    support: tuple[tuple[int, int], ...]
    metrics: dict = field(default_factory=dict)
    solver_log: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MomentEstimates:
    """Corrected moment estimates from one observation stream."""

    x_hat: np.ndarray
    sigma: np.ndarray          # (max_lag + 1, n, n)
    sigma_minus: np.ndarray
    sigma_plus: np.ndarray
    n_sigma: int
    horizon: int


@dataclass(frozen=True)
class BayesShrinkage:
    matrices: tuple
    gammas: tuple
    prior_mean: np.ndarray


@dataclass(frozen=True)
class HyperFit:
    psi: np.ndarray
    nu: float
    objective: float
    n_iter: int
    converged: bool
    confidence: str


@dataclass(frozen=True)
class MultiplexEstimate:
    reports: tuple
    joint_support: tuple | None


@dataclass(frozen=True)
class EvalMetrics:
    precision: float
    recall: float
    f1: float
    frobenius_error: float
    max_abs_error: float


def _support_of(matrix: np.ndarray, threshold: float) -> tuple[tuple[int, int], ...]:
    rows, cols = np.nonzero(np.abs(matrix) > threshold)
    return tuple(zip(rows.tolist(), cols.tolist()))


def _as_profiles(x0, x_inf) -> tuple[np.ndarray, np.ndarray]:
    x0 = np.asarray(x0, dtype=float)
    x_inf = np.asarray(x_inf, dtype=float)
    if x0.ndim == 1:
        x0 = x0[:, None]
    if x_inf.ndim == 1:
        x_inf = x_inf[:, None]
    if x0.shape != x_inf.shape:
        raise StructuralError(f"profile shapes differ: {x0.shape} vs {x_inf.shape}")
    if not (np.isfinite(x0).all() and np.isfinite(x_inf).all()):
        raise ParameterError("profiles must be finite")
    return x0, x_inf


def _consensus_guard(x0: np.ndarray) -> None:
    spreads = x0.max(axis=0) - x0.min(axis=0)
    consensus = spreads <= STRUCTURAL_ZERO
    if consensus.all():
        raise IdentifiabilityError(
            "every initial column is a consensus vector; equilibrium data "
            "carries no information about the weights"
        )
    if consensus.any():
        warnings.warn(
            f"{int(consensus.sum())} initial columns are consensus vectors "
            "and contribute nothing",
            stacklevel=3,
        )


def identify_finite_horizon(
    traj: OpinionTrajectory,
    eps: float = 0.0,
    lam: np.ndarray | None = None,
) -> EstimationReport:
    """Fit x(k+1) ~ A x(k) + B x(0) from a finite trajectory.

    Each row is one l1 program: a per-sample deviation band of
    half-width eps, the stochastic closure sum_j a_ij = 1 - b_i, and
    0 <= a, 0 <= b <= 1. It minimizes the off-diagonal l1 mass of the
    row; a_ii and b_i are free of cost. A row whose x_i never moves fits
    every split a_ii + b_i = 1 equally well, so the kernel's
    lexicographic tie-break takes, among the rows of least off-diagonal
    mass, the one of least a_ii, which reads a fully stubborn agent as
    anchored (b_i = 1). Passing lam (entries in [0, 1]) pins
    b_i = 1 - lambda_i, which leaves no tie. The recovered pair is lambda_i = 1 - b_i and
    w_ij = a_ij / lambda_i (a fully stubborn row falls back to the
    self-loop convention).

    With eps = 0 the programs are nonnegative, so solve_l1 certifies most
    rows without an LP (solver_log nnls_rows): a row whose data admit one
    (a, b) takes it, and a stubborn row takes the zero-cost face's point
    a = 0, b = 1, which is the tie-break's choice. A row neither face
    decides, and every row of a band eps > 0, is solved by HiGHS, with the
    lexicographic stage where the tie remains (lexicographic_rows).
    """
    if not eps >= 0.0:
        raise ParameterError(f"eps must be >= 0, got {eps}")
    states = traj.states
    if states.shape[0] < 2:
        raise StructuralError("need at least one transition")
    if not np.isfinite(states).all():
        raise ParameterError("trajectory states must be finite")
    n, m = states.shape[1], states.shape[2]
    if lam is not None:
        lam = np.asarray(lam, dtype=float).ravel()
        if lam.shape != (n,) or not np.all((lam >= 0.0) & (lam <= 1.0)):
            raise ParameterError("lam must be a length-n vector in [0, 1]")
    x0 = states[0]
    data = np.concatenate(list(states[:-1]), axis=1)        # (n, (K)*m)
    target = np.concatenate(list(states[1:]), axis=1)       # (n, (K)*m)

    def row_problem(i):
        # Variables [a_i (n), b_i], nonnegative, b_i <= 1. Only the
        # off-diagonal couplings are priced; the a_ii / b_i tie of a
        # constant row goes to the least a_ii.
        weights = np.ones(n + 1)
        weights[i] = weights[n] = 0.0
        # Anchor coefficients repeat x_i(0) across steps, issue-minor.
        anchor = np.tile(x0[i], states.shape[0] - 1)
        lo, hi = np.full(n + 1, np.nan), np.full(n + 1, np.nan)
        tie = None
        if lam is None:
            hi[n] = 1.0
            tie = np.zeros(n + 1)
            tie[i] = 1.0
        else:
            lo[n] = hi[n] = 1.0 - float(lam[i])
        return L1Problem(
            phi=np.vstack([data, anchor[None, :]]).T, psi=target[i], sum_to=1.0,
            nonneg=True, weights=weights, lo=lo, hi=hi, band=eps, tie_weights=tie,
        )

    rows, results = _solve_rows(
        map(row_problem, range(n)),
        lambda i: f"row {i}: no (a, b) fits within eps={eps:.3g}; "
        f"smallest feasible band is {minimal_band(row_problem(i)):.6g}",
    )
    rows = rows.reshape(n, n + 1)  # (0, 1) when there are no agents
    a_hat, b_hat = rows[:, :n], rows[:, n]
    lambda_hat = 1.0 - b_hat
    w_hat = np.zeros((n, n))
    for i in range(n):
        if lambda_hat[i] > STRUCTURAL_ZERO:
            w_hat[i] = a_hat[i] / lambda_hat[i]
        else:
            w_hat[i, i] = 1.0
    return EstimationReport(
        w_hat=w_hat,
        lambda_hat=lambda_hat,
        gamma_hat=None,
        support=_support_of(w_hat, SUPPORT_TOL),
        metrics={"eps": eps, "n_transitions": states.shape[0] - 1, "n_issues": m},
        solver_log={**_lp_log(results), "coupling_matrix": a_hat},
    )


def _solve_rows(problems, infeasible, what: str = "row"):
    """(solutions stacked as rows, SolveResults) of the programs, solved in
    order by one solve_l1_rows call. The first program i, in order, that is
    not optimal raises InfeasibleError(infeasible(i)) if infeasible and
    NumericalError naming `what` i otherwise. Every estimator row is solved
    here: a tie rule belongs here."""
    results = solve_l1_rows(problems)
    for i, result in enumerate(results):
        if result.status == "infeasible":
            raise InfeasibleError(infeasible(i))
        if not result.ok:
            raise NumericalError(f"{what} {i}: l1 solve ended with {result.status}")
    return np.array([result.x for result in results]), results


def _lp_log(results) -> dict:
    """The solver_log entries of every LP-backed estimator: per-row (or
    per-column) objectives, total iterations (HiGHS's and the least-moment
    simplex's pivots), the rows decided by the lexicographic stage-2 LP, by
    a certified face without an LP (nnls_rows), the rows whose first face,
    the nonnegative feasible set (for a signed row, its nonnegative optimal
    set), holds several points (tied_rows), those of them decided by the
    certified least-moment point rather than HiGHS's vertex (moment_rows),
    and the rows HiGHS decided (highs_rows), whose points may depend on the
    HiGHS version. nnls_rows, moment_rows and highs_rows partition the
    rows."""

    def rows_where(key, value):
        return tuple(row for row, result in enumerate(results) if result.solver_log[key] == value)

    return {
        "objectives": tuple(result.objective for result in results),
        "iterations": sum(result.solver_log["iterations"] for result in results),
        "lexicographic_rows": rows_where("tie_break", "lexicographic"),
        "nnls_rows": rows_where("certificate", "unique"),
        "tied_rows": rows_where("certificate", "tied"),
        "moment_rows": rows_where("tie_break", "least-moment"),
        "highs_rows": rows_where("method", "highs"),
    }


def check_lambda_identifiability(lam) -> None:
    """Raise when susceptibilities alone rule out equilibrium recovery:
    lambda = 1 everywhere (any row-stochastic W fits) or any lambda = 0
    (that agent's row never shows in the data)."""
    lam = np.asarray(lam, dtype=float).ravel()
    if np.all(lam >= 1.0):
        raise IdentifiabilityError(
            "lambda = 1 everywhere: equilibria satisfy W x = x for any "
            "row-stochastic W, so the weights are not identifiable"
        )
    if np.any(lam <= 0.0):
        raise IdentifiabilityError(
            "fully stubborn agents (lambda = 0) never reveal their weights"
        )


def identify_infinite_horizon(x0, x_inf, lam, nonneg: bool = False) -> EstimationReport:
    """Recover W from equilibrium snapshots with known susceptibilities.

    Each row solves min ||w||_1 subject to X(inf)' w = psi_j and
    1'w = 1, where psi_j = (x_j(inf) - (1 - lambda_j) x_j(0)) / lambda_j
    restates the fixed-point identity. nonneg additionally constrains
    w >= 0. Consensus-only initial data, lambda = 1 everywhere, or any
    lambda_j = 0 make the program meaningless and raise.

    Since ||w||_1 >= 1'w = 1, with equality exactly when w >= 0, the
    program is a nonnegative feasibility problem whenever a nonnegative
    solution exists: every such point is optimal, signed or not, so
    solve_l1 takes a row's only nonnegative solution with no LP (solver_log
    nnls_rows). A row with several (tied_rows) takes the one of least
    sum_k w_k |x_k(inf)|^2 where the certificate finds it the only such
    point (moment_rows), and HiGHS's vertex otherwise; a row with none
    solves its LP (both highs_rows). The tied rows share their face matrix,
    so their least-moment simplex runs as one batch (see solve_l1_rows).
    """
    x0, x_inf = _as_profiles(x0, x_inf)
    n = x0.shape[0]
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape[0] != n:
        raise StructuralError("lambda length does not match the profiles")
    check_lambda_identifiability(lam)
    if np.any(lam >= 1.0):
        warnings.warn(
            "rows with lambda = 1 admit the trivial self-loop solution; "
            "their estimates are minimal-l1 representatives only",
            stacklevel=2,
        )
    _consensus_guard(x0)

    psi = (x_inf - (1.0 - lam)[:, None] * x0) / lam[:, None]
    w_hat, results = _solve_rows(
        (L1Problem(phi=x_inf.T, psi=row, sum_to=1.0, nonneg=nonneg) for row in psi),
        lambda j: f"row {j}: equilibrium identities are inconsistent",
    )
    return EstimationReport(
        w_hat=w_hat,
        lambda_hat=lam,
        gamma_hat=None,
        support=_support_of(w_hat, SUPPORT_TOL),
        metrics={"max_residual": max(result.residual for result in results)},
        solver_log={**_lp_log(results), "nonneg": nonneg},
    )


def identify_unknown_lambda(x0, x_inf, nonneg: bool = False) -> EstimationReport:
    """Joint recovery of (W, lambda) up to the scaling ambiguity.

    Self-weights trade off against susceptibilities without changing any
    equilibrium, so the estimate is pinned to the canonical representative
    with diag(W) = 0. Each row solves the augmented program on
    [X(inf)', x_j(0) - x_j(inf)] with unknown [w_j; mu_j], mu_j =
    1/lambda_j >= 1, w_jj = 0, 1'w_j = 1, minimizing ||w_j||_1.

    As in identify_infinite_horizon, ||w_j||_1 >= 1'w_j = 1 makes every
    nonnegative solution optimal, so the program is a nonnegative
    feasibility problem whenever one exists: solve_l1 takes a unique
    solution with no LP (nnls_rows); a tied row (tied_rows, including an
    agent that never moved, whose mu is free) takes its certified
    least-moment point (moment_rows; the moment of the column of mu is
    |x_j(0) - x_j(inf)|^2) or, where the certificate cannot decide, HiGHS's
    vertex, and a row with no nonnegative solution solves its LP.
    """
    x0, x_inf = _as_profiles(x0, x_inf)
    n, m = x0.shape
    if n < 2:
        raise StructuralError("need at least two agents")
    _consensus_guard(x0)
    spread_0 = float((x0.max(axis=0) - x0.min(axis=0)).max())
    spread_inf = float((x_inf.max(axis=0) - x_inf.min(axis=0)).max())
    if spread_inf < 0.01 * spread_0:
        warnings.warn(
            "equilibrium profiles are nearly consensus (susceptibilities "
            "close to 1); the recovery is ill-conditioned",
            stacklevel=2,
        )

    def row_problem(j):
        # The closure row sums w only, not mu; as the weights it prices w alone.
        closure = np.append(np.ones(n), 0.0)
        phi = np.vstack([np.hstack([x_inf.T, (x0[j] - x_inf[j])[:, None]]), closure])
        lo, hi = np.full(n + 1, np.nan), np.full(n + 1, np.nan)
        lo[j] = hi[j] = 0.0
        lo[n] = 1.0
        return L1Problem(phi=phi, psi=np.append(x0[j], 1.0), nonneg=nonneg, weights=closure,
                         lo=lo, hi=hi)

    rows, results = _solve_rows(
        map(row_problem, range(n)),
        lambda j: f"row {j}: augmented identities are inconsistent",
    )
    w_hat, mu = rows[:, :n], rows[:, n]
    at_rest = np.flatnonzero(np.abs(x0 - x_inf).max(axis=1) <= STRUCTURAL_ZERO).tolist()
    if at_rest:
        warnings.warn(
            f"agents {at_rest} never moved; their susceptibilities are arbitrary",
            stacklevel=2,
        )
    lambda_hat = 1.0 / mu
    return EstimationReport(
        w_hat=w_hat,
        lambda_hat=lambda_hat,
        gamma_hat=None,
        support=_support_of(w_hat, SUPPORT_TOL),
        metrics={"canonical": "zero-diagonal"},
        solver_log={**_lp_log(results), "rows_at_rest": tuple(at_rest), "nonneg": nonneg},
    )


def ambiguity_transform(lam, w, d) -> tuple[np.ndarray, np.ndarray]:
    """Produce the equivalent model (lambda', W') indexed by d in [0, 1]^n.

    Off-diagonal couplings scale as d_i lambda_i w_ij while
    lambda'_i = 1 - d_i (1 - lambda_i); self-weights absorb the change, so
    every admissible d yields the same map from initial to equilibrium
    opinions. Raises when the transformed model leaves the admissible
    class (negative weights, lambda outside [0, 1], or lost stability).
    """
    lam = np.asarray(lam, dtype=float).ravel()
    w = np.atleast_2d(np.asarray(w, dtype=float))
    d = np.asarray(d, dtype=float).ravel()
    n = lam.shape[0]
    if w.shape != (n, n) or d.shape[0] != n:
        raise StructuralError("lambda, W, and d sizes are inconsistent")
    if not (d.min() >= 0.0 and d.max() <= 1.0):
        raise ParameterError("d entries must lie in [0, 1]")

    lam2 = 1.0 - d * (1.0 - lam)
    coupling = lam[:, None] * w
    off = coupling.copy()
    np.fill_diagonal(off, 0.0)
    coupling2 = d[:, None] * off
    diag2 = 1.0 - d * ((1.0 - lam) + off.sum(axis=1))
    coupling2[np.arange(n), np.arange(n)] = diag2

    w2 = np.zeros((n, n))
    for i in range(n):
        if lam2[i] > STRUCTURAL_ZERO:
            w2[i] = coupling2[i] / lam2[i]
        elif np.abs(coupling2[i]).max() <= 1e-9:
            w2[i, i] = 1.0
        else:
            raise TransformError(
                f"d[{i}] makes agent {i} fully stubborn while keeping couplings"
            )
    if w2.min() < -1e-9:
        raise TransformError("transformed weights leave the nonnegative cone")
    w2 = np.clip(w2, 0.0, None)
    row_err = np.max(np.abs(w2.sum(axis=1) - 1.0))
    if row_err > SUM_TOL:
        raise TransformError(f"transformed rows are off-stochastic by {row_err:.3g}")
    if lam2.min() < -1e-12 or lam2.max() > 1.0 + 1e-12:
        raise TransformError("transformed susceptibilities leave [0, 1]")
    check = is_schur_stable(InfluenceNetwork(w=w2, lam=np.clip(lam2, 0.0, 1.0)))
    if not check.schur_stable:
        raise TransformError("transform breaks reachability of lambda < 1 agents")
    return np.clip(lam2, 0.0, 1.0), w2


def estimate_state_mean(stream: ObservationStream) -> np.ndarray:
    """Bias-corrected mean state x_hat = z_bar / pi."""
    if stream.horizon <= 0:
        raise EstimationError("empty stream carries no information")
    pi = stream.model.rho_vector(stream.n)
    zero = np.flatnonzero(pi == 0.0)
    if zero.size:
        raise IdentifiabilityError(
            f"agents {zero.tolist()} have rho = 0 and are never observed"
        )
    return stream.values.mean(axis=0) / pi


def estimate_cross_correlations(
    stream: ObservationStream, max_lag: int, n_sigma: int = N_SIGMA
) -> MomentEstimates:
    """Moment-corrected lag correlations and their Sigma-+/- averages.

    S_hat[l] = (1/(t-l)) sum_k z(k) z(k+l)' is corrected entrywise by the
    observation moments; sigma_minus and sigma_plus average lags
    0..n_sigma-1 and 1..n_sigma.
    """
    steps = stream.values.shape[0]
    if n_sigma < 1:
        raise ParameterError("n_sigma must be >= 1")
    if max_lag < n_sigma:
        raise ParameterError(f"max_lag={max_lag} must be >= n_sigma={n_sigma}")
    if steps <= max_lag:
        raise EstimationError(f"{steps} steps cannot support lag {max_lag}")
    moments = observation_moments(stream.model, stream.n, max_lag)
    if np.any(moments.cap_pi[: max_lag + 1] == 0.0):
        raise IdentifiabilityError(
            "observation moments vanish somewhere; those correlations are "
            "not estimable"
        )
    z = stream.values
    sigma = np.empty((max_lag + 1, stream.n, stream.n))
    for lag in range(max_lag + 1):
        upper = steps - lag
        raw = z[:upper].T @ z[lag:] / upper
        sigma[lag] = raw / moments.cap_pi[lag]
    return _moments(estimate_state_mean(stream), sigma, n_sigma, stream.horizon)


def _moments(x_hat, sigma, n_sigma: int, horizon: int) -> MomentEstimates:
    """The estimates of a lag stack; Sigma_-/+ average lags 0..n_sigma-1 / 1..n_sigma."""
    return MomentEstimates(
        x_hat=x_hat,
        sigma=sigma,
        sigma_minus=sigma[:n_sigma].mean(axis=0),
        sigma_plus=sigma[1 : n_sigma + 1].mean(axis=0),
        n_sigma=n_sigma,
        horizon=horizon,
    )


def estimate_gamma(
    moments: MomentEstimates,
    b_bar,
    mode: str = "dense",
    eta: float = 0.0,
) -> tuple[np.ndarray, dict]:
    """Solve the lag identity Sigma_plus = Sigma_minus Gamma' + x b_bar'.

    dense inverts Sigma_minus through the pseudoinverse (rank deficiency
    falls back to the minimum-norm solution with a warning); sparse
    minimizes the off-diagonal l1 mass of Gamma' column by column subject
    to a max-norm band of width eta around the identity, and its info adds
    the per-column LP log shared by every LP-backed estimator. Both modes
    reject an eta that is not >= 0; only sparse uses eta. Rank counts
    singular values above PINV_RCOND of the largest.
    """
    if mode not in ("dense", "sparse"):
        raise ParameterError(f"unknown mode {mode!r}")
    if not eta >= 0.0:
        raise ParameterError(f"eta must be >= 0, got {eta:.3g}")
    b_bar = np.asarray(b_bar, dtype=float).ravel()
    n = moments.sigma_minus.shape[0]
    target = moments.sigma_plus - np.outer(moments.x_hat, b_bar)
    sing = np.linalg.svd(moments.sigma_minus, compute_uv=False)
    rank = int(np.sum(sing > PINV_RCOND * sing[0]))
    condition = float(sing[0] / sing[-1]) if sing[-1] > 0.0 else float("inf")
    info = {"mode": mode, "condition": condition, "rank": rank}
    if mode == "dense":
        if rank < n:
            warnings.warn(
                f"Sigma_minus has rank {rank} < {n}; using the pseudoinverse "
                "fallback",
                stacklevel=2,
            )
        gamma_t = pseudoinverse(moments.sigma_minus) @ target
        return gamma_t.T, info

    gamma_hat, results = _solve_rows(
        (
            L1Problem(phi=moments.sigma_minus, psi=column, weights=weights, band=eta)
            for weights, column in zip(1.0 - np.eye(n), target.T)
        ),
        lambda col: f"column {col}: lag identities are inconsistent within "
        f"eta={eta:.3g}; widen the band",
        what="column",
    )
    return gamma_hat, {**info, **_lp_log(results)}


def recover_topology_and_w(
    gamma_hat: np.ndarray,
    lam,
    beta: float,
    threshold: float | None = None,
) -> EstimationReport:
    """Invert the expected gossip update for the weight matrix.

    The off-diagonal support of Gamma-bar equals the edge set, so
    neighborhood sizes are read off the thresholded estimate and
    W = (1/beta) D Lambda^{-1} [Gamma - (1-beta) I - beta Lambda (I - D^{-1})]
    undoes the averaging. Recovered rows are clipped at zero and
    renormalized, with both adjustments reported.
    """
    gamma_hat = np.atleast_2d(np.asarray(gamma_hat, dtype=float))
    lam = np.asarray(lam, dtype=float).ravel()
    n = gamma_hat.shape[0]
    if gamma_hat.shape != (n, n) or lam.shape[0] != n:
        raise StructuralError("gamma and lambda sizes are inconsistent")
    if not 0.0 < beta <= 1.0:
        raise ParameterError("beta must lie in (0, 1]")
    if np.any(lam <= 0.0):
        raise IdentifiabilityError(
            "agents with lambda = 0 never move, so their rows cannot be recovered"
        )
    off, threshold = _off_diagonal_cut(gamma_hat, threshold)
    keep = off > threshold
    d_hat = keep.sum(axis=1).astype(float)
    empty = np.flatnonzero(d_hat == 0)
    if empty.size:
        raise StructuralError(
            f"rows {empty.tolist()} keep no edges above threshold {threshold:.3g}"
        )
    trimmed = np.where(keep, gamma_hat, 0.0)
    np.fill_diagonal(trimmed, np.diag(gamma_hat))

    correction = trimmed - (1.0 - beta) * np.eye(n) - beta * np.diag(
        lam * (1.0 - 1.0 / d_hat)
    )
    w_hat = (d_hat / (beta * lam))[:, None] * correction
    clipped = float(-np.clip(w_hat, None, 0.0).sum())
    w_hat = np.clip(w_hat, 0.0, None)
    sums = w_hat.sum(axis=1)
    if np.any(sums <= 0.0):
        raise NumericalError("a recovered row has no positive mass")
    renorm = float(np.max(np.abs(sums - 1.0)))
    w_hat = w_hat / sums[:, None]
    support = _support_of(np.where(keep, 1.0, 0.0), 0.5)
    return EstimationReport(
        w_hat=w_hat,
        lambda_hat=lam,
        gamma_hat=gamma_hat,
        support=support,
        metrics={
            "threshold": float(threshold),
            "clipped_negative_mass": clipped,
            "max_row_renormalization": renorm,
        },
        solver_log={"d_hat": d_hat},
    )


def _off_diagonal_cut(gamma_hat: np.ndarray, threshold: float | None):
    """|gamma_hat| with its diagonal zeroed, and the edge cut: threshold,
    or SUPPORT_FRACTION of the largest off-diagonal entry when None."""
    off = np.abs(gamma_hat)
    np.fill_diagonal(off, 0.0)
    return off, SUPPORT_FRACTION * off.max() if threshold is None else threshold


def _check_prior(psi: np.ndarray | None, nu: float, n: int) -> None:
    """Raise unless nu is finite and > n + 1 and psi (when given) is an SPD
    (n, n) scale."""
    if psi is not None:
        psi = np.asarray(psi, dtype=float)
        if psi.shape != (n, n):
            raise StructuralError(f"prior scale must be ({n}, {n})")
        if not np.allclose(psi, psi.T, atol=1e-9):
            raise ParameterError("prior scale must be symmetric")
        if np.linalg.eigvalsh(psi).min() <= 0.0:
            raise ParameterError("prior scale must be positive definite")
    if not n + 1 < nu < np.inf:
        raise ParameterError(f"nu must exceed n + 1 = {n + 1} and be finite")


def _shrink(prior_mean: np.ndarray, scm: np.ndarray, nu: float, t: float, n: int):
    """(gamma * prior_mean + (1 - gamma) * scm, gamma) with the
    inverse-Wishart weight gamma = (nu - (n+1)) / (nu + t - (n+1))."""
    gamma = float((nu - (n + 1)) / (nu + t - (n + 1)))
    return gamma * prior_mean + (1.0 - gamma) * scm, gamma


def _pooled_prior(covariances, nu: float, n: int) -> np.ndarray:
    """The prior scale (nu - (n+1)) * P of the symmetrised mean covariance
    P, ridged by 1e-8 times its mean diagonal (at least 1e-16)."""
    pooled = np.mean(covariances, axis=0)
    pooled = (pooled + pooled.T) / 2.0 + 1e-8 * np.eye(n) * max(np.trace(pooled) / n, 1e-8)
    return (nu - (n + 1)) * pooled


def bayesian_covariance(samples, psi: np.ndarray, nu: float) -> BayesShrinkage:
    """Shrink per-system sample covariances toward a common prior mean.

    Each system's estimate is gamma * Psi/(nu - (n+1)) + (1-gamma) * SCM
    with gamma = (nu - (n+1)) / (nu + T - (n+1)); systems with no samples
    return the prior mean exactly.
    """
    samples = [np.atleast_2d(np.asarray(z, dtype=float)) for z in samples]
    if not samples:
        raise ParameterError("need at least one system")
    n = samples[0].shape[0]
    psi = np.asarray(psi, dtype=float)
    _check_prior(psi, float(nu), n)
    prior_mean = psi / (nu - (n + 1))
    matrices, gammas = [], []
    for z in samples:
        if z.shape[0] != n:
            raise StructuralError("all systems must share the dimension")
        t = z.shape[1]
        scm = z @ z.T / t if t > 0 else np.zeros((n, n))
        matrix, gamma = _shrink(prior_mean, scm, nu, t, n)
        matrices.append(matrix)
        gammas.append(gamma)
    return BayesShrinkage(
        matrices=tuple(matrices), gammas=tuple(gammas), prior_mean=prior_mean
    )


def _neg_log_marginal(psi: np.ndarray, nu: float, grams, t_sizes, n: int) -> float:
    sign, logdet_psi = np.linalg.slogdet(psi)
    if sign <= 0:
        return float("inf")
    total = 0.0
    for gram, t in zip(grams, t_sizes):
        sign_g, logdet_g = np.linalg.slogdet(psi + gram)
        if sign_g <= 0:
            return float("inf")
        total += (
            multigammaln((nu + t) / 2.0, n)
            - multigammaln(nu / 2.0, n)
            + (nu / 2.0) * logdet_psi
            - ((nu + t) / 2.0) * logdet_g
            - (n * t / 2.0) * log(_PI)
        )
    return -total


def _golden_nu(psi, grams, t_sizes, n, lo, hi, evals=80):
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc = _neg_log_marginal(psi, c, grams, t_sizes, n)
    fd = _neg_log_marginal(psi, d, grams, t_sizes, n)
    for _ in range(evals):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = _neg_log_marginal(psi, c, grams, t_sizes, n)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = _neg_log_marginal(psi, d, grams, t_sizes, n)
    return (c, fc) if fc <= fd else (d, fd)


def fit_hyperparameters(samples) -> HyperFit:
    """Empirical-Bayes fit of the prior (Psi, nu) across systems.

    Alternates a golden-section search in nu with a damped fixed-point
    update of Psi, driving the summed negative log marginal likelihood of
    the zero-mean Gaussian / inverse-Wishart hierarchy downward; the
    objective is non-increasing by construction and convergence is
    declared at relative change below HYPER_REL_TOL, within HYPER_MAX_ITER
    rounds.
    """
    samples = [np.atleast_2d(np.asarray(z, dtype=float)) for z in samples]
    if not samples:
        raise ParameterError("need at least one system")
    n = samples[0].shape[0]
    t_sizes = [z.shape[1] for z in samples]
    if min(t_sizes) < 1:
        raise ParameterError("every system needs at least one sample to fit a prior")
    grams = [z @ z.T for z in samples]
    m = len(samples)

    nu = n + 3.0
    psi = _pooled_prior([g / t for g, t in zip(grams, t_sizes)], nu, n)
    lo, hi = n + 1 + 1e-6, n + 1 + 1000.0

    objective = _neg_log_marginal(psi, nu, grams, t_sizes, n)
    converged = False
    iterations = 0
    for iterations in range(1, HYPER_MAX_ITER + 1):
        nu_new, obj_nu = _golden_nu(psi, grams, t_sizes, n, lo, hi)
        if obj_nu < objective:
            nu, objective = nu_new, obj_nu

        inv_sum = np.zeros((n, n))
        for gram, t in zip(grams, t_sizes):
            inv_sum += (nu + t) * np.linalg.inv(psi + gram)
        candidate = np.linalg.inv(inv_sum / (m * nu))
        candidate = (candidate + candidate.T) / 2.0
        obj_candidate = _neg_log_marginal(candidate, nu, grams, t_sizes, n)
        halvings = 0
        while obj_candidate > objective and halvings < 30:
            candidate = (candidate + psi) / 2.0
            obj_candidate = _neg_log_marginal(candidate, nu, grams, t_sizes, n)
            halvings += 1
        previous = objective
        if obj_candidate <= objective:
            psi, objective = candidate, obj_candidate
        if objective > previous + 1e-9 * max(1.0, abs(previous)):
            raise NumericalError("objective increased; alternating update is broken")
        if abs(previous - objective) <= HYPER_REL_TOL * max(1.0, abs(previous)):
            converged = True
            break

    confidence = "low" if m == 1 or sum(t_sizes) < 5 * n * n else "ok"
    return HyperFit(
        psi=psi,
        nu=float(nu),
        objective=float(objective),
        n_iter=iterations,
        converged=converged,
        confidence=confidence,
    )


def identify_multiplex(
    streams,
    model_tag: str,
    lambdas,
    u,
    psi: np.ndarray | None = None,
    nu: float | None = None,
    shrink: bool = True,
) -> MultiplexEstimate:
    """Per-layer mean-update estimation with cross-layer regularization.

    Each layer runs the moment pipeline for the synchronous anchored
    model (Gamma = Lambda W, b = (I - Lambda) u) on lags 0..N_SIGMA, and
    keeps the off-diagonal entries of its Gamma-hat above SUPPORT_FRACTION
    of the largest as its support. With shrink, the lag-0
    moment is first blended toward psi / (nu - (n+1)) as in
    bayesian_covariance; nu defaults to n + 3 and psi to the prior pooled
    from the layers' lag-0 moments as in fit_hyperparameters. A given psi
    or nu is checked as in bayesian_covariance (nu > n + 1, psi symmetric
    positive definite); without shrink both are unused. Under the
    common_support tag, supports are intersected across layers and each
    layer's weights are re-masked to the joint support.
    """
    if model_tag not in MULTIPLEX_MODELS:
        raise ParameterError(
            f"unknown multiplex model {model_tag!r}; choose from {MULTIPLEX_MODELS}"
        )
    joint_support = model_tag == "common_support"
    streams = list(streams)
    if not streams:
        raise ParameterError("need at least one layer")
    n = streams[0].n
    n_layers = len(streams)
    lambdas = [np.asarray(lam, dtype=float).ravel() for lam in lambdas]
    u_vectors = _per_layer_vectors(u, n, n_layers)
    if len(lambdas) != n_layers:
        raise StructuralError("one lambda vector per layer is required")
    if any(np.any(lam <= 0.0) for lam in lambdas):
        raise IdentifiabilityError("every susceptibility must be positive")

    moment_sets = [
        estimate_cross_correlations(stream, N_SIGMA, N_SIGMA) for stream in streams
    ]
    t_effs = [float(stream.mask.sum()) / stream.n for stream in streams]
    gammas_shrink = [0.0] * n_layers
    if shrink:
        nu = n + 3.0 if nu is None else float(nu)
        _check_prior(psi, nu, n)
        if psi is None:
            psi = _pooled_prior([me.sigma[0] for me in moment_sets], nu, n)
        prior_mean = np.asarray(psi, dtype=float) / (nu - (n + 1))
        for s, me in enumerate(moment_sets):
            sigma = me.sigma.copy()
            sigma[0], gammas_shrink[s] = _shrink(prior_mean, sigma[0], nu, t_effs[s], n)
            moment_sets[s] = _moments(me.x_hat, sigma, N_SIGMA, me.horizon)

    gamma_hats, supports, infos = [], [], []
    for s, me in enumerate(moment_sets):
        b_bar = (1.0 - lambdas[s]) * u_vectors[s]
        gamma_hat, info = estimate_gamma(me, b_bar, mode="dense")
        gamma_hats.append(gamma_hat)
        infos.append(info)
        cut = _off_diagonal_cut(gamma_hat, None)[1]
        supports.append(set(_support_of(gamma_hat, cut)))

    joint = None
    if joint_support:
        joint = set.intersection(*supports)
    reports = []
    for s in range(n_layers):
        keep = joint if joint is not None else supports[s]
        mask = np.zeros((n, n), dtype=bool)
        for i, j in keep:
            mask[i, j] = True
        w_hat = np.where(mask, gamma_hats[s] / lambdas[s][:, None], 0.0)
        w_hat = np.clip(w_hat, 0.0, None)
        sums = w_hat.sum(axis=1)
        renorm = float(np.max(np.abs(sums - 1.0))) if np.all(sums > 0) else float("nan")
        w_hat = np.divide(w_hat, sums[:, None], out=w_hat, where=sums[:, None] > 0)
        reports.append(
            EstimationReport(
                w_hat=w_hat,
                lambda_hat=lambdas[s],
                gamma_hat=gamma_hats[s],
                support=tuple(sorted(keep)),
                metrics={
                    "shrinkage_gamma": gammas_shrink[s],
                    "t_effective": t_effs[s],
                    "max_row_renormalization": renorm,
                },
                solver_log=infos[s],
            )
        )
    return MultiplexEstimate(
        reports=tuple(reports),
        joint_support=tuple(sorted(joint)) if joint is not None else None,
    )


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, set):
        return [_jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


_REPORT_KEYS = {"w_hat", "lambda_hat", "gamma_hat", "support", "metrics", "solver_log"}


def save_report(report: EstimationReport, path) -> None:
    """Serialize an estimation report to a JSON document."""
    doc = {
        "w_hat": report.w_hat.tolist(),
        "lambda_hat": None if report.lambda_hat is None else report.lambda_hat.tolist(),
        "gamma_hat": None if report.gamma_hat is None else report.gamma_hat.tolist(),
        "support": [[int(i), int(j)] for i, j in report.support],
        "metrics": _jsonable(report.metrics),
        "solver_log": _jsonable(report.solver_log),
    }
    write_json(path, doc)


def load_report(path) -> EstimationReport:
    """Read a report written by save_report. Raises ConfigError naming the
    file unless w_hat is a rectangular array of numbers, lambda_hat and
    gamma_hat are such arrays or null, support is a list of [int, int] and
    metrics and solver_log are JSON objects."""
    doc = read_json(path, "report", _REPORT_KEYS)
    arrays = {}
    for name in ("w_hat", "lambda_hat", "gamma_hat"):
        if doc[name] is None and name != "w_hat":
            arrays[name] = None
            continue
        cells = np.asarray(doc[name], dtype=object)
        if all(map(is_number, cells.flat)):
            arrays[name] = cells.astype(float)
            continue
        allowed = "an array of numbers" + ("" if name == "w_hat" else " or null")
        raise ConfigError(f"report {path}: {name} must be {allowed}")
    support = doc["support"]
    if not isinstance(support, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(map(is_int, pair))
        for pair in support
    ):
        raise ConfigError(f"report {path}: support must be a list of [int, int]")
    for name in ("metrics", "solver_log"):
        if not isinstance(doc[name], dict):
            raise ConfigError(f"report {path}: {name} must be a JSON object")
    return EstimationReport(
        **arrays,
        support=tuple((i, j) for i, j in support),
        metrics=doc["metrics"],
        solver_log=doc["solver_log"],
    )


def evaluate_estimate(w_true: np.ndarray, estimate, tol: float = EVALUATE_TOL) -> EvalMetrics:
    """Support precision/recall/F1 and weight errors of an estimate.

    estimate may be an EstimationReport (its stored support is used) or a
    plain matrix (support thresholded at tol). True edges are entries of
    w_true above the structural-zero tolerance.
    """
    w_true = np.atleast_2d(np.asarray(w_true, dtype=float))
    if isinstance(estimate, EstimationReport):
        w_hat = estimate.w_hat
        predicted = set(estimate.support)
    else:
        w_hat = np.atleast_2d(np.asarray(estimate, dtype=float))
        predicted = set(_support_of(w_hat, tol))
    if w_hat.shape != w_true.shape:
        raise StructuralError("estimate and truth shapes differ")
    actual = set(_support_of(w_true, STRUCTURAL_ZERO))
    tp = len(predicted & actual)
    precision = tp / len(predicted) if predicted else (1.0 if not actual else 0.0)
    recall = tp / len(actual) if actual else 1.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return EvalMetrics(
        precision=float(precision),
        recall=float(recall),
        f1=float(f1),
        frobenius_error=float(np.linalg.norm(w_true - w_hat)),
        max_abs_error=float(np.max(np.abs(w_true - w_hat))),
    )
