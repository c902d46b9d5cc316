"""Shared numerical kernels: weighted l1 programs, pseudoinverse policy,
spark / nullspace-property diagnostics, and spectral radius.

The l1 programs are solved exactly as linear programs (split-variable
formulation) with scipy's HiGHS backend, which is deterministic for fixed
inputs; this module is the only one that builds or solves a linear
program. A program is the equality form phi x = psi or the band form
|phi x - psi| <= band, with optional box bounds. Ties among minimizers
are broken lexicographically by a second solve when the problem names a
tie cost, by the least-moment rule below where it applies, and by HiGHS's
vertex choice otherwise. A nonnegative solution set {z >= 0 : a z = b}
can also be decided without an LP: unique_nonneg_solution finds a point
by NNLS and certifies it as the only one through Stiemke's alternative,
solved by a second NNLS in the row space, or reports a tie or no point.
solve_l1_rows, the one driver (solve_l1 is its one-program case), calls
it (the package's only nnls, from one call site) on up to two faces of a
band-0 program before any LP: for a program whose feasible set is
nonnegative, the feasible set itself and its zero-cost face, where every
priced coordinate sits at its least value; for a signed one, the
nonnegative set on which its weighted l1 norm is constant. A face
certified to be one point that meets every upper bound is the optimum.
Where the first face holds several points, the program names no tie cost
and its cost is constant on that face, a third face is the first one cut
by c'x = c*: c_k is the squared norm of column k of the face's rows (for
an equilibrium row [x_k(inf); 1], so the point of least sum_k w_k
|x_k(inf)|^2) and c* its least value over the face, found by a small
one-phase dual simplex (_simplex, the package's only simplex; c >= 0
makes its first basis dual feasible). Its vertex, certified as the only
point of that face by the same check in place of an NNLS point, is the
least-moment tie-break. The rows of one solve_l1_rows call that share
their face matrix and moment cost (the tied rows of one equilibrium
estimate, which differ only in their right-hand side) run that simplex
as one batch, pivoting in lockstep, each row by its own rule and to the
same bits as alone. HiGHS runs only where no face decides, that is where
a vertex must still be chosen. Combinatorial diagnostics (spark,
nullspace property) are exhaustive and therefore capped at small
dimensions; they exist to certify test instances, not to scale.
"""

from dataclasses import dataclass, field
from itertools import combinations, islice, product

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, nnls
from scipy.sparse.linalg import ArpackError, eigs

from .errors import CapacityError, ParameterError

# Entries smaller than this are structural zeros throughout the package.
STRUCTURAL_ZERO = 1e-12

# Relative singular-value cutoff for pseudoinverse and rank decisions.
PINV_RCOND = 1e-10

# Largest miss of 1 at which a row, column or simplex sum counts as 1.
SUM_TOL = 1e-9

# Absolute slack on the stage-1 optimum when the lexicographic tie-break
# re-imposes it as a bound in its stage-2 solve. It only keeps the stage-1
# vertex feasible against rounding in the reported optimum; the stage-2
# solution may carry at most this much more weighted mass than the least
# possible.
LEXICOGRAPHIC_SLACK = 1e-9

# Square matrices up to this order are handled densely: spectral_radius's
# eigen-solve and the Lambda W products of the simulators. Larger ones go
# sparse (CSR products, ARPACK under a Collatz-Wielandt certificate).
DENSE_MAX_N = 200

# Relative width of the Collatz-Wielandt bracket that certifies ARPACK's
# spectral radius, and the Arnoldi restarts ARPACK may take to reach it
# (generated Watts-Strogatz and Barabasi-Albert couplings need 20 or fewer).
RADIUS_TOL = 1e-10
ARPACK_MAX_ITER = 300

# Bound on the infinity-norm condition number of I - Lambda W wherever it is solved.
CONDITION_MAX = 1e12

# Least entry of y - M y, for y = (I - M)^{-1} 1 as solved (exactly 1) and
# M >= 0, that with y > 0 certifies rho(M) <= 1 - this / max y (Collatz-Wielandt).
STABILITY_MARGIN = 0.5

# Largest max-abs residual |a z - b|, relative to max(1, max |b|), at which an
# NNLS point z counts as a nonnegative solution of a z = b. Above it the
# system is treated as having none, and the row keeps its LP.
NNLS_RESIDUAL_MAX = 1e-12

# Relative error in a (2-norm, as a fraction of |a|) that the uniqueness
# certificate of unique_nonneg_solution must survive, matching PINV_RCOND,
# below which singular values already count as noise. The certificate's
# residual |a_S' lam| plus this error's effect, CERTIFICATE_RESIDUAL_MAX *
# |a| |lam|, must stay below sigma_min(a_S) / |a_Z|, the least residual a
# tie would leave.
CERTIFICATE_RESIDUAL_MAX = 1e-10

# The least-moment dual simplex (_simplex): basic values within SIMPLEX_TOL
# (relative to max(1, max |b|)) of their bound count as feasible, and
# pivot-row entries and dual steps of at most SIMPLEX_TOL as zero. After
# SIMPLEX_STALL consecutive dual steps of zero length it pivots by Bland's
# rule, which cannot cycle, until a step is longer; after SIMPLEX_MAX_PIVOTS
# pivots it gives up, and the row goes to HiGHS. Each row of a batch counts
# its own steps and pivots.
SIMPLEX_TOL = 1e-9
SIMPLEX_STALL = 10
SIMPLEX_MAX_PIVOTS = 1000

# Column subsets whose ranks spark decides in one stacked matrix_rank call;
# the stack holds at most this many m x k submatrices.
SPARK_CHUNK = 4096

_LINPROG_STATUS = {
    0: "optimal",
    1: "iteration_limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical",
}


# Cells of per-step draws generated, or of per-step arrays checked, at once:
# a block holds max(1, DRAW_BLOCK // width) rows of width cells. Consecutive
# rng.random((rows, n)) calls yield the same doubles as one call, so the
# block size bounds memory without changing any draw.
DRAW_BLOCK = 1 << 15


def philox_stream(seed: int | None, *spawn_key: int) -> np.random.Generator:
    """Counter-based random stream; distinct spawn keys give independent
    child streams, so parallel draws stay reproducible."""
    ss = np.random.SeedSequence(seed, spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class L1Problem:
    """Weighted l1 minimization over an affine set or a band around it.

    minimize    sum_i weights_i * |x_i|
    subject to  |phi @ x - psi| <= band   (entrywise; band = 0 means
                                           phi @ x == psi)
                sum(x) == sum_to        (when sum_to is not None)
                x >= 0                  (when nonneg)
                lo_i <= x_i <= hi_i     (optional per-coordinate bounds;
                                         NaN entries mean unbounded)

    weights defaults to all ones; a zero weight exempts that coordinate
    from the objective (used for diagonal/auxiliary coordinates).
    tie_weights, when given, chooses among the minimizers the one of
    least sum_i tie_weights_i * |x_i| (see solve_l1).
    """

    phi: np.ndarray
    psi: np.ndarray
    sum_to: float | None = None
    nonneg: bool = False
    weights: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    band: float = 0.0
    tie_weights: np.ndarray | None = None


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    objective: float
    residual: float
    status: str
    solver_log: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _parsed(problem: L1Problem):
    """The validated phi, psi and weights of a problem, and lo and hi (NaN: none)."""
    phi = np.atleast_2d(np.asarray(problem.phi, dtype=float))
    psi = np.asarray(problem.psi, dtype=float).ravel()
    m, n = phi.shape
    if psi.shape[0] != m:
        raise ParameterError(f"phi has {m} rows but psi has {psi.shape[0]} entries")
    if not problem.band >= 0.0:
        raise ParameterError(f"band must be >= 0, got {problem.band}")
    weights = np.ones(n) if problem.weights is None else np.asarray(problem.weights, float)
    for name, vector in (("weights", problem.weights), ("tie_weights", problem.tie_weights)):
        if vector is not None and (np.shape(vector) != (n,) or np.any(np.less(vector, 0))):
            raise ParameterError(f"{name} must be a nonnegative length-n vector")
    lo = np.full(n, np.nan) if problem.lo is None else np.asarray(problem.lo, float)
    hi = np.full(n, np.nan) if problem.hi is None else np.asarray(problem.hi, float)
    return phi, psi, weights, lo, hi


def _columns(problem: L1Problem, lo, hi):
    """Lay out the LP columns of a problem with the bounds from _parsed:
    x = u - v with u, v >= 0 (u alone when nonneg), so |x_i| = u_i + v_i at
    any optimum where weights_i > 0. Box bounds become u in [max(lo, 0),
    max(hi, 0)] and v in [max(-hi, 0), max(-lo, 0)]; a nonneg program has
    u in [max(lo, 0), hi], so a negative upper bound leaves it infeasible
    rather than pinning x_i at 0. Returns lift (coefficient rows over x to
    rows over the columns; sign +1 prices u and v alike), the column
    bounds, and the sum_to rows."""
    n = lo.shape[0]
    lo, hi = np.where(np.isnan(lo), -np.inf, lo), np.where(np.isnan(hi), np.inf, hi)
    if problem.nonneg:
        bounds = np.column_stack([np.maximum(lo, 0.0), hi])
    else:
        uv_bounds = np.maximum(np.column_stack([lo, hi, -hi, -lo]), 0.0)
        bounds = np.vstack([uv_bounds[:, :2], uv_bounds[:, 2:]])

    def lift(rows, sign=-1.0):
        return rows if problem.nonneg else np.hstack([rows, sign * rows])

    sums = [] if problem.sum_to is None else [float(problem.sum_to)]
    return lift, bounds, lift(np.ones((len(sums), n))), np.array(sums)


def _highs(cost, a_ub, b_ub, a_eq, b_eq, bounds):
    """The package's one linear-program solve; returns the scipy result and
    its status name.

    The presolve rule is read off the LP: one without inequality rows (the
    equality form, stage 1 of every band-0 program) runs without HiGHS's
    presolve. Its rows are dense and its columns carry simple bounds, so
    presolve removes nothing and only costs time; on the tied equilibrium
    rows HiGHS returns the same vertices in the same iterations without it.
    An LP with inequality rows (a band program, the lexicographic stage 2
    with its cost-bound row, minimal_band) keeps HiGHS's defaults. Without
    presolve, results there moved through the LEXICOGRAPHIC_SLACK that
    stage 2 spends on signed programs, past the bounds of direct-linprog
    oracles (a finite-horizon lambda of 1.00000008e-9 against 1e-9)."""
    res = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs",
        options={"presolve": len(b_ub) > 0},
    )
    return res, _LINPROG_STATUS.get(res.status, "numerical")


def solve_l1(problem: L1Problem) -> SolveResult:
    """Solve an L1Problem to global optimality: solve_l1_rows([problem])[0]."""
    return solve_l1_rows([problem])[0]


def solve_l1_rows(problems) -> list[SolveResult]:
    """Solve L1Problems to global optimality, in order; one SolveResult each.

    A SolveResult's status is "optimal" on success; infeasible or
    pathological programs are reported through status, never silently.

    Before any LP, a band-0 program offers up to two faces, its
    nonnegative feasible set and its zero-cost face (a signed program: the
    set on which its cost is constant), to the certificate (_faces,
    _face_point). A face certified to be one point that meets every upper
    bound is the program's optimum, lexicographic too, and is returned
    without an LP ("nnls", no iterations; tie_break names the face,
    "unique" or "zero-cost"). solver_log["certificate"] is "unique" then;
    otherwise the first face's verdict, "tied" (several points) or
    "infeasible" (none found), and None where no face applies. A tied
    first face on which the cost is constant, in a program without
    tie_weights or an upper bound off its pins, is the optimal set. It is
    cut by c'x = c*, where c_k is the squared norm of column k of the
    face's rows and c* = min c'x over the face, attained at the vertex
    _simplex finds; the vertex is taken when the certificate finds it the
    only point of that cut face (method "simplex", tie_break
    "least-moment", iterations the simplex's pivots, certificate still
    "tied"). Every other program enters HiGHS, also a row whose simplex or
    cut certificate fails: the band form as the rows [phi; -phi] x <= [psi
    + band; -(psi - band)], the equality form as phi x = psi. HiGHS runs
    the equality form without presolve, which removes nothing from its
    dense rows, and keeps presolve wherever the LP has inequality rows: the
    band form and the stage-2 solve below (see _highs).

    The least-moment rows are solved in batches, each row exactly as if
    alone. Programs are read one at a time. A row bound for the simplex
    joins the open batch while its face matrix (the face's rows on the
    moving coordinates) and moment cost equal the batch's bit for bit; any
    other such row, and the end of the input, first flush the batch: one
    lockstep _simplex call over the rows' right-hand sides, then each
    row's cut face certified at its own vertex, or HiGHS. A batch copies
    the face matrix once; per row it keeps the program and vectors, and
    rebuilds the row's face rows from the shared matrix and the row's
    pinned columns when it is flushed.

    Ties between optimal vertices that reach HiGHS: without tie_weights,
    HiGHS's deterministic vertex choice decides ("solver-vertex" in
    solver_log). With tie_weights, when the stage-1 optimum carries tie
    mass above STRUCTURAL_ZERO, a stage-2 solve keeps every constraint,
    bounds the weighted mass by the stage-1 optimum plus
    LEXICOGRAPHIC_SLACK and minimizes the tie mass ("lexicographic"). The
    stage-1 point is feasible for it only within HiGHS's primal
    feasibility tolerance (1e-7), well above that slack, so HiGHS can find
    stage 2 infeasible on ordinary data; a stage-2 failure is reported as
    "numerical". solver_log["iterations"] counts both stages.
    """
    results, batch, program = [], [], None

    def flush():
        _, a, c = program
        vertices = _simplex(a, np.array([record[-1] for record in batch]), c)
        for (i, problem, parsed, rhs, base, moving, pinned, cost, _), (z, pivots) in zip(
            batch, vertices
        ):
            x = None
            if z is not None:
                rows = np.empty((rhs.shape[0], base.shape[0]))
                rows[:, moving], rows[:, ~moving] = a, pinned
                cut = cost @ base + c @ z
                _, x = _face_point(
                    np.vstack([rows, cost]), np.append(rhs, cut), base, moving, parsed[4], z
                )
            results[i] = _result(problem, parsed, x, "tied", "simplex", "least-moment", pivots)
        batch.clear()

    for problem in problems:
        parsed = _parsed(problem)
        verdict, tie_break, x, face = _certified_faces(problem, *parsed)
        if face is None:
            verdict = verdict if x is None else "unique"
            results.append(_result(problem, parsed, x, verdict, "nnls", tie_break, 0))
            continue
        rows, rhs, base, moving = face
        cost = np.einsum("ij,ij->j", rows, rows)
        a, c = rows[:, moving], cost[moving]
        key = a.shape, a.tobytes(), c.tobytes()
        if batch and key != program[0]:
            flush()
        if not batch:
            program = key, a, c
        batch.append((len(results), problem, parsed, rhs, base, moving, rows[:, ~moving], cost,
                      rhs - rows @ base))
        results.append(None)
    if batch:
        flush()
    return results


def _certified_faces(problem: L1Problem, phi, psi, weights, lo, hi):
    """(verdict, tie_break, x, face) of a program's faces (_faces) up to
    the least-moment one: the first face's verdict, and the face that the
    certificate found one point x within the upper bounds; or, with x None,
    the least-moment face (rows, rhs, base, moving) where the first face is
    tied and it is offered, else None."""
    verdict = None
    for tie_break, *face in _faces(problem, phi, psi, weights, lo, hi):
        if tie_break == "least-moment":
            return verdict, None, None, face if verdict == "tied" else None
        found, x = _face_point(*face, hi)
        verdict = verdict or found
        if x is not None:
            return verdict, tie_break, x, None
    return verdict, None, None, None


def _result(problem: L1Problem, parsed, x, verdict, method, tie_break, iterations):
    """The SolveResult of a program with its certified point x (solver_log
    method, tie_break and iterations as given), or of HiGHS where x is None;
    verdict is solver_log["certificate"]."""
    if x is None:
        x, status, log = _highs_l1(problem, *parsed)
    else:
        status = "optimal"
        log = {"method": method, "tie_break": tie_break, "iterations": iterations,
               "message": "certified"}
    phi, psi, weights = parsed[:3]
    residual = np.inf if x is None else float(np.abs(phi @ x - psi).max())
    x = np.zeros(phi.shape[1]) if x is None else x
    objective = float((weights * np.abs(x)).sum())
    return SolveResult(x=x, objective=objective, residual=residual, status=status,
                       solver_log={**log, "certificate": verdict})


def _highs_l1(problem: L1Problem, phi, psi, weights, lo, hi):
    """(x or None, status, solver_log) of the program solved by HiGHS, with
    the lexicographic stage when tie_weights asks for it (see solve_l1)."""
    lift, bounds, closure, sums = _columns(problem, lo, hi)
    cost = lift(weights, 1.0)
    block = lift(phi)
    if problem.band == 0.0:
        a_ub, b_ub = np.zeros((0, cost.shape[0])), np.zeros(0)
        a_eq, b_eq = np.vstack([block, closure]), np.concatenate([psi, sums])
    else:
        a_ub = np.vstack([block, -block])
        b_ub = np.concatenate([psi + problem.band, -(psi - problem.band)])
        a_eq, b_eq = closure, sums
    res, status = _highs(cost, a_ub, b_ub, a_eq, b_eq, bounds)
    iterations = int(res.nit)
    tie_break = "solver-vertex"
    if problem.tie_weights is not None and status == "optimal":
        tie_cost = lift(np.asarray(problem.tie_weights, float), 1.0)
        if tie_cost @ res.x > STRUCTURAL_ZERO:
            res, status = _highs(
                tie_cost,
                np.vstack([a_ub, cost]),
                np.concatenate([b_ub, [res.fun + LEXICOGRAPHIC_SLACK]]),
                a_eq,
                b_eq,
                bounds,
            )
            iterations += int(res.nit)
            tie_break = "lexicographic"
            status = "optimal" if status == "optimal" else "numerical"

    n = phi.shape[1]
    x = None if res.x is None else res.x if problem.nonneg else res.x[:n] - res.x[n:]
    return x, status, {"method": "highs", "tie_break": tie_break, "iterations": iterations,
                       "message": str(res.message)}


def _faces(problem: L1Problem, phi, psi, weights, lo, hi):
    """The faces of a band-0 program that solve_l1 offers the certificate,
    in order, as (tie_break, rows, rhs, base, moving): the face is {x :
    rows x = rhs, x = base off the mask moving, x >= base on it}, the
    program's upper bounds dropped. rows = [phi; 1'] (ones only with
    sum_to), and base holds the pins (lo = hi) and max(lo, 0) elsewhere
    (NaN: 0); moving is a subset of the unpinned coordinates.

    A nonnegative program (nonneg with pins >= 0, or every coordinate
    pinned or lo >= 0) has x >= base on its feasible set, so its cost is
    sum w x >= sum w base, and so is its tie cost:
      "unique": every unpinned coordinate moves, the whole feasible set;
      "zero-cost": the coordinates priced by weights or tie_weights stay
        at base, their least value (0, or lo where lo > 0), which holds
        every optimum, and every lexicographic one, whenever it is not
        empty.
    A signed program gets the first face where its cost is constant on it,
    without tie_weights or an upper bound off the pins: the unpinned
    weights equal a row of rows and each unpinned coordinate is priced or
    has lo >= 0. Then sum w|x| >= sum w x, a constant, with equality iff
    x >= base, so that face is the optimal set.
      "least-moment": the first face once more, last, wherever the cost is
        constant on it in that way (a nonnegative program too: its
        unpinned weights equal a row, without tie_weights or an upper
        bound off the pins). solve_l1 offers it only where the first face
        is tied, cut by its least moment (_least_moment_face)."""
    if problem.band != 0.0 or not phi.shape[1]:
        return
    rows, rhs = phi, psi
    if problem.sum_to is not None:
        rows = np.concatenate((phi, np.ones((1, phi.shape[1]))))
        rhs = np.concatenate((psi, [float(problem.sum_to)]))
    free = lo != hi  # NaN bounds never pin
    base = np.where(free, np.fmax(lo, 0.0), lo)
    constant = (
        problem.tie_weights is None
        and not (hi[free] < np.inf).any()
        and (rows[:, free] == weights[free]).all(axis=1).any()
    )
    if (base >= 0.0).all() if problem.nonneg else (~free | (lo >= 0.0)).all():
        yield "unique", rows, rhs, base, free
        priced = weights > 0.0
        if problem.tie_weights is not None:
            priced |= np.asarray(problem.tie_weights, float) > 0.0
        if (free & priced).any():
            yield "zero-cost", rows, rhs, base, free & ~priced
    elif not problem.nonneg and constant and ((weights > 0.0) | (lo >= 0.0))[free].all():
        yield "unique", rows, rhs, base, free
    else:
        return
    if constant:
        yield "least-moment", rows, rhs, base, free


def _simplex(a, b, c):
    """[(z, pivots)], one per row b_i of b: a vertex z minimizing c'z over
    {z >= 0 : a z = b_i} for a cost c >= 0, from a dense one-phase dual
    simplex, or (None, pivots) when it finds the set empty or stops at
    SIMPLEX_MAX_PIVOTS. The rows share a (p x q) and c and pivot in
    lockstep, each by its own rule, and each returns exactly what it would
    alone.

    The first basis holds one artificial column per row, fixed at 0: its
    inverse is I, its basic values b_i and its reduced costs d = c, dual
    feasible as c >= 0 (a negative c_j leaves z feasible, not minimal). The
    inverse is kept explicitly, with the basic values as its last column, so
    a pivot prices every column with one product of a and touches only
    p x (p + 1) numbers besides. The basic value of largest infeasibility
    (|x| for an artificial, -x for a column of a) leaves for its bound 0;
    the column entering has the least d_j / |alpha_j| among the entries of
    its pivot row (its row of the inverse times a) above SIMPLEX_TOL with
    the sign that moves it there, and none means the set is empty.
    Artificials never enter. No infeasibility above SIMPLEX_TOL (relative to
    max(1, max |b_i|)) is the optimum. Bland's rule, after SIMPLEX_STALL zero
    dual steps, takes the infeasible basic value of lowest index instead.

    Each row of the batch keeps its own inverse, basis, reduced costs and
    stall count. A pivot forms every row's pivot row as the stacked product
    of its inverse row with a, and its entering column as the stacked
    product of its inverse with that column of a: one matrix-vector product
    per row, the one a row alone makes. Every other update is elementwise,
    so no row's bits depend on its batch. A row leaves the batch when it
    ends."""
    p, q = a.shape
    count = b.shape[0]
    augmented = np.zeros((count, p, p + 1))
    augmented[:, :, :p] = np.eye(p)
    augmented[:, :, p] = b
    basis = np.tile(np.arange(q, q + p), (count, 1))
    reduced = np.tile(np.asarray(c, dtype=float), (count, 1))
    tol = SIMPLEX_TOL * np.fmax(1.0, np.abs(b).max(axis=1, initial=0.0))
    stall = np.zeros(count, dtype=int)
    active = np.arange(count)  # the row of b behind each row of the batch
    z, pivots = np.zeros((count, q)), np.full(count, SIMPLEX_MAX_PIVOTS)
    found = np.zeros(count, dtype=bool)
    for pivot in range(SIMPLEX_MAX_PIVOTS):
        rows = np.arange(active.size)
        x = augmented[:, :, p]
        infeasibility = np.where(basis >= q, np.abs(x), -x)
        r = infeasibility.argmax(axis=1)
        optimal = ~(infeasibility[rows, r] > tol)
        ended, held = active[optimal], basis[optimal] < q
        z[ended[np.nonzero(held)[0]], basis[optimal][held]] = x[optimal][held]
        found[ended], pivots[ended] = True, pivot
        bland = stall >= SIMPLEX_STALL
        if bland.any():
            lowest = np.where(infeasibility[bland] > tol[bland, None], basis[bland], p + q)
            r[bland] = lowest.argmin(axis=1)
        row = (augmented[rows, r, :p][:, None, :] @ a)[:, 0]
        moves = np.sign(x[rows, r])[:, None] * row
        ratios = np.divide(np.fmax(reduced, 0.0), moves, out=np.full(row.shape, np.inf),
                           where=moves > SIMPLEX_TOL)
        j = ratios.argmin(axis=1)
        step = ratios[rows, j]
        going = ~optimal & (step < np.inf)
        pivots[active[~optimal & ~going]] = pivot  # the set is empty
        if not going.all():
            augmented, basis, reduced, stall, tol, active, r, row, j, step = (
                array[going] for array in
                (augmented, basis, reduced, stall, tol, active, r, row, j, step)
            )
            if not active.size:
                break
            rows = np.arange(active.size)
        column = (augmented[:, :, :p] @ a[:, j].T[:, :, None])[:, :, 0]
        entry = row[rows, j]
        reduced -= (reduced[rows, j] / entry)[:, None] * row
        reduced[rows, j] = 0.0
        pivot_row = augmented[rows, r] / entry[:, None]
        augmented -= column[:, :, None] * pivot_row[:, None, :]
        augmented[rows, r] = pivot_row
        basis[rows, r] = j
        stall = np.where(step > SIMPLEX_TOL, 0, stall + 1)
    return [(z[i] if found[i] else None, int(pivots[i])) for i in range(count)]


def _face_point(rows, rhs, base, moving, hi, z=None):
    """(verdict, x) for a face from _faces: ("unique", x) when the
    certificate finds the face {x} at base + z on moving (z refined, or
    unique_nonneg_solution's NNLS point without z) and x meets every upper
    bound, else ("tied" or "infeasible", None). A point above an upper
    bound, often by rounding, is not returned: the face is offered once
    more, to NNLS, with those coordinates pinned at their bounds, where they
    move and their bounds admit base. The face is one point, so a point it
    still holds there, within the certificate's NNLS_RESIDUAL_MAX, is that
    point; found none, the verdict is "infeasible". Only finite systems
    reach the certificate."""
    for _ in range(2):
        b = rhs - rows @ base
        if not np.isfinite(b).all():
            break
        a = rows[:, moving]
        found, z = unique_nonneg_solution(a, b) if z is None else _certified(a, b, _refined(z, a, b))
        if z is None:
            return found, None
        x = base.copy()
        x[moving] += z
        above = x > hi  # NaN: no bound
        if not above.any():
            return found, x
        if not (moving & (base <= hi))[above].all():
            break
        base, moving, z = np.where(above, hi, base), moving & ~above, None
    return "infeasible", None


def _refined(z, a, b):
    """A simplex vertex z of {z >= 0 : a z = b}, refined: its entries at
    most STRUCTURAL_ZERO reset to 0, and one least-squares step of a on the
    rest. The pivots' updates of the basis inverse leave rounding in the
    basic values, which can miss the certificate's NNLS_RESIDUAL_MAX; the
    support's columns of a vertex are independent, so the step returns z to
    the vertex within rounding."""
    support = z > STRUCTURAL_ZERO
    z = np.where(support, z, 0.0)
    z[support] += np.linalg.lstsq(a[:, support], b - a @ z)[0]
    return z


def unique_nonneg_solution(a: np.ndarray, b: np.ndarray):
    """Decide the nonnegative solution set P = {z >= 0 : a z = b} of an
    (m, n) system without an LP.

    Returns ("unique", z) when P = {z} is certified, ("infeasible", None)
    when NNLS (Lawson-Hanson) finds no point of P (its residual exceeds
    NNLS_RESIDUAL_MAX or it hits its iteration limit), and ("tied", None)
    otherwise: P may hold more than one point.

    Certificate: let z be the NNLS point, S its entries above
    STRUCTURAL_ZERO and Z the rest (NNLS may leave rounding-level entries
    where the solution is zero). P = {z} iff no kernel direction d != 0 of
    a keeps d_Z >= 0. By Stiemke's alternative that holds iff a_S has full
    column rank and some u > 0 has u = a_Z' lam with a_S' lam = 0 (with a
    kernel basis N, the u > 0 with N_Z' u = 0). Every object here is
    m-dimensional: lam = L mu for an orthonormal basis L of the left kernel
    of a_S, and mu is the least-norm point with a_Z' L mu >= 1, found by a
    second NNLS in Lawson and Hanson's least-distance form. A tie
    direction d would give (a_Z' lam)'d_Z = -(a_S' lam)'d_S, hence
    |a_S' lam| >= sigma_min(a_S) / |a_Z| once min(a_Z' lam) = 1. So
    |a_S' lam| + CERTIFICATE_RESIDUAL_MAX |a| |lam| < sigma_min(a_S) / |a_Z|
    certifies P = {z}, also for every a within that relative error
    (2-norms bounded by Frobenius norms). Where z = 0 (S empty), Gordan's
    alternative decides instead: P = {0} iff some lam has a' lam > 0. The
    same least-distance NNLS finds lam with L = I, and once min(a' lam) =
    1, CERTIFICATE_RESIDUAL_MAX |a| |lam| < 1 certifies P = {0}.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if a.shape[1]:
        try:
            z, _ = nnls(a, b)
        except RuntimeError:  # iteration limit
            return "infeasible", None
    else:
        z = np.zeros(0)  # nnls cannot take zero columns; P = {()} iff b = 0
    return _certified(a, b, z)


def _certified(a, b, z):
    """unique_nonneg_solution's verdict on a given point z >= 0: "infeasible"
    when a z = b misses NNLS_RESIDUAL_MAX, else the certificate's "unique"
    (with z) or "tied" (see unique_nonneg_solution)."""
    if np.abs(a @ z - b).max() > NNLS_RESIDUAL_MAX * np.abs(b).max(initial=1.0):
        return "infeasible", None
    if not z.size:
        return "unique", z
    support = z > STRUCTURAL_ZERO
    a_s, a_z = a[:, support], a[:, ~support]
    if a_s.shape[1] > a.shape[0]:
        return "tied", None  # dependent support columns
    if a_s.shape[1] == a.shape[0] and a_z.shape[1]:
        # a square a_S is singular, or each zero column j gives a tie
        # direction d_j = 1, d_S = -a_S^-1 a_j, which is >= 0 on Z
        return "tied", None
    if a_s.shape[1]:
        left, sing, _ = np.linalg.svd(a_s)
        if sing[-1] <= PINV_RCOND * sing[0]:
            return "tied", None  # a kernel direction on S alone
        if not a_z.size:
            return "unique", z
        left, bound = left[:, a_s.shape[1]:], sing[-1] / np.linalg.norm(a_z)
    else:
        left, bound = np.eye(a.shape[0]), 1.0  # z = 0: Gordan, L = I
    m_z = a_z.T @ left
    k = m_z.shape[1]
    try:
        u, _ = nnls(np.vstack([m_z.T, np.ones(m_z.shape[0])]), np.eye(k + 1)[k])
    except RuntimeError:
        return "tied", None
    r = np.append(m_z.T @ u, u.sum() - 1.0)
    if not r[k] < 0.0:
        return "tied", None  # no mu with a_Z' L mu >= 1
    lam = left @ (-r[:k] / r[k])
    g = a_z.T @ lam
    if not g.min() > 0.0:
        return "tied", None
    lam /= g.min()
    residual = np.linalg.norm(a_s.T @ lam)
    if not residual + CERTIFICATE_RESIDUAL_MAX * np.linalg.norm(a) * np.linalg.norm(lam) < bound:
        return "tied", None
    return "unique", z


def minimal_band(problem: L1Problem) -> float:
    """Smallest band for which the problem's constraints are feasible
    (inf when none is); the problem's own band and weights are ignored."""
    phi, psi, _, lo, hi = _parsed(problem)
    lift, bounds, closure, sums = _columns(problem, lo, hi)
    block = lift(phi)
    ones = np.ones((block.shape[0], 1))
    cost = np.zeros(block.shape[1] + 1)
    cost[-1] = 1.0
    res, status = _highs(
        cost,
        np.vstack([np.hstack([block, -ones]), np.hstack([-block, -ones])]),
        np.concatenate([psi, -psi]),
        np.hstack([closure, np.zeros((closure.shape[0], 1))]),
        sums,
        np.vstack([bounds, [0.0, np.inf]]),
    )
    return float(res.fun) if status == "optimal" else float("inf")


def pseudoinverse(matrix: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with singular values below
    PINV_RCOND * sigma_max treated as zero."""
    return np.linalg.pinv(np.asarray(matrix, dtype=float), rcond=PINV_RCOND)


def spark(phi: np.ndarray, tol: float | None = None) -> int:
    """Smallest number of linearly dependent columns of phi.

    Exhaustive over column subsets, in increasing size and SPARK_CHUNK
    subsets per rank call; capped at 20 columns. A matrix with full column
    rank has spark n + 1 by convention.
    """
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    m, n = phi.shape
    if n > 20:
        raise CapacityError(f"spark is exhaustive; {n} columns exceeds the cap of 20")
    for k in range(1, min(m + 1, n) + 1):
        subsets = combinations(range(n), k)
        while chunk := list(islice(subsets, SPARK_CHUNK)):
            stack = phi[:, chunk].transpose(1, 0, 2)  # (subset, row, column)
            if (np.linalg.matrix_rank(stack, tol=tol) < k).any():
                return k
    return n + 1


@dataclass(frozen=True)
class RecoveryDiagnostics:
    """Conditions under which s-sparse vectors are recoverable from phi."""

    m: int
    n: int
    s: int
    spark: int
    spark_ok: bool
    nsp_ok: bool
    rec_delta: float
    sample_bound: float


def _nsp_violated_on(phi: np.ndarray, support: tuple[int, ...]) -> bool:
    """True iff ker(phi) contains eta != 0 with ||eta_Sc||_1 <= ||eta_S||_1.

    For each sign pattern s on the support, the least ||eta_Sc||_1 over
    kernel elements normalized by s'eta_S = 1 decides the pattern.
    Patterns s and -s have the same least value (eta -> -eta), so only
    the 2^(|S|-1) patterns with a first sign of +1 are solved.
    """
    m, n = phi.shape
    cols = list(support)
    weights = np.ones(n)
    weights[cols] = 0.0
    psi = np.zeros(m + 1)
    psi[m] = 1.0
    for signs in product((1.0, -1.0), repeat=len(cols) - 1):
        sign_row = np.zeros((1, n))
        sign_row[0, cols] = (1.0, *signs)
        result = solve_l1(L1Problem(phi=np.vstack([phi, sign_row]), psi=psi, weights=weights))
        if result.ok and result.objective <= 1.0 + 1e-9:
            return True
    return False


def check_recovery_conditions(phi: np.ndarray, s: int) -> RecoveryDiagnostics:
    """Exhaustive sparse-recovery certificates for a measurement matrix.

    spark_ok certifies uniqueness of every s-sparse solution (spark > 2s);
    nsp_ok certifies that l1 minimization recovers every s-sparse vector
    (no nonzero kernel element concentrates half its l1 mass on s
    coordinates); rec_delta is the smallest restricted singular value over
    size-s supports, scaled by 1/sqrt(m); sample_bound reports the
    m >= (s/delta^2) * log(n/(delta*s)) requirement with delta = rec_delta
    clipped to [1e-6, 0.999], for reporting only.
    """
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    m, n = phi.shape
    if n > 20:
        raise CapacityError(f"{n} columns exceeds the exhaustive cap of 20")
    if not 1 <= s <= n // 2:
        raise CapacityError(f"sparsity order s={s} must lie in [1, n/2] for n={n}")

    spark_value = spark(phi)
    spark_ok = spark_value > 2 * s

    # A violation on S' subset of S is a violation on S, so checking
    # supports of size exactly s covers every order <= s.
    nsp_ok = True
    rec_delta = np.inf
    for support in combinations(range(n), s):
        sub = phi[:, support]
        rec_delta = min(rec_delta, np.linalg.svd(sub, compute_uv=False)[-1] / np.sqrt(m))
        if nsp_ok and _nsp_violated_on(phi, support):
            nsp_ok = False
    rec_delta = float(rec_delta)

    delta = min(max(rec_delta, 1e-6), 0.999)
    sample_bound = float(s / delta**2 * np.log(n / (delta * s)))
    return RecoveryDiagnostics(
        m=m,
        n=n,
        s=s,
        spark=spark_value,
        spark_ok=spark_ok,
        nsp_ok=nsp_ok,
        rec_delta=rec_delta,
        sample_bound=sample_bound,
    )


def spectral_radius(matrix) -> float:
    """Spectral radius of a square dense array or scipy.sparse matrix.

    Dense eigen-solve when n <= DENSE_MAX_N or when the matrix has a
    negative entry. Otherwise ARPACK finds the eigenvalue of largest
    modulus on the CSR form, from a fixed start vector of ones so that
    reruns are bit-identical, within ARPACK_MAX_ITER Arnoldi restarts. Its
    modulus is returned only when a Collatz-Wielandt certificate closes:
    with v = |eigenvector| > 0, the ratios (M v)_i / v_i bracket the
    Perron root of a nonnegative M, and the modulus together with every
    ratio must lie within a bracket [lo, hi] with hi - lo <= RADIUS_TOL *
    hi. So RADIUS_TOL is the relative width of the certified bracket, not
    a stop on the change of an estimate. An ARPACK failure or an open
    certificate (reducible or nilpotent inputs, such as a hierarchy below
    a stubborn root) falls back to the dense eigen-solve. A NaN or inf entry raises
    ParameterError.
    """
    if not sparse.issparse(matrix):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ParameterError("spectral radius requires a square matrix")
    if not np.isfinite(matrix.tocsr().data if sparse.issparse(matrix) else matrix).all():
        raise ParameterError("spectral radius requires a finite matrix")
    if n > DENSE_MAX_N:
        csr = sparse.csr_array(matrix, dtype=float)
        if not (csr.data < 0.0).any():
            radius = _certified_radius(csr)
            if radius is not None:
                return radius
    dense = matrix.toarray() if sparse.issparse(matrix) else matrix
    return float(np.max(np.abs(np.linalg.eigvals(dense))))


def _certified_radius(csr) -> float | None:
    """ARPACK's largest modulus of a nonnegative CSR matrix when the
    Collatz-Wielandt bracket closes around it (see spectral_radius);
    None when ARPACK fails or the bracket stays open."""
    try:
        values, vectors = eigs(
            csr, k=1, which="LM", v0=np.ones(csr.shape[0]), tol=0, maxiter=ARPACK_MAX_ITER
        )
    except ArpackError:
        return None
    modulus = float(np.abs(values[0]))
    v = np.abs(vectors[:, 0])
    if not v.min() > 0.0:
        return None
    ratios = (csr @ v) / v
    lo, hi = min(ratios.min(), modulus), max(ratios.max(), modulus)
    return modulus if hi - lo <= RADIUS_TOL * hi else None
