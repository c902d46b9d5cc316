"""Node centrality measures for influence networks.

Distance-based measures treat edge (i, j) as a step from i to j; weighted
variants use 1/w_ij as the edge length, so strong ties are short, and
reject a support weight outside (0, 1/TIE_TOL) with ParameterError.
Closeness and betweenness share one kernel, _geodesics: all-pairs
distances from scipy's Dijkstra on the CSR support (self-loops excluded),
which are the exact minima over paths. Edge (u, v) lies on a shortest
s -> v path when d(s, u) is finite and |d(s, u) + len(u, v) - d(s, v)| is
at most TIE_TOL. Betweenness runs Brandes' dependency recursion over
these edges for a block of sources at once, one numpy step per distance
rank, and agrees with exhaustive path enumeration on small graphs.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra

from . import dynamics
from .errors import NumericalError, ParameterError
from .netgraph import InfluenceNetwork, _weight_sums
from .numkit import STRUCTURAL_ZERO, SUM_TOL

# Two weighted path lengths within this tolerance count as equal.
TIE_TOL = 1e-12

# Betweenness works on blocks of sources whose (sources x edges) arrays
# hold at most this many entries.
GEODESIC_BLOCK = 2**20


@dataclass(frozen=True)
class CentralityVector:
    values: np.ndarray
    kind: str
    normalized: bool


def degree_centrality(
    net: InfluenceNetwork, direction: str = "in", weighted: bool = False
) -> CentralityVector:
    """Support counts or weight mass per agent.

    direction "in" reads row i (who influences i), "out" reads column i
    (whom i influences); weighted variants sum weights instead of counting.
    """
    if direction not in ("in", "out"):
        raise ParameterError(f"direction must be 'in' or 'out', got {direction!r}")
    if weighted:
        values = _weight_sums(net, axis=1 if direction == "in" else 0)
        kind = f"weighted_{direction}_degree"
    else:
        ends = net.support[0 if direction == "in" else 1]
        values = np.bincount(ends, minlength=net.n).astype(float)
        kind = f"{direction}_degree"
    return CentralityVector(values=values, kind=kind, normalized=False)


def _geodesics(net: InfluenceNetwork, weighted: bool):
    """(dist, tails, heads, lengths): all-pairs shortest-path lengths
    dist[s, v] (inf where v is unreachable from s) and the support edges
    tails[e] -> heads[e] with their lengths, self-loops excluded.

    Distances come from scipy's Dijkstra on the CSR support, so they are
    the exact minima over paths. In weighted mode every edge length 1/w
    must exceed TIE_TOL, so a support weight must lie in (0, 1/TIE_TOL);
    then an edge (u, v) on a shortest s -> v path, one with d(s, u) finite
    and |d(s, u) + len(u, v) - d(s, v)| <= TIE_TOL, always leads farther
    from s.
    """
    tails, heads, weights = net.support
    off_diagonal = tails != heads
    tails, heads = tails[off_diagonal], heads[off_diagonal]
    if weighted:
        lengths = 1.0 / weights[off_diagonal]
        if not (lengths > TIE_TOL).all():
            raise ParameterError("weighted path lengths 1/w need weights in (0, 1/TIE_TOL)")
    else:
        lengths = np.ones(tails.size)
    graph = sparse.csr_array((lengths, (tails, heads)), shape=(net.n, net.n))
    dist = dijkstra(graph, directed=True, unweighted=not weighted)
    return dist, tails, heads, lengths


def closeness_centrality(net: InfluenceNetwork, weighted: bool = False) -> CentralityVector:
    """Reciprocal of the summed distances to the agents reachable from i.

    Agents that reach nobody score 0; partial reachability is flagged
    because values on different reachable sets are not comparable.
    """
    dist, _, _, _ = _geodesics(net, weighted)
    reach = np.isfinite(dist)
    np.fill_diagonal(reach, False)
    counts = reach.sum(axis=1)
    values = np.zeros(net.n)
    for i in np.flatnonzero(counts):
        values[i] = 1.0 / dist[i, reach[i]].sum()
    if not counts.all():
        warnings.warn("agents without reachable peers score closeness 0", stacklevel=2)
    if (counts[counts > 0] < net.n - 1).any():
        warnings.warn(
            "graph is not strongly connected; closeness uses reachable sets only",
            stacklevel=2,
        )
    return CentralityVector(values=values, kind="closeness", normalized=False)


def betweenness_centrality(net: InfluenceNetwork, weighted: bool = False) -> CentralityVector:
    """Sum over pairs (j, k) of the fraction of shortest j->k paths
    passing through i. Ordered pairs for directed networks, unordered for
    undirected ones.

    Brandes' dependency recursion, run for a block of sources at once:
    path counts sigma[s, v] accumulate over the agents in increasing order
    of dist[s, .], dependencies delta[s, u] in decreasing order, one numpy
    step per rank. Each on-path edge (s, u -> v) is touched once per sweep.
    """
    dist, tails, heads, lengths = _geodesics(net, weighted)
    n = net.n
    values = np.zeros(n)
    block = max(1, GEODESIC_BLOCK // max(tails.size, 1))
    for lo in range(0, n, block):
        sources = np.arange(lo, min(lo + block, n))
        values += _dependencies(dist[sources], sources, tails, heads, lengths).sum(axis=0)
    if not net.directed:
        values /= 2.0
    return CentralityVector(values=values, kind="betweenness", normalized=False)


def _dependencies(dist, sources, tails, heads, lengths) -> np.ndarray:
    """(sources x agents) Brandes dependencies delta[s, v], zero at v = s."""
    b, n = dist.shape
    rows = np.arange(b)
    # order[s, r] is the agent of rank r by distance from s; on-path edges
    # run from a lower to a higher rank because every length exceeds TIE_TOL.
    order = np.argsort(dist, axis=1, kind="stable")
    rank = np.empty_like(order)
    rank[rows[:, None], order] = np.arange(n)
    cells = order + (rows * n)[:, None]  # flat index of (s, order[s, r])
    # (s, e) pairs with edge e = (u, v) on a shortest s -> v path
    du = dist[:, tails]
    with np.errstate(invalid="ignore"):  # inf - inf where s reaches neither end
        on_path = np.isfinite(du) & (np.abs(du + lengths - dist[:, heads]) <= TIE_TOL)
    pair_s, pair_e = np.nonzero(on_path)
    tail_cell = pair_s * n + tails[pair_e]
    head_cell = pair_s * n + heads[pair_e]

    def by_rank(cell):
        """Pair order grouped by the rank of cell, and each rank's bounds."""
        key = rank.ravel()[cell]
        grouped = np.argsort(key, kind="stable")
        return grouped, np.searchsorted(key[grouped], np.arange(n + 1))

    sigma = np.zeros(b * n)
    sigma[rows * n + sources] = 1.0
    grouped, bounds = by_rank(head_cell)
    into_s, from_cell = pair_s[grouped], tail_cell[grouped]
    for r in range(1, n):
        lo, hi = bounds[r], bounds[r + 1]
        sigma[cells[:, r]] = np.bincount(
            into_s[lo:hi], weights=sigma[from_cell[lo:hi]], minlength=b
        )

    delta = np.zeros(b * n)
    grouped, bounds = by_rank(tail_cell)
    out_s, to_cell = pair_s[grouped], head_cell[grouped]
    for r in range(n - 1, 0, -1):
        lo, hi = bounds[r], bounds[r + 1]
        to = to_cell[lo:hi]
        share = np.bincount(out_s[lo:hi], weights=(1.0 + delta[to]) / sigma[to], minlength=b)
        delta[cells[:, r]] = sigma[cells[:, r]] * share
    return delta.reshape(b, n)


def eigenvector_centrality(
    matrix: np.ndarray, tol: float = 1e-10, max_iter: int = 100_000
) -> CentralityVector:
    """Dominant eigenvector of a nonnegative matrix, normalized to sum 1.

    Power iteration on a diagonally shifted copy (which shares
    eigenvectors and tolerates periodic structure), run until the residual
    ||A x - lambda x||_inf drops below tol. A reducible matrix yields a
    dominant eigenvector that may not be unique and is flagged.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ParameterError("centrality needs a square matrix")
    if a.min() < -STRUCTURAL_ZERO:
        raise ParameterError("eigenvector centrality requires a nonnegative matrix")
    strong = connected_components(np.abs(a) > STRUCTURAL_ZERO, connection="strong")[0]
    if strong != 1:
        warnings.warn(
            "matrix is reducible; the dominant eigenvector may not be unique",
            stacklevel=2,
        )
    scale = np.abs(a).sum(axis=1).max()
    if scale == 0.0:
        return CentralityVector(values=np.full(n, 1.0 / n), kind="eigenvector", normalized=True)
    shift = 0.1 * scale
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        ax = a @ x
        lam = float(ax.sum())
        if np.max(np.abs(ax - lam * x)) < tol:
            return CentralityVector(values=x, kind="eigenvector", normalized=True)
        y = ax + shift * x
        x = y / y.sum()
    raise NumericalError(f"power iteration did not converge in {max_iter} iterations")


def pagerank(
    matrix: np.ndarray, m: float = 0.15, row_stochastic: bool = False
) -> CentralityVector:
    """Dominant eigenvector of (1 - m) M + (m/n) * ones.

    M must be column-stochastic; pass row_stochastic=True to transpose a
    row-stochastic input first. The teleport weight m in (0, 1) makes the
    blended matrix primitive, so the vector is unique.
    """
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if row_stochastic:
        a = a.T
    if a.shape[0] != a.shape[1]:
        raise ParameterError("pagerank needs a square matrix")
    if not 0.0 < m < 1.0:
        raise ParameterError("teleport weight m must lie in (0, 1)")
    n = a.shape[0]
    col_err = np.max(np.abs(a.sum(axis=0) - 1.0))
    if col_err > SUM_TOL or a.min() < -STRUCTURAL_ZERO:
        raise ParameterError(
            f"matrix is not column-stochastic (max column error {col_err:.3g})"
        )
    blended = (1.0 - m) * a + m / n
    values = eigenvector_centrality(blended).values
    return CentralityVector(values=values, kind="pagerank", normalized=True)


def friedkin_centrality(net: InfluenceNetwork, alpha: float | None = None) -> CentralityVector:
    """Mean anchored influence c = V' 1 / n of each agent's innate opinion
    on the equilibrium, with V the control matrix.

    With alpha given, susceptibilities are overridden by Lambda = alpha I,
    giving c = (1 - alpha) (I - alpha W')^{-1} 1 / n. The solve shares the
    anchored system of dynamics.fj_equilibrium: it requires Schur stability
    and kappa_inf(I - Lambda W) <= CONDITION_MAX. The result must lie on
    the simplex (sum 1 within SUM_TOL, no entry below -1e-12).
    """
    if alpha is not None:
        if not 0.0 <= alpha <= 1.0:
            raise ParameterError("alpha must lie in [0, 1]")
        net = net._with_susceptibilities(np.full(net.n, float(alpha)))
    solve = dynamics._anchored_system(net, "influence centrality")
    values = (1.0 - net.lam) * solve(np.ones(net.n), transpose=True) / net.n
    total_err = abs(values.sum() - 1.0)
    if total_err > SUM_TOL or values.min() < -1e-12:
        raise NumericalError(
            f"influence centrality failed its simplex check (error {total_err:.3g})"
        )
    return CentralityVector(values=values, kind="friedkin", normalized=True)
