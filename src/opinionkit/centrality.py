"""Node centrality measures for influence networks.

Distance-based measures treat edge (i, j) as a step from i to j; weighted
variants use 1/w_ij as the edge length, so strong ties are short. The
betweenness accumulation follows the dependency recursion over shortest-path
DAGs and agrees with exhaustive path enumeration on small graphs.
"""

import heapq
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from . import dynamics
from .errors import NumericalError, ParameterError, StabilityError
from .netgraph import InfluenceNetwork
from .numkit import STRUCTURAL_ZERO

# Two weighted path lengths within this tolerance count as equal.
TIE_TOL = 1e-12


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
    axis = 1 if direction == "in" else 0
    if weighted:
        values = net.w.sum(axis=axis)
        kind = f"weighted_{direction}_degree"
    else:
        values = (np.abs(net.w) > STRUCTURAL_ZERO).sum(axis=axis).astype(float)
        kind = f"{direction}_degree"
    return CentralityVector(values=values, kind=kind, normalized=False)


def _edge_lists(net: InfluenceNetwork, weighted: bool) -> list[list[tuple[int, float]]]:
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(net.n)]
    for i in range(net.n):
        for j in np.flatnonzero(np.abs(net.w[i]) > STRUCTURAL_ZERO):
            if j == i:
                continue
            length = 1.0 / net.w[i, j] if weighted else 1.0
            adjacency[i].append((int(j), length))
    return adjacency


def _shortest_path_dag(adjacency, source: int, n: int, weighted: bool):
    """Distances, path counts, predecessor lists, and settle order."""
    dist = np.full(n, np.inf)
    sigma = np.zeros(n)
    preds: list[list[int]] = [[] for _ in range(n)]
    order: list[int] = []
    dist[source] = 0.0
    sigma[source] = 1.0
    if not weighted:
        queue = [source]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            order.append(u)
            for v, _ in adjacency[u]:
                if np.isinf(dist[v]):
                    dist[v] = dist[u] + 1.0
                    queue.append(v)
                if dist[v] == dist[u] + 1.0:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        return dist, sigma, preds, order

    heap = [(0.0, source)]
    settled = np.zeros(n, dtype=bool)
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        order.append(u)
        for v, length in adjacency[u]:
            candidate = dist[u] + length
            if candidate < dist[v] - TIE_TOL:
                dist[v] = candidate
                sigma[v] = sigma[u]
                preds[v] = [u]
                heapq.heappush(heap, (candidate, v))
            elif not settled[v] and abs(candidate - dist[v]) <= TIE_TOL:
                sigma[v] += sigma[u]
                preds[v].append(u)
    return dist, sigma, preds, order


def closeness_centrality(net: InfluenceNetwork, weighted: bool = False) -> CentralityVector:
    """Reciprocal of the summed distances to the agents reachable from i.

    Agents that reach nobody score 0; partial reachability is flagged
    because values on different reachable sets are not comparable.
    """
    adjacency = _edge_lists(net, weighted)
    values = np.zeros(net.n)
    partial = isolated = False
    for i in range(net.n):
        dist, _, _, _ = _shortest_path_dag(adjacency, i, net.n, weighted)
        reach = np.isfinite(dist)
        reach[i] = False
        if not reach.any():
            isolated = True
            continue
        if reach.sum() < net.n - 1:
            partial = True
        values[i] = 1.0 / dist[reach].sum()
    if isolated:
        warnings.warn("agents without reachable peers score closeness 0", stacklevel=2)
    if partial:
        warnings.warn(
            "graph is not strongly connected; closeness uses reachable sets only",
            stacklevel=2,
        )
    return CentralityVector(values=values, kind="closeness", normalized=False)


def betweenness_centrality(net: InfluenceNetwork, weighted: bool = False) -> CentralityVector:
    """Sum over pairs (j, k) of the fraction of shortest j->k paths
    passing through i. Ordered pairs for directed networks, unordered for
    undirected ones."""
    adjacency = _edge_lists(net, weighted)
    values = np.zeros(net.n)
    for source in range(net.n):
        dist, sigma, preds, order = _shortest_path_dag(
            adjacency, source, net.n, weighted
        )
        delta = np.zeros(net.n)
        for v in reversed(order):
            for u in preds[v]:
                delta[u] += sigma[u] / sigma[v] * (1.0 + delta[v])
            if v != source:
                values[v] += delta[v]
    if not net.directed:
        values /= 2.0
    return CentralityVector(values=values, kind="betweenness", normalized=False)


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
    if not _strongly_connected(a):
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


def _strongly_connected(a: np.ndarray) -> bool:
    support = np.abs(a) > STRUCTURAL_ZERO
    np.fill_diagonal(support, False)
    return _reaches_all(support) and _reaches_all(support.T)


def _reaches_all(support: np.ndarray) -> bool:
    n = support.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(support[u]):
                if not seen[v]:
                    seen[v] = True
                    nxt.append(int(v))
        frontier = nxt
    return bool(seen.all())


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
    if col_err > 1e-9 or a.min() < -STRUCTURAL_ZERO:
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
    giving c = (1 - alpha) (I - alpha W')^{-1} 1 / n. Requires Schur
    stability of Lambda W. (I - Lambda W)' is solved against the ones
    vector by one sparse LU factorisation, and the result must lie on the
    simplex (sum 1 within 1e-9, no entry below -1e-12).
    """
    if alpha is not None:
        if not 0.0 <= alpha <= 1.0:
            raise ParameterError("alpha must lie in [0, 1]")
        net = InfluenceNetwork(
            w=net.w, lam=np.full(net.n, float(alpha)), directed=net.directed
        )
    report = dynamics.is_schur_stable(net)
    if not report.schur_stable:
        raise StabilityError(
            f"influence centrality undefined: agents {report.unanchored} cannot "
            "reach any agent with lambda < 1"
        )
    system = sparse.identity(net.n, format="csc") - sparse.csc_array(
        dynamics._coupling(net)
    )
    solved = splu(system).solve(np.ones(net.n), trans="T")
    values = (1.0 - net.lam) * solved / net.n
    total_err = abs(values.sum() - 1.0)
    if total_err > 1e-9 or values.min() < -1e-12:
        raise NumericalError(
            f"influence centrality failed its simplex check (error {total_err:.3g})"
        )
    return CentralityVector(values=values, kind="friedkin", normalized=True)
