"""Shared builders and independent oracles used across the test modules.

Everything here is deliberately naive: brute-force path enumeration,
dense linear algebra, direct formula evaluation. The point is to check
the library against implementations that share no code with it.
"""

import heapq
import itertools
import json
import warnings

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.optimize import linprog

import opinionkit as ok
from opinionkit import numkit
from opinionkit.centrality import TIE_TOL
from opinionkit.dynamics import (
    PLATEAU_RUN,
    PLATEAU_TOL,
    _coupling,
    _noise_factor,
    _per_layer_matrices,
    _per_layer_vectors,
)
from opinionkit.errors import IdentifiabilityError, ParameterError, StructuralError
from opinionkit.identify import (
    N_SIGMA,
    SUPPORT_FRACTION,
    EstimationReport,
    MomentEstimates,
    MultiplexEstimate,
    estimate_cross_correlations,
    estimate_gamma,
)
from opinionkit.numkit import STRUCTURAL_ZERO, philox_stream


def row_stochastic(rng, n, density=0.4, self_loops=True):
    """Random row-stochastic matrix with roughly `density` filled entries."""
    w = rng.uniform(0.1, 1.0, (n, n)) * (rng.uniform(0, 1, (n, n)) < density)
    if not self_loops:
        np.fill_diagonal(w, 0.0)
    for i in range(n):
        if w[i].sum() == 0.0:
            w[i, i] = 1.0
    return w / w.sum(axis=1, keepdims=True)


def stable_network(rng, n, density=0.4, lam_range=(0.1, 0.9)):
    """Random influence network with every agent at least partly anchored."""
    lam = rng.uniform(*lam_range, size=n)
    return ok.InfluenceNetwork(w=row_stochastic(rng, n, density), lam=lam)


def slow_chain_network(n, seed=0):
    """Agent i copies agent i + 1 with lambda drawn from [0.99, 1); the
    last agent keeps its own opinion (lambda = 0). I - Lambda W is then
    bidiagonal with kappa_inf in the hundreds."""
    w = np.zeros((n, n))
    w[np.arange(n - 1), np.arange(1, n)] = 1.0
    w[n - 1, n - 1] = 1.0
    lam = np.random.default_rng(seed).uniform(0.99, 1.0, n)
    lam[-1] = 0.0
    return ok.InfluenceNetwork(w=w, lam=lam)


def relative_error(got, expected):
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


def sparse_row_network(rng, n, row_nnz, lam):
    """Network whose every row has exactly `row_nnz` nonzero weights."""
    w = np.zeros((n, n))
    for i in range(n):
        cols = rng.choice(n, size=row_nnz, replace=False)
        vals = rng.uniform(0.2, 1.0, size=row_nnz)
        w[i, cols] = vals / vals.sum()
    return ok.InfluenceNetwork(w=w, lam=np.asarray(lam, dtype=float))


def brute_force_centrality(net, weighted):
    """Betweenness and closeness by enumerating every simple path.

    Shortest paths under positive lengths are simple, so exhaustive
    depth-first enumeration is exact. Ties are resolved with the same
    1e-12 length tolerance the library documents.
    """
    n, w = net.n, net.w
    adj = [[j for j in range(n) if j != i and w[i, j] > 1e-12] for i in range(n)]

    def length(i, j):
        return 1.0 / w[i, j] if weighted else 1.0

    geodesics = {}
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            best, paths = np.inf, []
            stack = [(s, [s], 0.0)]
            while stack:
                node, path, ln = stack.pop()
                if node == t:
                    if ln < best - 1e-12:
                        best, paths = ln, [path]
                    elif abs(ln - best) <= 1e-12:
                        paths.append(path)
                    continue
                for nxt in adj[node]:
                    if nxt not in path:
                        stack.append((nxt, path + [nxt], ln + length(node, nxt)))
            geodesics[(s, t)] = (best, paths)

    between = np.zeros(n)
    close = np.zeros(n)
    for s in range(n):
        total = 0.0
        reached = False
        for t in range(n):
            if s == t:
                continue
            best, paths = geodesics[(s, t)]
            if not np.isfinite(best):
                continue
            total += best
            reached = True
            for v in range(n):
                if v != s and v != t:
                    between[v] += sum(v in p for p in paths) / len(paths)
        close[s] = 1.0 / total if reached else 0.0
    if not net.directed:
        between /= 2.0
    return between, close


def l1_recovers_every_pattern(phi, s, tol=1e-6):
    """Check min-l1 recovery for one vector per (support, sign) pattern.

    Success of the l1 program depends only on the sign pattern of the
    generator, so one random-magnitude draw per pattern is exhaustive.
    """
    _, n = phi.shape
    rng = np.random.default_rng(99)
    for support in itertools.combinations(range(n), s):
        for signs in itertools.product([1.0, -1.0], repeat=s):
            z = np.zeros(n)
            z[list(support)] = np.array(signs) * rng.uniform(0.5, 2.0, s)
            res = ok.solve_l1(ok.L1Problem(phi=phi, psi=phi @ z))
            if not res.ok or np.max(np.abs(res.x - z)) > tol:
                return False
    return True


def unique_sparse_preimage(phi, z, s, tol=1e-9):
    """Check that `z` is the only vector with at most s nonzeros mapping
    to phi @ z, by scanning every candidate support of size s."""
    _, n = phi.shape
    target = phi @ z
    matches = []
    for support in itertools.combinations(range(n), s):
        sub = phi[:, list(support)]
        coef, residual, rank, _ = np.linalg.lstsq(sub, target, rcond=None)
        fit = sub @ coef
        if np.max(np.abs(fit - target)) > tol:
            continue
        cand = np.zeros(n)
        cand[list(support)] = coef
        if not any(np.max(np.abs(cand - m)) <= tol for m in matches):
            matches.append(cand)
    return len(matches) == 1 and np.max(np.abs(matches[0] - z)) <= tol


def reference_neighbor_menus(net):
    """Padded neighbor table and counts, built one agent at a time."""
    support = np.abs(net.w) > STRUCTURAL_ZERO
    np.fill_diagonal(support, False)
    counts = support.sum(axis=1)
    table = np.zeros((net.n, int(counts.max())), dtype=int)
    for i in range(net.n):
        nbrs = np.flatnonzero(support[i])
        table[i, : nbrs.size] = nbrs
    return table, counts


def reference_gossip_fj(net, x0, steps, activation_size, seed):
    """Gossip states (steps + 1, n) from a per-step loop. With every agent
    active: one draw of all activation keys, then one of all poll values.
    Otherwise, with d the smaller of activation_size and n - activation_size:
    the d whole integer columns, then the (steps, activation_size) poll
    values, and each step's sample of d agents by Floyd's sample over a
    plain list; the sample is the active set when d = activation_size, and
    otherwise the inactive set, whose complement, in agent order, is active."""
    x0 = np.asarray(x0, dtype=float).ravel()
    n = net.n
    table, counts = reference_neighbor_menus(net)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if activation_size == n:
        keys = rng.random((steps, n))
        picks = rng.random((steps, n))
    else:
        drawn_size = min(activation_size, n - activation_size)
        columns = [
            rng.integers(0, n - drawn_size + i + 1, size=steps) for i in range(drawn_size)
        ]
        polls = rng.random((steps, activation_size))

    x = x0.copy()
    states = np.empty((steps + 1, n))
    states[0] = x
    lam = net.lam
    for k in range(steps):
        if activation_size == n:
            active = np.argpartition(keys[k], activation_size - 1)[:activation_size]
            polled = table[active, (picks[k, active] * counts[active]).astype(int)]
        else:
            members = []
            for i, column in enumerate(columns):
                drawn = int(column[k])
                members.append(n - drawn_size + i if drawn in members else drawn)
            if drawn_size < activation_size:
                members = [agent for agent in range(n) if agent not in members]
            active = np.array(members)
            polled = table[active, (polls[k] * counts[active]).astype(int)]
        weight = net.w[active, polled]
        x_next = x.copy()
        x_next[active] = (
            lam[active] * ((1.0 - weight) * x[active] + weight * x[polled])
            + (1.0 - lam[active]) * x0[active]
        )
        x = x_next
        states[k + 1] = x
    return states


def reference_multiplex_fj(mx, u, q_noise, steps, seed):
    """Noisy per-layer states (steps + 1, n) from a per-step loop that
    applies the noise factor to each step's shock vector separately."""
    u = np.asarray(u, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(np.asarray(q_noise, dtype=float))
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    out = []
    for s, layer in enumerate(mx.layers):
        seq = np.random.SeedSequence(seed, spawn_key=(3, s))
        rng = np.random.Generator(np.random.Philox(seq))
        coupling = np.diag(layer.lam) @ layer.w
        anchor = (1.0 - layer.lam) * u
        states = np.empty((steps + 1, mx.n))
        states[0] = u
        shocks = rng.standard_normal((steps, mx.n))
        for k in range(steps):
            states[k + 1] = coupling @ states[k] + anchor + factor @ shocks[k]
        out.append(states)
    return out


def reference_multiplex_per_layer(mx, u, q_noise, steps, seed, lambdas=None):
    """Noisy per-layer states (steps + 1, n) from simulate_multiplex_fj as
    it stood before its layers were stacked: one step loop per layer, each
    with its own coupling product."""
    n, n_layers = mx.n, mx.n_layers
    u_layers = _per_layer_vectors(u, n, n_layers)
    q_layers = _per_layer_matrices(q_noise, n, n_layers)
    out = []
    for s, layer in enumerate(mx.layers):
        lam = np.asarray(
            layer.lam if lambdas is None else lambdas[s], dtype=float
        ).ravel()
        net = ok.InfluenceNetwork(w=layer.w, lam=lam, directed=layer.directed)
        coupling = _coupling(net)
        factor = _noise_factor(q_layers[s], n)
        rng = ok.philox_stream(seed, 3, s)
        anchor = (1.0 - lam) * u_layers[s]
        states = np.empty((steps + 1, n))
        states[0] = u_layers[s]
        noise = rng.standard_normal((steps, n)) @ factor.T
        for x, x_next, eta in zip(states, states[1:], noise):
            np.add(coupling @ x, anchor, out=x_next)
            x_next += eta
        out.append(states)
    return out


def reference_simulate_fj(net, x0, steps):
    """Anchored-averaging states (steps + 1, n, m) from the dense loop
    x(k+1) = np.diag(lam) @ W @ x(k) + (I - Lambda) x(0)."""
    x0 = np.asarray(x0, dtype=float).reshape(net.n, -1)
    coupling = np.diag(net.lam) @ net.w
    anchor = (1.0 - net.lam)[:, None] * x0
    states = [x0]
    for _ in range(steps):
        states.append(coupling @ states[-1] + anchor)
    return np.stack(states)


def reference_belief_system(net, c_matrix, x0, steps):
    """Reference states of the synchronous simulators from two separate
    loops on the library's own coupling, so that they compare bit for bit:
    the belief-system step X(k+1) = Lambda W X(k) C' + (I - Lambda) X(0)
    with a finiteness and max|X| <= 1e12 guard, and with c_matrix None the
    unguarded anchored-averaging step."""
    x0 = np.asarray(x0, dtype=float)
    x0 = x0[:, None] if x0.ndim == 1 else x0
    coupling = _coupling(net)
    anchor = (1.0 - net.lam)[:, None] * x0
    states = np.empty((steps + 1, net.n, x0.shape[1]))
    states[0] = x0
    for k in range(steps):
        if c_matrix is None:
            states[k + 1] = coupling @ states[k] + anchor
            continue
        states[k + 1] = coupling @ states[k] @ c_matrix.T + anchor
        if not np.all(np.isfinite(states[k + 1])) or np.max(np.abs(states[k + 1])) > 1e12:
            raise ok.NumericalError(f"belief-system trajectory diverged at step {k + 1}")
    return states


def reference_converged_at(states):
    """The first step k closing PLATEAU_RUN consecutive steps that each
    move no entry by PLATEAU_TOL or more, or None."""
    run = 0
    for k in range(1, len(states)):
        run = run + 1 if np.max(np.abs(states[k] - states[k - 1])) < PLATEAU_TOL else 0
        if run >= PLATEAU_RUN:
            return k
    return None


def reference_reflected_appraisal(c_influence, c0, n_issues):
    """(w_seq, c_seq) from the per-stage loop that solves the transposed
    anchored system with a dense solve against the ones vector."""
    n = c_influence.shape[0]
    c = np.asarray(c0, dtype=float)
    w_seq = np.empty((n_issues, n, n))
    c_seq = np.empty((n_issues + 1, n))
    c_seq[0] = c
    for s in range(n_issues):
        w_stage = np.diag(c) + (1.0 - c)[:, None] * c_influence
        w_seq[s] = w_stage
        system = np.eye(n) - (1.0 - c)[:, None] * w_stage
        c_next = c * np.linalg.solve(system.T, np.ones(n)) / n
        c = c_next
        c_seq[s + 1] = c
    return w_seq, c_seq


def reference_expected_gossip_dynamics(net, beta, x0):
    """(Gamma_bar, b_bar, x_mean_inf) from dense diagonal products."""
    n = net.n
    _, counts = reference_neighbor_menus(net)
    inv_d = np.diag(1.0 / counts)
    gamma_bar = (1.0 - beta) * np.eye(n) + beta * np.diag(net.lam) @ (
        np.eye(n) - inv_d @ (np.eye(n) - net.w)
    )
    b_bar = beta * (1.0 - net.lam) * x0
    return gamma_bar, b_bar, np.linalg.solve(np.eye(n) - gamma_bar, b_bar)


def _reference_edge_lists(
    net: ok.InfluenceNetwork, weighted: bool
) -> list[list[tuple[int, float]]]:
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(net.n)]
    for i in range(net.n):
        for j in np.flatnonzero(np.abs(net.w[i]) > STRUCTURAL_ZERO):
            if j == i:
                continue
            length = 1.0 / net.w[i, j] if weighted else 1.0
            adjacency[i].append((int(j), length))
    return adjacency


def _reference_shortest_path_dag(adjacency, source: int, n: int, weighted: bool):
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


def reference_closeness(
    net: ok.InfluenceNetwork, weighted: bool = False
) -> ok.CentralityVector:
    """Closeness by one heapq Dijkstra per source, kept verbatim from the
    library's earlier version as an oracle. Reciprocal of the summed
    distances to the agents reachable from i.

    Agents that reach nobody score 0; partial reachability is flagged
    because values on different reachable sets are not comparable.
    """
    adjacency = _reference_edge_lists(net, weighted)
    values = np.zeros(net.n)
    partial = isolated = False
    for i in range(net.n):
        dist, _, _, _ = _reference_shortest_path_dag(adjacency, i, net.n, weighted)
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
    return ok.CentralityVector(values=values, kind="closeness", normalized=False)


def reference_betweenness(
    net: ok.InfluenceNetwork, weighted: bool = False
) -> ok.CentralityVector:
    """Brandes' recursion over one heapq Dijkstra per source, kept verbatim
    from the library's earlier version as an oracle. Sum over pairs (j, k)
    of the fraction of shortest j->k paths passing through i. Ordered pairs
    for directed networks, unordered for undirected ones."""
    adjacency = _reference_edge_lists(net, weighted)
    values = np.zeros(net.n)
    for source in range(net.n):
        dist, sigma, preds, order = _reference_shortest_path_dag(
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
    return ok.CentralityVector(values=values, kind="betweenness", normalized=False)


def reference_strongly_connected(a):
    """Strong connectivity of the support of a by two breadth-first walks
    from agent 0, along the edges and against them."""
    support = np.abs(a) > STRUCTURAL_ZERO
    np.fill_diagonal(support, False)

    def reaches_all(support):
        seen = np.zeros(support.shape[0], dtype=bool)
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

    return reaches_all(support) and reaches_all(support.T)


def reference_friedkin(net):
    """Friedkin influence centrality (I - Lambda) (I - Lambda W)'^{-1} 1 / n
    by a dense solve."""
    system = np.eye(net.n) - np.diag(net.lam) @ net.w
    return (1.0 - net.lam) * np.linalg.solve(system.T, np.ones(net.n)) / net.n


def reference_stability(net):
    """(schur_stable, spectral radius, open set, unanchored) from the walk
    criterion on the dense support and dense eigenvalues of Lambda W."""
    reaches = net.lam < 1.0
    support = np.abs(net.w) > STRUCTURAL_ZERO
    for _ in range(net.n):
        reaches = reaches | (support @ reaches)
    unanchored = tuple(np.flatnonzero(~reaches).tolist())
    radius = float(np.max(np.abs(np.linalg.eigvals(np.diag(net.lam) @ net.w))))
    open_set = tuple(np.flatnonzero(net.lam < 1.0).tolist())
    return not unanchored, radius, open_set, unanchored


def reference_spark(phi, tol=None):
    """Smallest number of linearly dependent columns, one matrix_rank call
    per column subset in increasing size (n + 1 for full column rank)."""
    m, n = phi.shape
    for k in range(1, min(m + 1, n) + 1):
        for cols in itertools.combinations(range(n), k):
            if np.linalg.matrix_rank(phi[:, cols], tol=tol) < k:
                return k
    return n + 1


def reference_solve_l1(problem):
    """Weighted l1 solve with box bounds as dense inequality rows and a
    nonneg program as split variables whose negative part is fixed at 0;
    returns x, or None when HiGHS does not report an optimum."""
    phi = np.atleast_2d(np.asarray(problem.phi, dtype=float))
    psi = np.asarray(problem.psi, dtype=float).ravel()
    m, n = phi.shape
    weights = (
        np.ones(n) if problem.weights is None else np.asarray(problem.weights, float)
    )
    c = np.concatenate([weights, weights])
    a_eq = [np.hstack([phi, -phi])]
    b_eq = [psi]
    if problem.sum_to is not None:
        row = np.concatenate([np.ones(n), -np.ones(n)])
        a_eq.append(row[None, :])
        b_eq.append(np.array([float(problem.sum_to)]))
    a_eq = np.vstack(a_eq)
    b_eq = np.concatenate(b_eq)

    a_ub_rows, b_ub_vals = [], []
    for bound, sign in ((problem.hi, 1.0), (problem.lo, -1.0)):
        if bound is None:
            continue
        bound = np.asarray(bound, dtype=float)
        for i in range(n):
            if np.isnan(bound[i]):
                continue
            row = np.zeros(2 * n)
            row[i], row[n + i] = sign, -sign
            a_ub_rows.append(row)
            b_ub_vals.append(sign * bound[i])
    a_ub = np.vstack(a_ub_rows) if a_ub_rows else None
    b_ub = np.asarray(b_ub_vals) if a_ub_rows else None

    v_cap = (0.0, 0.0) if problem.nonneg else (0.0, None)
    bounds = [(0.0, None)] * n + [v_cap] * n
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    return None if res.status != 0 else res.x[:n] - res.x[n:]


def reference_nonneg_is_unique(a, b, tol=1e-9):
    """Whether {z >= 0 : a z = b} is a single point, decided by LPs: take a
    vertex v of the set, its support S (entries above STRUCTURAL_ZERO) and
    the rest Z. The set is {v} iff the columns a_S are independent and the
    largest 1_Z'z over the set is 0 (at most tol). Raises when the set is
    empty."""
    n = a.shape[1]
    vertex = linprog(np.zeros(n), A_eq=a, b_eq=b, bounds=(0.0, None), method="highs")
    assert vertex.status == 0, "no nonnegative solution"
    zero = vertex.x <= STRUCTURAL_ZERO
    if np.linalg.matrix_rank(a[:, ~zero]) < int((~zero).sum()):
        return False
    if not zero.any():
        return True
    reach = linprog(-zero.astype(float), A_eq=a, b_eq=b, bounds=(0.0, None), method="highs")
    return reach.status == 0 and -reach.fun <= tol


def reference_equilibrium_system(x_inf, psi_row):
    """The nonnegative system [X(inf)'; 1'] w = [psi_j; 1] of one
    identify_infinite_horizon row, as the estimator once built it by hand."""
    a = np.vstack([x_inf.T, np.ones((1, x_inf.shape[0]))])
    return a, np.append(psi_row, 1.0)


def reference_least_moment(a, b):
    """The least-moment point of {w >= 0 : a w = b}: a direct linprog of
    min c'w over it, c_k the squared norm of column k of a; None when HiGHS
    does not report an optimum."""
    res = linprog(np.einsum("ij,ij->j", a, a), A_eq=a, b_eq=b, bounds=(0.0, None),
                  method="highs")
    return None if res.status != 0 else res.x


# The least-moment dual simplex as it stood before its rows ran in batches,
# one program per call, kept verbatim (renamed; the SIMPLEX_* constants read
# from numkit at call time) as the bit-level oracle of the lockstep kernel.
def reference_simplex(a, b, c):
    p, q = a.shape
    augmented, basis, reduced = np.eye(p, p + 1), np.arange(q, q + p), c.astype(float)
    augmented[:, p] = b
    inverse, x = augmented[:, :p], augmented[:, p]  # views, updated in place
    tol = numkit.SIMPLEX_TOL * max(1.0, np.abs(b).max(initial=0.0))
    pivots = stall = 0
    while pivots < numkit.SIMPLEX_MAX_PIVOTS:
        infeasibility = np.where(basis >= q, np.abs(x), -x)
        r = int(infeasibility.argmax())
        if not infeasibility[r] > tol:
            z = np.zeros(q)
            z[basis[basis < q]] = x[basis < q]
            return z, pivots
        if stall >= numkit.SIMPLEX_STALL:
            infeasible = np.flatnonzero(infeasibility > tol)
            r = int(infeasible[basis[infeasible].argmin()])
        row = inverse[r] @ a
        moves = np.sign(x[r]) * row
        ratios = np.divide(np.fmax(reduced, 0.0), moves, out=np.full(q, np.inf),
                           where=moves > numkit.SIMPLEX_TOL)
        j = int(ratios.argmin())
        if ratios[j] == np.inf:
            return None, pivots
        column = inverse @ a[:, j]
        reduced -= reduced[j] / row[j] * row
        reduced[j] = 0.0
        pivot_row = augmented[r] / row[j]
        augmented -= np.outer(column, pivot_row)
        augmented[r] = pivot_row
        basis[r] = j
        pivots += 1
        stall = 0 if ratios[j] > numkit.SIMPLEX_TOL else stall + 1
    return None, pivots


def reference_augmented_system(x0, x_inf, j):
    """The nonnegative system of identify_unknown_lambda's row j over the
    columns [w without w_jj, mu'] with mu = 1 + mu': X(inf)'w + d mu' =
    x_j(inf) with d = x_j(0) - x_j(inf), and 1'w = 1, as the estimator once
    built it by hand."""
    n = x0.shape[0]
    a = np.vstack([
        np.hstack([np.delete(x_inf.T, j, axis=1), (x0[j] - x_inf[j])[:, None]]),
        np.append(np.ones(n - 1), 0.0),
    ])
    return a, np.append(x_inf[j], 1.0)


def reference_infinite_horizon(x0, x_inf, lam, nonneg):
    """Row-by-row equilibrium inversion through reference_solve_l1."""
    lam = np.asarray(lam, dtype=float)
    psi = (x_inf - (1.0 - lam)[:, None] * x0) / lam[:, None]
    return np.array([
        reference_solve_l1(ok.L1Problem(phi=x_inf.T, psi=row, sum_to=1.0, nonneg=nonneg))
        for row in psi
    ])


def reference_unknown_lambda(x0, x_inf, nonneg):
    """Row-by-row augmented inversion through reference_solve_l1;
    returns (w_hat, mu) with mu = 1 / lambda_hat."""
    n = x0.shape[0]
    w_hat, mu = np.zeros((n, n)), np.ones(n)
    for j in range(n):
        phi = np.hstack([x_inf.T, (x0[j] - x_inf[j])[:, None]])
        closure = np.zeros(n + 1)
        closure[:n] = 1.0
        phi = np.vstack([phi, closure])
        psi = np.concatenate([x0[j], [1.0]])
        weights = np.ones(n + 1)
        weights[n] = 0.0
        lo = np.full(n + 1, np.nan)
        hi = np.full(n + 1, np.nan)
        lo[j] = hi[j] = 0.0
        lo[n] = 1.0
        x = reference_solve_l1(
            ok.L1Problem(phi=phi, psi=psi, nonneg=nonneg, weights=weights, lo=lo, hi=hi)
        )
        w_hat[j], mu[j] = x[:n], x[n]
    return w_hat, mu


def reference_finite_horizon(states, eps, lam):
    """Couplings a_hat (n, n) and anchors b_hat (n,) from per-row
    programs built directly for linprog: stage 1 minimizes the
    off-diagonal mass; when it leaves a_ii > 0 with b_i below its upper
    bound, stage 2 bounds that mass by the stage-1 optimum plus 1e-9 and
    minimizes a_ii."""
    n = states.shape[1]
    x0 = states[0]
    data = np.concatenate(list(states[:-1]), axis=1)
    target = np.concatenate(list(states[1:]), axis=1)
    a_hat = np.zeros((n, n))
    b_hat = np.zeros(n)
    for i in range(n):
        cost = np.ones(n + 1)
        cost[i] = 0.0
        cost[n] = 0.0
        anchor = np.tile(x0[i], states.shape[0] - 1)
        phi = np.vstack([data, anchor[None, :]])
        closure = np.ones((1, n + 1))
        rhs = target[i]
        if lam is not None:
            b_bounds = (1.0 - float(lam[i]),) * 2
        else:
            b_bounds = (0.0, 1.0)
        bounds = [(0.0, None)] * n + [b_bounds]
        if eps == 0.0:
            a_ub, b_ub = np.zeros((0, n + 1)), np.zeros(0)
            a_eq = np.vstack([phi.T, closure])
            b_eq = np.concatenate([rhs, [1.0]])
        else:
            a_ub = np.vstack([phi.T, -phi.T])
            b_ub = np.concatenate([rhs + eps, -(rhs - eps)])
            a_eq, b_eq = closure, [1.0]
        res = linprog(
            cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=bounds, method="highs",
        )
        assert res.status == 0
        x = res.x
        if x[i] > STRUCTURAL_ZERO and x[n] < b_bounds[1] - STRUCTURAL_ZERO:
            self_cost = np.zeros(n + 1)
            self_cost[i] = 1.0
            res = linprog(
                self_cost,
                A_ub=np.vstack([a_ub, cost]),
                b_ub=np.concatenate([b_ub, [res.fun + 1e-9]]),
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=bounds,
                method="highs",
            )
            assert res.status == 0
            x = res.x
        a_hat[i] = x[:n]
        b_hat[i] = x[n]
    return a_hat, b_hat


def reference_sparse_gamma(moments, b_bar, eta):
    """Gamma-hat from per-column band programs built directly for
    linprog (eta > 0)."""
    n = moments.sigma_minus.shape[0]
    target = moments.sigma_plus - np.outer(moments.x_hat, b_bar)
    gamma_t = np.empty((n, n))
    for col in range(n):
        weights = np.ones(n)
        weights[col] = 0.0
        cost = np.concatenate([weights, weights])
        block = np.hstack([moments.sigma_minus, -moments.sigma_minus])
        a_ub = np.vstack([block, -block])
        b_ub = np.concatenate([target[:, col] + eta, eta - target[:, col]])
        res = linprog(
            cost, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, None)] * (2 * n), method="highs"
        )
        assert res.status == 0
        gamma_t[:, col] = res.x[:n] - res.x[n:]
    return gamma_t.T


# The trajectory and stream file code as it stood before the file boundary
# module, kept verbatim (only renamed) as the byte-level format oracle.


def reference_save_trajectory(traj, path, stride: int = 1) -> None:
    if stride < 1:
        raise ok.ParameterError("stride must be >= 1")
    with open(path, "w") as fh:
        fh.write("k,agent,issue,value\n")
        for k in range(0, traj.states.shape[0], stride):
            for agent in range(traj.n):
                for issue in range(traj.n_issues):
                    value = format(traj.states[k, agent, issue], ".17g")
                    fh.write(f"{k},{agent},{issue},{value}\n")


def reference_load_trajectory(path):
    """Read a trajectory file; returns (step indices, states array)."""
    entries = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "k,agent,issue,value":
            raise ok.ConfigError(f"unexpected trajectory header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                k, agent, issue, value = line.split(",")
                entries[(int(k), int(agent), int(issue))] = float(value)
            except ValueError:
                raise ok.ConfigError(
                    f"{path}, line {lineno}: malformed trajectory row {line.strip()!r}"
                ) from None
    if not entries:
        raise ok.ConfigError("trajectory file holds no samples")
    ks = sorted({key[0] for key in entries})
    n = max(key[1] for key in entries) + 1
    m = max(key[2] for key in entries) + 1
    states = np.empty((len(ks), n, m))
    for row, k in enumerate(ks):
        for agent in range(n):
            for issue in range(m):
                try:
                    states[row, agent, issue] = entries[(k, agent, issue)]
                except KeyError:
                    raise ok.ConfigError(
                        f"trajectory file is missing (k={k}, agent={agent}, issue={issue})"
                    ) from None
    return np.asarray(ks, dtype=int), states


def reference_save_stream(stream, path) -> None:
    with open(path, "w") as fh:
        fh.write("k,agent,value\n")
        for k, agent, value in stream.records():
            fh.write(f"{k},{agent},{format(value, '.17g')}\n")
    rho = stream.model.rho
    if isinstance(rho, np.ndarray):
        rho = rho.tolist()
    descriptor = {
        "horizon": stream.horizon,
        "issue": stream.issue,
        "kind": stream.model.kind,
        "n": stream.n,
        "rho": rho,
        "seed": stream.seed,
    }
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(descriptor, fh, sort_keys=True, indent=2)
        fh.write("\n")


# identify_multiplex as it stood before its shrinkage, prior, moment and
# support-cut steps were shared with bayesian_covariance,
# fit_hyperparameters, estimate_cross_correlations and
# recover_topology_and_w, kept verbatim (renamed, with an absolute import)
# as the oracle. It calls the library's estimate_cross_correlations and
# estimate_gamma.


def reference_identify_multiplex(
    streams,
    model_tag: str,
    lambdas,
    u,
    max_lag: int = N_SIGMA,
    n_sigma: int = N_SIGMA,
    psi: np.ndarray | None = None,
    nu: float | None = None,
    support_threshold: float | None = None,
    shrink: bool = True,
) -> MultiplexEstimate:
    """Per-layer mean-update estimation with cross-layer regularization.

    Each layer runs the moment pipeline for the synchronous anchored
    model (Gamma = Lambda W, b = (I - Lambda) u); the lag-0 moment is
    shrunk toward a cross-layer prior mean before inversion. Under the
    common_support tag, supports are intersected across layers and each
    layer's weights are re-masked to the joint support.
    """
    from opinionkit.netgraph import MULTIPLEX_MODELS

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
        estimate_cross_correlations(stream, max_lag, n_sigma) for stream in streams
    ]
    t_effs = [float(stream.mask.sum()) / stream.n for stream in streams]
    gammas_shrink = [0.0] * n_layers
    if shrink:
        if psi is None or nu is None:
            nu = float(nu) if nu is not None else n + 3.0
            pooled = np.mean([me.sigma[0] for me in moment_sets], axis=0)
            pooled = (pooled + pooled.T) / 2.0
            floor = max(np.trace(pooled) / n, 1e-8) * 1e-8
            pooled = pooled + floor * np.eye(n)
            psi = (nu - (n + 1)) * pooled
        prior_mean = np.asarray(psi, dtype=float) / (nu - (n + 1))
        for s, me in enumerate(moment_sets):
            gamma = (nu - (n + 1)) / (nu + t_effs[s] - (n + 1))
            gammas_shrink[s] = float(gamma)
            sigma = me.sigma.copy()
            sigma[0] = gamma * prior_mean + (1.0 - gamma) * sigma[0]
            moment_sets[s] = MomentEstimates(
                x_hat=me.x_hat,
                sigma=sigma,
                sigma_minus=sigma[:n_sigma].mean(axis=0),
                sigma_plus=sigma[1 : n_sigma + 1].mean(axis=0),
                n_sigma=n_sigma,
                horizon=me.horizon,
            )

    gamma_hats, supports, infos = [], [], []
    for s, me in enumerate(moment_sets):
        b_bar = (1.0 - lambdas[s]) * u_vectors[s]
        gamma_hat, info = estimate_gamma(me, b_bar, mode="dense")
        gamma_hats.append(gamma_hat)
        infos.append(info)
        off = np.abs(gamma_hat.copy())
        np.fill_diagonal(off, 0.0)
        cut = (
            support_threshold
            if support_threshold is not None
            else SUPPORT_FRACTION * off.max()
        )
        supports.append({
            (int(i), int(j))
            for i, j in zip(*np.nonzero(np.abs(gamma_hat) > cut))
        })

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


# ---- dense support scans: each network consumer's own scan of |w| ----------
#
# These are the consumers' scans of the dense matrix, kept verbatim as the
# references for the network's cached sparse view.


def reference_support_mask(net):
    return np.abs(net.w) > STRUCTURAL_ZERO


def reference_edge_set(net):
    rows, cols = np.nonzero(reference_support_mask(net))
    return set(zip(rows.tolist(), cols.tolist()))


def reference_network_density(net, alpha=None):
    n_edges = int(np.count_nonzero(reference_support_mask(net)))
    sparse_flag = None if alpha is None else bool(n_edges <= alpha * net.n)
    return ok.DensityReport(n_edges=n_edges, density=n_edges / net.n**2, sparse=sparse_flag)


def reference_degree_profile(net):
    support = reference_support_mask(net)
    return ok.DegreeProfile(
        in_degree=support.sum(axis=1),
        out_degree=support.sum(axis=0),
        weighted_in_degree=net.w.sum(axis=1),
        weighted_out_degree=net.w.sum(axis=0),
        d_max=int(support.sum(axis=1).max()),
    )


def reference_network_doc(net):
    """The network file text, one numpy scalar per edge."""
    f17 = lambda x: format(float(x), ".17g")  # noqa: E731
    lam = ", ".join(f17(v) for v in net.lam)
    rows, cols = np.nonzero(reference_support_mask(net))
    order = np.lexsort((cols, rows))
    edges = ", ".join(f"[{rows[k]}, {cols[k]}, {f17(net.w[rows[k], cols[k]])}]" for k in order)
    directed = "true" if net.directed else "false"
    return (
        f'{{"n": {net.n}, "directed": {directed}, '
        f'"lambda": [{lam}], "edges": [{edges}]}}\n'
    )


def reference_degree_centrality(net, direction):
    return reference_support_mask(net).sum(axis=1 if direction == "in" else 0).astype(float)


def reference_geodesic_edges(net, weighted):
    """(tails, heads, lengths) of the support without self-loops; raises
    ParameterError where a weighted length 1/w is not above TIE_TOL."""
    support = reference_support_mask(net)
    np.fill_diagonal(support, False)
    tails, heads = np.nonzero(support)
    if weighted:
        lengths = 1.0 / net.w[tails, heads]
        if not (lengths > TIE_TOL).all():
            raise ParameterError("weighted path lengths 1/w need weights in (0, 1/TIE_TOL)")
    else:
        lengths = np.ones(tails.size)
    return tails, heads, lengths


def reference_unanchored(net):
    """Agents that cannot reach lambda < 1, by the CSR walk over the
    dense support scan."""
    reaches = net.lam < 1.0
    support = sparse.csr_array(reference_support_mask(net))
    changed = True
    while changed:
        grown = reaches | (support @ reaches)
        changed = bool((grown != reaches).any())
        reaches = grown
    return tuple(np.flatnonzero(~reaches).tolist())


def reference_coupling_csr(net):
    """Lambda W as CSR, converted from the dense product."""
    return sparse.csr_array(net.lam[:, None] * net.w)


# The dense generators that built every network before networks were built
# from their edge lists, kept verbatim (renamed; _topology, _raw_weights,
# _row_normalize and _draw_lambda as they were): an n x n bool adjacency,
# then dense raw and normalised weight matrices.


def _reference_topology(config, rng):
    """Boolean adjacency (no self-loops) for the configured model."""
    n = config.n
    if config.model == "erdos_renyi":
        graph = nx.gnp_random_graph(n, config.p, seed=rng, directed=True)
    elif config.model == "watts_strogatz":
        graph = nx.watts_strogatz_graph(n, config.k, config.beta_rw, seed=rng)
    else:
        graph = nx.barabasi_albert_graph(n, config.m0, seed=rng)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in graph.edges():
        adj[u, v] = True
        if not graph.is_directed():
            adj[v, u] = True
    np.fill_diagonal(adj, False)
    return adj


def _reference_raw_weights(adj, rng):
    """Positive raw weights on the support; empty rows get self-loop 1."""
    raw = np.zeros(adj.shape)
    raw[adj] = 1.0 - rng.random(int(adj.sum()))
    empty = raw.sum(axis=1) == 0.0
    raw[empty, np.flatnonzero(empty)] = 1.0
    return raw


def _reference_row_normalize(raw):
    return raw / raw.sum(axis=1, keepdims=True)


def _reference_draw_lambda(config, rng, n):
    lo, hi = config.lambda_range
    return rng.uniform(lo, hi, size=n)


def reference_generate_network(config, seed=None):
    rng = philox_stream(seed)
    adj = _reference_topology(config, rng)
    raw = _reference_raw_weights(adj, rng)
    lam = _reference_draw_lambda(config, rng, config.n)
    return ok.InfluenceNetwork(w=_reference_row_normalize(raw), lam=lam, directed=True)


def reference_build_multiplex(config, seed=None):
    base_rng = philox_stream(seed, 0)
    adj = _reference_topology(config.base, base_rng)
    base_raw = _reference_raw_weights(adj, base_rng)
    base_net = ok.InfluenceNetwork(
        w=_reference_row_normalize(base_raw),
        lam=_reference_draw_lambda(config.base, base_rng, config.base.n),
        directed=True,
    )

    layers = []
    for layer_idx in range(config.n_layers):
        rng = philox_stream(seed, 1, layer_idx)
        if config.model_tag == "independent":
            layer_adj = _reference_topology(config.base, rng)
            raw = _reference_raw_weights(layer_adj, rng)
        elif config.model_tag == "common_support":
            raw = _reference_raw_weights(adj, rng)
        else:  # common_component
            innovation = np.zeros_like(base_raw)
            if config.innovation_p > 0.0:
                extra = rng.random(base_raw.shape) < config.innovation_p
                np.fill_diagonal(extra, False)
                innovation[extra] = config.innovation_scale * (
                    1.0 - rng.random(int(extra.sum()))
                )
            raw = base_raw + innovation
        layers.append(
            ok.InfluenceNetwork(
                w=_reference_row_normalize(raw),
                lam=_reference_draw_lambda(config.base, rng, config.base.n),
                directed=True,
            )
        )
    base = base_net if config.model_tag != "independent" else None
    return ok.MultiplexNetwork(layers=tuple(layers), model_tag=config.model_tag, base=base)
