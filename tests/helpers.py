"""Shared builders and independent oracles used across the test modules.

Everything here is deliberately naive: brute-force path enumeration,
dense linear algebra, direct formula evaluation. The point is to check
the library against implementations that share no code with it.
"""

import itertools

import numpy as np

import opinionkit as ok
from opinionkit.numkit import STRUCTURAL_ZERO


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
    """Gossip states (steps + 1, n) from a per-step loop over one draw of
    all activation keys followed by one draw of all poll values."""
    x0 = np.asarray(x0, dtype=float).ravel()
    table, counts = reference_neighbor_menus(net)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    keys = rng.random((steps, net.n))
    picks = rng.random((steps, net.n))

    x = x0.copy()
    states = np.empty((steps + 1, net.n))
    states[0] = x
    lam = net.lam
    for k in range(steps):
        active = np.argpartition(keys[k], activation_size - 1)[:activation_size]
        polled = table[active, (picks[k, active] * counts[active]).astype(int)]
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
