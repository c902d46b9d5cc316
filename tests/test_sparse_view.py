"""Bitwise pins for the network's cached sparse view.

Every support consumer must return what its own dense scan of |w| >
STRUCTURAL_ZERO returned (tests/helpers.py keeps those scans), in values,
dtypes and order, on networks on both sides of DENSE_MAX_N that hold a
weight in (0, STRUCTURAL_ZERO], one exactly at it, -0.0 entries,
self-loops, rows with lambda = 0 and, when signed, a negative and a NaN
weight.
"""

import json
from functools import cached_property

import numpy as np
import pytest

import opinionkit as ok
from helpers import (
    reference_coupling_csr,
    reference_degree_centrality,
    reference_degree_profile,
    reference_build_multiplex,
    reference_edge_set,
    reference_generate_network,
    reference_geodesic_edges,
    reference_neighbor_menus,
    reference_network_density,
    reference_network_doc,
    reference_unanchored,
)
from opinionkit import dynamics, netgraph
from opinionkit.centrality import _geodesics
from opinionkit.dynamics import _coupling, _neighbor_menus, _stability
from opinionkit.numkit import DENSE_MAX_N, STRUCTURAL_ZERO

CASES = [(12, False), (12, True), (DENSE_MAX_N + 30, False), (DENSE_MAX_N + 30, True)]


def _awkward_network(n, signed, seed=0):
    """Three to five neighbours per agent, self-loops on every third one,
    lambda = 0 on every fifth, and a closed pair n-2 <-> n-1 with lambda = 1
    whose only way out is a weight below STRUCTURAL_ZERO."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    for i in range(n - 2):
        others = np.delete(np.arange(n), i)
        cols = rng.choice(others, size=int(rng.integers(3, 6)), replace=False)
        w[i, cols] = rng.uniform(0.1, 1.0, cols.size)
    w[np.arange(0, n - 2, 3), np.arange(0, n - 2, 3)] = 0.5
    w /= np.where(w.sum(axis=1) > 0, w.sum(axis=1), 1.0)[:, None]
    w[n - 2, n - 1] = 1.0
    w[n - 1, n - 2] = 1.0 - 5e-13
    w[n - 1, 0] = 5e-13
    empty = np.flatnonzero(w[1] == 0.0)
    w[1, empty[0]] = STRUCTURAL_ZERO
    w[1, empty[1]] = 2e-13
    w[2, np.flatnonzero(w[2] == 0.0)[:2]] = -0.0
    if signed:
        w[4, np.flatnonzero(w[4])[0]] = -0.25
        w[5, np.flatnonzero(w[5])[0]] = np.nan
    lam = rng.uniform(0.2, 0.9, n)
    lam[::5] = 0.0
    lam[n - 2 :] = 1.0
    return ok.InfluenceNetwork(w=w, lam=lam)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n, signed", CASES)
def test_support_consumers_match_their_dense_scans(n, signed, tmp_path, monkeypatch):
    net = _awkward_network(n, signed)
    assert net.edge_set() == reference_edge_set(net)
    for alpha in (None, 4.0):
        assert ok.network_density(net, alpha) == reference_network_density(net, alpha)
    profile, expected = ok.degree_profile(net), reference_degree_profile(net)
    for field in ("in_degree", "out_degree", "weighted_in_degree", "weighted_out_degree"):
        assert _same(getattr(profile, field), getattr(expected, field))
    assert type(profile.d_max) is int and profile.d_max == expected.d_max
    for direction in ("in", "out"):
        values = ok.degree_centrality(net, direction).values
        assert _same(values, reference_degree_centrality(net, direction))
    for weighted in (False, True):
        if weighted and signed:
            with pytest.raises(ok.ParameterError):
                reference_geodesic_edges(net, weighted)
            with pytest.raises(ok.ParameterError):
                _geodesics(net, weighted)
            continue
        _, tails, heads, lengths = _geodesics(net, weighted)
        for got, want in zip((tails, heads, lengths), reference_geodesic_edges(net, weighted)):
            assert _same(got, want)
    table, counts, weights = _neighbor_menus(net)
    ref_table, ref_counts = reference_neighbor_menus(net)
    assert _same(table, ref_table) and _same(counts, ref_counts)
    padding = np.arange(table.shape[1]) >= counts[:, None]
    assert _same(weights, np.where(padding, 0.0, net.w[np.arange(n)[:, None], ref_table]))
    # Only the walk is pinned here; NaN weights leave no radius to compare.
    monkeypatch.setattr(dynamics, "spectral_radius", lambda coupling: 1.0)
    report = _stability(net, _coupling(net))
    assert report.unanchored == reference_unanchored(net) == (n - 2, n - 1)
    assert report.open_set == tuple(np.flatnonzero(net.lam < 1.0).tolist())
    ok.save_network(net, tmp_path / "net.json")
    assert (tmp_path / "net.json").read_text() == reference_network_doc(net)


@pytest.mark.parametrize("n, signed", CASES)
@pytest.mark.parametrize("lam_edit", [None])  # keeps the case ids; lambda is finite
def test_coupling_is_the_dense_product_bit_for_bit(n, signed, lam_edit):
    net = _awkward_network(n, signed)
    coupling = _coupling(net)
    if n <= DENSE_MAX_N:
        assert _same(coupling, net.lam[:, None] * net.w)
        return
    expected = reference_coupling_csr(net)
    assert (coupling.data == 0.0).sum() == 0
    for part in ("indptr", "indices", "data"):
        assert _same(getattr(coupling, part), getattr(expected, part))
    assert coupling.shape == expected.shape


@pytest.mark.parametrize("n", [12, DENSE_MAX_N + 30])
def test_a_non_finite_susceptibility_is_rejected_at_construction(n):
    net = _awkward_network(n, signed=True)
    for bad in (np.nan, np.inf, -np.inf):
        lam = net.lam.copy()
        lam[7] = bad
        with pytest.raises(ok.ParameterError, match=r"agents \[7\] are not finite"):
            ok.InfluenceNetwork(w=net.w, lam=lam)


def test_coupling_shares_no_array_with_the_network_cache(tmp_path):
    config = ok.GeneratorConfig(
        model="watts_strogatz", n=DENSE_MAX_N + 50, k=6, beta_rw=0.2, lambda_range=(0.3, 0.8)
    )
    generated = ok.generate_network(config, seed=2)
    lam = generated.lam.copy()
    lam[::7] = 0.0
    net = ok.InfluenceNetwork(w=generated.w, lam=lam)
    cached = (*net.support, net.nonzeros.data, net.nonzeros.indices, net.nonzeros.indptr)
    before = [part.copy() for part in cached]

    coupling = _coupling(net)
    coupling.eliminate_zeros()
    coupling.data[:] = 0.0
    coupling.eliminate_zeros()
    x0 = np.random.default_rng(2).uniform(-1, 1, net.n)
    ok.friedkin_centrality(net)
    ok.friedkin_centrality(net, alpha=0.5)
    ok.fj_equilibrium(net, x0)
    ok.simulate_fj(net, x0, steps=5)
    ok.simulate_gossip_fj(net, x0, steps=5, activation_size=3, seed=1)
    ok.is_schur_stable(net)
    net.edge_set()
    ok.network_density(net)
    ok.degree_profile(net)
    ok.degree_centrality(net)
    ok.closeness_centrality(net, weighted=True)
    ok.save_network(net, tmp_path / "net.json")

    assert (net.support[0] is cached[0]) and (net.nonzeros.data is cached[3])
    for part, old in zip(cached, before):
        assert _same(part, old)
        with pytest.raises(ValueError, match="read-only"):
            part[0] = part[1]
    with pytest.raises(ValueError, match="read-only"):
        net.nonzeros.eliminate_zeros()


@pytest.mark.parametrize("n", [12, DENSE_MAX_N + 30])
def test_a_derived_network_shares_the_sparse_view(n, monkeypatch):
    net = _awkward_network(n, signed=False)
    lam = np.full(n, 0.5)
    derived = net._with_susceptibilities(lam)
    assert derived.w is net.w and np.array_equal(derived.lam, lam)
    assert derived.nonzeros is net.nonzeros and derived.support is net.support

    # counts every scan of a w for its nonzeros
    scans, rescan = [], ok.InfluenceNetwork.nonzeros.func
    scan = cached_property(lambda self: scans.append(self) or rescan(self))
    scan.__set_name__(ok.InfluenceNetwork, "nonzeros")
    fresh = ok.InfluenceNetwork(w=net.w.copy(), lam=lam)
    other = ok.InfluenceNetwork(w=net.w.copy(), lam=net.lam)
    mx = ok.MultiplexNetwork(layers=(net, other), model_tag="independent")
    fresh_mx = ok.MultiplexNetwork(
        layers=(fresh, ok.InfluenceNetwork(w=other.w, lam=lam)), model_tag="independent"
    )
    for layer in (*mx.layers, *fresh_mx.layers):
        layer.support
    u, q_noise = np.linspace(-0.5, 0.5, n), 0.01 * np.eye(n)
    expected_centrality = ok.friedkin_centrality(fresh).values
    expected_states = [
        t.states for t in ok.simulate_multiplex_fj(fresh_mx, u, q_noise, steps=20, seed=3)
    ]

    monkeypatch.setattr(ok.InfluenceNetwork, "nonzeros", scan)
    centrality = ok.friedkin_centrality(net, alpha=0.5).values
    trajs = ok.simulate_multiplex_fj(mx, u, q_noise, steps=20, seed=3, lambdas=[lam, lam])
    assert scans == []
    assert _same(centrality, expected_centrality)
    for traj, states in zip(trajs, expected_states):
        assert _same(traj.states, states)


MODELS = {
    # p = 1.5 / n leaves about a fifth of the rows empty (self-loop 1)
    "erdos_renyi": lambda n: dict(p=1.5 / n),
    "watts_strogatz_ring": lambda n: dict(model="watts_strogatz", k=4, beta_rw=0.0),
    "watts_strogatz": lambda n: dict(k=4 if n < 20 else 6, beta_rw=0.2),
    "barabasi_albert": lambda n: dict(m0=3),
}


def _assert_same_network(net, expected):
    assert _same(net.lam, expected.lam) and net.directed == expected.directed
    for part in ("indptr", "indices", "data"):  # expected.nonzeros is csr_array(w)
        assert _same(getattr(net.nonzeros, part), getattr(expected.nonzeros, part))
    assert "w" not in net.__dict__  # built on first use, from the CSR
    assert _same(net.w, expected.w)


@pytest.mark.parametrize("n", [12, DENSE_MAX_N, DENSE_MAX_N + 1, 1000])
@pytest.mark.parametrize("family", sorted(MODELS))
def test_generated_networks_match_the_dense_generator_bit_for_bit(family, n):
    fields = {"model": family, "lambda_range": (0.3, 0.8), **MODELS[family](n)}
    config = ok.GeneratorConfig(n=n, **fields)
    for seed in (0, 1, 12345):
        net, expected = ok.generate_network(config, seed=seed), reference_generate_network(config, seed=seed)
        _assert_same_network(net, expected)
        if family == "erdos_renyi":
            assert (np.diag(expected.w) == 1.0).any()


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_empty_and_complete_erdos_renyi_graphs_match_networkx_without_a_draw(p, monkeypatch):
    # networkx returns these graphs before its pair loop, so lambda is the
    # stream's first draw after the raw weights
    monkeypatch.setattr(netgraph, "ROW_BLOCK_CELLS", 5)
    config = ok.GeneratorConfig(model="erdos_renyi", n=12, p=p, lambda_range=(0.3, 0.8))
    for seed in (0, 1):
        net = ok.generate_network(config, seed=seed)
        _assert_same_network(net, reference_generate_network(config, seed=seed))
        assert len(net.support[0]) == (12 if p == 0.0 else 12 * 11)


@pytest.mark.parametrize("n", [12, DENSE_MAX_N + 1])
@pytest.mark.parametrize("tag, innovation_p", [
    ("independent", 0.0),
    ("common_support", 0.0),
    ("common_component", 0.0),
    ("common_component", 0.05),
])
def test_multiplex_layers_match_the_dense_generator_bit_for_bit(n, tag, innovation_p, monkeypatch):
    # rows of three agents per block, so innovations span several blocks
    monkeypatch.setattr(netgraph, "ROW_BLOCK_CELLS", 3 * n)
    base = ok.GeneratorConfig(model="erdos_renyi", n=n, p=2.0 / n, lambda_range=(0.3, 0.8))
    config = ok.MultiplexConfig(model_tag=tag, base=base, n_layers=3, innovation_p=innovation_p)
    for seed in (0, 1, 12345):
        mx, expected = ok.build_multiplex(config, seed=seed), reference_build_multiplex(config, seed=seed)
        assert mx.model_tag == expected.model_tag and mx.n_layers == expected.n_layers
        for layer, expected_layer in zip(mx.layers, expected.layers):
            _assert_same_network(layer, expected_layer)
        assert (mx.base is None) == (expected.base is None)
        if expected.base is not None:
            _assert_same_network(mx.base, expected.base)


def test_row_sums_are_the_dense_ones_for_any_block_size(monkeypatch):
    config = ok.GeneratorConfig(model="watts_strogatz", n=300, k=6, beta_rw=0.3)
    expected = reference_generate_network(config, seed=4)
    for cells in (1, 299, 300, 301, 1 << 30):
        monkeypatch.setattr(netgraph, "ROW_BLOCK_CELLS", cells)
        _assert_same_network(ok.generate_network(config, seed=4), expected)


def _scattered(n, edges):
    """The dense w that listing edges in file order writes."""
    w = np.zeros((n, n))
    for i, j, weight in edges:
        w[i, j] = weight
    return w


@pytest.mark.parametrize("edges", [
    [[2, 0, 0.5], [0, 1, 1.0], [2, 2, 0.5], [1, 1, 1.0]],
    [[0, 1, 1.0], [0, 2, -0.0], [1, 1, 1.0], [2, 1, 0.0], [2, 0, 1], [0, 0, -0.0]],
    [[2, 0, 1.0], [1, 2, 0.0], [1, 1, 1.0], [0, 2, -0.0], [0, 0, 1.0]],
])
def test_loaded_networks_match_the_dense_loader_bit_for_bit(edges, tmp_path):
    doc = {"n": 3, "directed": True, "lambda": [0.2, 0.5, 0.8], "edges": edges}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    net = ok.load_network(path)
    expected = ok.InfluenceNetwork(w=_scattered(3, edges), lam=doc["lambda"])
    _assert_same_network(net, expected)
    assert np.signbit(net.w).sum() == sum(np.signbit(weight) for _, _, weight in edges)
    ok.save_network(net, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == reference_network_doc(expected)
