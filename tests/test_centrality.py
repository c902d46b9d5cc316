"""Unit tests for the centrality measures."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import opinionkit as ok
from helpers import (
    brute_force_centrality,
    reference_betweenness,
    reference_closeness,
    reference_friedkin,
    reference_strongly_connected,
    relative_error,
    row_stochastic,
    slow_chain_network,
    stable_network,
)
from opinionkit.centrality import TIE_TOL


def _line_network(n=4):
    # 0 - 1 - 2 - 3 path, symmetric hop weights
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = 1.0
        w[i + 1, i] = 1.0
    w = w / w.sum(axis=1, keepdims=True)
    return ok.InfluenceNetwork(w=w, lam=np.full(n, 0.5), directed=False)


def test_degree_centrality_hand_instance():
    w = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
    net = ok.InfluenceNetwork(w=w, lam=np.full(3, 0.5))
    assert ok.degree_centrality(net, direction="in").values.tolist() == [2, 1, 3]
    assert ok.degree_centrality(net, direction="out").values.tolist() == [2, 3, 1]
    weighted = ok.degree_centrality(net, direction="out", weighted=True)
    assert np.allclose(weighted.values, w.sum(axis=0))


def test_degree_centrality_rejects_unknown_direction():
    net = _line_network()
    with pytest.raises(ok.ParameterError):
        ok.degree_centrality(net, direction="sideways")


def test_closeness_on_a_path_graph():
    net = _line_network(4)
    values = ok.closeness_centrality(net).values
    # end nodes: distances 1+2+3; middle nodes: 1+1+2
    assert np.allclose(values, [1 / 6, 1 / 4, 1 / 4, 1 / 6])


def test_betweenness_on_a_path_graph():
    net = _line_network(4)
    values = ok.betweenness_centrality(net).values
    # node 1 carries pairs (0,2), (0,3); node 2 carries (0,3), (1,3)
    assert np.allclose(values, [0.0, 2.0, 2.0, 0.0])


def test_betweenness_on_a_star():
    n = 5
    w = np.zeros((n, n))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    w = w / w.sum(axis=1, keepdims=True)
    net = ok.InfluenceNetwork(w=w, lam=np.full(n, 0.5), directed=False)
    values = ok.betweenness_centrality(net).values
    # hub carries all C(4, 2) = 6 leaf pairs, leaves carry none
    assert np.allclose(values, [6.0, 0.0, 0.0, 0.0, 0.0])


def test_closeness_warns_when_not_strongly_connected():
    w = np.array([[0.0, 1.0], [0.0, 1.0]])
    net = ok.InfluenceNetwork(w=w, lam=np.full(2, 0.5))
    with pytest.warns(UserWarning):
        values = ok.closeness_centrality(net).values
    assert values[0] == pytest.approx(1.0)
    assert values[1] == 0.0


@given(st.integers(0, 200))
def test_path_based_centralities_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    net = ok.InfluenceNetwork(
        w=row_stochastic(rng, n, density=0.5),
        lam=np.full(n, 0.5),
    )
    for weighted in (False, True):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            bc = ok.betweenness_centrality(net, weighted=weighted).values
            cc = ok.closeness_centrality(net, weighted=weighted).values
        bc_ref, cc_ref = brute_force_centrality(net, weighted)
        assert np.allclose(bc, bc_ref, atol=1e-9)
        assert np.allclose(cc, cc_ref, atol=1e-9)


def _generated(model, n, directed, sinks=0):
    """A generated network, symmetrised when undirected; its first `sinks`
    agents keep only a self-loop, so they reach nobody."""
    extra = dict(k=6, beta_rw=0.2) if model == "watts_strogatz" else dict(m0=3)
    config = ok.GeneratorConfig(model=model, n=n, lambda_range=(0.3, 0.8), **extra)
    w = ok.generate_network(config, seed=4).w.copy()
    if not directed:
        w = (w + w.T) / 2.0
    w[:sinks] = 0.0
    w[np.arange(sinks), np.arange(sinks)] = 1.0
    return ok.InfluenceNetwork(w=w, lam=np.full(n, 0.5), directed=directed)


def _with_warnings(measure, net, weighted):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        values = measure(net, weighted=weighted).values
    return values, [str(w.message) for w in caught]


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize("model, n, sinks", [
    ("watts_strogatz", 200, 0),
    ("watts_strogatz", 250, 0),
    ("barabasi_albert", 200, 0),
    ("barabasi_albert", 250, 0),
    ("watts_strogatz", 200, 7),
])
def test_path_centralities_match_the_heapq_brandes_code(model, n, sinks, directed):
    net = _generated(model, n, directed, sinks)
    for weighted in (False, True):
        for measure, reference in (
            (ok.betweenness_centrality, reference_betweenness),
            (ok.closeness_centrality, reference_closeness),
        ):
            values, messages = _with_warnings(measure, net, weighted)
            expected, expected_messages = _with_warnings(reference, net, weighted)
            # relative to the value: betweenness reaches 1e4 here, where
            # one rounding of a reordered sum is already 2e-12
            tolerance = 1e-12 * np.maximum(1.0, np.abs(expected))
            assert np.all(np.abs(values - expected) <= tolerance)
            assert messages == expected_messages
            # only closeness flags the sinks and the partial reachable sets
            assert len(messages) == (2 if sinks and measure is ok.closeness_centrality else 0)


def test_betweenness_on_a_long_directed_path_is_the_closed_form():
    n = 400
    w = np.zeros((n, n))
    w[np.arange(n - 1), np.arange(1, n)] = 1.0
    w[n - 1, n - 1] = 1.0
    net = ok.InfluenceNetwork(w=w, lam=np.full(n, 0.5))
    i = np.arange(n)
    for weighted in (False, True):
        values = ok.betweenness_centrality(net, weighted=weighted).values
        # agent i lies on the one path from each j < i to each k > i
        assert np.array_equal(values, (i * (n - 1 - i)).astype(float))


@pytest.mark.parametrize("weight", [-0.5, 1.0 / TIE_TOL])
@pytest.mark.parametrize("measure", [ok.betweenness_centrality, ok.closeness_centrality])
def test_weighted_path_centralities_reject_weights_without_a_length(measure, weight):
    w = np.array([[0.0, 0.5, 0.5], [weight, 0.0, 1.0 - weight], [0.5, 0.5, 0.0]])
    net = ok.InfluenceNetwork(w=w, lam=np.full(3, 0.5))
    with pytest.raises(ok.ParameterError):
        measure(net, weighted=True)
    # hop counts read only the support
    assert np.all(np.isfinite(measure(net, weighted=False).values))


def test_eigenvector_centrality_on_a_symmetric_pair():
    values = ok.eigenvector_centrality(np.array([[0.0, 1.0], [1.0, 0.0]])).values
    assert np.allclose(values, [0.5, 0.5], atol=1e-9)


def test_eigenvector_centrality_matches_dense_eigensolver():
    rng = np.random.default_rng(17)
    a = rng.uniform(0.1, 1.0, (6, 6))
    values = ok.eigenvector_centrality(a).values
    eigvals, eigvecs = np.linalg.eig(a)
    lead = eigvecs[:, np.argmax(eigvals.real)].real
    lead = np.abs(lead) / np.abs(lead).sum()
    assert np.allclose(values, lead, atol=1e-8)
    assert values.sum() == pytest.approx(1.0)


def test_eigenvector_centrality_flags_reducible_input():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.warns(UserWarning):
        ok.eigenvector_centrality(a)


@pytest.mark.parametrize("seed", range(40))
def test_eigenvector_centrality_flags_exactly_what_the_walks_call_reducible(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    a = rng.uniform(0.1, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.6))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ok.eigenvector_centrality(a, max_iter=20)
        except ok.NumericalError:
            pass
    flagged = any("reducible" in str(w.message) for w in caught)
    assert flagged == (not reference_strongly_connected(a))


def test_pagerank_uniform_on_a_symmetric_cycle():
    n = 5
    m = np.zeros((n, n))
    for i in range(n):
        m[(i + 1) % n, i] = 1.0  # column-stochastic cycle
    values = ok.pagerank(m, m=0.15).values
    assert np.allclose(values, 1 / n, atol=1e-9)


def test_pagerank_equals_dominant_eigenvector_of_the_blend():
    rng = np.random.default_rng(4)
    m = rng.uniform(0.0, 1.0, (6, 6))
    m = m / m.sum(axis=0, keepdims=True)
    damping = 0.15
    blend = (1 - damping) * m + damping / 6 * np.ones((6, 6))
    pr = ok.pagerank(m, m=damping).values
    ev = ok.eigenvector_centrality(blend).values
    assert np.allclose(pr, ev, atol=1e-8)


def test_pagerank_row_stochastic_flag_transposes_the_walk():
    rng = np.random.default_rng(4)
    w = row_stochastic(rng, 5, density=0.8)
    pr_row = ok.pagerank(w, m=0.15, row_stochastic=True).values
    pr_col = ok.pagerank(w.T, m=0.15).values
    assert np.allclose(pr_row, pr_col, atol=1e-10)


def test_pagerank_rejects_a_non_stochastic_matrix():
    with pytest.raises(ok.ParameterError):
        ok.pagerank(np.array([[0.5, 0.2], [0.1, 0.3]]))


def test_friedkin_centrality_two_agent_hand_value():
    net = ok.InfluenceNetwork(
        w=np.array([[0.0, 1.0], [1.0, 0.0]]), lam=np.array([0.5, 0.5])
    )
    # symmetric pair: equal social power
    values = ok.friedkin_centrality(net).values
    assert np.allclose(values, [0.5, 0.5], atol=1e-12)


def test_friedkin_centrality_is_the_column_mean_of_the_control_matrix():
    rng = np.random.default_rng(23)
    net = stable_network(rng, 7)
    x0 = np.eye(7)
    _, v = ok.fj_equilibrium(net, x0)
    values = ok.friedkin_centrality(net).values
    assert np.allclose(values, v.mean(axis=0), atol=1e-10)


@pytest.mark.parametrize("n, alpha", [(200, None), (250, None), (250, 0.6)])
def test_friedkin_centrality_matches_the_dense_reference(n, alpha):
    config = ok.GeneratorConfig(
        model="watts_strogatz", n=n, k=6, beta_rw=0.2, lambda_range=(0.3, 0.8)
    )
    net = ok.generate_network(config, seed=4)
    values = ok.friedkin_centrality(net, alpha=alpha).values
    if alpha is not None:
        net = ok.InfluenceNetwork(w=net.w, lam=np.full(n, alpha))
    assert np.max(np.abs(values - reference_friedkin(net))) <= 1e-12


@pytest.mark.parametrize("kind", ["watts_strogatz", "slow_chain"])
@pytest.mark.parametrize("n", [250, 1000])
def test_friedkin_centrality_beyond_the_cutoff_matches_the_dense_solve(kind, n):
    if kind == "slow_chain":
        net = slow_chain_network(n)
    else:
        config = ok.GeneratorConfig(
            model="watts_strogatz", n=n, k=6, beta_rw=0.2, lambda_range=(0.3, 0.8)
        )
        net = ok.generate_network(config, seed=n)
    values = ok.friedkin_centrality(net).values
    assert relative_error(values, reference_friedkin(net)) <= 1e-12


def test_friedkin_centrality_favors_the_stubborn_agent():
    net = ok.InfluenceNetwork(
        w=np.array([[0.0, 1.0], [1.0, 0.0]]), lam=np.array([0.2, 0.9])
    )
    values = ok.friedkin_centrality(net).values
    assert values[0] > values[1]


def test_friedkin_centrality_requires_stability():
    net = ok.InfluenceNetwork(
        w=np.array([[1.0, 0.0], [0.0, 1.0]]), lam=np.array([1.0, 1.0])
    )
    with pytest.raises(ok.StabilityError):
        ok.friedkin_centrality(net)
