"""Unit tests for network containers, generators, and the file format."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import opinionkit as ok
from helpers import row_stochastic
from opinionkit.cli import main
from opinionkit.numkit import STRUCTURAL_ZERO


def test_validation_flags_non_stochastic_rows():
    w = np.array([[0.5, 0.4], [0.5, 0.5]])
    report = ok.validate_network(ok.InfluenceNetwork(w=w, lam=np.array([0.5, 0.5])))
    assert not report.ok
    assert any("row 0" in p for p in report.problems)


def test_validation_flags_negative_weights():
    w = np.array([[1.2, -0.2], [0.5, 0.5]])
    report = ok.validate_network(ok.InfluenceNetwork(w=w, lam=np.array([0.5, 0.5])))
    assert not report.ok
    assert any("outside [0, 1]" in p for p in report.problems)


def test_validation_flags_lambda_outside_unit_interval():
    report = ok.validate_network(
        ok.InfluenceNetwork(w=np.eye(2), lam=np.array([0.5, 1.5]))
    )
    assert not report.ok
    assert any("lambda[1]" in p for p in report.problems)


def test_validation_rejects_a_negative_tolerance():
    net = ok.InfluenceNetwork(w=np.eye(2), lam=np.array([0.5, 0.5]))
    with pytest.raises(ok.ParameterError, match="tolerance must be nonnegative"):
        ok.validate_network(net, tol=-1e-9)


def test_validation_rejects_a_nan_tolerance():
    # tol=nan passed every check: this network was reported ok
    w = np.array([[0.7, 0.7], [0.5, 0.5]])
    net = ok.InfluenceNetwork(w=w, lam=np.array([2.0, 0.5]))
    with pytest.raises(ok.ParameterError, match="tolerance must be nonnegative, got nan"):
        ok.validate_network(net, tol=float("nan"))


def test_network_rejects_shape_mismatch():
    with pytest.raises(ok.StructuralError):
        ok.InfluenceNetwork(w=np.eye(3), lam=np.array([0.5, 0.5]))


def test_network_arrays_are_read_only():
    net = ok.InfluenceNetwork(w=np.eye(2), lam=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        net.w[0, 0] = 0.3
    with pytest.raises(ValueError):
        net.lam[0] = 0.1


def test_network_freezes_a_copy_of_the_callers_w():
    w = np.eye(2)
    net = ok.InfluenceNetwork(w=w, lam=np.array([0.5, 0.5]))
    w[0, 0] = 0.5
    w[0, 1] = 0.5
    assert np.array_equal(net.w, np.eye(2))
    assert np.array_equal(net.nonzeros.toarray(), np.eye(2))


def test_edge_set_lists_every_nonzero_entry():
    w = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
    net = ok.InfluenceNetwork(w=w, lam=np.full(3, 0.5))
    assert net.edge_set() == {(0, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2)}


def test_validate_network_accepts_generated_instances():
    cfg = ok.GeneratorConfig(model="erdos_renyi", n=12, p=0.3)
    report = ok.validate_network(ok.generate_network(cfg, seed=0))
    assert report.ok


def test_network_density_counts_entries_over_n_squared():
    w = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
    net = ok.InfluenceNetwork(w=w, lam=np.full(3, 0.5))
    report = ok.network_density(net)
    assert report.n_edges == 6
    assert report.density == pytest.approx(6 / 9)
    assert ok.network_density(net, alpha=2.0).sparse is True
    assert ok.network_density(net, alpha=1.0).sparse is False


def test_degree_profile_hand_instance():
    w = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
    net = ok.InfluenceNetwork(w=w, lam=np.full(3, 0.5))
    profile = ok.degree_profile(net)
    assert profile.in_degree.tolist() == [2, 1, 3]
    assert profile.out_degree.tolist() == [2, 3, 1]
    assert profile.d_max == 3
    assert np.allclose(profile.weighted_in_degree, 1.0)


@pytest.mark.parametrize("model, kwargs", [
    ("watts_strogatz", dict(n=1000, k=6, beta_rw=0.2)),
    ("barabasi_albert", dict(n=1000, m0=3)),
    ("erdos_renyi", dict(n=600, p=0.01)),
])
def test_weighted_degrees_match_the_dense_sums_without_building_w(model, kwargs):
    # several row blocks of _dense_row_sums; BA's hubs make long columns
    for seed in (1, 2):
        net = ok.generate_network(ok.GeneratorConfig(model=model, **kwargs), seed=seed)
        profile = ok.degree_profile(net)
        centrality = [ok.degree_centrality(net, direction, weighted=True).values
                      for direction in ("in", "out")]
        assert "w" not in net.__dict__
        row_sums, column_sums = net.w.sum(axis=1), net.w.sum(axis=0)
        assert profile.weighted_in_degree.tobytes() == row_sums.tobytes()
        assert profile.weighted_out_degree.tobytes() == column_sums.tobytes()
        assert centrality[0].tobytes() == row_sums.tobytes()
        assert centrality[1].tobytes() == column_sums.tobytes()


def test_laplacian_rows_sum_to_zero():
    net = ok.InfluenceNetwork(
        w=row_stochastic(np.random.default_rng(1), 6), lam=np.full(6, 0.5)
    )
    degree, lap = ok.laplacian(net)
    assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(np.diag(degree), net.w.sum(axis=1))


def test_laplacian_quadratic_matches_double_sum():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    net = ok.InfluenceNetwork(w=w, lam=np.full(2, 0.5), directed=False)
    x = np.array([1.0, -1.0])
    # (1/2) * (w01 + w10) * (x0 - x1)^2 = (1/2) * 2 * 4
    assert ok.laplacian_quadratic(net, x) == pytest.approx(4.0)


def _dense_laplacian_quadratic(net, x):
    """The dense double sum and allclose symmetry verdict laplacian_quadratic
    once computed from the n x n w."""
    diff = x[:, None] - x[None, :]
    return 0.5 * np.sum(net.w * diff**2), not np.allclose(net.w, net.w.T, atol=STRUCTURAL_ZERO)


@pytest.mark.parametrize("model", ["watts_strogatz", "erdos_renyi"])
def test_laplacian_quadratic_over_the_nonzeros_matches_the_dense_sum(model):
    # Watts-Strogatz's row normalization leaves w asymmetric; the
    # symmetrized w is not
    net = ok.generate_network(
        ok.GeneratorConfig(model=model, n=200, k=6, beta_rw=0.2, p=0.05,
                           lambda_range=(0.3, 0.8)),
        seed=3,
    )
    x = np.random.default_rng(3).uniform(-1.0, 1.0, 200)
    for w in (net.w, net.w + net.w.T):
        sym = ok.InfluenceNetwork(w=w, lam=net.lam)
        expected, asymmetric = _dense_laplacian_quadratic(sym, x)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = ok.laplacian_quadratic(sym, x)
        assert abs(got - expected) <= 1e-12 * abs(expected)
        assert len(caught) == asymmetric


@pytest.mark.parametrize("gap, flagged", [
    (0.0, False),
    (0.9e-12, False),  # within allclose's atol, 1e-12, of a zero mirror
    (1.1e-12, True),
    (0.3 * (1e-12 + 1e-5 * 0.5), False),  # within atol + rtol |w_ji| of w_ji = 0.5
    (3.0 * (1e-12 + 1e-5 * 0.5), True),
    (np.nan, True),
])
def test_laplacian_quadratic_flags_asymmetry_as_allclose_does(gap, flagged):
    w = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    w[0, 1 if gap > 1e-6 else 2] += gap
    net = ok.InfluenceNetwork(w=w, lam=np.full(3, 0.5))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ok.laplacian_quadratic(net, np.array([1.0, -1.0, 0.5]))
    assert _dense_laplacian_quadratic(net, np.zeros(3))[1] == flagged
    assert [str(w.message) for w in caught] == flagged * [
        "laplacian_quadratic on an asymmetric matrix: value is the "
        "literal double sum, not a quadratic form of L"
    ]


@pytest.mark.parametrize(
    "model,kwargs",
    [
        ("erdos_renyi", {"p": 0.3}),
        ("watts_strogatz", {"k": 4, "beta_rw": 0.2}),
        ("barabasi_albert", {"m0": 3}),
    ],
)
def test_generate_network_is_row_stochastic_and_reproducible(model, kwargs):
    cfg = ok.GeneratorConfig(model=model, n=20, lambda_range=(0.2, 0.8), **kwargs)
    net = ok.generate_network(cfg, seed=11)
    again = ok.generate_network(cfg, seed=11)
    other = ok.generate_network(cfg, seed=12)
    assert np.allclose(net.w.sum(axis=1), 1.0, atol=1e-12)
    assert net.w.min() >= 0.0
    assert np.all((net.lam >= 0.2) & (net.lam <= 0.8))
    assert np.array_equal(net.w, again.w) and np.array_equal(net.lam, again.lam)
    assert not np.array_equal(net.w, other.w)


def test_generate_network_rejects_unknown_model():
    with pytest.raises(ok.ParameterError):
        ok.GeneratorConfig(model="small_world", n=10)


def test_generator_config_validates_parameters():
    with pytest.raises(ok.ParameterError):
        ok.GeneratorConfig(model="erdos_renyi", n=10, p=1.5)
    with pytest.raises(ok.ParameterError):
        ok.GeneratorConfig(model="watts_strogatz", n=10, k=3, beta_rw=0.1)
    with pytest.raises(ok.ParameterError):
        ok.GeneratorConfig(model="erdos_renyi", n=10, p=0.3, lambda_range=(0.8, 0.2))


def test_ring_lattice_without_rewiring_has_uniform_degree():
    cfg = ok.GeneratorConfig(model="watts_strogatz", n=12, k=4, beta_rw=0.0)
    net = ok.generate_network(cfg, seed=3)
    support = (net.w > 0) & ~np.eye(12, dtype=bool)
    assert np.all(support.sum(axis=1) == 4)


def test_isolated_agents_get_self_loops():
    cfg = ok.GeneratorConfig(model="erdos_renyi", n=10, p=0.0)
    net = ok.generate_network(cfg, seed=0)
    assert np.array_equal(net.w, np.eye(10))


def test_preferential_attachment_tail_is_heavier_than_lattice():
    ba = ok.generate_network(
        ok.GeneratorConfig(model="barabasi_albert", n=300, m0=3), seed=5
    )
    ws = ok.generate_network(
        ok.GeneratorConfig(model="watts_strogatz", n=300, k=6, beta_rw=0.2), seed=5
    )
    assert ok.degree_profile(ba).d_max > ok.degree_profile(ws).d_max


def test_fit_power_law_recovers_a_synthetic_exponent():
    # integer power-law sample; the half-integer-offset estimator is only
    # rated for tails, so fit from k_min = 6 up
    rng = np.random.default_rng(8)
    degrees = rng.zipf(2.5, size=50_000).astype(float)
    fit = ok.fit_power_law(degrees, k_min=6.0)
    assert abs(fit.gamma - 2.5) < 0.15


def test_fit_power_law_guards():
    with pytest.raises(ok.ParameterError):
        ok.fit_power_law(np.arange(1, 100, dtype=float), k_min=0.5)
    with pytest.raises(ok.EstimationError):
        ok.fit_power_law(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ok.EstimationError):
        ok.fit_power_law(np.full(50, 4.0))


def test_network_file_round_trip_is_exact(tmp_path):
    cfg = ok.GeneratorConfig(model="erdos_renyi", n=9, p=0.4, lambda_range=(0.1, 0.9))
    net = ok.generate_network(cfg, seed=21)
    path = tmp_path / "net.json"
    ok.save_network(net, path)
    loaded = ok.load_network(path)
    assert np.array_equal(loaded.w, net.w)
    assert np.array_equal(loaded.lam, net.lam)
    assert loaded.directed == net.directed


def test_load_network_rejects_unknown_keys(tmp_path):
    path = tmp_path / "net.json"
    ok.save_network(
        ok.InfluenceNetwork(w=np.eye(2), lam=np.array([0.5, 0.5])), path
    )
    doc = json.loads(path.read_text())
    doc["comment"] = "stray"
    path.write_text(json.dumps(doc))
    with pytest.raises(ok.ConfigError):
        ok.load_network(path)


def test_load_network_rejects_bad_rows(tmp_path):
    path = tmp_path / "net.json"
    ok.save_network(
        ok.InfluenceNetwork(w=np.eye(2), lam=np.array([0.5, 0.5])), path
    )
    doc = json.loads(path.read_text())
    doc["lambda"] = [0.5]
    path.write_text(json.dumps(doc))
    with pytest.raises((ok.ConfigError, ok.StructuralError)):
        ok.load_network(path)


def _network_file(tmp_path, edges):
    path = tmp_path / "net.json"
    doc = {"n": 2, "directed": True, "lambda": [0.5, 0.5], "edges": edges}
    path.write_text(json.dumps(doc))
    return path


def test_load_network_rejects_a_duplicated_edge(tmp_path):
    # the later entry used to overwrite the earlier one without complaint
    path = _network_file(tmp_path, [[0, 1, 0.3], [0, 1, 0.7], [1, 0, 1.0]])
    with pytest.raises(ok.ConfigError, match=r"edge \(0, 1\) is listed twice"):
        ok.load_network(path)


def test_network_loaders_list_the_validation_problems(tmp_path):
    path = _network_file(tmp_path, [[0, 1, 0.7], [1, 0, -2.0]])
    with pytest.raises(ok.ConfigError) as caught:
        ok.load_network(path)
    assert "row 0 sums to 0.7" in str(caught.value)
    assert "w[1,0]=-2 outside [0, 1]" in str(caught.value)
    multiplex = tmp_path / "mx.json"
    multiplex.write_text(json.dumps({
        "model_tag": "independent", "base": None, "layers": [json.loads(path.read_text())]
    }))
    with pytest.raises(ok.ConfigError, match="row 0 sums to 0.7"):
        ok.load_multiplex(multiplex)


@pytest.mark.parametrize("fields, message", [
    ({"edges": [[0, 1, 0.3], [0, 1, 0.7], [1, 0, 1.0]]}, r"edge \(0, 1\) is listed twice"),
    ({"edges": [[0, 1, 0.7], [1, 0, 1.0]]}, "row 0 sums to 0.7"),
    ({"lambda": [0.5, float("nan")]}, "lambda must hold 2 finite numbers"),
    ({"n": 0, "lambda": [], "edges": []}, "n must be at least 1, got 0"),
])
def test_a_rejected_network_file_names_itself(tmp_path, capsys, fields, message):
    good = {"n": 2, "directed": True, "lambda": [0.5, 0.5], "edges": [[0, 1, 1.0], [1, 0, 1.0]]}
    path = tmp_path / "net.json"
    path.write_text(json.dumps({**good, **fields}))
    with pytest.raises(ok.ConfigError, match=f"^network {re.escape(str(path))}: .*{message}"):
        ok.load_network(path)
    for command in (
        ["simulate", str(path), "--steps", "3", "--out", str(tmp_path / "traj.csv")],
        ["centrality", str(path), "--measure", "friedkin"],
        ["centrality", str(path), "--measure", "pagerank"],
    ):
        assert main(command) == 1
        assert re.match(f"error: network {re.escape(str(path))}: .*{message}",
                        capsys.readouterr().err)
    multiplex = tmp_path / "mx.json"
    multiplex.write_text(json.dumps(
        {"model_tag": "independent", "base": None, "layers": [good, {**good, **fields}]}
    ))
    with pytest.raises(ok.ConfigError, match=f"^multiplex {re.escape(str(multiplex))} layer 1: "):
        ok.load_multiplex(multiplex)


@pytest.mark.parametrize("scale", [float("nan"), float("inf")])
def test_multiplex_config_rejects_a_non_finite_innovation_scale(scale):
    # both used to build layers with NaN weights
    with pytest.raises(ok.ParameterError, match="innovation_scale must be positive and finite"):
        ok.MultiplexConfig(
            model_tag="common_component",
            base=ok.GeneratorConfig(model="erdos_renyi", n=10, p=0.35),
            n_layers=2,
            innovation_scale=scale,
        )


@pytest.mark.parametrize("tag", ["independent", "common_support", "common_component"])
def test_build_multiplex_layer_count_and_tag(tag):
    cfg = ok.MultiplexConfig(
        model_tag=tag,
        base=ok.GeneratorConfig(model="erdos_renyi", n=10, p=0.35),
        n_layers=3,
    )
    mx = ok.build_multiplex(cfg, seed=2)
    assert len(mx.layers) == 3
    assert mx.model_tag == tag
    for layer in mx.layers:
        assert np.allclose(layer.w.sum(axis=1), 1.0, atol=1e-12)


def test_common_support_layers_share_their_edge_set():
    cfg = ok.MultiplexConfig(
        model_tag="common_support",
        base=ok.GeneratorConfig(model="erdos_renyi", n=12, p=0.3),
        n_layers=3,
    )
    mx = ok.build_multiplex(cfg, seed=7)
    edges = mx.layers[0].edge_set()
    for layer in mx.layers[1:]:
        assert layer.edge_set() == edges
    assert ok.pair_d_correlation(mx, (0, 1)) == 1.0
    # same support, independently redrawn weights
    assert not np.array_equal(mx.layers[0].w, mx.layers[1].w)


def test_independent_layers_overlap_less_than_common_support():
    base = ok.GeneratorConfig(model="erdos_renyi", n=16, p=0.25)
    common = ok.build_multiplex(
        ok.MultiplexConfig(model_tag="common_support", base=base, n_layers=2), seed=4
    )
    indep = ok.build_multiplex(
        ok.MultiplexConfig(model_tag="independent", base=base, n_layers=2), seed=4
    )
    assert ok.pair_d_correlation(common, (0, 1)) > ok.pair_d_correlation(indep, (0, 1))


def test_common_component_without_innovation_repeats_the_base():
    cfg = ok.MultiplexConfig(
        model_tag="common_component",
        base=ok.GeneratorConfig(model="erdos_renyi", n=10, p=0.35),
        n_layers=2,
        innovation_p=0.0,
    )
    mx = ok.build_multiplex(cfg, seed=9)
    assert np.array_equal(mx.layers[0].w, mx.layers[1].w)
    assert np.array_equal(mx.layers[0].w, mx.base.w)


def test_common_component_innovation_adds_edges():
    base = ok.GeneratorConfig(model="erdos_renyi", n=14, p=0.2)
    cfg = ok.MultiplexConfig(
        model_tag="common_component",
        base=base,
        n_layers=2,
        innovation_p=0.3,
        innovation_scale=0.5,
    )
    mx = ok.build_multiplex(cfg, seed=13)
    assert len(mx.layers[0].edge_set() - mx.base.edge_set()) > 0


@given(st.integers(0, 50))
def test_pair_d_correlation_is_a_jaccard_index(seed):
    cfg = ok.MultiplexConfig(
        model_tag="independent",
        base=ok.GeneratorConfig(model="erdos_renyi", n=8, p=0.4),
        n_layers=2,
    )
    mx = ok.build_multiplex(cfg, seed=seed)
    value = ok.pair_d_correlation(mx, (0, 1))
    a, b = mx.layers[0].edge_set(), mx.layers[1].edge_set()
    expected = len(a & b) / len(a | b) if (a | b) else 0.0
    assert value == pytest.approx(expected)
    assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("tag", ["independent", "common_support", "common_component"])
def test_multiplex_file_round_trip_is_exact(tag, tmp_path):
    cfg = ok.MultiplexConfig(
        model_tag=tag,
        base=ok.GeneratorConfig(model="watts_strogatz", n=15, k=4, beta_rw=0.3),
        n_layers=3,
        innovation_p=0.2,
    )
    mx = ok.build_multiplex(cfg, seed=5)
    ok.save_multiplex(mx, tmp_path / "mx.json")
    back = ok.load_multiplex(tmp_path / "mx.json")
    assert back.model_tag == tag
    assert (back.base is None) == (mx.base is None) == (tag == "independent")
    pairs = list(zip(back.layers, mx.layers, strict=True))
    if mx.base is not None:
        pairs.append((back.base, mx.base))
    for got, want in pairs:
        assert got.w.tobytes() == want.w.tobytes()
        assert got.lam.tobytes() == want.lam.tobytes()
        assert got.directed == want.directed


def _first_edge_problem(edges, n):
    """The error of the per-entry loop that read network edges into a dense
    w: the first entry in file order that is malformed, out of range or a
    repeat of an earlier one."""
    seen = set()
    for entry in edges:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[2], (int, float))
                and isinstance(entry[0], int) and isinstance(entry[1], int)):
            return f"network edge {entry!r} is not [int, int, number]"
        i, j, _ = entry
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i}, {j}) outside agent range 0..{n - 1}"
        if (i, j) in seen:
            return f"edge ({i}, {j}) is listed twice"
        seen.add((i, j))
    return None


@pytest.mark.parametrize("edges", [
    [[2, 1, 0.5], [0, 1, 0.5], [0, 1, 0.5], [2, 1, 0.5]],
    [[2, 1, 0.5], [0, 1, 0.5], [2, 1, 0.5], [0, 1, 0.5]],
    [[1, 1, 0.5], [1, 1, 0.5], [3, 0, 0.5]],
    [[3, 0, 0.5], [1, 1, 0.5], [1, 1, 0.5]],
    [[0, 2, 0.5], [1, -1, 0.5], [0, 2, 0.5]],
    [[0, 2, 0.5], [0, 2, 0.5], [1, "x", 0.5]],
    [[0, 2, 0.5], [[1], 2, 0.5], [0, 2, 0.5]],
])
def test_edge_errors_name_the_first_bad_entry_in_file_order(tmp_path, edges):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"n": 3, "directed": True, "lambda": [0.5] * 3, "edges": edges}))
    with pytest.raises(ok.ConfigError) as caught:
        ok.load_network(path)
    assert str(caught.value) == f"network {path}: {_first_edge_problem(edges, 3)}"


def test_a_large_sparse_network_file_loads_and_round_trips(tmp_path):
    # n^2 doubles would take 320 GB; the file holds one self-loop per agent
    n = 200_000
    text = (
        f'{{"n": {n}, "directed": true, "lambda": [{", ".join(["0.5"] * n)}], '
        f'"edges": [{", ".join(f"[{i}, {i}, 1]" for i in range(n))}]}}\n'
    )
    path = tmp_path / "big.json"
    path.write_text(text)
    net = ok.load_network(path)
    assert net.n == n and net.nonzeros.nnz == n and "w" not in net.__dict__
    ok.save_network(net, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == text
    ok.save_network(ok.load_network(tmp_path / "again.json"), tmp_path / "twice.json")
    assert (tmp_path / "twice.json").read_text() == text


def test_a_generated_network_never_holds_a_dense_matrix(tmp_path):
    n = 3000
    config = ok.GeneratorConfig(model="watts_strogatz", n=n, k=6, beta_rw=0.2, lambda_range=(0.3, 0.8))
    tracemalloc.start()
    try:
        net = ok.generate_network(config, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dense n x n array is 72 MB; the dense generator traced 155.4 MB here
    assert peak < n * n * 8 / 8
    x0 = np.random.default_rng(1).uniform(-1, 1, n)
    ok.simulate_fj(net, x0, steps=20)
    ok.friedkin_centrality(net)
    ok.save_network(net, tmp_path / "net.json")
    assert ok.validate_network(net).ok
    assert "w" not in net.__dict__
