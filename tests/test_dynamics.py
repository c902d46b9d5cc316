"""Unit tests for the opinion dynamics simulators."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import opinionkit as ok
from helpers import (
    reference_belief_system,
    reference_converged_at,
    reference_expected_gossip_dynamics,
    reference_gossip_fj,
    reference_multiplex_fj,
    reference_multiplex_per_layer,
    reference_neighbor_menus,
    reference_reflected_appraisal,
    reference_simulate_fj,
    reference_stability,
    relative_error,
    row_stochastic,
    slow_chain_network,
    stable_network,
)
from opinionkit import dynamics
from opinionkit.dynamics import (
    CESARO_BLOCK_CELLS,
    _activation_sets,
    _anchored_system,
    _poll_lists,
    _skip_doubles,
)
from opinionkit.numkit import CONDITION_MAX, DENSE_MAX_N, DRAW_BLOCK, philox_stream


def _ws_network(n, seed):
    config = ok.GeneratorConfig(
        model="watts_strogatz", n=n, k=6, beta_rw=0.2, lambda_range=(0.3, 0.8)
    )
    return ok.generate_network(config, seed=seed)


def _pair_network(lam=(0.5, 0.5)):
    return ok.InfluenceNetwork(
        w=np.array([[0.0, 1.0], [1.0, 0.0]]), lam=np.asarray(lam, dtype=float)
    )


def test_simulate_fj_two_agent_closed_form():
    net = _pair_network()
    x0 = np.array([1.0, 0.0])
    traj = ok.simulate_fj(net, x0, steps=200)
    # x(k+1) = 0.5 * W x(k) + 0.5 * x0 converges to (I - 0.5 W)^-1 0.5 x0
    expected = np.linalg.solve(np.eye(2) - 0.5 * net.w, 0.5 * x0)
    assert np.allclose(traj.states[-1, :, 0], expected, atol=1e-12)
    assert traj.states.shape == (201, 2, 1)


def test_simulate_fj_keeps_stubborn_agents_fixed():
    net = _pair_network(lam=(0.0, 0.8))
    traj = ok.simulate_fj(net, np.array([0.7, -0.4]), steps=50)
    assert np.all(traj.states[:, 0, 0] == 0.7)


def test_degroot_reaches_the_left_eigenvector_consensus():
    w = np.array([[0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5]])
    net = ok.InfluenceNetwork(w=w, lam=np.ones(3))
    traj = ok.simulate_fj(net, np.array([1.0, 0.0, 0.0]), steps=400)
    final = traj.states[-1, :, 0]
    assert np.allclose(final, final[0], atol=1e-10)
    # independent oracle: the left Perron vector of W
    eigvals, eigvecs = np.linalg.eig(w.T)
    pi = eigvecs[:, np.argmax(eigvals.real)].real
    pi = pi / pi.sum()
    assert abs(final[0] - pi[0]) < 1e-8


def test_fj_equilibrium_matches_the_long_run_iterate():
    rng = np.random.default_rng(3)
    net = stable_network(rng, 12)
    x0 = rng.uniform(-1, 1, (12, 4))
    x_inf, v = ok.fj_equilibrium(net, x0)
    traj = ok.simulate_fj(net, x0, steps=3000)
    assert np.allclose(traj.states[-1], x_inf, atol=1e-9)
    assert np.allclose(v.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(v @ x0, x_inf, atol=1e-12)


def test_fj_equilibrium_two_agent_hand_values():
    net = _pair_network()
    x_inf, v = ok.fj_equilibrium(net, np.array([1.0, 0.0]))
    assert np.allclose(v, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)
    assert np.allclose(x_inf, [2 / 3, 1 / 3], atol=1e-12)


def test_fj_equilibrium_requires_stability():
    net = ok.InfluenceNetwork(w=np.eye(2), lam=np.ones(2))
    with pytest.raises(ok.StabilityError):
        ok.fj_equilibrium(net, np.array([1.0, 0.0]))


@pytest.mark.parametrize("w, lam, message", [
    # nonnegative with rows summing to 1.5: every agent reaches lambda < 1,
    # but rho is about 1.39, so y = (I - Lambda W)^{-1} 1 is negative
    ([[0.2, 1.3], [1.0, 0.5]], [0.9, 0.95], "does not certify a spectral radius below 1"),
    # signed, with rho about 2.01: the radius cross-check decides
    ([[0.0, -3.0], [-3.0, 0.0]], [0.5, 0.9], "says stable but spectral radius is 2.01"),
], ids=["over-stochastic", "signed"])
def test_solve_paths_reject_walk_stable_couplings_of_radius_above_one(w, lam, message):
    net = ok.InfluenceNetwork(w=np.array(w), lam=np.array(lam))
    assert ok.spectral_radius(np.diag(net.lam) @ net.w) > 1.3
    with pytest.raises(ok.NumericalError, match=message):
        ok.fj_equilibrium(net, np.array([1.0, 0.0]))
    with pytest.raises(ok.NumericalError, match=message):
        ok.friedkin_centrality(net)


def test_schur_stability_walk_criterion_hand_instances():
    # fully susceptible ring: nobody is anchored
    ring = ok.InfluenceNetwork(
        w=np.array([[0.0, 1.0], [1.0, 0.0]]), lam=np.ones(2)
    )
    report = ok.is_schur_stable(ring)
    assert not report.schur_stable
    assert report.unanchored == (0, 1)
    # one partially stubborn agent anchors everyone who reaches it
    anchored = ok.InfluenceNetwork(
        w=np.array([[0.0, 1.0], [1.0, 0.0]]), lam=np.array([1.0, 0.5])
    )
    report = ok.is_schur_stable(anchored)
    assert report.schur_stable
    assert report.spectral_radius < 1.0
    assert report.open_set == (1,)


def test_schur_stability_detects_cut_off_components():
    # agents 2 and 3 form a closed fully-susceptible loop
    w = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    lam = np.array([0.5, 1.0, 1.0, 1.0])
    report = ok.is_schur_stable(ok.InfluenceNetwork(w=w, lam=lam))
    assert not report.schur_stable
    assert report.unanchored == (2, 3)


@given(st.integers(0, 500))
def test_schur_walk_criterion_agrees_with_the_spectrum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    net = ok.InfluenceNetwork(
        w=row_stochastic(rng, n, density=0.3),
        lam=rng.choice([0.0, 0.4, 1.0], size=n),
    )
    report = ok.is_schur_stable(net)
    spectral = ok.spectral_radius(np.diag(net.lam) @ net.w)
    assert report.schur_stable == (spectral < 1.0 - 1e-9)


@pytest.mark.parametrize("n", [DENSE_MAX_N, 250])
def test_simulate_fj_matches_the_dense_reference_across_the_cutoff(n):
    # Up to the cutoff the step is the dense product, bit for bit; beyond
    # it the CSR product sums each row in another order.
    net = _ws_network(n, seed=3)
    x0 = np.random.default_rng(3).uniform(-1, 1, (n, 3))
    states = ok.simulate_fj(net, x0, steps=80).states
    expected = reference_simulate_fj(net, x0, 80)
    if n <= DENSE_MAX_N:
        assert np.array_equal(states, expected)
    else:
        assert np.max(np.abs(states - expected)) <= 1e-12


def _pinned_case(n, seed):
    """A Watts-Strogatz network with lambda = 0 and lambda = 1 agents, an
    x0 of three issues holding -0.0, and a row-stochastic issue coupling
    that is not the identity."""
    net = _ws_network(n, seed)
    lam = net.lam.copy()
    lam[::7] = 0.0
    lam[3::11] = 1.0
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, (n, 3))
    x0[::5, 1] = -0.0
    c = rng.uniform(0.1, 1.0, (3, 3))
    return ok.InfluenceNetwork(w=net.w, lam=lam), x0, c / c.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [12, DENSE_MAX_N + 30])
def test_synchronous_simulators_match_their_separate_loops_bitwise(n, seed):
    net, x0, c = _pinned_case(n, seed)
    for c_matrix, traj in (
        (None, ok.simulate_fj(net, x0, steps=400)),
        (c, ok.simulate_belief_system(net, c, x0, steps=400)),
    ):
        expected = reference_belief_system(net, c_matrix, x0, 400)
        assert traj.states.shape == expected.shape
        assert traj.states.tobytes() == expected.tobytes()
        assert traj.converged_at == reference_converged_at(expected) is not None


def _diverging(simulator, w):
    net = ok.InfluenceNetwork(w=np.array(w), lam=np.ones(2))
    x0 = np.array([1.0, 0.0])
    if simulator == "fj":
        return ok.simulate_fj(net, x0, steps=60)
    return ok.simulate_belief_system(net, np.eye(1), x0, steps=60)


@pytest.mark.parametrize("simulator", ["fj", "belief_system"])
def test_synchronous_simulators_stop_at_the_step_that_diverges(simulator):
    # x(k) = W^k x(0) alternates between the agents with |x(k)| = 3^k, so
    # step 26 is the first to move an opinion by more than 1e12 (3^26)
    with pytest.raises(ok.NumericalError, match=r"at step 26\b"):
        _diverging(simulator, [[0.0, -3.0], [-3.0, 0.0]])
    with pytest.raises(ok.NumericalError, match=r"at step 1\b"):
        _diverging(simulator, [[0.0, np.nan], [1.0, 0.0]])


@pytest.mark.parametrize("n", [50, 250])
def test_a_non_finite_weight_raises_a_package_error(n):
    net = _ws_network(n, seed=4)
    w = net.w.copy()
    w[3, np.flatnonzero(w[3])[0]] = np.nan
    net = ok.InfluenceNetwork(w=w, lam=net.lam)
    x0 = np.random.default_rng(4).uniform(-1, 1, n)
    for call in (
        lambda: ok.is_schur_stable(net),
        lambda: ok.expected_gossip_dynamics(net, 0.5, x0),
        lambda: ok.fj_equilibrium(net, x0),
        lambda: ok.friedkin_centrality(net),
    ):
        with pytest.raises(ok.ParameterError, match="finite"):
            call()
    with pytest.raises(ok.NumericalError, match=r"at step 1\b"):
        ok.simulate_fj(net, x0, steps=5)
    # gossip checks nonzeros, where NaN is kept, before its first draw
    for bad in (np.nan, np.inf):
        w = w.copy()
        w[3, np.flatnonzero(w[3])[0]] = bad
        gossip = ok.InfluenceNetwork(w=w, lam=net.lam)
        with pytest.raises(ok.ParameterError, match="finite"):
            ok.simulate_gossip_fj(gossip, x0, steps=5, activation_size=1, seed=0)


_PROFILE_ENTRY_POINTS = {
    "simulate_fj": lambda net, x0: ok.simulate_fj(net, x0, steps=5),
    "simulate_belief_system": lambda net, x0: ok.simulate_belief_system(
        net, np.eye(1), x0, steps=5
    ),
    "simulate_gossip_fj": lambda net, x0: ok.simulate_gossip_fj(net, x0, 5, 1, seed=0),
    "fj_equilibrium": ok.fj_equilibrium,
    "expected_gossip_dynamics": lambda net, x0: ok.expected_gossip_dynamics(net, 0.5, x0),
    "simulate_multiplex_fj": lambda net, u: ok.simulate_multiplex_fj(
        ok.MultiplexNetwork(layers=(net, net), model_tag="independent"), u,
        np.zeros((net.n, net.n)), steps=5, seed=0,
    ),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(_PROFILE_ENTRY_POINTS))
def test_a_non_finite_initial_profile_raises_a_parameter_error(entry, bad):
    # an input error, reported before any step or solve
    net = _ws_network(12, seed=2)
    x0 = np.random.default_rng(2).uniform(-1, 1, net.n)
    _PROFILE_ENTRY_POINTS[entry](net, x0)
    x0[3] = bad
    with pytest.raises(ok.ParameterError, match="initial profile must be finite"):
        _PROFILE_ENTRY_POINTS[entry](net, x0)


@pytest.mark.parametrize("closed_loop", [False, True])
def test_schur_report_matches_the_dense_reference_beyond_the_cutoff(closed_loop):
    net = _ws_network(250, seed=5)
    if closed_loop:
        # agents 0..9 form a fully susceptible cycle that reaches nobody else
        w, lam = net.w.copy(), net.lam.copy()
        w[:10] = 0.0
        w[np.arange(10), (np.arange(10) + 1) % 10] = 1.0
        lam[:10] = 1.0
        net = ok.InfluenceNetwork(w=w, lam=lam)
    report = ok.is_schur_stable(net)
    stable, radius, open_set, unanchored = reference_stability(net)
    assert report.schur_stable == stable == (not closed_loop)
    assert report.open_set == open_set
    assert report.unanchored == unanchored
    assert abs(report.spectral_radius - radius) <= 1e-10 * radius


def test_fj_equilibrium_is_the_dense_solve_bit_for_bit():
    rng = np.random.default_rng(9)
    net = stable_network(rng, 30)
    x0 = rng.uniform(-1, 1, 30)
    x_inf, control = ok.fj_equilibrium(net, x0)
    system = np.eye(30) - np.diag(net.lam) @ net.w
    expected = np.linalg.solve(system, np.diag(1.0 - net.lam))
    assert np.array_equal(control, expected)
    assert np.array_equal(x_inf, expected @ x0)


def test_fj_equilibrium_beyond_the_dense_cutoff_is_the_dense_solve():
    n = 250
    assert n > DENSE_MAX_N
    net = _ws_network(n, seed=3)
    x0 = np.random.default_rng(3).uniform(-1, 1, n)
    x_inf, control = ok.fj_equilibrium(net, x0)
    system = np.eye(n) - np.diag(net.lam) @ net.w
    expected = np.linalg.solve(system, np.diag(1.0 - net.lam))
    assert np.max(np.abs(control - expected)) <= 1e-12
    assert np.max(np.abs(x_inf - expected @ x0)) <= 1e-12


@pytest.mark.parametrize("kind", ["watts_strogatz", "slow_chain"])
@pytest.mark.parametrize("n", [250, 1000])
def test_fj_equilibrium_beyond_the_cutoff_matches_the_dense_solve(kind, n):
    # A nonnegative coupling takes SuperLU's M-matrix factorisation with
    # diagonal pivots; np.linalg.solve is the oracle.
    net = _ws_network(n, seed=n) if kind == "watts_strogatz" else slow_chain_network(n)
    x0 = np.random.default_rng(n).uniform(-1, 1, (n, 3))
    x_inf, control = ok.fj_equilibrium(net, x0)
    expected = np.linalg.solve(np.eye(n) - net.lam[:, None] * net.w, np.diag(1.0 - net.lam))
    assert relative_error(control, expected) <= 1e-12
    assert relative_error(x_inf, expected @ x0) <= 1e-12


def test_signed_anchored_system_beyond_the_cutoff_matches_the_dense_solve():
    # A signed coupling keeps SuperLU's partial pivoting.
    net = _ws_network(250, seed=8)
    w = net.w.copy()
    w[0, np.flatnonzero(w[0])[0]] *= -1.0
    net = ok.InfluenceNetwork(w=w, lam=net.lam)
    solve = _anchored_system(net, "signed test")
    system = np.eye(net.n) - net.lam[:, None] * net.w
    rhs = np.random.default_rng(8).uniform(-1, 1, (net.n, 4))
    assert relative_error(solve(rhs), np.linalg.solve(system, rhs)) <= 1e-12
    assert relative_error(solve(rhs, transpose=True), np.linalg.solve(system.T, rhs)) <= 1e-12


def test_condition_guard_rejects_a_nearly_unanchored_pair():
    # kappa_inf of I - Lambda W is (1 + lambda) / (1 - lambda), about 2e13
    net = _pair_network(lam=(1.0 - 1e-13, 1.0 - 1e-13))
    with pytest.raises(ok.NumericalError, match="condition number"):
        ok.fj_equilibrium(net, np.array([1.0, 0.0]))
    with pytest.raises(ok.NumericalError, match="condition number"):
        ok.friedkin_centrality(net)


def _slow_leader(gap):
    """Agent 0 copies agent 1, which keeps all weight on itself with
    lambda = 1 - gap; agent 2 is fully stubborn. S = I - Lambda W has rows
    (1, -1, 0), (0, gap, 0), (0, 0, 1) and S^{-1} 1 = (1 + 1/gap, 1/gap, 1),
    so kappa_inf(S) = 2 (1 + 1/gap); every solve is exact for gap = 2^-k."""
    w = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return ok.InfluenceNetwork(w=w, lam=np.array([1.0, 1.0 - gap, 0.0]))


def test_condition_guard_accepts_a_system_just_below_the_bound():
    net = _slow_leader(2.0**-38)  # kappa_inf about 5.5e11
    assert 2 * (1 + 2.0**38) < CONDITION_MAX
    x_inf, control = ok.fj_equilibrium(net, np.array([1.0, 0.0, 3.0]))
    assert np.array_equal(control, [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(x_inf, [0.0, 0.0, 3.0])
    assert np.array_equal(ok.friedkin_centrality(net).values, [0.0, 2 / 3, 1 / 3])


def test_condition_guard_rejects_a_system_just_above_the_bound():
    net = _slow_leader(2.0**-40)  # kappa_inf about 2.2e12
    assert 2 * (1 + 2.0**40) > CONDITION_MAX
    with pytest.raises(ok.NumericalError, match="condition number"):
        ok.fj_equilibrium(net, np.array([1.0, 0.0, 3.0]))
    with pytest.raises(ok.NumericalError, match="condition number"):
        ok.friedkin_centrality(net)


def test_belief_system_with_identity_coupling_is_plain_fj():
    rng = np.random.default_rng(2)
    net = stable_network(rng, 6)
    x0 = rng.uniform(-1, 1, (6, 3))
    plain = ok.simulate_fj(net, x0, steps=60)
    coupled = ok.simulate_belief_system(net, np.eye(3), x0, steps=60)
    assert np.allclose(plain.states, coupled.states, atol=1e-14)


def test_belief_system_coupling_mixes_issues():
    rng = np.random.default_rng(5)
    net = stable_network(rng, 5)
    x0 = rng.uniform(-1, 1, (5, 2))
    c = np.array([[0.7, 0.3], [0.3, 0.7]])
    coupled = ok.simulate_belief_system(net, c, x0, steps=40)
    plain = ok.simulate_fj(net, x0, steps=40)
    assert not np.allclose(coupled.states, plain.states, atol=1e-6)
    # one step by hand: X(1) = Lambda W X(0) C' + (I - Lambda) X(0)
    lam = net.lam[:, None]
    expected = lam * (net.w @ x0 @ c.T) + (1 - lam) * x0
    assert np.allclose(coupled.states[1], expected, atol=1e-12)


def test_belief_system_rejects_wrong_coupling_shape():
    rng = np.random.default_rng(6)
    net = stable_network(rng, 4)
    with pytest.raises(ok.StructuralError):
        ok.simulate_belief_system(net, np.eye(3), np.zeros((4, 2)), steps=5)


def test_reflected_appraisal_path_shapes_and_simplex():
    rng = np.random.default_rng(7)
    c = rng.uniform(0.1, 1.0, (5, 5))
    np.fill_diagonal(c, 0.0)
    c = c / c.sum(axis=1, keepdims=True)
    c0 = np.full(5, 0.2)
    path = ok.simulate_reflected_appraisal(c, c0, n_issues=60)
    assert path.w_seq.shape == (60, 5, 5)
    assert path.c_seq.shape == (61, 5)
    assert np.allclose(path.c_seq.sum(axis=1), 1.0, atol=1e-9)
    assert path.c_seq.min() > 0.0 and path.c_seq.max() < 1.0
    # each issue's influence matrix stays row-stochastic
    assert np.allclose(path.w_seq.sum(axis=2), 1.0, atol=1e-9)


def test_reflected_appraisal_uniform_start_is_a_fixed_point():
    c = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    path = ok.simulate_reflected_appraisal(c, np.full(3, 1 / 3), 50)
    assert np.allclose(path.c_seq, 1 / 3, atol=1e-12)


def test_reflected_appraisal_settles_from_a_generic_start():
    c = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    path = ok.simulate_reflected_appraisal(c, np.array([0.5, 0.2, 0.3]), 300)
    assert np.max(np.abs(path.c_seq[-1] - path.c_seq[-2])) < 1e-10


@pytest.mark.parametrize("n", [3, 5, 30])
def test_reflected_appraisal_matches_the_dense_solve_loop(n):
    rng = np.random.default_rng(n)
    c = rng.uniform(0.1, 1.0, (n, n))
    np.fill_diagonal(c, 0.0)
    c = c / c.sum(axis=1, keepdims=True)
    c0 = rng.dirichlet(np.ones(n))
    path = ok.simulate_reflected_appraisal(c, c0, n_issues=40)
    w_seq, c_seq = reference_reflected_appraisal(c, c0, 40)
    assert np.max(np.abs(path.w_seq - w_seq)) <= 1e-12
    assert np.max(np.abs(path.c_seq - c_seq)) <= 1e-12


def test_reflected_appraisal_rejects_off_simplex_starts():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ok.ParameterError):
        ok.simulate_reflected_appraisal(c, np.array([0.6, 0.6]), 5)


def test_gossip_expected_dynamics_hand_instance():
    net = _pair_network()
    gamma_bar, b_bar, x_mean = ok.expected_gossip_dynamics(
        net, beta=0.5, x0=np.array([1.0, 0.0])
    )
    assert np.allclose(gamma_bar, [[0.5, 0.25], [0.25, 0.5]], atol=1e-12)
    assert np.allclose(b_bar, [0.25, 0.0], atol=1e-12)
    assert np.allclose(x_mean, [2 / 3, 1 / 3], atol=1e-12)


@pytest.mark.parametrize("n, k", [(6, 2), (20, 4), (250, 6)])
def test_expected_gossip_dynamics_is_the_diagonal_product_bit_for_bit(n, k):
    config = ok.GeneratorConfig(
        model="watts_strogatz", n=n, k=k, beta_rw=0.2, lambda_range=(0.3, 0.8)
    )
    net = ok.generate_network(config, seed=n)
    x0 = np.random.default_rng(n).uniform(-1, 1, n)
    got = ok.expected_gossip_dynamics(net, beta=0.4, x0=x0)
    for value, expected in zip(got, reference_expected_gossip_dynamics(net, 0.4, x0)):
        assert np.array_equal(value, expected)


def test_gossip_requires_pollable_neighbors():
    lonely = ok.InfluenceNetwork(w=np.eye(2), lam=np.full(2, 0.5))
    with pytest.raises(ok.StructuralError):
        ok.expected_gossip_dynamics(lonely, beta=0.5, x0=np.zeros(2))
    with pytest.raises(ok.StructuralError):
        ok.simulate_gossip_fj(lonely, np.zeros(2), steps=10, activation_size=1, seed=0)


def test_gossip_simulation_is_reproducible_and_bounded():
    net = _pair_network()
    x0 = np.array([1.0, 0.0])
    a = ok.simulate_gossip_fj(net, x0, steps=500, activation_size=1, seed=9)
    b = ok.simulate_gossip_fj(net, x0, steps=500, activation_size=1, seed=9)
    c = ok.simulate_gossip_fj(net, x0, steps=500, activation_size=1, seed=10)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)
    assert a.states.min() >= 0.0 and a.states.max() <= 1.0


def test_gossip_validates_activation_size():
    net = _pair_network()
    with pytest.raises(ok.ParameterError):
        ok.simulate_gossip_fj(net, np.zeros(2), steps=5, activation_size=0, seed=0)
    with pytest.raises(ok.ParameterError):
        ok.simulate_gossip_fj(net, np.zeros(2), steps=5, activation_size=3, seed=0)


def _draw_rows(width):
    """Rows of width cells in one draw block."""
    return max(1, DRAW_BLOCK // width)


def _gossip_network(n, model, self_loop_mass, net_seed):
    """Watts-Strogatz or Barabasi-Albert network (WS needs n >= 3) with a
    self-loop of the given mass mixed into every other row."""
    if model == "watts_strogatz" and n >= 3:
        cfg = ok.GeneratorConfig(
            model="watts_strogatz", n=n, k=2 * ((n - 1) // 2), beta_rw=0.3,
            lambda_range=(0.0, 1.0),
        )
    else:
        cfg = ok.GeneratorConfig(
            model="barabasi_albert", n=n, m0=1 + n // 4, lambda_range=(0.0, 1.0)
        )
    net = ok.generate_network(cfg, seed=net_seed)
    loops = np.zeros(n)
    loops[::2] = self_loop_mass
    w = (1.0 - loops)[:, None] * net.w + np.diag(loops)
    return ok.InfluenceNetwork(w=w, lam=net.lam)


@given(
    n=st.integers(2, 12),
    model=st.sampled_from(["watts_strogatz", "barabasi_albert"]),
    self_loop_mass=st.sampled_from([0.0, 0.4]),
    net_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_gossip_matches_the_per_step_reference_bitwise(
    n, model, self_loop_mass, net_seed, seed, data
):
    net = _gossip_network(n, model, self_loop_mass, net_seed)
    activation_size = data.draw(st.integers(1, n), label="activation_size")
    # the poll draws come in blocks of DRAW_BLOCK cells, rows of a cells
    rows = _draw_rows(activation_size)
    steps = data.draw(st.sampled_from([0, 1, rows - 1, rows, rows + 1, 2 * rows + 1]), "steps")
    x0 = np.random.default_rng(net_seed).uniform(-1.0, 1.0, n)
    traj = ok.simulate_gossip_fj(net, x0, steps, activation_size, seed=seed)
    expected = reference_gossip_fj(net, x0, steps, activation_size, seed)
    assert np.array_equal(traj.states[:, :, 0], expected)


@pytest.mark.parametrize("mask_cells", [1, 50])  # one step, or four, per mask block
def test_partial_gossip_does_not_depend_on_the_mask_block(monkeypatch, mask_cells):
    monkeypatch.setattr(dynamics, "ACTIVATION_MASK_CELLS", mask_cells)
    net = _gossip_network(12, "watts_strogatz", 0.4, 3)
    x0 = np.random.default_rng(3).uniform(-1.0, 1.0, net.n)
    traj = ok.simulate_gossip_fj(net, x0, 301, 5, seed=2)
    expected = reference_gossip_fj(net, x0, 301, 5, 2)
    assert traj.states[:, :, 0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("activation_size", [20, DENSE_MAX_N + 1])  # some agents, or all
def test_gossip_reads_its_weights_from_the_network_support(activation_size):
    config = ok.GeneratorConfig(
        model="watts_strogatz", n=DENSE_MAX_N + 1, k=6, beta_rw=0.2, lambda_range=(0.3, 0.8)
    )
    net = ok.generate_network(config, seed=3)
    x0 = np.random.default_rng(3).uniform(-1.0, 1.0, net.n)
    steps = 2 * _draw_rows(activation_size) + 7  # two block boundaries and a partial block
    traj = ok.simulate_gossip_fj(net, x0, steps, activation_size, seed=4)
    assert "w" not in net.__dict__  # the dense w was never built
    expected = reference_gossip_fj(net, x0, steps, activation_size, 4)
    assert traj.states[:, :, 0].tobytes() == expected.tobytes()


def _rate_law_ring():
    """The n=6 ring of acceptance criterion 07."""
    config = ok.GeneratorConfig(
        model="watts_strogatz", n=6, k=2, beta_rw=0.0, lambda_range=(0.85, 0.85)
    )
    return ok.generate_network(config, seed=5)


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_full_activation_on_the_rate_law_ring_matches_the_reference_bitwise(blocks, extra):
    net = _rate_law_ring()
    steps = blocks * _draw_rows(net.n) + extra
    x0 = np.random.default_rng(steps).uniform(-1.0, 1.0, net.n)
    traj = ok.simulate_gossip_fj(net, x0, steps, net.n, seed=7)
    expected = reference_gossip_fj(net, x0, steps, net.n, 7)
    assert traj.states[:, :, 0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("drawn", range(9))  # buffer offsets 0-3, twice over
def test_skipping_doubles_leaves_the_stream_where_drawing_them_does(seed, drawn):
    # advance() drops the buffered words, so an unguarded skip moves the stream
    for count in [*range(13), 1000, 1001, 1002, 1003, 120_000]:
        drawing, skipping = philox_stream(seed), philox_stream(seed)
        drawing.random(drawn)
        skipping.random(drawn)
        drawing.random(count)
        _skip_doubles(skipping, count)
        assert np.array_equal(skipping.random(9), drawing.random(9)), count


def test_gossip_keeps_only_the_draws_and_the_states_for_the_whole_run():
    # six (steps, a) arrays alive for the whole run peaked at 33.7 MB here
    net = _rate_law_ring()
    x0 = np.random.default_rng(0).uniform(-1, 1, net.n)
    tracemalloc.start()
    try:
        ok.simulate_gossip_fj(net, x0, 100_000, net.n, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 33.7e6 / 2


def test_activation_sets_are_uniform_subsets():
    # n = 5, a = 2: each of the 10 pairs has probability 1/10 per step;
    # 27.88 is the 0.1% point of chi-square with 9 degrees of freedom
    steps = 200_000
    active = _activation_sets(philox_stream(1), 5, 2, steps)
    assert (active[:, 0] != active[:, 1]).all()
    _, counts = np.unique(np.sort(active, axis=1), axis=0, return_counts=True)
    assert len(counts) == 10
    expected = steps / 10
    assert ((counts - expected) ** 2 / expected).sum() < 27.88
    # a = n - 1: every member of a step is a distinct agent
    wide = _activation_sets(philox_stream(2), 9, 8, 5_000)
    assert wide.min() >= 0 and wide.max() <= 8
    assert (np.diff(np.sort(wide, axis=1), axis=1) > 0).all()


def test_near_full_activation_sets_are_the_complements_of_uniform_subsets():
    # n = 5, a = 3: the 2 inactive agents are drawn, so each of the 10
    # triples has probability 1/10 per step and is listed in ascending order
    steps = 200_000
    active = _activation_sets(philox_stream(3), 5, 3, steps)
    assert (np.diff(active, axis=1) > 0).all()
    _, counts = np.unique(active, axis=0, return_counts=True)
    assert len(counts) == 10
    expected = steps / 10
    assert ((counts - expected) ** 2 / expected).sum() < 27.88
    # a = 2 draws the same two columns from the same stream: the sets at
    # a = 2 are the inactive agents of the sets at a = 3
    inactive = _activation_sets(philox_stream(3), 5, 2, steps)
    assert (np.sort(np.concatenate([active, inactive], axis=1), axis=1) == np.arange(5)).all()


@pytest.mark.parametrize("mask_cells", [1, 50])  # one step, or four, per mask block
def test_near_full_gossip_does_not_depend_on_the_mask_block(monkeypatch, mask_cells):
    monkeypatch.setattr(dynamics, "ACTIVATION_MASK_CELLS", mask_cells)
    net = _gossip_network(12, "watts_strogatz", 0.4, 3)
    x0 = np.random.default_rng(3).uniform(-1.0, 1.0, net.n)
    traj = ok.simulate_gossip_fj(net, x0, 301, 9, seed=2)
    expected = reference_gossip_fj(net, x0, 301, 9, 2)
    assert traj.states[:, :, 0].tobytes() == expected.tobytes()


def test_partial_gossip_draws_follow_the_activation_size():
    # n activation keys per step and their argpartition indices (102.8 MB
    # here) exceed the bound: the draws must stay O(steps * a) plus the mask
    net = _ws_network(20_000, seed=1)
    x0 = np.random.default_rng(1).uniform(-1.0, 1.0, net.n)
    steps = 200
    tracemalloc.start()
    try:
        ok.simulate_gossip_fj(net, x0, steps, 20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (steps + 1) * net.n * 8 + 16e6


def test_gossip_on_a_hub_network_reads_no_degree_padded_table():
    # a padded n x d_max neighbor table and its weights (d_max = 506 here)
    # peaked at 201 MB: the polls must read the network's own support
    config = ok.GeneratorConfig(
        model="barabasi_albert", n=20_000, m0=3, lambda_range=(0.3, 0.8)
    )
    net = ok.generate_network(config, seed=1)
    x0 = np.random.default_rng(1).uniform(-1.0, 1.0, net.n)
    for steps, activation_size in [(200, 20), (20, net.n)]:  # some agents, or all
        tracemalloc.start()
        try:
            ok.simulate_gossip_fj(net, x0, steps, activation_size, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (steps + 1) * net.n * 8 + 16e6


@given(n=st.integers(2, 12), density=st.floats(0.1, 1.0), seed=st.integers(0, 2**16))
def test_poll_lists_match_the_per_agent_loop(n, density, seed):
    rng = np.random.default_rng(seed)
    net = ok.InfluenceNetwork(w=row_stochastic(rng, n, density), lam=np.full(n, 0.5))
    ref_table, ref_counts = reference_neighbor_menus(net)
    if (ref_counts == 0).any():
        with pytest.raises(ok.StructuralError, match="no neighbors to poll"):
            _poll_lists(net)
        return
    starts, counts, cols, weights = _poll_lists(net)
    # slot s of agent i polls cols[starts[i] + s], the table's entry [i, s]
    listed = np.arange(ref_table.shape[1]) < ref_counts[:, None]
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(starts, np.cumsum(ref_counts) - ref_counts)
    assert np.array_equal(cols, ref_table[listed]) and cols.dtype == ref_table.dtype
    expected = net.w[np.nonzero(listed)[0], ref_table[listed]]
    assert weights.tobytes() == expected.tobytes()


def test_cesaro_average_of_a_constant_trajectory_is_constant():
    net = _pair_network(lam=(0.0, 0.0))
    x0 = np.array([0.3, 0.9])
    traj = ok.simulate_gossip_fj(net, x0, steps=50, activation_size=1, seed=1)
    avg = ok.cesaro_average(traj)
    assert np.allclose(avg[-1, :, 0], x0, atol=1e-12)


def test_cesaro_average_matches_cumulative_means():
    # a short trajectory, and one of three running-sum blocks plus a step
    rng = np.random.default_rng(11)
    net = stable_network(rng, 4)
    for steps in (20, 3 * (CESARO_BLOCK_CELLS // net.n)):
        traj = ok.simulate_fj(net, rng.uniform(-1, 1, 4), steps=steps)
        avg = ok.cesaro_average(traj)
        direct = np.cumsum(traj.states, axis=0) / np.arange(1, steps + 2)[:, None, None]
        assert avg.tobytes() == direct.tobytes()


def test_cross_correlation_recursion_matches_direct_evaluation():
    rng = np.random.default_rng(13)
    gamma = rng.uniform(0, 0.3, (3, 3))
    b = rng.uniform(-0.5, 0.5, 3)
    x_mean = rng.uniform(-1, 1, 3)
    sigma0 = np.eye(3) + 0.1
    stack = ok.cross_correlation_recursion(gamma, b, x_mean, sigma0, 4)
    expected = sigma0.copy()
    for lag in range(4):
        expected = expected @ gamma.T + np.outer(x_mean, b)
        assert np.allclose(stack[lag + 1], expected, atol=1e-14)


def test_multiplex_simulation_without_noise_matches_fj_per_layer():
    cfg = ok.MultiplexConfig(
        model_tag="common_support",
        base=ok.GeneratorConfig(model="erdos_renyi", n=8, p=0.4, lambda_range=(0.3, 0.7)),
        n_layers=2,
    )
    mx = ok.build_multiplex(cfg, seed=3)
    rng = np.random.default_rng(4)
    u = rng.uniform(-1, 1, 8)
    trajs = ok.simulate_multiplex_fj(mx, u, q_noise=np.zeros((8, 8)), steps=30, seed=0)
    assert len(trajs) == 2
    for layer, traj in zip(mx.layers, trajs):
        plain = ok.simulate_fj(layer, u, steps=30)
        assert np.allclose(traj.states, plain.states, atol=1e-12)


def test_multiplex_simulation_noise_is_seeded():
    cfg = ok.MultiplexConfig(
        model_tag="independent",
        base=ok.GeneratorConfig(model="erdos_renyi", n=6, p=0.5, lambda_range=(0.2, 0.8)),
        n_layers=2,
    )
    mx = ok.build_multiplex(cfg, seed=8)
    u = np.linspace(-1, 1, 6)
    q = 0.01 * np.eye(6)
    a = ok.simulate_multiplex_fj(mx, u, q, steps=40, seed=5)
    b = ok.simulate_multiplex_fj(mx, u, q, steps=40, seed=5)
    c = ok.simulate_multiplex_fj(mx, u, q, steps=40, seed=6)
    for ta, tb, tc in zip(a, b, c):
        assert np.array_equal(ta.states, tb.states)
        assert not np.array_equal(ta.states, tc.states)


def _multiplex(n=12, seed=8):
    cfg = ok.MultiplexConfig(
        model_tag="independent",
        base=ok.GeneratorConfig(
            model="watts_strogatz", n=n, k=4, beta_rw=0.2, lambda_range=(0.2, 0.8)
        ),
        n_layers=3,
    )
    return ok.build_multiplex(cfg, seed=seed)


def test_multiplex_matches_the_per_step_reference_within_rounding():
    mx = _multiplex()
    rng = np.random.default_rng(21)
    u = rng.uniform(-1, 1, mx.n)
    root = rng.normal(size=(mx.n, mx.n))
    q = 0.02 * root @ root.T / mx.n
    trajs = ok.simulate_multiplex_fj(mx, u, q, steps=2000, seed=4)
    for traj, expected in zip(trajs, reference_multiplex_fj(mx, u, q, 2000, 4)):
        assert np.max(np.abs(traj.states[:, :, 0] - expected)) <= 1e-12


def test_multiplex_with_diagonal_noise_matches_the_reference_bitwise():
    mx = _multiplex()
    q = np.diag(np.linspace(0.01, 0.05, mx.n))
    u = np.linspace(-1, 1, mx.n)
    trajs = ok.simulate_multiplex_fj(mx, u, q, steps=2000, seed=4)
    for traj, expected in zip(trajs, reference_multiplex_fj(mx, u, q, 2000, 4)):
        assert np.array_equal(traj.states[:, :, 0], expected)


def test_multiplex_rejects_an_unstable_layer_by_name():
    layers = (_pair_network(), _pair_network(lam=(1.0, 1.0)))
    mx = ok.MultiplexNetwork(layers=layers, model_tag="independent")
    with pytest.raises(ok.StabilityError, match=r"multiplex layer 1 .* agents \(0, 1\)"):
        ok.simulate_multiplex_fj(mx, np.array([1.0, 0.0]), np.zeros((2, 2)), steps=5, seed=0)


def test_multiplex_beyond_the_dense_cutoff_matches_the_reference():
    n = 250
    assert n > DENSE_MAX_N
    mx = ok.MultiplexNetwork(layers=(_ws_network(n, seed=5),), model_tag="independent")
    u = np.random.default_rng(5).uniform(-1, 1, n)
    q = np.diag(np.linspace(0.01, 0.05, n))
    (traj,) = ok.simulate_multiplex_fj(mx, u, q, steps=300, seed=4)
    (expected,) = reference_multiplex_fj(mx, u, q, 300, 4)
    assert np.max(np.abs(traj.states[:, :, 0] - expected)) <= 1e-12


def _multiplex_case(case):
    """(mx, u, q, lambdas) for one stacked-step configuration."""
    n = 250 if case == "sparse" else 12
    mx = _multiplex(n=n)
    rng = np.random.default_rng(31)
    root = rng.normal(size=(n, n))
    q = 0.02 * root @ root.T / n
    u = rng.uniform(-1, 1, n)
    lambdas = None
    if case == "per_layer":
        u = rng.uniform(-1, 1, (mx.n_layers, n))
        q = np.stack([(1.0 + s) * q for s in range(mx.n_layers)])
    elif case == "lambdas":
        lambdas = [rng.uniform(0.1, 0.9, n) for _ in mx.layers]
    return mx, u, q, lambdas


@pytest.mark.parametrize("steps", [0, 1, 200])
@pytest.mark.parametrize("case", ["dense", "per_layer", "lambdas", "sparse"])
def test_stacked_multiplex_step_matches_per_layer_stepping_bitwise(case, steps):
    mx, u, q, lambdas = _multiplex_case(case)
    assert mx.n_layers >= 2 and (mx.n > DENSE_MAX_N) == (case == "sparse")
    trajs = ok.simulate_multiplex_fj(mx, u, q, steps=steps, seed=4, lambdas=lambdas)
    expected = reference_multiplex_per_layer(mx, u, q, steps, 4, lambdas=lambdas)
    assert len(trajs) == len(expected) == mx.n_layers
    for traj, states in zip(trajs, expected):
        assert traj.states.shape == (steps + 1, mx.n, 1)
        assert traj.states.flags.c_contiguous
        assert np.array_equal(traj.states[:, :, 0], states)


_PAIR_X0 = np.array([1.0, 0.0])
_SIMULATORS = {
    "fj": lambda steps: ok.simulate_fj(_pair_network(), _PAIR_X0, steps),
    "belief_system": lambda steps: ok.simulate_belief_system(
        _pair_network(), np.eye(1), _PAIR_X0, steps
    ),
    "gossip": lambda steps: ok.simulate_gossip_fj(
        _pair_network(), _PAIR_X0, steps, activation_size=1, seed=0
    ),
    "multiplex": lambda steps: ok.simulate_multiplex_fj(
        ok.MultiplexNetwork(layers=(_pair_network(),), model_tag="independent"),
        _PAIR_X0, 0.01 * np.eye(2), steps, seed=0,
    )[0],
}


@pytest.mark.parametrize("simulator", sorted(_SIMULATORS))
def test_simulators_with_zero_steps_return_only_the_initial_state(simulator):
    states = _SIMULATORS[simulator](0).states
    assert states.shape == (1, 2, 1)
    assert np.array_equal(states[0, :, 0], _PAIR_X0)


@pytest.mark.parametrize("steps", [-1, -2])
@pytest.mark.parametrize("simulator", sorted(_SIMULATORS))
def test_simulators_reject_negative_step_counts(simulator, steps):
    with pytest.raises(ok.ParameterError):
        _SIMULATORS[simulator](steps)


def test_trajectory_file_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    net = stable_network(rng, 5)
    traj = ok.simulate_fj(net, rng.uniform(-1, 1, (5, 2)), steps=12)
    path = tmp_path / "traj.csv"
    ok.save_trajectory(traj, path)
    steps, states = ok.load_trajectory(path)
    assert np.array_equal(steps, np.arange(13))
    assert np.array_equal(states, traj.states)


def test_trajectory_stride_keeps_every_kth_step(tmp_path):
    rng = np.random.default_rng(20)
    net = stable_network(rng, 4)
    traj = ok.simulate_fj(net, rng.uniform(-1, 1, 4), steps=10)
    path = tmp_path / "traj.csv"
    ok.save_trajectory(traj, path, stride=4)
    steps, states = ok.load_trajectory(path)
    assert steps.tolist() == [0, 4, 8]
    assert np.array_equal(states, traj.states[[0, 4, 8]])


def test_load_trajectory_rejects_a_foreign_header(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("time,node,dim,x\n0,0,0,1.0\n")
    with pytest.raises(ok.ConfigError):
        ok.load_trajectory(path)


def test_load_trajectory_names_the_file_of_a_non_numeric_value(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("k,agent,issue,value\n0,0,0,abc\n")
    with pytest.raises(ok.ConfigError, match="traj.csv, line 2: malformed"):
        ok.load_trajectory(path)
