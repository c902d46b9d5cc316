"""Unit tests for the estimation and reconstruction routines."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import invwishart

import opinionkit as ok
from helpers import (
    reference_finite_horizon,
    reference_identify_multiplex,
    reference_equilibrium_system,
    reference_infinite_horizon,
    reference_least_moment,
    reference_nonneg_is_unique,
    reference_simplex,
    reference_solve_l1,
    reference_sparse_gamma,
    reference_unknown_lambda,
    sparse_row_network,
    stable_network,
)
from opinionkit import numkit


def _ws_network(seed=9, n=8, lam_range=(0.3, 0.8)):
    cfg = ok.GeneratorConfig(
        model="watts_strogatz", n=n, k=4, beta_rw=0.3, lambda_range=lam_range
    )
    return ok.generate_network(cfg, seed=seed)


# ---- finite horizon --------------------------------------------------------


def test_finite_horizon_recovers_weights_and_susceptibilities():
    net = _ws_network()
    rng = np.random.default_rng(5)
    traj = ok.simulate_fj(net, rng.uniform(-1, 1, (8, 10)), steps=12)
    report = ok.identify_finite_horizon(traj)
    assert np.max(np.abs(report.w_hat - net.w)) < 1e-9
    assert np.max(np.abs(report.lambda_hat - net.lam)) < 1e-9
    assert set(report.support) == {
        (int(i), int(j)) for i, j in zip(*np.nonzero(net.w))
    }


def test_finite_horizon_accepts_known_susceptibilities():
    net = _ws_network(seed=12)
    rng = np.random.default_rng(6)
    traj = ok.simulate_fj(net, rng.uniform(-1, 1, (8, 10)), steps=10)
    report = ok.identify_finite_horizon(traj, lam=net.lam)
    assert np.max(np.abs(report.w_hat - net.w)) < 1e-8
    assert np.allclose(report.lambda_hat, net.lam, atol=1e-12)


def test_finite_horizon_band_admits_perturbed_data():
    net = _ws_network(seed=3)
    rng = np.random.default_rng(7)
    traj = ok.simulate_fj(net, rng.uniform(-1, 1, (8, 12)), steps=8)
    noisy = ok.OpinionTrajectory(
        states=traj.states + rng.normal(0, 1e-4, traj.states.shape),
        model=traj.model,
    )
    report = ok.identify_finite_horizon(noisy, eps=1e-3)
    assert np.max(np.abs(report.w_hat - net.w)) < 0.05


def test_finite_horizon_flags_an_infeasibly_tight_band():
    net = _ws_network(seed=4)
    rng = np.random.default_rng(8)
    traj = ok.simulate_fj(net, rng.uniform(-1, 1, (8, 12)), steps=8)
    corrupted = ok.OpinionTrajectory(
        states=traj.states + rng.normal(0, 0.1, traj.states.shape),
        model=traj.model,
    )
    with pytest.raises(ok.InfeasibleError):
        ok.identify_finite_horizon(corrupted, eps=0.0, lam=net.lam)


def test_finite_horizon_rejects_a_trajectory_without_issues():
    traj = ok.simulate_fj(_ws_network(), np.zeros((8, 1)), steps=3)
    empty = dataclasses.replace(traj, states=np.zeros((4, 8, 0)))
    with pytest.raises(ok.StructuralError, match="^trajectory has no issues$"):
        ok.identify_finite_horizon(empty)


def test_finite_horizon_decomposes_stubborn_agents_as_anchored():
    # a constant opinion is explained by lambda = 0, not by a self-loop
    net = ok.InfluenceNetwork(
        w=np.array([[0.0, 1.0], [1.0, 0.0]]), lam=np.array([0.0, 0.6])
    )
    rng = np.random.default_rng(9)
    traj = ok.simulate_fj(net, rng.uniform(-1, 1, (2, 4)), steps=6)
    report = ok.identify_finite_horizon(traj)
    assert report.lambda_hat[0] == pytest.approx(0.0, abs=1e-9)


def test_finite_horizon_band_decomposes_stubborn_agents_as_anchored():
    net = ok.InfluenceNetwork(
        w=np.array([[0.0, 1.0], [1.0, 0.0]]), lam=np.array([0.0, 0.6])
    )
    rng = np.random.default_rng(9)
    traj = ok.simulate_fj(net, rng.uniform(-1, 1, (2, 4)), steps=6)
    report = ok.identify_finite_horizon(traj, eps=1e-3)
    assert report.lambda_hat[0] == pytest.approx(0.0, abs=1e-9)


def test_finite_horizon_tie_break_keeps_genuine_self_loops():
    # only a constant row is tied; rows 0 and 1 carry real self-weights
    w = np.array([[0.3, 0.5, 0.2], [0.2, 0.4, 0.4], [0.5, 0.0, 0.5]])
    net = ok.InfluenceNetwork(w=w, lam=np.array([0.7, 0.5, 0.0]))
    rng = np.random.default_rng(3)
    traj = ok.simulate_fj(net, rng.uniform(-1, 1, (3, 6)), steps=8)
    report = ok.identify_finite_horizon(traj)
    assert np.max(np.abs(report.w_hat[:2] - w[:2])) < 1e-8
    assert np.max(np.abs(report.lambda_hat[:2] - net.lam[:2])) < 1e-8
    assert report.lambda_hat[2] == pytest.approx(0.0, abs=1e-9)
    assert np.array_equal(report.w_hat[2], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("pinned", [False, True])
def test_finite_horizon_matches_the_direct_linprog_oracle(monkeypatch, eps, pinned):
    # agent 2 of the first network is fully stubborn. Rows that reach HiGHS
    # match the oracle bit for bit. A row a face certifies without an LP
    # (nnls_rows) is the program's one feasible or zero-cost point, held to
    # 1e-12 of the generating (lambda W, 1 - lambda): on the first network
    # the oracle's HiGHS points miss it by up to 2.3e-9, within HiGHS's
    # feasibility tolerance.
    w = np.array([[0.3, 0.5, 0.2], [0.2, 0.4, 0.4], [0.5, 0.0, 0.5]])
    nets = [ok.InfluenceNetwork(w=w, lam=np.array([0.7, 0.5, 0.0])), _ws_network(seed=3)]
    rng = np.random.default_rng(3)
    tie_breaks = []

    def solve(problems):
        results = ok.numkit.solve_l1_rows(problems)
        tie_breaks.extend(result.solver_log["tie_break"] for result in results)
        return results

    monkeypatch.setattr(ok.identify, "solve_l1_rows", solve)
    reports = []
    for net in nets:
        traj = ok.simulate_fj(net, rng.uniform(-1, 1, (net.n, 6)), steps=8)
        lam = net.lam if pinned else None
        report = ok.identify_finite_horizon(traj, eps=eps, lam=lam)
        a_hat, b_hat = reference_finite_horizon(traj.states, eps, lam)
        certified = list(report.solver_log["nnls_rows"])
        assert not certified or eps == 0.0
        if net is nets[0] and eps == 0.0:
            # pinned, the stubborn row's only point is a = 0 (Gordan's alternative)
            assert certified == [0, 1, 2]
        lp_rows = np.setdiff1d(np.arange(net.n), certified)
        coupling = report.solver_log["coupling_matrix"]
        assert np.array_equal(coupling[lp_rows], a_hat[lp_rows])
        assert np.array_equal(report.lambda_hat[lp_rows], 1.0 - b_hat[lp_rows])
        truth = net.lam[:, None] * net.w
        assert np.max(np.abs(coupling - truth)[certified], initial=0.0) <= 1e-12
        assert np.max(np.abs(report.lambda_hat - net.lam)[certified], initial=0.0) <= 1e-12
        reports.append(report)
    # the stubborn row is tied only while lambda is free: the zero-cost face
    # decides it at eps = 0, the lexicographic stage within a band
    assert (tie_breaks[2] == "zero-cost") == (eps == 0.0 and not pinned)
    assert (2 in reports[0].solver_log["lexicographic_rows"]) == (eps > 0.0 and not pinned)


def test_finite_horizon_band_rows_reach_highs():
    # eps > 0 makes every row a band program, which no face certificate takes
    net = _ws_network(seed=3)
    traj = ok.simulate_fj(net, np.random.default_rng(3).uniform(-1, 1, (8, 6)), steps=8)
    log = ok.identify_finite_horizon(traj, eps=1e-3).solver_log
    assert log["nnls_rows"] == () and log["tied_rows"] == ()
    assert log["iterations"] >= 8
    assert ok.identify_finite_horizon(traj).solver_log["nnls_rows"] == tuple(range(8))


def test_finite_horizon_rows_with_a_weights_sample_are_certified():
    # with 0/1 opinions some x(0) equals row i's weights (1 off i, 0 at i), so
    # the objective is constant on the feasible set and the certificate decides
    w = np.array([[0.3, 0.5, 0.2], [0.2, 0.4, 0.4], [0.5, 0.0, 0.5]])
    net = ok.InfluenceNetwork(w=w, lam=np.array([0.7, 0.5, 0.4]))
    x0 = np.array(np.meshgrid([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])).reshape(3, 8)
    traj = ok.simulate_fj(net, x0, steps=3)
    report = ok.identify_finite_horizon(traj, lam=net.lam)
    assert report.solver_log["nnls_rows"] == (0, 1, 2)
    a_hat, b_hat = reference_finite_horizon(traj.states, 0.0, net.lam)
    assert np.max(np.abs(report.solver_log["coupling_matrix"] - a_hat)) <= 1e-12
    assert np.array_equal(report.lambda_hat, 1.0 - b_hat)


def test_finite_horizon_names_the_smallest_feasible_band():
    # one agent starting at 1 must stay at a x + b x(0) = 1, 0.5 away
    traj = ok.OpinionTrajectory(
        states=np.array([[[1.0]], [[0.5]]]), model=ok.ModelDescriptor(kind="fj", params={})
    )
    with pytest.raises(ok.InfeasibleError, match="smallest feasible band is 0.5$"):
        ok.identify_finite_horizon(traj, eps=0.1)


@pytest.mark.parametrize("eps", [-1e-3, np.nan])
def test_finite_horizon_rejects_an_eps_that_is_not_at_least_0(eps):
    traj = ok.OpinionTrajectory(
        states=np.ones((3, 2, 1)), model=ok.ModelDescriptor(kind="fj", params={})
    )
    with pytest.raises(ok.ParameterError, match="^eps "):
        ok.identify_finite_horizon(traj, eps=eps)


@pytest.mark.parametrize("lam", [[0.5, 1.5], [-0.5, 0.5], [0.5]])
def test_finite_horizon_rejects_a_pinned_lambda_outside_the_model(lam):
    # b_i = 1 - lambda_i must stay in [0, 1]; lambda_i > 1 once pinned a
    # negative anchor weight
    traj = ok.OpinionTrajectory(
        states=np.ones((3, 2, 1)), model=ok.ModelDescriptor(kind="fj", params={})
    )
    with pytest.raises(ok.ParameterError, match="lam"):
        ok.identify_finite_horizon(traj, lam=np.array(lam))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_finite_horizon_rejects_non_finite_states(bad):
    net = _ws_network(n=6)
    traj = ok.simulate_fj(net, np.linspace(-1.0, 1.0, 6), steps=8)
    states = traj.states.copy()
    states[-1, 2, 0] = bad
    traj = ok.OpinionTrajectory(states=states, model=traj.model)
    with pytest.raises(ok.ParameterError, match="finite"):
        ok.identify_finite_horizon(traj)


def test_finite_horizon_needs_at_least_two_frames():
    traj = ok.OpinionTrajectory(
        states=np.zeros((1, 8, 2)), model=ok.ModelDescriptor(kind="fj", params={})
    )
    with pytest.raises(ok.StructuralError):
        ok.identify_finite_horizon(traj)


# ---- identifiability guards ------------------------------------------------


def test_lambda_identifiability_guards():
    with pytest.raises(ok.IdentifiabilityError):
        ok.check_lambda_identifiability(np.ones(4))
    with pytest.raises(ok.IdentifiabilityError):
        ok.check_lambda_identifiability(np.array([0.5, 0.0, 0.7]))
    ok.check_lambda_identifiability(np.array([0.5, 0.9]))


def test_infinite_horizon_rejects_consensus_experiments():
    net = _ws_network(seed=6)
    x0 = np.ones((8, 8)) * np.arange(1, 9)[None, :]  # every column constant
    x_inf, _ = ok.fj_equilibrium(net, x0)
    with pytest.raises(ok.IdentifiabilityError):
        ok.identify_infinite_horizon(x0, x_inf, net.lam)


def test_infinite_horizon_warns_on_a_single_consensus_column():
    net = _ws_network(seed=6)
    rng = np.random.default_rng(10)
    x0 = rng.uniform(-1, 1, (8, 8))
    x0[:, 3] = 0.7
    x_inf, _ = ok.fj_equilibrium(net, x0)
    with pytest.warns(UserWarning, match="consensus"):
        report = ok.identify_infinite_horizon(x0, x_inf, net.lam)
    assert np.max(np.abs(report.w_hat - net.w)) < 1e-6


# ---- infinite horizon ------------------------------------------------------


def test_infinite_horizon_exact_recovery_at_full_rank():
    net = _ws_network()
    rng = np.random.default_rng(6)
    x0 = rng.uniform(-1, 1, (8, 8))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    report = ok.identify_infinite_horizon(x0, x_inf, net.lam)
    assert np.max(np.abs(report.w_hat - net.w)) < 1e-8
    assert np.allclose(report.w_hat.sum(axis=1), 1.0, atol=1e-9)


def test_infinite_horizon_sparse_recovery_from_few_experiments():
    rng = np.random.default_rng(12)
    net = sparse_row_network(rng, 30, row_nnz=3, lam=np.full(30, 0.4))
    x0 = rng.uniform(-1, 1, (30, 18))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    report = ok.identify_infinite_horizon(x0, x_inf, net.lam)
    metrics = ok.evaluate_estimate(net.w, report)
    assert metrics.f1 == 1.0
    assert metrics.frobenius_error < 1e-7


def test_infinite_horizon_nonneg_flag_constrains_the_cone():
    net = _ws_network(seed=2)
    rng = np.random.default_rng(13)
    x0 = rng.uniform(-1, 1, (8, 8))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    report = ok.identify_infinite_horizon(x0, x_inf, net.lam, nonneg=True)
    assert report.w_hat.min() >= -1e-10
    assert np.max(np.abs(report.w_hat - net.w)) < 1e-8


@pytest.mark.parametrize("nonneg, tol", [(False, 0.0), (True, 1e-12)])
def test_infinite_horizon_matches_the_row_box_oracle(nonneg, tol):
    # Rows that reach the LP are held to tol. Rows the uniqueness
    # certificate decides without an LP (nnls_rows) are held to 1e-12: at
    # m = 8 every row is one. At m = 4 six rows tie, and each takes its
    # certified least-moment point (moment_rows), which is held to 1e-12
    # against the direct linprog of min c'w over its nonnegative set.
    net = _ws_network(seed=2)
    rng = np.random.default_rng(13)
    for m, tied_rows in ((8, 0), (4, 6)):
        x0 = rng.uniform(-1, 1, (8, m))
        x_inf, _ = ok.fj_equilibrium(net, x0)
        report = ok.identify_infinite_horizon(x0, x_inf, net.lam, nonneg=nonneg)
        expected = reference_infinite_horizon(x0, x_inf, net.lam, nonneg)
        errors = np.max(np.abs(report.w_hat - expected), axis=1)
        certified = list(report.solver_log["nnls_rows"])
        moment = list(report.solver_log["moment_rows"])
        assert len(errors) - len(certified) == len(moment) == tied_rows
        assert np.max(np.delete(errors, certified + moment), initial=0.0) <= tol
        assert np.max(errors[certified], initial=0.0) <= 1e-12
        psi = (x_inf - (1.0 - net.lam)[:, None] * x0) / net.lam[:, None]
        for j in moment:
            oracle = reference_least_moment(*reference_equilibrium_system(x_inf, psi[j]))
            assert np.max(np.abs(report.w_hat[j] - oracle)) <= 1e-12


def _equilibrium_row_problem(m, tie_seed):
    """Row 1 of identify_infinite_horizon's program on a Watts-Strogatz
    network of 50 agents with lambda = 0.4 and m experiments, with random
    tie weights. The program is the nonneg one: it has the same optimal set
    as the signed program whenever a nonnegative feasible point exists, and
    the signed program's lexicographic stage may spend LEXICOGRAPHIC_SLACK
    on weights of about -5e-10, so its tie-broken point is optimal only
    within that slack."""
    net = ok.generate_network(
        ok.GeneratorConfig(model="watts_strogatz", n=50, k=6, beta_rw=0.2,
                           lambda_range=(0.4, 0.4)),
        seed=1,
    )
    x0 = np.random.default_rng(2).uniform(-1.0, 1.0, (50, m))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    psi = (x_inf - (1.0 - net.lam)[:, None] * x0) / net.lam[:, None]
    ties = np.random.default_rng(tie_seed).uniform(0.0, 1.0, 50)
    return ok.L1Problem(phi=x_inf.T, psi=psi[1], sum_to=1.0, nonneg=True, tie_weights=ties)


def _tie_broken_rows(m, tie_break):
    results = [ok.solve_l1(_equilibrium_row_problem(m, tie_seed)) for tie_seed in (3, 4)]
    for result in results:
        assert result.ok and result.solver_log["tie_break"] == tie_break
        assert result.residual <= 1e-9 and abs(result.x.sum() - 1.0) <= 1e-9
        # ||w||_1 >= |1'w| = 1, so every nonnegative feasible point is optimal
        assert result.objective == pytest.approx(1.0, abs=1e-9)
    return results


def test_equilibrium_rows_tie_between_distinct_optima_when_under_determined():
    # m = 10 < n: the l1 objective leaves the answer to the tie weights
    first, second = _tie_broken_rows(10, "lexicographic")
    assert np.max(np.abs(first.x - second.x)) > 1e-3


def test_equilibrium_rows_have_one_optimum_when_determined():
    # m = 40: the feasible set is one point, which the certificate takes
    first, second = _tie_broken_rows(40, "unique")
    assert np.max(np.abs(first.x - second.x)) <= 1e-9


@pytest.mark.parametrize("model", ["watts_strogatz", "barabasi_albert"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_equilibrium_row_certificate_matches_the_lp_uniqueness_oracle(model, seed):
    # Every row has a nonnegative solution (the true W), so the certificate
    # files each one under nnls_rows (unique) or tied_rows, whichever of its
    # witnesses decides. A certified row is the program's only optimum, so
    # any LP finds it too.
    net = ok.generate_network(
        ok.GeneratorConfig(model=model, n=50, k=6, m0=3, beta_rw=0.2,
                           lambda_range=(0.4, 0.4)),
        seed=seed,
    )
    for m in (10, 20, 40):
        x0 = np.random.default_rng(100 * seed + m).uniform(-1.0, 1.0, (50, m))
        x_inf, _ = ok.fj_equilibrium(net, x0)
        report = ok.identify_infinite_horizon(x0, x_inf, net.lam)
        unique = report.solver_log["nnls_rows"]
        assert sorted(unique + report.solver_log["tied_rows"]) == list(range(50))
        psi = (x_inf - (1.0 - net.lam)[:, None] * x0) / net.lam[:, None]
        a = np.vstack([x_inf.T, np.ones((1, 50))])
        for j in range(50):
            assert (j in unique) == reference_nonneg_is_unique(a, np.append(psi[j], 1.0))
        for j in unique:
            lp = reference_solve_l1(ok.L1Problem(phi=x_inf.T, psi=psi[j], sum_to=1.0))
            assert np.max(np.abs(report.w_hat[j] - lp)) <= 1e-12


@pytest.mark.parametrize("model", ["watts_strogatz", "barabasi_albert"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tied_equilibrium_rows_take_the_least_moment_oracle_point(monkeypatch, model, seed):
    # A tied row whose least-moment optimum is certified as the only one
    # (moment_rows) takes that point: the direct linprog's within 1e-12. A
    # tied row the certificate cannot decide keeps HiGHS's vertex, bit for
    # bit. Reruns repeat every bit and every log entry.
    net = ok.generate_network(
        ok.GeneratorConfig(model=model, n=50, k=6, m0=3, beta_rw=0.2,
                           lambda_range=(0.4, 0.4)),
        seed=seed,
    )
    problems = []
    monkeypatch.setattr(ok.identify, "solve_l1_rows", lambda rows: numkit.solve_l1_rows(
        problems.append(problem) or problem for problem in rows))
    moment_rows = 0
    for m in (10, 20):
        x0 = np.random.default_rng(100 * seed + m).uniform(-1.0, 1.0, (50, m))
        x_inf, _ = ok.fj_equilibrium(net, x0)
        problems.clear()
        report = ok.identify_infinite_horizon(x0, x_inf, net.lam)
        log = report.solver_log
        assert set(log["moment_rows"]) <= set(log["tied_rows"])
        moment_rows += len(log["moment_rows"])
        psi = (x_inf - (1.0 - net.lam)[:, None] * x0) / net.lam[:, None]
        for j in log["tied_rows"]:
            if j in log["moment_rows"]:
                oracle = reference_least_moment(*reference_equilibrium_system(x_inf, psi[j]))
                assert np.max(np.abs(report.w_hat[j] - oracle)) <= 1e-12
            else:
                vertex = numkit._highs_l1(problems[j], *numkit._parsed(problems[j]))[0]
                assert report.w_hat[j].tobytes() == vertex.tobytes()
        rerun = ok.identify_infinite_horizon(x0, x_inf, net.lam)
        assert rerun.w_hat.tobytes() == report.w_hat.tobytes()
        assert rerun.solver_log == log
    assert moment_rows >= 25


@pytest.mark.parametrize("model", ["watts_strogatz", "barabasi_albert"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelling_the_agents_permutes_the_equilibrium_estimate(model, seed):
    # Every tied row takes its certified least-moment point, the only
    # optimum of its cut face, so the estimate does not depend on the
    # agents' order: relabelled data give the relabelled estimate, where a
    # solver's vertex choice could follow the column order
    net = ok.generate_network(
        ok.GeneratorConfig(model=model, n=50, k=6, m0=3, beta_rw=0.2,
                           lambda_range=(0.4, 0.4)),
        seed=seed,
    )
    order = np.random.default_rng(seed).permutation(50)
    for m in (10, 20):
        x0 = np.random.default_rng(100 * seed + m).uniform(-1.0, 1.0, (50, m))
        x_inf, _ = ok.fj_equilibrium(net, x0)
        for nonneg in (False, True):
            report = ok.identify_infinite_horizon(x0, x_inf, net.lam, nonneg=nonneg)
            relabelled = ok.identify_infinite_horizon(x0[order], x_inf[order], net.lam[order],
                                                      nonneg=nonneg)
            for log in (report.solver_log, relabelled.solver_log):
                assert log["moment_rows"] == log["tied_rows"]
            expected = report.w_hat[np.ix_(order, order)]
            assert np.max(np.abs(relabelled.w_hat - expected)) <= 1e-13


@pytest.mark.parametrize("model", ["watts_strogatz", "barabasi_albert"])
def test_rows_solved_in_one_batch_match_each_row_solved_alone(monkeypatch, model):
    # The tied rows of one estimator call share their face matrix and moment
    # cost, so solve_l1_rows runs their simplex as one batch; each row still
    # gets, bit for bit, the SolveResult solve_l1 gives it alone
    net = ok.generate_network(
        ok.GeneratorConfig(model=model, n=50, k=6, m0=3, beta_rw=0.2,
                           lambda_range=(0.4, 0.4)),
        seed=1,
    )
    batches, largest = [], 0
    simplex = numkit._simplex

    def batch(a, b, c):
        # each row's vertex and pivots, bit for bit, are the one-program simplex's
        batches.append(b.shape[0])
        vertices = simplex(a, b, c)
        for row, (z, pivots) in zip(b, vertices):
            expected, expected_pivots = reference_simplex(a, row, c)
            assert pivots == expected_pivots and (z is None) == (expected is None)
            assert z is None or z.tobytes() == expected.tobytes()
        return vertices

    monkeypatch.setattr(numkit, "_simplex", batch)
    for m in (10, 20):
        x0 = np.random.default_rng(100 + m).uniform(-1.0, 1.0, (50, m))
        x_inf, _ = ok.fj_equilibrium(net, x0)
        psi = (x_inf - (1.0 - net.lam)[:, None] * x0) / net.lam[:, None]
        for nonneg in (False, True):
            problems = [ok.L1Problem(phi=x_inf.T, psi=row, sum_to=1.0, nonneg=nonneg)
                        for row in psi]
            batches.clear()
            together = numkit.solve_l1_rows(problems)
            tied = [result for result in together if result.solver_log["certificate"] == "tied"]
            assert batches == ([len(tied)] if tied else [])
            largest = max(largest, len(tied))
            for problem, result in zip(problems, together):
                alone = numkit.solve_l1(problem)
                assert result.x.tobytes() == alone.x.tobytes()
                assert np.float64(result.objective).tobytes() == np.float64(alone.objective).tobytes()
                assert np.float64(result.residual).tobytes() == np.float64(alone.residual).tobytes()
                assert result.status == alone.status and result.solver_log == alone.solver_log
    assert largest > 1


def _equilibrium_rows(model, m):
    """The row programs of an n = 50 equilibrium estimate, as in the workload."""
    net = ok.generate_network(
        ok.GeneratorConfig(model=model, n=50, k=6, m0=3, beta_rw=0.2,
                           lambda_range=(0.4, 0.4)),
        seed=1,
    )
    x0 = np.random.default_rng(100 + m).uniform(-1.0, 1.0, (50, m))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    psi = (x_inf - (1.0 - net.lam)[:, None] * x0) / net.lam[:, None]
    return [ok.L1Problem(phi=x_inf.T, psi=row, sum_to=1.0) for row in psi]


def _assert_bit_equal(result, alone):
    assert result.x.tobytes() == alone.x.tobytes()
    assert np.float64(result.objective).tobytes() == np.float64(alone.objective).tobytes()
    assert np.float64(result.residual).tobytes() == np.float64(alone.residual).tobytes()
    assert result.status == alone.status and result.solver_log == alone.solver_log


def _counted_faces(monkeypatch):
    """The argument tuples of every _faces call from here on."""
    faces, calls = numkit._faces, []
    monkeypatch.setattr(numkit, "_faces", lambda *args: calls.append(args) or faces(*args))
    return calls


@pytest.mark.parametrize("nonneg", [False, True])
def test_one_equilibrium_estimate_prepares_its_faces_once(monkeypatch, nonneg):
    # the rows of one estimate differ only in psi: one run, one set of faces
    net = _ws_network(seed=1, n=50, lam_range=(0.4, 0.4))
    x0 = np.random.default_rng(110).uniform(-1.0, 1.0, (50, 10))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    calls = _counted_faces(monkeypatch)
    report = ok.identify_infinite_horizon(x0, x_inf, net.lam, nonneg=nonneg)
    assert len(calls) == 1 and report.solver_log["tied_rows"]


def test_interleaved_runs_match_each_row_solved_alone(monkeypatch):
    # rows 0-9 of a WS estimate, a tied row of a BA estimate, then rows
    # 10-19 of the WS estimate: three runs, each with its own faces and its
    # own simplex batch, and each row gets the bits it gets alone
    ws, ba = (_equilibrium_rows(model, 10) for model in ("watts_strogatz", "barabasi_albert"))
    hub = next(problem for problem in ba
               if numkit.solve_l1(problem).solver_log["certificate"] == "tied")
    runs = (ws[:10], [hub], ws[10:20])
    alone = [[numkit.solve_l1(problem) for problem in run] for run in runs]
    tied = [sum(result.solver_log["certificate"] == "tied" for result in run) for run in alone]
    assert all(tied)
    batches, simplex = [], numkit._simplex
    monkeypatch.setattr(numkit, "_simplex",
                        lambda a, b, c: batches.append(b.shape[0]) or simplex(a, b, c))
    calls = _counted_faces(monkeypatch)
    together = numkit.solve_l1_rows(problem for run in runs for problem in run)
    assert len(calls) == 3 and batches == tied
    for result, expected in zip(together, (result for run in alone for result in run),
                                strict=True):
        _assert_bit_equal(result, expected)


def test_programs_whose_bounds_hold_nan_share_a_run(monkeypatch):
    # bounds compare by their bytes: fresh all-NaN arrays are one run though
    # NaN != NaN, while lower bounds of 0.0 and -0.0 start a run each
    problems = _equilibrium_rows("watts_strogatz", 10)[:12]
    calls = _counted_faces(monkeypatch)
    nan = [dataclasses.replace(problem, lo=np.full(50, np.nan)) for problem in problems]
    for result, problem in zip(numkit.solve_l1_rows(nan), problems, strict=True):
        _assert_bit_equal(result, numkit.solve_l1(problem))
    assert len(calls) == 1 + len(problems)
    calls.clear()
    signed = [dataclasses.replace(problem, lo=np.full(50, (-1.0) ** i * 0.0))
              for i, problem in enumerate(problems)]
    numkit.solve_l1_rows(signed)
    assert len(calls) == len(problems)


def test_the_first_failing_row_in_order_names_an_infeasible_estimate(monkeypatch):
    # The last states of agents 2 and 4 are moved off the dynamics, so rows 2
    # and 4 fit no (a, b) within eps; every row is solved, and the error
    # names row 2 with its own smallest feasible band
    net = _ws_network(seed=4)
    traj = ok.simulate_fj(net, np.random.default_rng(4).uniform(-1, 1, (8, 4)), steps=8)
    states = traj.states.copy()
    states[-1, [2, 4]] += [[0.1], [0.3]]
    problems, results = [], []

    def solve(rows):
        results.extend(numkit.solve_l1_rows(problems.append(row) or row for row in rows))
        return results

    monkeypatch.setattr(ok.identify, "solve_l1_rows", solve)
    with pytest.raises(ok.InfeasibleError) as error:
        ok.identify_finite_horizon(dataclasses.replace(traj, states=states), eps=1e-3)
    assert [i for i, result in enumerate(results) if not result.ok] == [2, 4]
    assert results[4].status == "infeasible"
    bands = [numkit.minimal_band(problems[i]) for i in (2, 4)]
    assert f"{bands[0]:.6g}" != f"{bands[1]:.6g}"
    assert str(error.value) == (
        f"row 2: no (a, b) fits within eps=0.001; smallest feasible band is {bands[0]:.6g}"
    )


@pytest.mark.parametrize("statuses", [("numerical", "infeasible"), ("iteration_limit", "numerical")])
def test_the_first_failing_row_in_order_names_a_numerical_error(monkeypatch, statuses):
    # Rows 2 and 4 fail; row 2's status names the error, whatever row 4's is
    net = _ws_network()
    x0 = np.random.default_rng(6).uniform(-1, 1, (8, 8))
    x_inf, _ = ok.fj_equilibrium(net, x0)

    def solve(problems):
        results = numkit.solve_l1_rows(problems)
        for row, status in zip((2, 4), statuses):
            results[row] = dataclasses.replace(results[row], status=status)
        return results

    monkeypatch.setattr(ok.identify, "solve_l1_rows", solve)
    with pytest.raises(ok.NumericalError, match=f"^row 2: l1 solve ended with {statuses[0]}$"):
        ok.identify_infinite_horizon(x0, x_inf, net.lam)


def test_equilibrium_rows_the_certificate_cannot_decide_reach_the_lp_unchanged():
    # lambda = 1/2 makes psi_j = 2 x_j(inf) - x_j(0). Agents 0 and 1 share
    # their equilibrium opinions (duplicate columns), so every row splits
    # its weight on them freely: all three rows are tied. With x(inf) = I,
    # row 0's only solution psi = (-0.5, 1.5) has a negative weight, and
    # row 1's, psi = (0.5, 0.5), is unique with an empty kernel.
    lam = np.full(3, 0.5)
    x_inf = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    psi = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
    report = ok.identify_infinite_horizon(2.0 * x_inf - psi, x_inf, lam)
    assert report.solver_log["tied_rows"] == (0, 1, 2)
    for j in range(3):
        lp = ok.solve_l1(ok.L1Problem(phi=x_inf.T, psi=psi[j], sum_to=1.0))
        assert np.array_equal(report.w_hat[j], lp.x)

    x_inf, psi = np.eye(2), np.array([[-0.5, 1.5], [0.5, 0.5]])
    x0 = 2.0 * x_inf - psi
    report = ok.identify_infinite_horizon(x0, x_inf, lam[:2])
    assert report.solver_log["nnls_rows"] == (1,) and report.solver_log["tied_rows"] == ()
    signed = ok.solve_l1(ok.L1Problem(phi=x_inf.T, psi=psi[0], sum_to=1.0))
    assert np.array_equal(report.w_hat[0], signed.x)
    assert np.allclose(report.w_hat[0], [-0.5, 1.5], atol=1e-15)
    assert np.allclose(report.w_hat[1], [0.5, 0.5], atol=1e-15)
    with pytest.raises(ok.InfeasibleError, match="^row 0: "):
        ok.identify_infinite_horizon(x0, x_inf, lam[:2], nonneg=True)


# ---- unknown susceptibilities ----------------------------------------------


def test_unknown_lambda_recovers_the_zero_diagonal_representative():
    net = _ws_network()
    assert np.all(np.diag(net.w) == 0.0)
    rng = np.random.default_rng(6)
    x0 = rng.uniform(-1, 1, (8, 8))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    report = ok.identify_unknown_lambda(x0, x_inf)
    assert np.max(np.abs(report.w_hat - net.w)) < 1e-8
    assert np.max(np.abs(report.lambda_hat - net.lam)) < 1e-8
    assert np.max(np.abs(np.diag(report.w_hat))) == 0.0


def test_unknown_lambda_matches_any_equivalent_representation():
    # self-loops in the generator collapse onto the canonical representative
    net = _ws_network(seed=31)
    d = np.full(8, 0.85)
    lam_alt, w_alt = ok.ambiguity_transform(net.lam, net.w, d)
    alt = ok.InfluenceNetwork(w=w_alt, lam=lam_alt)
    rng = np.random.default_rng(15)
    x0 = rng.uniform(-1, 1, (8, 8))
    x_inf, _ = ok.fj_equilibrium(alt, x0)
    report = ok.identify_unknown_lambda(x0, x_inf)
    assert np.max(np.abs(report.w_hat - net.w)) < 1e-7
    assert np.max(np.abs(report.lambda_hat - net.lam)) < 1e-7


@pytest.mark.parametrize("nonneg", [False, True])
def test_unknown_lambda_matches_the_row_box_oracle(nonneg):
    # the oracle states the box bounds as inequality rows, the kernel as
    # variable bounds; the programs differ in shape, not in optimum
    net = _ws_network(seed=31)
    rng = np.random.default_rng(15)
    x0 = rng.uniform(-1, 1, (8, 8))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    report = ok.identify_unknown_lambda(x0, x_inf, nonneg=nonneg)
    w_hat, mu = reference_unknown_lambda(x0, x_inf, nonneg)
    assert np.max(np.abs(report.w_hat - w_hat)) < 1e-12
    assert np.max(np.abs(report.lambda_hat - 1.0 / mu)) < 1e-12


def test_unknown_lambda_rejects_equilibrium_only_consensus():
    net = _ws_network(seed=6)
    x0 = np.outer(np.ones(8), np.arange(1, 9))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    with pytest.raises(ok.IdentifiabilityError):
        ok.identify_unknown_lambda(x0, x_inf)


# ---- ambiguity transform ---------------------------------------------------


def test_ambiguity_transform_preserves_the_equilibrium_map():
    rng = np.random.default_rng(16)
    net = stable_network(rng, 7)
    x0 = rng.uniform(-1, 1, (7, 5))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    d = rng.uniform(0.5, 1.0, 7)
    lam2, w2 = ok.ambiguity_transform(net.lam, net.w, d)
    x_inf2, _ = ok.fj_equilibrium(ok.InfluenceNetwork(w=w2, lam=lam2), x0)
    assert np.max(np.abs(x_inf2 - x_inf)) < 1e-10
    assert np.allclose(w2.sum(axis=1), 1.0, atol=1e-9)


def test_ambiguity_transform_identity_direction():
    rng = np.random.default_rng(17)
    net = stable_network(rng, 5)
    lam2, w2 = ok.ambiguity_transform(net.lam, net.w, np.ones(5))
    assert np.allclose(lam2, net.lam, atol=1e-12)
    assert np.allclose(w2, net.w, atol=1e-12)


def test_ambiguity_transform_validates_the_dial():
    rng = np.random.default_rng(18)
    net = stable_network(rng, 4)
    with pytest.raises(ok.ParameterError):
        ok.ambiguity_transform(net.lam, net.w, np.full(4, 1.2))
    with pytest.raises(ok.ParameterError, match="^d entries"):
        ok.ambiguity_transform(net.lam, net.w, np.array([1.0, np.nan, 1.0, 1.0]))
    with pytest.raises(ok.StructuralError):
        ok.ambiguity_transform(net.lam, net.w, np.ones(3))


def test_ambiguity_transform_flags_lost_stability():
    # d = 0 turns every agent fully stubborn while keeping couplings
    net = ok.InfluenceNetwork(
        w=np.array([[0.0, 1.0], [1.0, 0.0]]), lam=np.array([0.5, 0.5])
    )
    with pytest.raises(ok.TransformError):
        ok.ambiguity_transform(net.lam, net.w, np.zeros(2))


# ---- moment estimation -----------------------------------------------------


def _gossip_setup(seed=5, n=6, lam=0.85):
    cfg = ok.GeneratorConfig(
        model="watts_strogatz", n=n, k=2, beta_rw=0.0, lambda_range=(lam, lam)
    )
    net = ok.generate_network(cfg, seed=seed)
    x0 = np.random.default_rng(0).uniform(-1, 1, n)
    return net, x0


def test_estimate_state_mean_full_observation():
    net, x0 = _gossip_setup()
    traj = ok.simulate_gossip_fj(net, x0, steps=50_000, activation_size=6, seed=1)
    stream = ok.sample_observations(traj, ok.SamplingModel(kind="full"))
    _, _, x_mean = ok.expected_gossip_dynamics(net, beta=1.0, x0=x0)
    assert np.max(np.abs(ok.estimate_state_mean(stream) - x_mean)) < 0.05


def test_estimate_state_mean_corrects_for_the_sampling_rate():
    net, x0 = _gossip_setup()
    traj = ok.simulate_gossip_fj(net, x0, steps=50_000, activation_size=6, seed=2)
    full = ok.sample_observations(traj, ok.SamplingModel(kind="full"))
    thinned = ok.sample_observations(
        traj, ok.SamplingModel(kind="independent", rho=0.5), seed=3
    )
    a = ok.estimate_state_mean(full)
    b = ok.estimate_state_mean(thinned)
    assert np.max(np.abs(a - b)) < 0.05


def test_estimate_state_mean_rejects_empty_streams():
    stream = ok.ObservationStream(
        values=np.zeros((0, 3)),
        mask=np.zeros((0, 3), dtype=bool),
        model=ok.SamplingModel(kind="full"),
    )
    with pytest.raises(ok.EstimationError):
        ok.estimate_state_mean(stream)


def test_estimate_state_mean_names_unobservable_agents():
    net, x0 = _gossip_setup()
    traj = ok.simulate_gossip_fj(net, x0, steps=100, activation_size=6, seed=4)
    model = ok.SamplingModel(kind="independent", rho=np.array([0.0, 0.5, 0.5, 0.5, 0.5, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stream = ok.sample_observations(traj, model, seed=5)
    with pytest.raises(ok.IdentifiabilityError, match="0"):
        ok.estimate_state_mean(stream)


def test_estimate_cross_correlations_validates_arguments():
    net, x0 = _gossip_setup()
    traj = ok.simulate_gossip_fj(net, x0, steps=100, activation_size=6, seed=6)
    stream = ok.sample_observations(traj, ok.SamplingModel(kind="full"))
    with pytest.raises(ok.ParameterError):
        ok.estimate_cross_correlations(stream, max_lag=3, n_sigma=4)
    with pytest.raises(ok.ParameterError):
        ok.estimate_cross_correlations(stream, max_lag=2, n_sigma=0)
    short = ok.sample_observations(
        ok.simulate_gossip_fj(net, x0, steps=4, activation_size=6, seed=7),
        ok.SamplingModel(kind="full"),
    )
    with pytest.raises(ok.EstimationError):
        ok.estimate_cross_correlations(short, max_lag=5)


def test_cross_correlations_converge_to_the_recursion_fixed_point():
    net, x0 = _gossip_setup()
    gamma_bar, b_bar, x_mean = ok.expected_gossip_dynamics(net, beta=1.0, x0=x0)
    traj = ok.simulate_gossip_fj(net, x0, steps=200_000, activation_size=6, seed=8)
    stream = ok.sample_observations(traj, ok.SamplingModel(kind="full"))
    moments = ok.estimate_cross_correlations(stream, max_lag=5)
    # the stationary moments satisfy Sigma[l + 1] = Sigma[l] Gamma' + x b'
    drift = np.outer(x_mean, b_bar)
    for lag in range(5):
        predicted = moments.sigma[lag] @ gamma_bar.T + drift
        assert np.max(np.abs(predicted - moments.sigma[lag + 1])) < 0.01
    assert np.max(np.abs(moments.x_hat - x_mean)) < 0.02


def test_moment_stacks_average_consecutive_lags():
    net, x0 = _gossip_setup()
    traj = ok.simulate_gossip_fj(net, x0, steps=5_000, activation_size=6, seed=9)
    stream = ok.sample_observations(traj, ok.SamplingModel(kind="full"))
    moments = ok.estimate_cross_correlations(stream, max_lag=5)
    assert np.allclose(moments.sigma_minus, moments.sigma[:5].mean(axis=0), atol=1e-12)
    assert np.allclose(moments.sigma_plus, moments.sigma[1:6].mean(axis=0), atol=1e-12)


def test_moment_mean_is_the_bias_corrected_state_mean():
    net, x0 = _gossip_setup()
    traj = ok.simulate_gossip_fj(net, x0, steps=2_000, activation_size=6, seed=9)
    model = ok.SamplingModel(kind="independent", rho=0.6)
    stream = ok.sample_observations(traj, model, seed=3)
    moments = ok.estimate_cross_correlations(stream, max_lag=5)
    assert np.array_equal(moments.x_hat, stream.values.mean(axis=0) / 0.6)


# ---- dynamics matrix and topology recovery ---------------------------------


def _exact_moments(net, beta, x0, n_lags=5):
    gamma_bar, b_bar, x_mean = ok.expected_gossip_dynamics(net, beta=beta, x0=x0)
    sigma0 = np.outer(x_mean, x_mean) + 0.05 * np.eye(net.n)
    stack = ok.cross_correlation_recursion(gamma_bar, b_bar, x_mean, sigma0, n_lags)
    moments = ok.MomentEstimates(
        x_hat=x_mean,
        sigma=stack,
        sigma_minus=stack[:n_lags].mean(axis=0),
        sigma_plus=stack[1 : n_lags + 1].mean(axis=0),
        n_sigma=n_lags,
        horizon=0,
    )
    return moments, gamma_bar, b_bar


def test_estimate_gamma_dense_is_exact_on_exact_moments():
    net = _ws_network(seed=7, n=10)
    x0 = np.random.default_rng(1).uniform(-1, 1, 10)
    moments, gamma_bar, b_bar = _exact_moments(net, beta=0.5, x0=x0)
    gamma_hat, info = ok.estimate_gamma(moments, b_bar, mode="dense")
    assert np.max(np.abs(gamma_hat - gamma_bar)) < 1e-12
    assert info["mode"] == "dense"


def test_estimate_gamma_sparse_matches_dense_on_exact_moments():
    net = _ws_network(seed=7, n=10)
    x0 = np.random.default_rng(1).uniform(-1, 1, 10)
    moments, gamma_bar, b_bar = _exact_moments(net, beta=0.5, x0=x0)
    gamma_sparse, info = ok.estimate_gamma(moments, b_bar, mode="sparse", eta=0.0)
    assert np.max(np.abs(gamma_sparse - gamma_bar)) < 1e-10
    assert info["mode"] == "sparse"


def test_estimate_gamma_sparse_band_tolerates_perturbations():
    net = _ws_network(seed=7, n=10)
    x0 = np.random.default_rng(1).uniform(-1, 1, 10)
    moments, gamma_bar, b_bar = _exact_moments(net, beta=0.5, x0=x0)
    bumped = ok.MomentEstimates(
        x_hat=moments.x_hat,
        sigma=moments.sigma,
        sigma_minus=moments.sigma_minus,
        sigma_plus=moments.sigma_plus + 1e-6,
        n_sigma=moments.n_sigma,
        horizon=moments.horizon,
    )
    gamma_tight, _ = ok.estimate_gamma(bumped, b_bar, mode="sparse", eta=1e-4)
    assert np.max(np.abs(gamma_tight - gamma_bar)) < 0.01
    # a generous band trades accuracy for sparsity and prunes weak entries
    gamma_loose, _ = ok.estimate_gamma(bumped, b_bar, mode="sparse", eta=1e-2)
    assert np.count_nonzero(gamma_loose) < np.count_nonzero(gamma_bar)


@pytest.mark.parametrize("eta", [1e-4, 1e-2])
def test_estimate_gamma_sparse_band_matches_the_direct_linprog_oracle(eta):
    net = _ws_network(seed=7, n=10)
    x0 = np.random.default_rng(1).uniform(-1, 1, 10)
    moments, _, b_bar = _exact_moments(net, beta=0.5, x0=x0)
    bumped = ok.MomentEstimates(
        x_hat=moments.x_hat,
        sigma=moments.sigma,
        sigma_minus=moments.sigma_minus,
        sigma_plus=moments.sigma_plus + 1e-6,
        n_sigma=moments.n_sigma,
        horizon=moments.horizon,
    )
    gamma_hat, _ = ok.estimate_gamma(bumped, b_bar, mode="sparse", eta=eta)
    assert np.array_equal(gamma_hat, reference_sparse_gamma(bumped, b_bar, eta))


def test_estimate_gamma_rejects_a_negative_band():
    net = _ws_network(seed=7, n=10)
    x0 = np.random.default_rng(1).uniform(-1, 1, 10)
    moments, _, b_bar = _exact_moments(net, beta=0.5, x0=x0)
    for mode in ("dense", "sparse"):
        with pytest.raises(ok.ParameterError, match="eta"):
            ok.estimate_gamma(moments, b_bar, mode=mode, eta=-1e-3)


@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_estimate_gamma_rejects_a_nan_band(mode):
    # dense mode accepted eta=nan silently; sparse mode named the LP's band
    net = _ws_network(seed=7, n=10)
    x0 = np.random.default_rng(1).uniform(-1, 1, 10)
    moments, _, b_bar = _exact_moments(net, beta=0.5, x0=x0)
    with pytest.raises(ok.ParameterError, match="eta must be >= 0, got nan"):
        ok.estimate_gamma(moments, b_bar, mode=mode, eta=float("nan"))


def test_estimate_gamma_flags_an_infeasible_band_on_rank_deficient_moments():
    # equal rows of sigma_minus cannot reach a target column (0, 1) closer
    # than 0.5 in max-norm
    sigma_minus = np.ones((2, 2))
    moments = ok.MomentEstimates(
        x_hat=np.zeros(2),
        sigma=np.zeros((2, 2, 2)),
        sigma_minus=sigma_minus,
        sigma_plus=np.array([[0.0, 0.0], [1.0, 0.0]]),
        n_sigma=1,
        horizon=0,
    )
    with pytest.raises(ok.InfeasibleError, match="column 0"):
        ok.estimate_gamma(moments, np.zeros(2), mode="sparse", eta=0.1)


def test_estimate_gamma_names_the_column_a_solve_fails_on(monkeypatch):
    net = _ws_network(seed=7, n=10)
    moments, _, b_bar = _exact_moments(net, 0.5, np.ones(10))
    stalled = ok.SolveResult(
        x=np.zeros(10), objective=np.nan, residual=np.nan, status="iteration_limit"
    )
    monkeypatch.setattr(ok.identify, "solve_l1_rows", lambda problems: [stalled for _ in problems])
    with pytest.raises(
        ok.NumericalError, match="^column 0: l1 solve ended with iteration_limit$"
    ):
        ok.estimate_gamma(moments, b_bar, mode="sparse", eta=1e-3)


def test_lp_estimators_share_one_solver_log_schema():
    lp_keys = {"objectives", "iterations", "lexicographic_rows", "nnls_rows", "tied_rows",
               "moment_rows", "highs_rows"}
    net = _ws_network()
    rng = np.random.default_rng(6)
    x0 = rng.uniform(-1, 1, (8, 8))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    traj = ok.simulate_fj(net, x0, steps=6)
    moments, _, b_bar = _exact_moments(_ws_network(seed=7, n=10), 0.5, np.ones(10))
    logs = [
        ok.identify_infinite_horizon(x0, x_inf, net.lam).solver_log,
        ok.identify_unknown_lambda(x0, x_inf).solver_log,
        ok.identify_finite_horizon(traj).solver_log,
        ok.estimate_gamma(moments, b_bar, mode="sparse", eta=1e-3)[1],
    ]
    # Every row of the equilibrium fixture has a nonnegative optimum, and
    # every finite-horizon row a nonnegative feasible set, so the certificate
    # sorts each into nnls_rows (no LP) or tied_rows (the least-moment rule or
    # the LP); the band programs of estimate_gamma send every column to the LP.
    for log, rows, sorted_rows in zip(logs, (8, 8, 8, 10), (8, 8, 8, 0)):
        assert lp_keys <= set(log)
        assert len(log["objectives"]) == rows
        assert isinstance(log["iterations"], int)
        lp_rows = rows - len(log["nnls_rows"])
        assert (log["iterations"] > 0) == (lp_rows > 0)
        assert len(log["nnls_rows"]) + len(log["tied_rows"]) == sorted_rows
        assert not set(log["nnls_rows"]) & set(log["tied_rows"])
        assert set(log["moment_rows"]) <= set(log["tied_rows"])
        # every row is decided by its certified face, its least moment or HiGHS
        decided = log["nnls_rows"] + log["moment_rows"] + log["highs_rows"]
        assert sorted(decided) == list(range(rows))


def test_estimate_gamma_rejects_unknown_mode():
    net = _ws_network(seed=7, n=10)
    x0 = np.random.default_rng(1).uniform(-1, 1, 10)
    moments, _, b_bar = _exact_moments(net, beta=0.5, x0=x0)
    with pytest.raises(ok.ParameterError):
        ok.estimate_gamma(moments, b_bar, mode="ridge")


def test_recover_topology_two_agent_hand_instance():
    gamma_bar = np.array([[0.5, 0.25], [0.25, 0.5]])
    report = ok.recover_topology_and_w(gamma_bar, np.array([0.5, 0.5]), beta=0.5)
    assert np.allclose(report.w_hat, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert set(report.support) == {(0, 1), (1, 0)}


def test_recover_topology_round_trip_on_exact_moments():
    net = _ws_network(seed=7, n=10)
    x0 = np.random.default_rng(1).uniform(-1, 1, 10)
    moments, _, b_bar = _exact_moments(net, beta=0.5, x0=x0)
    gamma_hat, _ = ok.estimate_gamma(moments, b_bar, mode="dense")
    off = np.abs(gamma_hat[~np.eye(10, dtype=bool)])
    threshold = 0.5 * off[off > 1e-9].min()
    report = ok.recover_topology_and_w(gamma_hat, net.lam, beta=0.5, threshold=threshold)
    assert np.max(np.abs(report.w_hat - net.w)) < 1e-9
    assert set(report.support) == net.edge_set() - {(i, i) for i in range(10)}


def test_recover_topology_flags_rows_without_edges():
    gamma = np.array([[0.9, 0.001], [0.001, 0.9]])
    with pytest.raises(ok.StructuralError):
        ok.recover_topology_and_w(gamma, np.array([0.5, 0.5]), beta=0.5, threshold=0.5)


def test_recover_topology_logs_clipping_metrics():
    net = _ws_network(seed=7, n=10)
    x0 = np.random.default_rng(1).uniform(-1, 1, 10)
    moments, _, b_bar = _exact_moments(net, beta=0.5, x0=x0)
    gamma_hat, _ = ok.estimate_gamma(moments, b_bar, mode="dense")
    report = ok.recover_topology_and_w(
        gamma_hat + 1e-3, net.lam, beta=0.5, threshold=1e-4
    )
    for key in ("threshold", "clipped_negative_mass", "max_row_renormalization"):
        assert key in report.metrics


# ---- Bayesian covariance ----------------------------------------------------


def test_bayesian_covariance_hand_blend_weight():
    rng = np.random.default_rng(20)
    samples = [rng.normal(size=(4, 10))]
    psi = np.eye(4) * 7.0
    nu = 8.0
    shrunk = ok.bayesian_covariance(samples, psi, nu)
    # blend weight (nu - n - 1) / (nu + T - n - 1) = 3 / 13
    assert shrunk.gammas[0] == pytest.approx(3 / 13)
    scm = samples[0] @ samples[0].T / 10
    prior_mean = psi / (nu - 5)
    expected = 3 / 13 * prior_mean + 10 / 13 * scm
    assert np.allclose(shrunk.matrices[0], expected, atol=1e-12)


def test_bayesian_covariance_returns_the_prior_mean_without_data():
    psi = np.diag([2.0, 3.0, 4.0])
    nu = 9.0
    shrunk = ok.bayesian_covariance([np.zeros((3, 0))], psi, nu)
    assert np.allclose(shrunk.matrices[0], psi / (nu - 4), atol=1e-14)
    assert shrunk.gammas[0] == pytest.approx(1.0)


def test_bayesian_covariance_converges_to_the_sample_covariance():
    rng = np.random.default_rng(21)
    cov = np.diag([1.0, 2.0]) + 0.3
    chol = np.linalg.cholesky(cov)
    samples = [chol @ rng.normal(size=(2, 1_000_000))]
    shrunk = ok.bayesian_covariance(samples, np.eye(2), nu=6.0)
    scm = samples[0] @ samples[0].T / 1_000_000
    rel = np.linalg.norm(shrunk.matrices[0] - scm) / np.linalg.norm(scm)
    assert rel < 1e-4


def test_bayesian_covariance_validates_the_prior():
    with pytest.raises(ok.ParameterError):
        ok.bayesian_covariance([np.zeros((3, 2))], np.eye(3), nu=3.5)
    with pytest.raises(ok.ParameterError):
        ok.bayesian_covariance([np.zeros((2, 2))], -np.eye(2), nu=6.0)
    with pytest.raises(ok.StructuralError):
        ok.bayesian_covariance([np.zeros((2, 2))], np.eye(3), nu=8.0)


@pytest.mark.parametrize("nu", [float("nan"), float("inf")])
def test_bayesian_covariance_rejects_a_non_finite_nu(nu):
    # both used to return all-NaN matrices
    with pytest.raises(ok.ParameterError, match="nu must exceed n \\+ 1 = 3 and be finite"):
        ok.bayesian_covariance([np.ones((2, 4))], np.eye(2), nu=nu)


def test_fit_hyperparameters_recovers_a_synthetic_prior():
    nu_true, n = 12.0, 5
    psi_true = np.diag(np.linspace(1.0, 3.0, n))
    rng = np.random.default_rng(2)
    samples = []
    for _ in range(20):
        cov = invwishart.rvs(df=nu_true, scale=psi_true, random_state=rng)
        chol = np.linalg.cholesky(cov)
        samples.append(chol @ rng.normal(size=(n, 200)))
    fit = ok.fit_hyperparameters(samples)
    assert fit.converged
    rel = np.linalg.norm(fit.psi - psi_true) / np.linalg.norm(psi_true)
    assert rel < 0.15
    assert abs(fit.nu - nu_true) < 2.0


def test_fit_hyperparameters_flags_thin_evidence():
    rng = np.random.default_rng(3)
    fit = ok.fit_hyperparameters([rng.normal(size=(4, 30))])
    assert fit.confidence == "low"


# ---- multiplex estimation ---------------------------------------------------


def _multiplex_streams(seed, model_tag="common_support", n=12, steps=25_000):
    cfg = ok.MultiplexConfig(
        model_tag=model_tag,
        base=ok.GeneratorConfig(model="watts_strogatz", n=n, k=4, beta_rw=0.2),
        n_layers=3,
    )
    mx = ok.build_multiplex(cfg, seed=seed)
    lambdas = [np.full(n, 0.5) for _ in mx.layers]
    u = np.linspace(-0.5, 0.5, n)
    trajs = ok.simulate_multiplex_fj(
        mx, u, q_noise=0.05 * np.eye(n), steps=steps, seed=seed, lambdas=lambdas
    )
    model = ok.SamplingModel(kind="independent", rho=0.8)
    streams = [
        ok.sample_observations(traj, model, seed=100 + idx)
        for idx, traj in enumerate(trajs)
    ]
    return mx, lambdas, u, streams


def test_identify_multiplex_joint_support_is_the_intersection():
    mx, lambdas, u, streams = _multiplex_streams(seed=1)
    est = ok.identify_multiplex(streams, "common_support", lambdas, u)
    assert len(est.reports) == 3
    for report in est.reports:
        assert set(report.support) == set(est.joint_support)


def test_identify_multiplex_independent_layers_keep_their_own_support():
    mx, lambdas, u, streams = _multiplex_streams(seed=2, model_tag="independent")
    est = ok.identify_multiplex(streams, "independent", lambdas, u)
    assert est.joint_support is None
    supports = [report.support for report in est.reports]
    assert len({frozenset(s) for s in supports}) > 1


def test_identify_multiplex_rejects_unknown_model_tag():
    mx, lambdas, u, streams = _multiplex_streams(seed=3)
    with pytest.raises(ok.ParameterError):
        ok.identify_multiplex(streams, "correlated", lambdas, u)


def test_identify_multiplex_estimates_are_row_stochastic():
    mx, lambdas, u, streams = _multiplex_streams(seed=4)
    est = ok.identify_multiplex(streams, "common_support", lambdas, u)
    for report in est.reports:
        assert np.allclose(report.w_hat.sum(axis=1), 1.0, atol=1e-8)
        assert report.w_hat.min() >= -1e-12


@pytest.mark.parametrize("model_tag", ["common_support", "independent"])
@pytest.mark.parametrize(
    "options",
    [{}, {"shrink": False}, {"nu": 14.0}, {"psi": 2.0 * np.eye(8), "nu": 13.0}],
    ids=["default", "no_shrink", "nu", "psi_nu"],
)
def test_identify_multiplex_matches_the_unshared_oracle(model_tag, options):
    _, lambdas, u, streams = _multiplex_streams(5, model_tag, n=8, steps=6_000)
    est = ok.identify_multiplex(streams, model_tag, lambdas, u, **options)
    expected = reference_identify_multiplex(streams, model_tag, lambdas, u, **options)
    assert est.joint_support == expected.joint_support
    for report, oracle in zip(est.reports, expected.reports, strict=True):
        assert np.array_equal(report.w_hat, oracle.w_hat)
        assert report.support == oracle.support
        assert report.metrics == oracle.metrics
        assert report.solver_log == oracle.solver_log


def test_identify_multiplex_uses_a_prior_scale_given_without_nu():
    _, lambdas, u, streams = _multiplex_streams(6, n=8, steps=6_000)
    psi = 1e6 * np.eye(8)
    default = ok.identify_multiplex(streams, "common_support", lambdas, u)
    given = ok.identify_multiplex(streams, "common_support", lambdas, u, psi=psi)
    explicit = ok.identify_multiplex(streams, "common_support", lambdas, u, psi=psi, nu=11.0)
    for ours, plain, full in zip(given.reports, default.reports, explicit.reports):
        assert not np.array_equal(ours.gamma_hat, plain.gamma_hat)
        assert np.array_equal(ours.gamma_hat, full.gamma_hat)
        assert np.array_equal(ours.w_hat, full.w_hat)


@pytest.mark.parametrize(
    "prior, match",
    [
        ({"nu": 9.0}, "nu must exceed"),
        ({"psi": np.eye(8), "nu": 9.0}, "nu must exceed"),
        ({"psi": -np.eye(8)}, "positive definite"),
        ({"psi": -np.eye(8), "nu": 11.0}, "positive definite"),
        ({"nu": float("nan")}, "nu must exceed"),
        ({"nu": float("inf")}, "nu must exceed"),
        ({"psi": np.eye(8), "nu": float("nan")}, "nu must exceed"),
    ],
)
def test_identify_multiplex_validates_a_given_prior(prior, match):
    _, lambdas, u, streams = _multiplex_streams(6, n=8, steps=2_000)
    with pytest.raises(ok.ParameterError, match=match):
        ok.identify_multiplex(streams, "common_support", lambdas, u, **prior)


# ---- evaluation and report files ---------------------------------------------


def test_evaluate_estimate_hand_counts():
    w_true = np.array([[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    w_hat = np.array([[0.0, 0.7, 0.0], [0.5, 0.0, 0.5], [0.3, 0.7, 0.0]])
    metrics = ok.evaluate_estimate(w_true, w_hat)
    # true edges {01, 02, 10, 12, 21}; predicted {01, 10, 12, 20, 21}
    assert metrics.precision == pytest.approx(4 / 5)
    assert metrics.recall == pytest.approx(4 / 5)
    assert metrics.f1 == pytest.approx(4 / 5)
    assert metrics.max_abs_error == pytest.approx(0.4)


def test_evaluate_estimate_accepts_reports_and_perfect_recovery():
    rng = np.random.default_rng(22)
    net = sparse_row_network(rng, 10, row_nnz=3, lam=np.full(10, 0.4))
    x0 = rng.uniform(-1, 1, (10, 10))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    report = ok.identify_infinite_horizon(x0, x_inf, net.lam)
    metrics = ok.evaluate_estimate(net.w, report)
    assert metrics.f1 == 1.0
    assert metrics.frobenius_error < 1e-7


def test_evaluate_estimate_empty_sets():
    metrics = ok.evaluate_estimate(np.eye(2), np.eye(2))
    # no off-diagonal edges on either side
    assert metrics.f1 == 1.0
    assert metrics.precision == 1.0


def test_report_file_round_trip(tmp_path):
    net = _ws_network(seed=11)
    rng = np.random.default_rng(23)
    x0 = rng.uniform(-1, 1, (8, 8))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    report = ok.identify_infinite_horizon(x0, x_inf, net.lam)
    path = tmp_path / "report.json"
    ok.save_report(report, path)
    loaded = ok.load_report(path)
    assert np.allclose(loaded.w_hat, report.w_hat, atol=1e-15)
    assert np.allclose(loaded.lambda_hat, report.lambda_hat, atol=1e-15)
    assert set(loaded.support) == set(report.support)
    assert loaded.metrics == pytest.approx(report.metrics)


def test_report_file_rejects_unknown_keys(tmp_path):
    net = _ws_network(seed=11)
    rng = np.random.default_rng(24)
    x0 = rng.uniform(-1, 1, (8, 8))
    x_inf, _ = ok.fj_equilibrium(net, x0)
    report = ok.identify_infinite_horizon(x0, x_inf, net.lam)
    path = tmp_path / "report.json"
    ok.save_report(report, path)
    doc = json.loads(path.read_text())
    doc["extra"] = 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ok.ConfigError):
        ok.load_report(path)
