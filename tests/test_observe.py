"""Unit tests for the observation layer."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import opinionkit as ok
from helpers import stable_network
from opinionkit.numkit import DRAW_BLOCK, philox_stream

# Rows of a stream that spans two whole draw blocks and a partial third.
BLOCKED_ROWS = 2 * DRAW_BLOCK + 17


def _trajectory(seed=0, n=6, steps=200, issues=1):
    rng = np.random.default_rng(seed)
    net = stable_network(rng, n)
    return ok.simulate_fj(net, rng.uniform(-1, 1, (n, issues)), steps=steps)


def test_sampling_model_validates_kind_and_rate():
    with pytest.raises(ok.ParameterError):
        ok.SamplingModel(kind="poisson", rho=0.5)
    with pytest.raises(ok.ParameterError):
        ok.SamplingModel(kind="independent", rho=1.5)
    with pytest.raises(ok.ParameterError):
        ok.SamplingModel(kind="independent", rho=-0.1)


@pytest.mark.parametrize("kind, rho", [
    ("independent", np.nan),
    ("independent", np.array([0.2, np.nan, 0.8])),
    ("intermittent", np.nan),
], ids=["independent-scalar", "independent-entry", "intermittent"])
def test_sampling_model_rejects_a_nan_rate(kind, rho):
    with pytest.raises(ok.ParameterError, match="rho entries"):
        ok.SamplingModel(kind=kind, rho=rho)


def test_rho_vector_broadcasts_scalars_and_checks_length():
    model = ok.SamplingModel(kind="independent", rho=0.5)
    assert np.allclose(model.rho_vector(4), 0.5)
    vector = ok.SamplingModel(kind="independent", rho=np.array([0.2, 0.8]))
    assert np.allclose(vector.rho_vector(2), [0.2, 0.8])
    with pytest.raises(ok.StructuralError):
        vector.rho_vector(3)


def test_full_model_reproduces_the_trajectory():
    traj = _trajectory()
    stream = ok.sample_observations(traj, ok.SamplingModel(kind="full"), seed=0)
    assert stream.mask.all()
    assert np.array_equal(stream.values, traj.states[:, :, 0])


def test_independent_sampling_rate_and_zero_fill():
    traj = _trajectory(steps=4000)
    model = ok.SamplingModel(kind="independent", rho=0.3)
    stream = ok.sample_observations(traj, model, seed=1)
    rate = stream.mask.mean()
    assert abs(rate - 0.3) < 0.02
    assert np.all(stream.values[~stream.mask] == 0.0)
    observed = stream.mask & (np.abs(traj.states[:, :, 0]) > 0)
    assert np.array_equal(
        stream.values[observed], traj.states[:, :, 0][observed]
    )


@pytest.mark.parametrize("rho", [0.3, np.linspace(0.05, 0.95, 7)])
def test_independent_masks_are_one_row_major_uniform_draw(rho):
    states = np.random.default_rng(1).uniform(-1, 1, (BLOCKED_ROWS, 7))
    traj = ok.OpinionTrajectory(states=states, model=ok.ModelDescriptor("test"))
    stream = ok.sample_observations(traj, ok.SamplingModel("independent", rho), seed=12)
    expected = philox_stream(12).random((BLOCKED_ROWS, 7)) < rho
    assert np.array_equal(stream.mask, expected)
    assert np.array_equal(stream.values, np.where(expected, states, 0.0))


def test_independent_sampling_holds_only_its_outputs_and_two_draw_blocks():
    # one (steps, n) float64 draw for the mask peaked at 65.6 MiB here,
    # against 34.3 MiB of values and mask
    steps, n = 20_001, 200
    traj = ok.OpinionTrajectory(states=np.ones((steps, n)), model=ok.ModelDescriptor("test"))
    model = ok.SamplingModel("independent", 0.1)
    tracemalloc.start()
    try:
        stream = ok.sample_observations(traj, model, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = stream.values.nbytes + stream.mask.nbytes
    assert peak <= outputs + 2 * DRAW_BLOCK * n * 8


def test_intermittent_sampling_is_all_or_none_per_step():
    traj = _trajectory(steps=2000)
    model = ok.SamplingModel(kind="intermittent", rho=0.4)
    stream = ok.sample_observations(traj, model, seed=2)
    per_step = stream.mask.sum(axis=1)
    assert set(per_step.tolist()) <= {0, stream.mask.shape[1]}
    assert abs((per_step > 0).mean() - 0.4) < 0.05


def test_sampling_is_reproducible_by_seed():
    traj = _trajectory()
    model = ok.SamplingModel(kind="independent", rho=0.5)
    a = ok.sample_observations(traj, model, seed=3)
    b = ok.sample_observations(traj, model, seed=3)
    c = ok.sample_observations(traj, model, seed=4)
    assert np.array_equal(a.mask, b.mask)
    assert not np.array_equal(a.mask, c.mask)


def test_sample_observations_selects_the_requested_issue():
    traj = _trajectory(issues=3)
    stream = ok.sample_observations(traj, ok.SamplingModel(kind="full"), issue=2)
    assert stream.issue == 2
    assert np.array_equal(stream.values, traj.states[:, :, 2])
    with pytest.raises(ok.ParameterError):
        ok.sample_observations(traj, ok.SamplingModel(kind="full"), issue=3)


def test_observation_moments_independent_hand_values():
    model = ok.SamplingModel(kind="independent", rho=0.5)
    moments = ok.observation_moments(model, n=3, max_lag=2)
    assert np.allclose(moments.pi, 0.5)
    assert moments.cap_pi[0][0, 0] == pytest.approx(0.5)
    assert moments.cap_pi[0][0, 1] == pytest.approx(0.25)
    assert np.allclose(moments.cap_pi[1], 0.25)
    assert np.allclose(moments.cap_pi[2], 0.25)


def test_observation_moments_heterogeneous_rates():
    rho = np.array([0.2, 0.9])
    model = ok.SamplingModel(kind="independent", rho=rho)
    moments = ok.observation_moments(model, n=2, max_lag=1)
    assert moments.cap_pi[0][0, 1] == pytest.approx(0.18)
    assert moments.cap_pi[0][1, 1] == pytest.approx(0.9)
    assert moments.cap_pi[1][0, 0] == pytest.approx(0.04)


def test_observation_moments_intermittent_hand_values():
    model = ok.SamplingModel(kind="intermittent", rho=0.5)
    moments = ok.observation_moments(model, n=3, max_lag=1)
    assert np.allclose(moments.cap_pi[0], 0.5)
    assert np.allclose(moments.cap_pi[1], 0.25)


def test_observation_moments_warn_on_unobserved_agents():
    model = ok.SamplingModel(kind="independent", rho=np.array([0.0, 0.5]))
    with pytest.warns(UserWarning):
        ok.observation_moments(model, n=2, max_lag=1)


def test_empirical_mask_moments_match_the_formulas():
    traj = _trajectory(steps=30_000, n=4)
    model = ok.SamplingModel(kind="independent", rho=0.6)
    stream = ok.sample_observations(traj, model, seed=5)
    moments = ok.observation_moments(model, n=4, max_lag=1)
    p = stream.mask.astype(float)
    lag0 = p.T @ p / p.shape[0]
    assert np.allclose(lag0, moments.cap_pi[0], atol=0.02)
    lag1 = p[:-1].T @ p[1:] / (p.shape[0] - 1)
    assert np.allclose(lag1, moments.cap_pi[1], atol=0.02)


@pytest.mark.parametrize("row", [0, BLOCKED_ROWS - 1])
@pytest.mark.parametrize("stray", [-2.5, 5e-324, np.nan])
def test_stream_rejects_a_value_in_a_gap(row, stray):
    mask = np.ones((BLOCKED_ROWS, 3), dtype=bool)
    mask[row, 1] = False
    values = np.zeros(mask.shape)
    values[row, 1] = stray
    model = ok.SamplingModel("independent", 0.5)
    with pytest.raises(ok.StructuralError, match="unobserved entries"):
        ok.ObservationStream(values=values, mask=mask, model=model)


def test_stream_accepts_observed_zeros_and_zero_filled_gaps():
    mask = np.random.default_rng(2).random((BLOCKED_ROWS, 3)) < 0.5
    values = np.where(mask, np.arange(mask.size).reshape(mask.shape) % 3, 0.0)
    assert (values[mask] == 0.0).any() and (values[mask] != 0.0).any()
    stream = ok.ObservationStream(
        values=values, mask=mask, model=ok.SamplingModel("independent", 0.5)
    )
    assert np.array_equal(stream.values, values)
    assert np.array_equal(stream.mask, mask)


def test_stream_records_only_observed_entries():
    traj = _trajectory(steps=50)
    model = ok.SamplingModel(kind="independent", rho=0.5)
    stream = ok.sample_observations(traj, model, seed=6)
    records = list(stream.records())
    assert len(records) == int(stream.mask.sum())
    k, agent, value = records[0]
    assert stream.mask[k, agent]
    assert value == stream.values[k, agent]


def test_stream_file_round_trip(tmp_path):
    traj = _trajectory(steps=80)
    model = ok.SamplingModel(kind="independent", rho=0.7)
    stream = ok.sample_observations(traj, model, seed=7)
    path = tmp_path / "stream.csv"
    ok.save_stream(stream, path)
    assert (tmp_path / "stream.csv.meta.json").exists()
    loaded = ok.load_stream(path)
    assert np.array_equal(loaded.values, stream.values)
    assert np.array_equal(loaded.mask, stream.mask)
    assert loaded.model.kind == stream.model.kind
    assert loaded.issue == stream.issue
    assert loaded.seed == stream.seed


def test_load_stream_requires_the_sidecar(tmp_path):
    traj = _trajectory(steps=10)
    stream = ok.sample_observations(traj, ok.SamplingModel(kind="full"), seed=8)
    path = tmp_path / "stream.csv"
    ok.save_stream(stream, path)
    (tmp_path / "stream.csv.meta.json").unlink()
    with pytest.raises(ok.ConfigError):
        ok.load_stream(path)


def test_load_stream_rejects_unknown_sidecar_keys(tmp_path):
    traj = _trajectory(steps=10)
    stream = ok.sample_observations(traj, ok.SamplingModel(kind="full"), seed=9)
    path = tmp_path / "stream.csv"
    ok.save_stream(stream, path)
    sidecar = tmp_path / "stream.csv.meta.json"
    doc = json.loads(sidecar.read_text())
    doc["note"] = "stray"
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(ok.ConfigError):
        ok.load_stream(path)


@given(st.integers(0, 100))
def test_masks_never_mark_entries_outside_the_horizon(seed):
    traj = _trajectory(seed=seed % 7, steps=40)
    rho = 0.1 + 0.8 * ((seed * 37) % 10) / 10
    model = ok.SamplingModel(kind="independent", rho=rho)
    stream = ok.sample_observations(traj, model, seed=seed)
    assert stream.mask.shape == stream.values.shape == (41, 6)
    assert np.all(stream.values[~stream.mask] == 0.0)
