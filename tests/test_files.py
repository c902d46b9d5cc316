"""The file boundary: byte identity with the previous writers, bit-exact
round trips, and a ConfigError for every file that cannot be accepted."""

import json
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import opinionkit as ok
from helpers import (
    reference_load_trajectory,
    reference_save_stream,
    reference_save_trajectory,
)
from opinionkit import _files
from opinionkit._files import FAST_EXPONENTS, TABLE_CHUNK

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1e308, -1e308, 0.1]
VALUES = st.one_of(st.floats(allow_nan=False), st.sampled_from(SPECIAL))


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def _trajectory(states):
    return ok.OpinionTrajectory(states=states, model=ok.ModelDescriptor(kind="test"))


@given(
    states=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 3)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=VALUES)
    ),
    stride=st.integers(1, 4),
)
def test_trajectory_files_match_the_reference_writer_and_round_trip(
    tmp_path_factory, states, stride
):
    folder = tmp_path_factory.mktemp("traj")
    traj = _trajectory(states)
    ok.save_trajectory(traj, folder / "new.csv", stride=stride)
    reference_save_trajectory(traj, folder / "old.csv", stride=stride)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()
    steps, loaded = ok.load_trajectory(folder / "new.csv")
    assert np.array_equal(steps, np.arange(0, states.shape[0], stride))
    assert np.array_equal(_bits(loaded), _bits(states[::stride]))
    ref_steps, ref_loaded = reference_load_trajectory(folder / "new.csv")
    assert steps.dtype == ref_steps.dtype and np.array_equal(steps, ref_steps)
    assert np.array_equal(_bits(loaded), _bits(ref_loaded))


@given(
    frame=st.tuples(st.integers(1, 8), st.integers(1, 5)).flatmap(
        lambda shape: st.tuples(
            arrays(np.float64, shape, elements=VALUES), arrays(np.bool_, shape)
        )
    ),
    seed=st.one_of(st.none(), st.integers(0, 2**40)),
    rho=st.one_of(st.none(), st.floats(0.0, 1.0)),
)
def test_stream_files_match_the_reference_writer_and_round_trip(
    tmp_path_factory, frame, seed, rho
):
    folder = tmp_path_factory.mktemp("stream")
    values, mask = frame
    # the masked writer prints any value; a stream holds finite ones only
    assert _masked_text(values, mask) == _record_text(values, mask)
    values = np.where(np.isfinite(values), values, 0.25)
    model = ok.SamplingModel("full") if rho is None else ok.SamplingModel("independent", rho)
    stream = ok.ObservationStream(
        values=np.where(mask, values, 0.0), mask=mask, model=model, seed=seed, issue=2
    )
    ok.save_stream(stream, folder / "new.csv")
    reference_save_stream(stream, folder / "old.csv")
    for suffix in (".csv", ".csv.meta.json"):
        assert (folder / f"new{suffix}").read_bytes() == (folder / f"old{suffix}").read_bytes()
    loaded = ok.load_stream(folder / "new.csv")
    assert np.array_equal(_bits(loaded.values), _bits(stream.values))
    assert np.array_equal(loaded.mask, stream.mask)
    assert (loaded.seed, loaded.issue, loaded.model.kind) == (seed, 2, model.kind)


def _stream(values, mask):
    return ok.ObservationStream(
        values=np.where(mask, values, 0.0), mask=mask, model=ok.SamplingModel("full"),
        seed=None, issue=0,
    )


def _masked_text(values, mask):
    """The text of a stream's table, k,agent,value over the observed cells
    of the zero-filled frame, from the masked writer itself."""
    return "".join(_files.table_text("k,agent,value", np.where(mask, values, 0.0), mask=mask))


def _record_text(values, mask):
    """The same text, one "%.17g" record at a time."""
    rows, columns = np.nonzero(mask)
    return "k,agent,value\n" + "".join(
        f"{k},{agent},{values[k, agent]:.17g}\n" for k, agent in zip(rows, columns)
    )


def _same_as_the_reference_writers(folder, states, stride, stream):
    ok.save_trajectory(_trajectory(states), folder / "new.csv", stride=stride)
    reference_save_trajectory(_trajectory(states), folder / "old.csv", stride=stride)
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()
    ok.save_stream(stream, folder / "new.csv")
    reference_save_stream(stream, folder / "old.csv")
    assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()


def test_tables_spanning_many_chunks_match_the_reference_writers(tmp_path):
    rng = np.random.default_rng(3)
    # one slice holds more rows than a chunk
    states = rng.standard_normal((3, TABLE_CHUNK // 2 + 1, 3))
    states[1, 5:9, 0] = SPECIAL[:4]
    mask = rng.random((3 * TABLE_CHUNK, 2)) < 0.5
    mask[TABLE_CHUNK // 2 : 2 * TABLE_CHUNK] = False  # masked rows beyond a chunk
    _same_as_the_reference_writers(tmp_path, states, 2, _stream(rng.random(mask.shape), mask))
    nothing = np.zeros((TABLE_CHUNK + 3, 2), dtype=bool)
    ok.save_stream(_stream(rng.random(nothing.shape), nothing), tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "k,agent,value\n"


def test_masked_tables_are_written_in_chunk_sized_memory(tmp_path, monkeypatch):
    # a full-length mask list and a full copy of the observed values
    # peaked at 1.14 MB here
    monkeypatch.setattr(_files, "TABLE_CHUNK", 256)
    rng = np.random.default_rng(4)
    mask = rng.random((401, 200)) < 0.7
    stream = _stream(rng.standard_normal(mask.shape), mask)
    # numpy's first-use caches are filled by one small table before the trace
    ok.save_stream(_stream(stream.values[:2], stream.mask[:2]), tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        ok.save_stream(stream, tmp_path / "stream.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stream.values.nbytes / 8
    assert np.array_equal(ok.load_stream(tmp_path / "stream.csv").values, stream.values)


def _with_runs(rng, shape, fresh=0.3):
    """Normal draws where each cell below row 0 repeats the cell above it
    unless a fresh draw (probability fresh) starts a new value."""
    base = rng.standard_normal(shape)
    rows = np.arange(shape[0]).reshape(-1, *[1] * (len(shape) - 1))
    source = np.where(rng.random(shape) < fresh, rows, 0)
    source = np.maximum.accumulate(source, axis=0)
    return np.take_along_axis(base, source, axis=0)


def _repeat_share(states):
    bits = _bits(states)
    return np.mean(bits[1:] == bits[:-1])


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_every_chunk_boundary_matches_the_reference_writers(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(_files, "TABLE_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for shape in [(1, 1, 1), (4, 3, 2), (5, 2, 1), (2, 9, 1)]:
        mask = rng.random(shape[:2]) < 0.4
        mask[1:3] = False  # masks false over more rows than a chunk
        states = rng.standard_normal(shape)
        stream = _stream(states[:, :, 0], mask)
        _same_as_the_reference_writers(tmp_path, states, 1 + shape[0] % 3, stream)
    # runs down a column that cross chunk boundaries, in rows narrower and
    # wider than a chunk, under strides that keep and break them
    for shape in [(9, 1, 1), (12, 2, 1), (8, 3, 3), (10, 4, 2)]:
        states = _with_runs(rng, shape)
        mask = rng.random(shape[:2]) < 0.7
        stream = _stream(states[:, :, 0], mask)
        for stride in (1, 2):
            _same_as_the_reference_writers(tmp_path, states, stride, stream)
    values = rng.standard_normal(11)
    expected = "agent,value\n" + "".join(f"{a},{v:.17g}\n" for a, v in enumerate(values))
    assert "".join(_files.table_text("agent,value", values)) == expected
    for empty in (np.zeros((0, 4)), np.zeros((3, 0))):
        text = _files.table_text("k,agent,value", empty, mask=np.ones(empty.shape, dtype=bool))
        assert "".join(text) == "k,agent,value\n"


def test_a_converged_fj_trajectory_matches_the_reference_writer(tmp_path):
    config = ok.GeneratorConfig(
        model="watts_strogatz", n=40, k=4, beta_rw=0.2, lambda_range=(0.3, 0.8)
    )
    net = ok.generate_network(config, seed=1)
    x0 = np.random.default_rng(1).uniform(-1, 1, (40, 3))
    traj = ok.simulate_fj(net, x0, steps=200)
    assert traj.converged_at is not None and traj.converged_at < 150
    assert _repeat_share(traj.states[::3]) > 0.5
    for stride in (1, 3, 7):
        ok.save_trajectory(traj, tmp_path / "new.csv", stride=stride)
        reference_save_trajectory(traj, tmp_path / "old.csv", stride=stride)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_an_activation_one_gossip_trajectory_matches_the_reference_writers(tmp_path):
    config = ok.GeneratorConfig(
        model="watts_strogatz", n=30, k=4, beta_rw=0.2, lambda_range=(0.6, 0.9)
    )
    net = ok.generate_network(config, seed=2)
    x0 = np.random.default_rng(2).uniform(-1, 1, 30)
    traj = ok.simulate_gossip_fj(net, x0, steps=3000, activation_size=1, seed=2)
    assert _repeat_share(traj.states) > 0.9
    stream = ok.sample_observations(traj, ok.SamplingModel("independent", 0.7), seed=3)
    _same_as_the_reference_writers(tmp_path, traj.states, 1, stream)


def test_signed_zeros_and_nan_payloads_never_share_a_text(tmp_path, monkeypatch):
    quiet = np.array([0x7FF8000000000000, 0x7FF8000000000001]).view(np.float64)
    column = np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0])
    payloads = quiet[[0, 1, 1, 0, 0, 1, 0, 0]]
    states = np.stack([column, payloads, -column, -payloads], axis=1)[:, :, None]
    mask = np.ones(states.shape[:2], dtype=bool)
    for chunk in (1, 3, TABLE_CHUNK):
        monkeypatch.setattr(_files, "TABLE_CHUNK", chunk)
        ok.save_trajectory(_trajectory(states), tmp_path / "traj.csv")
        reference_save_trajectory(_trajectory(states), tmp_path / "old.csv")
        assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        # a stream holds finite values only; the masked writer still meets NaN
        assert _masked_text(states[:, :, 0], mask) == _record_text(states[:, :, 0], mask)
        steps, loaded = ok.load_trajectory(tmp_path / "traj.csv")
        assert np.array_equal(_bits(loaded[:, ::2]), _bits(states[:, ::2]))


def test_a_run_that_starts_in_an_unobserved_cell_matches_the_reference_writer(
    tmp_path, monkeypatch
):
    # column 0 holds 0.0 throughout, as a stream fills its unobserved
    # cells, and is observed from row 2 on; column 1 repeats a value that
    # the mask hides in rows 0 and 3
    values = np.zeros((7, 2))
    values[:, 1] = 0.25
    mask = np.ones((7, 2), dtype=bool)
    mask[:2, 0] = False
    mask[[0, 3], 1] = False
    for chunk in (1, 2, 5, TABLE_CHUNK):
        monkeypatch.setattr(_files, "TABLE_CHUNK", chunk)
        ok.save_stream(_stream(values, mask), tmp_path / "new.csv")
        reference_save_stream(_stream(values, mask), tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        expected = "k,agent,value\n" + "".join(
            f"{k},{a},{values[k, a]:.17g}\n" for k, a in zip(*np.nonzero(mask))
        )
        assert "".join(_files.table_text("k,agent,value", values, mask=mask)) == expected


@pytest.mark.parametrize("fresh", [0.2, 1.0])
def test_unmasked_tables_are_written_in_chunk_sized_memory(tmp_path, monkeypatch, fresh):
    monkeypatch.setattr(_files, "TABLE_CHUNK", 256)
    rng = np.random.default_rng(5)
    # the peak depends on TABLE_CHUNK and the row width, not on the rows
    # nor on how many cells repeat the cell above them
    traj = _trajectory(_with_runs(rng, (1601, 200, 1), fresh=fresh))
    # numpy's first-use caches are filled by one small table before the trace
    ok.save_trajectory(_trajectory(traj.states[:3]), tmp_path / "warm.csv", stride=2)
    tracemalloc.start()
    try:
        ok.save_trajectory(traj, tmp_path / "traj.csv", stride=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= traj.states[::2].nbytes / 8
    steps, loaded = ok.load_trajectory(tmp_path / "traj.csv")
    assert np.array_equal(_bits(loaded), _bits(traj.states[::2]))


def _decade_carries():
    """The exponents k in [-300, 300) whose nearest double lies below 10^k
    yet prints as 1e<k>: its 17-digit rounding carries into the decade."""
    return [
        k for k in range(-300, 300)
        if Fraction(float(f"1e{k}")) < Fraction(10) ** k
        and ("%.16e" % float(f"1e{k}")).startswith("1.0000000000000000e")
    ]


def _kernel_cases():
    """Values on every edge of the number kernel, both signs of each."""
    powers = np.array([float(f"1e{k}") for k in range(-FAST_EXPONENTS - 2, FAST_EXPONENTS + 3)])
    cases, up, down = [powers], powers, powers
    for _ in range(3):  # 1-3 ulps on either side of each power of ten
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        cases += [up, down]
    payloads = np.array(
        [0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8000000000000],
        dtype=np.uint64,
    ).view(np.float64)
    cases.append(payloads)
    cases.append(np.array([float(f"1e{k}") for k in _decade_carries()]))
    cases.append(np.array([
        1000000000000000.25, 1000000000000000.75, 0.5, 2.5,  # exact ties
        1.5e-5, 0.00012, 9999999999999998.0, 12345678901234567.0,  # X = -5, -4, 15, 16
        99999999999999984.0, 123456789012345678.0,  # X = 16, 17
        1.5e-99, 1.5e-100, 1.5e99, 1.5e100, 2.5e-123, 7e123,  # 2- and 3-digit exponents
        5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
        0.0, np.inf, 0.1, 1 / 3, 2 / 3,
    ]))
    subnormals = np.random.default_rng(12).integers(1, 2**52, 64, dtype=np.uint64)
    cases.append(subnormals.view(np.float64))
    values = np.concatenate(cases)
    return np.concatenate([values, -values])


@pytest.mark.parametrize("chunk", [1, 7, TABLE_CHUNK])
def test_the_number_kernel_prints_every_value_as_percent_17g(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(_files, "TABLE_CHUNK", chunk)
    assert len(_decade_carries()) == 13
    assert "%.17g" % 1000000000000000.25 == "1000000000000000.2"
    assert "%.17g" % 1000000000000000.75 == "1000000000000000.8"
    values = _kernel_cases()
    if chunk == TABLE_CHUNK:  # and a million random bit patterns
        bits = np.random.default_rng(13).integers(0, 2**64, 10**6, dtype=np.uint64)
        values = np.concatenate([values, bits.view(np.float64)])
    values = np.concatenate([values, np.zeros(-len(values) % 6)])
    texts = ["%.17g" % x for x in values.tolist()]
    assert _files.number_texts(values) == texts
    assert "".join(_files.table_text("agent,value", values)) == "agent,value\n" + "".join(
        f"{agent},{text}\n" for agent, text in enumerate(texts)
    )
    states = values.reshape(-1, 3, 2)
    ok.save_trajectory(_trajectory(states), tmp_path / "traj.csv")
    assert (tmp_path / "traj.csv").read_text() == "k,agent,issue,value\n" + "".join(
        f"{k},{agent},{issue},{text}\n"
        for (k, agent, issue), text in zip(np.ndindex(states.shape), texts)
    )
    mask = np.random.default_rng(chunk).random((len(values) // 6, 6)) < 0.7
    rows, columns = np.nonzero(mask)  # a stream's masked table, NaN and inf included
    assert _masked_text(values.reshape(mask.shape), mask) == "k,agent,value\n" + "".join(
        f"{k},{agent},{texts[6 * k + agent]}\n"
        for k, agent in zip(rows.tolist(), columns.tolist())
    )


def test_the_number_kernel_leaves_almost_no_uniform_value_to_percent():
    # a certificate that refused every value would print the same bytes,
    # only slower
    values = np.random.default_rng(14).uniform(-1, 1, 10**5)
    _, _, certified = _files._decimal(values)
    assert 1 - certified.mean() < 1e-4
    assert _files.number_texts(values) == ["%.17g" % x for x in values.tolist()]


@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
    data=st.data(),
)
def test_incomplete_trajectories_fail_like_the_reference_reader(tmp_path_factory, shape, data):
    rows = [
        f"{k},{agent},{issue},{k + agent / 8 + issue / 64}\n"
        for k, agent, issue in np.ndindex(shape)
    ]
    kept = data.draw(st.lists(st.sampled_from(rows), min_size=1, unique=True))
    path = tmp_path_factory.mktemp("gap") / "traj.csv"
    path.write_text("k,agent,issue,value\n" + "".join(kept))
    try:
        expected = reference_load_trajectory(path)
    except ok.ConfigError as exc:
        with pytest.raises(ok.ConfigError) as caught:
            ok.load_trajectory(path)
        cell = str(exc)[str(exc).index("(k="):]
        assert str(caught.value).endswith(f"is missing {cell}")
    else:
        steps, states = ok.load_trajectory(path)
        assert np.array_equal(steps, expected[0])
        assert np.array_equal(states, expected[1])


def _write(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("row", [
    "0,0,0,abc", "0,0,0,1_0", "0,0,0", "0,0,0,1,2", "0.5,0,0,1", "0,1e0,0,1", "   ", "0,,0,1",
])
def test_load_trajectory_names_the_line_of_a_malformed_row(tmp_path, row):
    path = _write(tmp_path / "traj.csv", f"k,agent,issue,value\n0,0,0,1\n\n{row}\n")
    with pytest.raises(ok.ConfigError) as caught:
        ok.load_trajectory(path)
    assert str(caught.value) == f"{path}, line 4: malformed trajectory row {row.strip()!r}"


def test_load_trajectory_rejects_a_repeated_row(tmp_path):
    # the later value used to win without complaint; the first repeat in
    # file order is named, not the first in label order
    text = "k,agent,issue,value\n0,0,0,1\n0,1,0,2\n0,1,0,5\n0,0,0,3\n"
    path = _write(tmp_path / "traj.csv", text)
    with pytest.raises(ok.ConfigError) as caught:
        ok.load_trajectory(path)
    assert str(caught.value) == (
        f"{path}, line 4: repeated trajectory row (k=0, agent=1, issue=0)"
    )


def test_load_trajectory_rejects_a_negative_label(tmp_path):
    # the negative row used to be dropped without complaint
    path = _write(tmp_path / "traj.csv", "k,agent,issue,value\n0,0,0,1\n\n0,-1,0,2\n")
    with pytest.raises(ok.ConfigError) as caught:
        ok.load_trajectory(path)
    assert str(caught.value) == (
        f"{path}, line 4: negative label in trajectory row (k=0, agent=-1, issue=0)"
    )


def test_a_shuffled_table_loads_to_the_same_arrays(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    states = rng.uniform(-1, 1, (7, 5, 3))
    ok.save_trajectory(_trajectory(states), tmp_path / "traj.csv", stride=2)
    mask = rng.random((9, 5)) < 0.6
    stream = _stream(rng.random((9, 5)), mask)
    ok.save_stream(stream, tmp_path / "stream.csv")
    with monkeypatch.context() as patched:  # written tables ascend: no sort
        for name in ("lexsort", "unique"):
            patched.setattr(np, name, lambda *args, **kwargs: pytest.fail("sorted a written table"))
        steps, loaded = ok.load_trajectory(tmp_path / "traj.csv")
        read = ok.load_stream(tmp_path / "stream.csv")
    assert steps.tolist() == [0, 2, 4, 6] and _bits(loaded).tobytes() == _bits(states[::2]).tobytes()
    assert np.array_equal(read.mask, mask) and np.array_equal(_bits(read.values), _bits(stream.values))
    for name in ("traj.csv", "stream.csv"):
        header, *rows = (tmp_path / name).read_text().splitlines(keepends=True)
        (tmp_path / name).write_text(header + "".join(rng.permutation(rows)))
    steps, shuffled = ok.load_trajectory(tmp_path / "traj.csv")
    assert steps.tolist() == [0, 2, 4, 6] and _bits(shuffled).tobytes() == _bits(loaded).tobytes()
    read = ok.load_stream(tmp_path / "stream.csv")
    assert np.array_equal(read.mask, mask) and np.array_equal(_bits(read.values), _bits(stream.values))


@pytest.mark.parametrize("rows, message", [
    ("0,0,0,1\n0,1,0,2\n0,1,0,3\n", "line 4: repeated trajectory row (k=0, agent=1, issue=0)"),
    ("0,-1,0,1\n0,0,0,2\n0,1,0,3\n", "line 2: negative label in trajectory row (k=0, agent=-1, issue=0)"),
    ("0,0,0,1\n0,1,0,2\n1,0,-1,3\n1,0,0,4\n",
     "line 4: negative label in trajectory row (k=1, agent=0, issue=-1)"),
])
def test_faults_in_ascending_tables_name_their_line(tmp_path, rows, message):
    # label rows ascend up to the fault, as in a written table
    path = _write(tmp_path / "traj.csv", "k,agent,issue,value\n" + rows)
    with pytest.raises(ok.ConfigError) as caught:
        ok.load_trajectory(path)
    assert str(caught.value) == f"{path}, {message}"


def test_load_trajectory_names_the_first_missing_cell(tmp_path):
    path = _write(tmp_path / "traj.csv", "k,agent,issue,value\n0,0,0,1\n0,1,0,2\n5,1,0,3\n")
    with pytest.raises(ok.ConfigError, match=r"is missing \(k=5, agent=0, issue=0\)$"):
        ok.load_trajectory(path)


def test_load_trajectory_rejects_an_empty_or_missing_table(tmp_path):
    path = _write(tmp_path / "traj.csv", "k,agent,issue,value\n")
    with pytest.raises(ok.ConfigError, match="holds no samples"):
        ok.load_trajectory(path)
    with pytest.raises(ok.ConfigError, match="is missing"):
        ok.load_trajectory(tmp_path / "absent.csv")


def test_load_trajectory_does_not_allocate_for_huge_labels(tmp_path):
    text = "k,agent,issue,value\n0,0,0,1\n0,4000000000,9000000000,2\n"
    path = _write(tmp_path / "traj.csv", text)
    with pytest.raises(ok.ConfigError, match=r"is missing \(k=0, agent=0, issue=1\)$"):
        ok.load_trajectory(path)


def _stream_files(tmp_path, rows="0,0,0.5\n1,1,0.25\n", **descriptor):
    path = _write(tmp_path / "stream.csv", "k,agent,value\n" + rows)
    doc = {"horizon": 2, "issue": 0, "kind": "full", "n": 2, "rho": None, "seed": 3}
    doc.update(descriptor)
    _write(tmp_path / "stream.csv.meta.json", json.dumps(doc))
    return path


def test_load_stream_reads_a_hand_written_stream(tmp_path):
    stream = ok.load_stream(_stream_files(tmp_path))
    assert stream.values.tolist() == [[0.5, 0.0], [0.0, 0.25], [0.0, 0.0]]
    assert stream.mask.tolist() == [[True, False], [False, True], [False, False]]


@pytest.mark.parametrize("rows, message", [
    ("0,0,0.5\n1,abc,0.2\n", "line 3: malformed stream row '1,abc,0.2'"),
    ("0,0,0.5\n0,0,0.2\n", "line 3: repeated stream row (k=0, agent=0)"),
    ("0,-1,0.5\n", "line 2: negative label in stream row (k=0, agent=-1)"),
    ("3,0,0.5\n", "record (3, 0) outside the stream frame"),
])
def test_load_stream_rejects_bad_rows(tmp_path, rows, message):
    with pytest.raises(ok.ConfigError, match=re.escape(message)):
        ok.load_stream(_stream_files(tmp_path, rows=rows))


@pytest.mark.parametrize("field, value, message", [
    ("n", "2", "n must be a nonnegative integer"),
    ("horizon", -3, "horizon must be a nonnegative integer"),
    ("issue", "x", "issue must be a nonnegative integer"),
    ("issue", True, "issue must be a nonnegative integer"),
    ("seed", "x", "seed must be an integer or null"),
    ("rho", "x", "rho must be null, a number or a list of numbers"),
])
def test_load_stream_validates_the_sidecar_fields(tmp_path, field, value, message):
    path = _stream_files(tmp_path, **{field: value})
    with pytest.raises(ok.ConfigError, match=f"stream.csv.meta.json: {message}"):
        ok.load_stream(path)


def test_load_stream_rejects_a_nan_rho_in_the_sidecar(tmp_path):
    # json.dumps writes NaN and json.load reads it back as a float
    path = _stream_files(tmp_path, kind="intermittent", rho=float("nan"))
    with pytest.raises(ok.ParameterError, match="rho entries must lie in"):
        ok.load_stream(path)


def test_load_stream_rejects_a_sidecar_that_is_not_json(tmp_path):
    path = _stream_files(tmp_path)
    _write(tmp_path / "stream.csv.meta.json", "{horizon")
    with pytest.raises(ok.ConfigError, match="stream.csv.meta.json is not valid JSON"):
        ok.load_stream(path)


def _network_doc(**fields):
    doc = {"n": 2, "directed": True, "lambda": [0.5, 0.5], "edges": [[0, 1, 1.0], [1, 0, 1]]}
    doc.update(fields)
    return doc


@pytest.mark.parametrize("fields, message", [
    ({"n": "x"}, "n must be a nonnegative integer, got 'x'"),
    ({"n": -1}, "n must be a nonnegative integer, got -1"),
    ({"edges": [[0]]}, r"edge \[0\] is not \[int, int, number\]"),
    ({"edges": [[0, 1, "1"]]}, r"edge \[0, 1, '1'\] is not \[int, int, number\]"),
    ({"edges": [[0.0, 1, 1.0]]}, r"edge \[0.0, 1, 1.0\] is not \[int, int, number\]"),
    ({"edges": {"0": 1}}, "edges must be a list"),
    ({"lambda": ["a", 0.5]}, "lambda must be a list of numbers"),
    ({"directed": "yes"}, "directed must be true or false"),
    ({"edges": [[0, 1, 10**400]]}, r"edge \[0, 1, 1\d+\] is not \[int, int, number\]"),
    ({"lambda": [10**400, 0.5]}, "lambda must be a list of numbers"),
    ({"lambda": [0.5]}, "lambda must hold 2 finite numbers"),
])
def test_load_network_validates_its_fields(tmp_path, fields, message):
    path = _write(tmp_path / "net.json", json.dumps(_network_doc(**fields)))
    with pytest.raises(ok.ConfigError, match=message):
        ok.load_network(path)


def test_a_hand_written_network_with_integer_weights_loads(tmp_path):
    net = ok.load_network(_write(tmp_path / "net.json", json.dumps(_network_doc())))
    assert net.w.tolist() == [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize("loader", [ok.load_network, ok.load_multiplex, ok.load_report])
@pytest.mark.parametrize("text, message", [
    ('{"n": 2,', "is not valid JSON"),
    ("[1, 2]", "does not hold a JSON object"),
])
def test_json_loaders_reject_bad_documents(tmp_path, loader, text, message):
    path = _write(tmp_path / "doc.json", text)
    with pytest.raises(ok.ConfigError, match=f"doc.json {message}"):
        loader(path)


def test_load_multiplex_rejects_a_layer_that_is_not_an_object(tmp_path):
    doc = {"model_tag": "independent", "base": None, "layers": [[1]]}
    path = _write(tmp_path / "mx.json", json.dumps(doc))
    with pytest.raises(ok.ConfigError, match="must be a JSON object"):
        ok.load_multiplex(path)


@pytest.mark.parametrize(
    "what, name, load, expected",
    [
        ("report", "r.json", ok.load_report,
         "['gamma_hat', 'lambda_hat', 'metrics', 'solver_log', 'support', 'w_hat']"),
        ("multiplex", "m.json", ok.load_multiplex, "['base', 'layers', 'model_tag']"),
        ("stream descriptor", "s.csv.meta.json", lambda path: ok.load_stream(
            str(path).removesuffix(".meta.json")
        ), "['horizon', 'issue', 'kind', 'n', 'rho', 'seed']"),
    ],
)
def test_json_documents_name_the_file_and_both_key_sets(tmp_path, what, name, load, expected):
    path = tmp_path / name
    path.write_text('{"stray": 1}')
    message = f"{what} {path} has keys ['stray'], expected {expected}"
    with pytest.raises(ok.ConfigError, match=f"^{re.escape(message)}$"):
        load(path)
