"""The per-step subcommands against the library.

Each file a subcommand writes must equal, byte for byte, what the library
writes for the same arguments, and each flag check keeps its exit code and
message.
"""

import dataclasses
import json
import shutil

import numpy as np
import pytest

import opinionkit as ok
from opinionkit.cli import main

N = 6
X0_TEXT = "0.1,0.9,0.3,0.5,0.7,0.2"
X0 = np.array([0.1, 0.9, 0.3, 0.5, 0.7, 0.2])


def _loaded(path):
    _, states = ok.load_trajectory(path)
    return ok.OpinionTrajectory(states=states, model=ok.ModelDescriptor(kind="loaded"))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A network, a multi-issue trajectory, two-frame equilibrium profiles,
    a three-frame profile file, a gossip stream and an estimation report."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {
        name.split(".")[0]: root / name
        for name in ("net.json", "traj.csv", "profiles.csv", "three.csv",
                     "gossip.csv", "stream.csv", "est.json")
    }
    net = ok.generate_network(
        ok.GeneratorConfig(model="watts_strogatz", n=N, k=2, beta_rw=0.0,
                           lambda_range=(0.4, 0.8)),
        seed=5,
    )
    ok.save_network(net, paths["net"])
    x0 = np.random.default_rng(0).random((N, N))
    ok.save_trajectory(ok.simulate_fj(net, x0, 8), paths["traj"])
    x_inf, _ = ok.fj_equilibrium(net, x0)
    model = ok.ModelDescriptor(kind="profiles")
    ok.save_trajectory(
        ok.OpinionTrajectory(states=np.stack([x0, x_inf]), model=model),
        paths["profiles"],
    )
    ok.save_trajectory(
        ok.OpinionTrajectory(states=np.stack([x0, x_inf, x_inf]), model=model),
        paths["three"],
    )
    gossip = ok.simulate_gossip_fj(net, X0, 2000, N, seed=2)
    ok.save_trajectory(gossip, paths["gossip"])
    ok.save_stream(
        ok.sample_observations(gossip, ok.SamplingModel(kind="full"), seed=0),
        paths["stream"],
    )
    ok.save_report(ok.identify_finite_horizon(_loaded(paths["traj"])), paths["est"])
    return {name: str(path) for name, path in paths.items()}


def _same_file(command, out, expected, capsys):
    """Run a file-writing subcommand and compare its output with the
    library's file."""
    assert main(command + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("args, config", [
    (["--model", "erdos_renyi", "--n", "9", "--p", "0.4"],
     dict(model="erdos_renyi", n=9, p=0.4)),
    (["--model", "watts_strogatz", "--n", "8", "--k", "4", "--beta-rw", "0.3"],
     dict(model="watts_strogatz", n=8, k=4, beta_rw=0.3)),
    (["--model", "barabasi_albert", "--n", "10", "--m0", "2"],
     dict(model="barabasi_albert", n=10, m0=2)),
], ids=["erdos_renyi", "watts_strogatz", "barabasi_albert"])
def test_generate_writes_the_library_network(tmp_path, capsys, args, config):
    expected = tmp_path / "expected.json"
    ok.save_network(
        ok.generate_network(ok.GeneratorConfig(**config, lambda_range=(0.2, 0.9)), seed=3),
        expected,
    )
    _same_file(
        ["generate", *args, "--lambda-range", "0.2", "0.9", "--seed", "3"],
        tmp_path / "net.json", expected, capsys,
    )


@pytest.mark.parametrize("args, simulate, stride", [
    (["--kind", "fj", "--steps", "9"],
     lambda net: ok.simulate_fj(net, np.linspace(0.0, 1.0, N), 9), 1),
    (["--kind", "fj", "--steps", "9", "--x0", X0_TEXT, "--seed", "4", "--stride", "2"],
     lambda net: ok.simulate_fj(net, X0, 9), 2),
    (["--kind", "gossip", "--steps", "50", "--activation-size", "2", "--x0", X0_TEXT,
      "--seed", "4", "--stride", "3"],
     lambda net: ok.simulate_gossip_fj(net, X0, 50, 2, seed=4), 3),
], ids=["fj-spread", "fj-x0-stride", "gossip-x0-stride"])
def test_simulate_writes_the_library_trajectory(tmp_path, capsys, files, args, simulate, stride):
    expected = tmp_path / "expected.csv"
    ok.save_trajectory(simulate(ok.load_network(files["net"])), expected, stride=stride)
    _same_file(["simulate", files["net"], *args], tmp_path / "traj.csv", expected, capsys)


@pytest.mark.parametrize("args, model", [
    (["--kind", "full"], ok.SamplingModel(kind="full")),
    (["--kind", "intermittent", "--rho", "0.6"],
     ok.SamplingModel(kind="intermittent", rho=0.6)),
    (["--kind", "independent", "--rho", "0.2,0.4,0.6,0.8,1.0,0.5"],
     ok.SamplingModel(kind="independent", rho=np.array([0.2, 0.4, 0.6, 0.8, 1.0, 0.5]))),
], ids=["full", "scalar-rho", "per-agent-rho"])
def test_observe_writes_the_library_stream(tmp_path, capsys, files, args, model):
    expected = tmp_path / "expected.csv"
    stream = ok.sample_observations(_loaded(files["traj"]), model, seed=3, issue=1)
    ok.save_stream(stream, expected)
    out = tmp_path / "stream.csv"
    _same_file(
        ["observe", files["traj"], *args, "--seed", "3", "--issue", "1"], out, expected, capsys
    )
    assert (tmp_path / "stream.csv.meta.json").read_bytes() == (
        tmp_path / "expected.csv.meta.json"
    ).read_bytes()


def _profiles(files):
    _, states = ok.load_trajectory(files["profiles"])
    return states[0], states[1]


@pytest.mark.parametrize("args, estimate", [
    (["--method", "finite_horizon", "--trajectory", "{traj}"],
     lambda f: ok.identify_finite_horizon(_loaded(f["traj"]))),
    (["--method", "finite_horizon", "--trajectory", "{traj}", "--network", "{net}",
      "--eps", "0.001"],
     lambda f: ok.identify_finite_horizon(
         _loaded(f["traj"]), eps=0.001, lam=ok.load_network(f["net"]).lam)),
    (["--method", "infinite_horizon", "--profiles", "{profiles}", "--network", "{net}"],
     lambda f: ok.identify_infinite_horizon(*_profiles(f), ok.load_network(f["net"]).lam)),
    (["--method", "infinite_horizon", "--profiles", "{profiles}", "--network", "{net}",
      "--nonneg"],
     lambda f: ok.identify_infinite_horizon(
         *_profiles(f), ok.load_network(f["net"]).lam, nonneg=True)),
    (["--method", "unknown_lambda", "--profiles", "{profiles}"],
     lambda f: ok.identify_unknown_lambda(*_profiles(f))),
], ids=["finite_horizon", "finite_horizon-lam-eps", "infinite_horizon",
        "infinite_horizon-nonneg", "unknown_lambda"])
def test_identify_writes_the_library_report(tmp_path, capsys, files, args, estimate):
    expected = tmp_path / "expected.json"
    ok.save_report(estimate(files), expected)
    command = ["identify"] + [arg.format(**files) for arg in args]
    _same_file(command, tmp_path / "est.json", expected, capsys)


def _metrics_text(files, tol):
    metrics = ok.evaluate_estimate(
        ok.load_network(files["net"]).w, ok.load_report(files["est"]), tol=tol
    )
    return json.dumps(dataclasses.asdict(metrics), indent=2, sort_keys=True) + "\n"


def test_evaluate_to_a_file_and_to_stdout(tmp_path, capsys, files):
    command = ["evaluate", "--truth", files["net"], "--estimate", files["est"],
               "--tol", "1e-6"]
    expected = _metrics_text(files, 1e-6)
    assert main(command) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "metrics.json"
    assert main(command + ["--out", str(out)]) == 0
    assert out.read_text() == expected


@pytest.mark.parametrize("field, value, message", [
    ("w_hat", [["a"]], "w_hat must be an array of numbers"),
    ("w_hat", None, "w_hat must be an array of numbers"),
    ("w_hat", [[1.0], [1.0, 2.0]], "w_hat must be an array of numbers"),
    ("w_hat", [[10**400]], "w_hat must be an array of numbers"),
    ("lambda_hat", [True, 0.5], "lambda_hat must be an array of numbers or null"),
    ("gamma_hat", "0.5", "gamma_hat must be an array of numbers or null"),
    ("support", [[0]], "support must be a list of [int, int]"),
    ("support", [[0, 1.0]], "support must be a list of [int, int]"),
    ("support", {"0": 1}, "support must be a list of [int, int]"),
    ("metrics", [], "metrics must be a JSON object"),
    ("solver_log", None, "solver_log must be a JSON object"),
])
def test_evaluate_rejects_a_malformed_report_field(tmp_path, capsys, files, field, value,
                                                   message):
    # the first two used to escape main() as a ValueError
    with open(files["est"]) as handle:
        doc = json.load(handle)
    doc[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["evaluate", "--truth", files["net"], "--estimate", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: report {bad}: {message}\n"


@pytest.mark.parametrize("args, measure", [
    (["--measure", "pagerank", "--damping", "0.2"],
     lambda net: ok.pagerank(net.w, m=0.2, row_stochastic=True)),
    (["--measure", "friedkin", "--alpha", "0.5"],
     lambda net: ok.friedkin_centrality(net, alpha=0.5)),
    (["--measure", "betweenness", "--weighted"],
     lambda net: ok.betweenness_centrality(net, weighted=True)),
    (["--measure", "in_degree"],
     lambda net: ok.degree_centrality(net, direction="in")),
], ids=["pagerank", "friedkin", "betweenness", "in_degree"])
def test_centrality_to_a_file_and_to_stdout(tmp_path, capsys, files, args, measure):
    values = measure(ok.load_network(files["net"])).values
    expected = "agent,value\n" + "".join(
        f"{agent},{format(float(value), '.17g')}\n" for agent, value in enumerate(values)
    )
    command = ["centrality", files["net"], *args]
    assert main(command) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "rank.csv"
    assert main(command + ["--out", str(out)]) == 0
    assert out.read_text() == expected


def test_report_sorts_rows_by_series_then_x(tmp_path, capsys):
    (tmp_path / "b.json").write_text(json.dumps({"recall": 1, "f1": 0.5}))
    (tmp_path / "a.csv").write_text("agent,value\n1,0.75\n0,0.25\n")
    command = ["report", str(tmp_path / "b.json"), str(tmp_path / "a.csv")]
    expected = "x,y,series\n0,0.25,a\n1,0.75,a\nf1,0.5,b\nrecall,1,b\n"
    assert main(command) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "plot.csv"
    assert main(command + ["--out", str(out)]) == 0
    assert out.read_text() == expected


def test_report_names_the_file_of_a_malformed_row(tmp_path, capsys):
    path = tmp_path / "a.csv"
    path.write_text("agent,value\n0,1,2\n")
    assert main(["report", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}, line 2: malformed agent,value row '0,1,2'\n"
    )


@pytest.mark.parametrize("command, message", [
    (["centrality", "{bad}", "--measure", "pagerank"], "network {bad} is not valid JSON"),
    (["evaluate", "--truth", "{net}", "--estimate", "{bad}"], "report {bad} is not valid JSON"),
    (["report", "{bad}"], "metrics {bad} is not valid JSON"),
])
def test_files_that_are_not_json_exit_one(tmp_path, capsys, files, command, message):
    # these used to escape main() as a JSONDecodeError
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main([arg.format(bad=bad, **files) for arg in command]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message.format(bad=bad)}: ")


@pytest.mark.parametrize("args, message", [
    (["simulate", "{net}", "--kind", "gossip", "--steps", "5", "--out", "{out}"],
     "gossip needs --activation-size"),
    (["simulate", "{net}", "--steps", "5", "--x0", "a,b", "--out", "{out}"],
     "x0 must be 'spread' or comma-separated floats"),
    (["identify", "--method", "finite_horizon", "--out", "{out}"],
     "finite_horizon needs --trajectory"),
    (["identify", "--method", "unknown_lambda", "--out", "{out}"],
     "unknown_lambda needs --profiles or --network"),
    (["identify", "--method", "infinite_horizon", "--profiles", "{three}", "--out", "{out}"],
     "--profiles must hold exactly 2 frames (initial, equilibrium); got 3"),
    (["identify", "--method", "infinite_horizon", "--profiles", "{profiles}",
      "--out", "{out}"],
     "infinite_horizon needs --network"),
    (["identify", "--method", "yule_walker", "--stream", "{stream}", "--out", "{out}"],
     "yule_walker needs --stream, --network, --beta, --trajectory"),
])
def test_flag_checks_exit_one_with_their_message(tmp_path, capsys, files, args, message):
    command = [arg.format(out=tmp_path / "out", **files) for arg in args]
    assert main(command) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_identify_names_the_file_of_a_non_finite_profile(tmp_path, capsys, files):
    # a nan opinion used to escape main() as a ValueError from the solver
    bad = tmp_path / "p.csv"
    text = open(files["profiles"]).read()
    bad.write_text(text[: text.rstrip().rindex(",") + 1] + "nan\n")
    out = tmp_path / "r.json"
    assert main([
        "identify", "--method", "infinite_horizon", "--profiles", str(bad),
        "--network", files["net"], "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == f"error: trajectory {bad} holds a non-finite opinion\n"
    assert not out.exists()
    _, states = ok.load_trajectory(bad)
    lam = ok.load_network(files["net"]).lam
    with pytest.raises(ok.ParameterError, match="profiles must be finite"):
        ok.identify_infinite_horizon(states[0], states[1], lam)
    with pytest.raises(ok.ParameterError, match="profiles must be finite"):
        ok.identify_unknown_lambda(states[0], states[1])


def test_observe_names_the_file_of_a_non_finite_trajectory(tmp_path, capsys, files):
    # every command that reads a trajectory file shares the check
    bad = tmp_path / "traj.csv"
    text = open(files["traj"]).read()
    bad.write_text(text[: text.rstrip().rindex(",") + 1] + "inf\n")
    out = tmp_path / "stream.csv"
    assert main(["observe", str(bad), "--kind", "full", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: trajectory {bad} holds a non-finite opinion\n"
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_yule_walker_and_a_pipeline_load_name_the_file_of_a_non_finite_stream_value(
    tmp_path, capsys, files, bad
):
    # a nan or inf observation used to escape main() as numpy's LinAlgError
    stream = tmp_path / "stream.csv"
    text = open(files["stream"]).read()
    stream.write_text(text[: text.rstrip().rindex(",") + 1] + bad + "\n")
    shutil.copy(files["stream"] + ".meta.json", str(stream) + ".meta.json")
    out = tmp_path / "yw.json"
    assert main([
        "identify", "--method", "yule_walker", "--stream", str(stream),
        "--network", files["net"], "--trajectory", files["gossip"],
        "--beta", "1.0", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == f"error: stream {stream} holds a non-finite value\n"
    assert not out.exists()
    config = tmp_path / "load.json"
    config.write_text(json.dumps({"seed": 0, "output_dir": str(tmp_path / "run"), "stages": [
        {"stage": "load", "name": "obs", "path": str(stream), "format": "stream"},
    ]}))
    assert main(["run", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: stage 'obs' (load): stream {stream} holds a non-finite value\n"
    )


def test_simulate_rejects_an_x0_of_the_wrong_length(tmp_path, capsys, files):
    out = tmp_path / "traj.csv"
    assert main([
        "simulate", files["net"], "--steps", "5", "--x0", "0.1,0.2,0.3", "--out", str(out)
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: x0 ") and str(N) in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["fj", "gossip"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_x0(tmp_path, capsys, files, kind, bad):
    out = tmp_path / "traj.csv"
    assert main([
        "simulate", files["net"], "--kind", kind, "--steps", "5", "--x0",
        f"0.1,0.2,{bad},0.4,0.5,0.6", "--activation-size", "2", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == "error: initial profile must be finite\n"
    assert not out.exists()


def test_observe_rejects_a_rho_that_is_not_a_number(tmp_path, capsys, files):
    out = tmp_path / "stream.csv"
    assert main([
        "observe", files["traj"], "--kind", "intermittent", "--rho", "abc", "--out", str(out)
    ]) == 1
    assert capsys.readouterr().err.startswith("error: rho ")
    assert not out.exists()


@pytest.mark.parametrize("rho", ["nan", "0.2,nan,0.6,0.8,1.0,0.5"], ids=["scalar", "entry"])
def test_observe_rejects_a_nan_rho(tmp_path, capsys, files, rho):
    out = tmp_path / "stream.csv"
    assert main([
        "observe", files["traj"], "--kind", "independent", "--rho", rho, "--out", str(out)
    ]) == 1
    assert capsys.readouterr().err == "error: rho entries must lie in [0, 1]\n"
    assert not out.exists()


def test_yule_walker_rejects_a_negative_eta(tmp_path, capsys, files):
    out = tmp_path / "yw.json"
    assert main([
        "identify", "--method", "yule_walker", "--stream", files["stream"],
        "--network", files["net"], "--trajectory", files["gossip"],
        "--beta", "1.0", "--eta", "-5", "--out", str(out),
    ]) == 1
    assert "eta" in capsys.readouterr().err
    assert not out.exists()


def _profiles_pipeline(tmp_path, files, profiles, **identify):
    """A config that loads the network and a profiles file, then identifies."""
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps({"seed": 0, "output_dir": str(tmp_path / "run"), "stages": [
        {"stage": "load", "name": "net", "path": files["net"], "format": "network"},
        {"stage": "load", "name": "prof", "path": files[profiles], "format": "trajectory"},
        {"stage": "identify", "name": "est", "profiles": "prof", **identify},
    ]}))
    return str(path)


@pytest.mark.parametrize("args, identify", [
    (["--method", "infinite_horizon", "--network", "{net}"],
     dict(method="infinite_horizon", network="net")),
    (["--method", "infinite_horizon", "--network", "{net}", "--nonneg"],
     dict(method="infinite_horizon", network="net", nonneg=True)),
    (["--method", "unknown_lambda"], dict(method="unknown_lambda")),
], ids=["infinite_horizon", "infinite_horizon-nonneg", "unknown_lambda"])
def test_a_pipeline_identify_stage_reads_profiles_as_the_subcommand_does(
    tmp_path, capsys, files, args, identify
):
    out = tmp_path / "est.json"
    command = ["identify", "--profiles", files["profiles"], *args, "--out", str(out)]
    assert main([arg.format(**files) for arg in command]) == 0
    assert main(["run", _profiles_pipeline(tmp_path, files, "profiles", **identify)]) == 0
    capsys.readouterr()
    assert (tmp_path / "run" / "est.json").read_bytes() == out.read_bytes()


def test_a_pipeline_rejects_three_frames_of_profiles_naming_the_stage(tmp_path, capsys, files):
    config = _profiles_pipeline(tmp_path, files, "three", method="unknown_lambda")
    assert main(["run", config]) == 1
    assert capsys.readouterr().err == (
        "error: stage 'est' (identify): profiles must hold exactly 2 frames "
        "(initial, equilibrium); got 3\n"
    )
    assert not (tmp_path / "run" / "est.json").exists()


@pytest.mark.parametrize("key, value", [("x0", "random"), ("issues", 2)])
def test_profiles_are_not_combined_with_a_drawn_x0(tmp_path, capsys, files, key, value):
    config = _profiles_pipeline(
        tmp_path, files, "profiles", method="unknown_lambda", network="net", **{key: value}
    )
    assert main(["run", config]) == 1
    assert capsys.readouterr().err == (
        "error: stage 'est' (identify): profiles cannot be combined with x0 or issues\n"
    )


@pytest.mark.parametrize("method", ["infinite_horizon", "unknown_lambda"])
def test_identify_seed_draws_the_equilibrium_x0(tmp_path, capsys, files, method):
    def report(*seed):
        out = tmp_path / "est.json"
        command = ["identify", "--method", method, "--network", files["net"], *seed]
        assert main(command + ["--out", str(out)]) == 0
        return out.read_bytes()

    first = report("--seed", "3")
    assert report("--seed", "3") == first
    assert report("--seed", "4") != first
    assert report() == report("--seed", "0")
    capsys.readouterr()
