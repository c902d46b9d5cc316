"""End-to-end tests for the command line and the pipeline runner."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opinionkit as ok
from opinionkit.cli import main


def _basic_pipeline(tmp_path, **overrides):
    config = {
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "stages": [
            {
                "stage": "generate",
                "name": "net",
                "model": "watts_strogatz",
                "n": 8,
                "k": 4,
                "beta_rw": 0.3,
                "lambda_range": [0.3, 0.8],
            },
            {
                "stage": "simulate",
                "name": "traj",
                "network": "net",
                "kind": "fj",
                "steps": 12,
                "x0": "random",
                "issues": 10,
            },
            {
                "stage": "identify",
                "name": "est",
                "method": "finite_horizon",
                "trajectory": "traj",
            },
            {
                "stage": "evaluate",
                "name": "score",
                "estimate": "est",
                "truth": "net",
            },
            {"stage": "report", "name": "plot", "inputs": ["score"]},
        ],
    }
    config.update(overrides)
    return config


# ---- exit codes --------------------------------------------------------------


def test_version_and_manifest_flags(capsys):
    assert main(["--version"]) == 0
    assert ok.__version__ in capsys.readouterr().out
    assert main(["--manifest"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert "opinionkit" in table and "numpy" in table


def test_usage_error_exits_one(capsys):
    assert main(["generate", "--model", "mystery", "--n", "4", "--out", "x"]) == 1
    assert "error" in capsys.readouterr().err


def test_config_error_exits_one(tmp_path, capsys):
    config = _basic_pipeline(tmp_path)
    config["stages"][0]["typo"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 1
    assert "typo" in capsys.readouterr().err


def test_a_malformed_stream_file_exits_one(tmp_path, capsys):
    # the row "1,abc,0.2" used to escape main() as a ValueError
    stream = tmp_path / "obs.csv"
    stream.write_text("k,agent,value\n0,0,0.5\n1,abc,0.2\n")
    (tmp_path / "obs.csv.meta.json").write_text(json.dumps(
        {"horizon": 2, "issue": 0, "kind": "full", "n": 2, "rho": None, "seed": 0}
    ))
    config = {"seed": 0, "output_dir": str(tmp_path / "out"), "stages": [
        {"stage": "load", "name": "obs", "path": str(stream), "format": "stream"},
    ]}
    path = tmp_path / "load.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: stage 'obs' (load): {stream}, line 3: malformed stream row '1,abc,0.2'\n"
    )


@pytest.mark.parametrize("index, key, value, message", [
    (1, "steps", "10", "steps must be an integer"),
    (1, "stride", "2", "stride must be an integer"),
    (1, "issues", "2", "issues must be an integer"),
    (5, "activation_size", 2.5, "activation_size must be an integer"),
    (0, "n", "10", "n must be an integer"),
    (0, "lambda_range", 5, "lambda_range must be a list"),
    (2, "eps", "x", "eps must be a number"),
    (6, "alpha", "0.5", "alpha must be a number"),
    # list entries and values of the right kind that escaped the same way
    (0, "lambda_range", ["a", "b"], "lambda_range must be two numbers"),
    (0, "lambda_range", [0.1, 0.2, 0.3], "lambda_range must be two numbers"),
    (7, "rho", {"a": 1}, "rho must be a number or a list of numbers"),
    (7, "rho", [0.5, "a"], "rho must be a number or a list of numbers"),
    (1, "issues", -1, "issues must be positive"),
])
def test_a_malformed_field_exits_one_naming_the_stage_and_key(
    tmp_path, capsys, index, key, value, message
):
    # each of these used to escape main() as a TypeError or ValueError
    config = _basic_pipeline(tmp_path)
    config["stages"] += [
        {"stage": "simulate", "name": "gossip", "network": "net", "kind": "gossip",
         "steps": 5, "activation_size": 2},
        {"stage": "centrality", "name": "rank", "network": "net", "measure": "friedkin",
         "alpha": 0.5},
        {"stage": "observe", "name": "obs", "trajectory": "gossip", "kind": "independent",
         "rho": 0.5},
    ]
    record = config["stages"][index]
    record[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: stage {record['name']!r} ({record['stage']}): {message}\n"
    )


def test_a_sweep_grid_value_of_the_wrong_type_is_a_config_error(tmp_path):
    config = _sweep_config(tmp_path)
    config["grid"]["stages.1.steps"] = [12, "12"]
    with pytest.raises(ok.ConfigError, match="stage 'traj' \\(simulate\\): steps must be an integer"):
        ok.run_sweep(config)


def test_a_config_that_is_not_json_exits_one(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{seed")
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: config {path} is not valid JSON: ")


def test_an_unknown_x0_string_exits_one(tmp_path, capsys):
    config = _basic_pipeline(tmp_path)
    config["stages"][1]["x0"] = "foo"
    path = tmp_path / "bad_x0.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 1
    assert "x0 must be 'spread', 'random', or 8 rows of values" in capsys.readouterr().err


def test_identifiability_error_exits_two(tmp_path, capsys):
    config = _basic_pipeline(tmp_path)
    config["stages"][0]["lambda_range"] = [1.0, 1.0]
    config["stages"][2] = {
        "stage": "identify",
        "name": "est",
        "method": "infinite_horizon",
        "network": "net",
    }
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 2


def test_stability_error_exits_three(tmp_path, capsys):
    config = _basic_pipeline(tmp_path)
    config["stages"][0]["lambda_range"] = [1.0, 1.0]
    config["stages"][2] = {
        "stage": "identify",
        "name": "est",
        "method": "unknown_lambda",
        "network": "net",
    }
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 3
    assert "est" in capsys.readouterr().err


# ---- subcommand round trips ----------------------------------------------------


def test_generate_writes_a_loadable_reproducible_network(tmp_path, capsys):
    args = [
        "generate", "--model", "erdos_renyi", "--n", "9", "--p", "0.4",
        "--lambda-range", "0.2", "0.9", "--seed", "3",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    net = ok.load_network(a)
    assert net.n == 9
    assert ok.validate_network(net).ok


def test_centrality_command_matches_the_library(tmp_path):
    net_path = tmp_path / "net.json"
    main([
        "generate", "--model", "watts_strogatz", "--n", "8", "--k", "4",
        "--beta-rw", "0.2", "--seed", "1", "--out", str(net_path),
    ])
    out = tmp_path / "pr.csv"
    assert main([
        "centrality", str(net_path), "--measure", "pagerank", "--out", str(out)
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "agent,value"
    values = np.array([float(line.split(",")[1]) for line in lines[1:]])
    net = ok.load_network(net_path)
    expected = ok.pagerank(net.w, row_stochastic=True).values
    assert np.allclose(values, expected, atol=1e-12)


def test_simulate_observe_identify_evaluate_chain(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    main([
        "generate", "--model", "watts_strogatz", "--n", "8", "--k", "4",
        "--beta-rw", "0.3", "--lambda-range", "0.3", "0.8", "--seed", "9",
        "--out", str(net_path),
    ])
    traj_path = tmp_path / "traj.csv"
    assert main([
        "simulate", str(net_path), "--kind", "fj", "--steps", "12",
        "--out", str(traj_path),
    ]) == 0
    report_path = tmp_path / "report.json"
    assert main([
        "identify", "--method", "finite_horizon", "--trajectory", str(traj_path),
        "--out", str(report_path),
    ]) == 0
    metrics_path = tmp_path / "metrics.json"
    assert main([
        "evaluate", "--truth", str(net_path), "--estimate", str(report_path),
        "--out", str(metrics_path),
    ]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["f1"] == 1.0
    assert metrics["frobenius_error"] < 1e-6


def test_gossip_stream_identification_through_the_cli(tmp_path):
    net_path = tmp_path / "net.json"
    main([
        "generate", "--model", "watts_strogatz", "--n", "6", "--k", "2",
        "--beta-rw", "0.0", "--lambda-range", "0.85", "0.85", "--seed", "5",
        "--out", str(net_path),
    ])
    traj_path = tmp_path / "traj.csv"
    assert main([
        "simulate", str(net_path), "--kind", "gossip", "--steps", "60000",
        "--activation-size", "6", "--seed", "2", "--out", str(traj_path),
    ]) == 0
    stream_path = tmp_path / "stream.csv"
    assert main([
        "observe", str(traj_path), "--kind", "full", "--out", str(stream_path)
    ]) == 0
    report_path = tmp_path / "yw.json"
    assert main([
        "identify", "--method", "yule_walker", "--stream", str(stream_path),
        "--network", str(net_path), "--trajectory", str(traj_path),
        "--beta", "1.0", "--threshold", "0.05", "--out", str(report_path),
    ]) == 0
    report = ok.load_report(report_path)
    net = ok.load_network(net_path)
    assert set(report.support) == net.edge_set()
    assert np.allclose(report.w_hat.sum(axis=1), 1.0, atol=1e-8)


@pytest.mark.parametrize("mode, eta", [("dense", "0.0"), ("sparse", "0.00001")])
def test_yule_walker_subcommand_writes_the_pipeline_stage_report(tmp_path, mode, eta):
    net_path, traj_path, stream_path = (
        tmp_path / "net.json", tmp_path / "traj.csv", tmp_path / "stream.csv"
    )
    main([
        "generate", "--model", "watts_strogatz", "--n", "6", "--k", "2",
        "--beta-rw", "0.0", "--lambda-range", "0.85", "0.85", "--seed", "5",
        "--out", str(net_path),
    ])
    main([
        "simulate", str(net_path), "--kind", "gossip", "--steps", "20000",
        "--activation-size", "6", "--seed", "2", "--out", str(traj_path),
    ])
    main(["observe", str(traj_path), "--kind", "full", "--out", str(stream_path)])
    report_path = tmp_path / "yw.json"
    assert main([
        "identify", "--method", "yule_walker", "--stream", str(stream_path),
        "--network", str(net_path), "--trajectory", str(traj_path),
        "--beta", "1.0", "--threshold", "0.05", "--mode", mode, "--eta", eta,
        "--out", str(report_path),
    ]) == 0
    config = {
        "seed": 0,
        "output_dir": str(tmp_path / "run"),
        "stages": [
            {"stage": "load", "name": "net", "path": str(net_path), "format": "network"},
            {"stage": "load", "name": "traj", "path": str(traj_path), "format": "trajectory"},
            {"stage": "load", "name": "obs", "path": str(stream_path), "format": "stream"},
            {"stage": "identify", "name": "yw", "method": "yule_walker", "stream": "obs",
             "network": "net", "beta": 1.0, "x0_from": "traj", "threshold": 0.05,
             "mode": mode, "eta": float(eta)},
        ],
    }
    ok.run_pipeline(config)
    assert report_path.read_bytes() == (tmp_path / "run" / "yw.json").read_bytes()
    assert {"mode", "condition", "rank"} <= set(ok.load_report(report_path).solver_log)


def test_report_command_merges_json_and_csv_sources(tmp_path, capsys):
    (tmp_path / "fit.json").write_text(json.dumps({"f1": 0.5, "note": "x"}))
    (tmp_path / "rank.csv").write_text("agent,value\n0,0.25\n1,0.75\n")
    assert main([
        "report", str(tmp_path / "fit.json"), str(tmp_path / "rank.csv")
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,series"
    assert "f1,0.5,fit" in lines
    assert "1,0.75,rank" in lines
    # non-numeric json fields are dropped rather than corrupting the table
    assert not any("note" in line for line in lines)


# ---- pipeline runner -----------------------------------------------------------


def test_run_pipeline_writes_artifacts_and_manifest(tmp_path):
    config = _basic_pipeline(tmp_path)
    manifest = ok.run_pipeline(config)
    out = Path(config["output_dir"])
    assert set(manifest) == {"artifacts", "config_sha256", "seed", "versions"}
    assert set(manifest["artifacts"]) == {
        "net.json", "traj.csv", "est.json", "score.json", "plot.csv",
    }
    for rel, digest in manifest["artifacts"].items():
        assert (out / rel).is_file()
        assert len(digest) == 64
    stored = json.loads((out / "manifest.json").read_text())
    assert stored == manifest
    score = json.loads((out / "score.json").read_text())
    assert score["f1"] == 1.0


def test_run_pipeline_is_bit_identical_across_reruns(tmp_path):
    config_a = _basic_pipeline(tmp_path, output_dir=str(tmp_path / "a"))
    config_b = _basic_pipeline(tmp_path, output_dir=str(tmp_path / "b"))
    m_a = ok.run_pipeline(config_a)
    m_b = ok.run_pipeline(config_b)
    assert m_a["artifacts"] == m_b["artifacts"]
    for rel in m_a["artifacts"]:
        assert (Path(config_a["output_dir"]) / rel).read_bytes() == (
            Path(config_b["output_dir"]) / rel
        ).read_bytes()


def test_run_pipeline_seed_changes_the_artifacts(tmp_path):
    m_a = ok.run_pipeline(_basic_pipeline(tmp_path, output_dir=str(tmp_path / "a")))
    m_b = ok.run_pipeline(
        _basic_pipeline(tmp_path, seed=8, output_dir=str(tmp_path / "b"))
    )
    assert m_a["artifacts"]["net.json"] != m_b["artifacts"]["net.json"]


def test_run_pipeline_emit_flags_suppress_artifacts(tmp_path):
    config = _basic_pipeline(tmp_path, emit={"trajectories": False})
    manifest = ok.run_pipeline(config)
    assert "traj.csv" not in manifest["artifacts"]
    assert "est.json" in manifest["artifacts"]


def test_run_pipeline_rejects_malformed_configs(tmp_path):
    base = _basic_pipeline(tmp_path)
    with pytest.raises(ok.ConfigError, match="unknown"):
        ok.run_pipeline({**base, "extra": 1})
    with pytest.raises(ok.ConfigError, match="seed"):
        ok.run_pipeline({**base, "seed": -1})
    dup = _basic_pipeline(tmp_path)
    dup["stages"][1]["name"] = "net"
    with pytest.raises(ok.ConfigError, match="duplicate"):
        ok.run_pipeline(dup)
    missing = _basic_pipeline(tmp_path)
    missing["stages"][1]["network"] = "ghost"
    with pytest.raises(ok.ConfigError, match="ghost"):
        ok.run_pipeline(missing)
    bad_stage = _basic_pipeline(tmp_path)
    bad_stage["stages"][0]["stage"] = "mystify"
    with pytest.raises(ok.ConfigError, match="mystify"):
        ok.run_pipeline(bad_stage)


def test_run_pipeline_errors_name_the_failing_stage(tmp_path):
    config = _basic_pipeline(tmp_path)
    config["stages"][2]["eps"] = -1.0
    with pytest.raises(ok.ParameterError, match="'est'"):
        ok.run_pipeline(config)


def test_run_command_honors_the_environment_override(tmp_path, monkeypatch):
    config = _basic_pipeline(tmp_path)
    config.pop("output_dir")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    target = tmp_path / "env_out"
    monkeypatch.setenv("OPINIONKIT_OUT", str(target))
    assert main(["run", str(path)]) == 0
    assert (target / "manifest.json").is_file()


# ---- sweeps --------------------------------------------------------------------


def _sweep_config(tmp_path, out_name="sweep_out"):
    base = _basic_pipeline(tmp_path)
    base.pop("output_dir")
    return {
        "seed": 11,
        "output_dir": str(tmp_path / out_name),
        "base": base,
        "grid": {
            "stages.0.n": [8, 10],
            "stages.0.beta_rw": [0.1, 0.4],
        },
    }


def test_run_sweep_covers_the_grid_and_aggregates_metrics(tmp_path):
    config = _sweep_config(tmp_path)
    manifest = ok.run_sweep(config)
    out = Path(config["output_dir"])
    assert manifest["points"] == 4
    for index in range(4):
        assert (out / f"point_{index:04d}" / "manifest.json").is_file()
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "point,stages.0.beta_rw,stages.0.n,score.f1," \
        "score.frobenius_error,score.max_abs_error,score.precision,score.recall"
    assert len(lines) == 5
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[3]) == 1.0  # exact data keeps recovery exact


def test_run_sweep_parallel_matches_sequential(tmp_path):
    seq = _sweep_config(tmp_path, "seq")
    par = _sweep_config(tmp_path, "par")
    m_seq = ok.run_sweep(seq, jobs=1)
    m_par = ok.run_sweep(par, jobs=2)
    assert m_seq["artifacts"] == m_par["artifacts"]
    assert (Path(seq["output_dir"]) / "sweep.csv").read_bytes() == (
        Path(par["output_dir"]) / "sweep.csv"
    ).read_bytes()


def test_run_sweep_rejects_bad_grids(tmp_path):
    config = _sweep_config(tmp_path)
    with pytest.raises(ok.ConfigError, match="grid"):
        ok.run_sweep({**config, "grid": {}})
    with pytest.raises(ok.ConfigError, match="does not resolve"):
        ok.run_sweep({**config, "grid": {"stages.9.n": [4]}})
    with pytest.raises(ok.ConfigError, match="jobs"):
        ok.run_sweep(config, jobs=0)
    with pytest.raises(ok.ConfigError, match="seed"):  # escaped as a ValueError
        ok.run_sweep({**config, "seed": -1})


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_manifest_is_a_rehash_of_every_file_on_disk(tmp_path, jobs):
    config = _sweep_config(tmp_path)
    out = Path(config["output_dir"])
    (out / "point_0001").mkdir(parents=True)
    (out / "point_0001" / "stale.txt").write_text("left by an earlier run\n")
    (out / "point_0001" / "net.json").write_text("overwritten by this run\n")
    manifest = ok.run_sweep(config, jobs=jobs)
    on_disk = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file() and path != out / "manifest.json"
    }
    assert manifest["artifacts"] == on_disk
    assert {"point_0001/stale.txt", "point_0001/net.json", "point_0003/manifest.json",
            "sweep.csv"} <= set(on_disk)
    assert json.loads((out / "manifest.json").read_text()) == manifest


def test_sweep_metrics_do_not_depend_on_the_written_reports(tmp_path):
    on = _sweep_config(tmp_path, "on")
    off = _sweep_config(tmp_path, "off")
    off["base"]["emit"] = {"reports": False}
    ok.run_sweep(on)
    ok.run_sweep(off)
    assert not (Path(off["output_dir"]) / "point_0000" / "score.json").exists()
    sweep = (Path(off["output_dir"]) / "sweep.csv").read_bytes()
    assert b"score.f1" in sweep.splitlines()[0]
    assert sweep == (Path(on["output_dir"]) / "sweep.csv").read_bytes()


def test_python_dash_m_runs_the_command_line_without_warnings():
    result = subprocess.run(
        [sys.executable, "-m", "opinionkit", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(ok.__file__).parents[1])},
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert ok.__version__ in result.stdout
