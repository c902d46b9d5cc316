"""Command-line pipeline driver.

Binds the library into reproducible generate -> simulate -> observe ->
identify -> evaluate -> report experiments. A pipeline is one JSON
document with a seed and an ordered stage list; stages reference earlier
stages by name, every artifact lands in one output directory, and a
manifest records the config hash, the seed, dependency versions, and a
digest per artifact. Reruns of the same config are byte-identical.

Each per-step subcommand runs the stage function of the same kind: it
reads its input files with the load stage's readers, builds one stage
record from its options, calls the stage with --seed as given, and
writes or prints the value with the stage's artifact writer. A stage
called from a subcommand (where is None) names options in its messages
instead of record keys.

Exit codes: 1 configuration or usage, 2 identifiability, 3 numerical or
stability, 4 capacity.
"""

import copy
import dataclasses
import hashlib
import itertools
import json
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import networkx
import numpy as np
import platform
import scipy

from ._version import __version__
from ._files import (
    is_int,
    is_number,
    json_text,
    number_texts,
    read_json,
    read_table,
    table_text,
    write_json,
)
from .errors import ConfigError, OpinionKitError
from .centrality import (
    CentralityVector,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    friedkin_centrality,
    pagerank,
)
from .dynamics import (
    ModelDescriptor,
    OpinionTrajectory,
    fj_equilibrium,
    load_trajectory,
    save_trajectory,
    simulate_fj,
    simulate_gossip_fj,
)
from .identify import (
    EVALUATE_TOL,
    N_SIGMA,
    EstimationReport,
    check_lambda_identifiability,
    estimate_cross_correlations,
    estimate_gamma,
    evaluate_estimate,
    identify_finite_horizon,
    identify_infinite_horizon,
    identify_unknown_lambda,
    load_report,
    recover_topology_and_w,
    save_report,
)
from .netgraph import (
    GENERATOR_MODELS,
    GeneratorConfig,
    InfluenceNetwork,
    generate_network,
    load_network,
    save_network,
)
from .numkit import philox_stream
from .observe import (
    SAMPLING_KINDS,
    ObservationStream,
    SamplingModel,
    load_stream,
    sample_observations,
    save_stream,
)

_NAME_RE = re.compile(r"[A-Za-z0-9_\-]+\Z")

CENTRALITY_MEASURES = (
    "in_degree",
    "out_degree",
    "closeness",
    "betweenness",
    "eigenvector",
    "pagerank",
    "friedkin",
)

IDENTIFY_METHODS = (
    "finite_horizon",
    "infinite_horizon",
    "unknown_lambda",
    "yule_walker",
)


def _version_table() -> dict:
    from importlib.metadata import version

    return {
        "click": version("click"),
        "networkx": networkx.__version__,
        "numpy": np.__version__,
        "opinionkit": __version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _check_keys(record: dict, required: dict, optional: dict, where) -> None:
    """Check record against its required and optional keys, each mapped to
    its kind: int and float mean a JSON integer and number (is_int,
    is_number), object anything, and any other type an instance of it.
    where prefixes the messages (None: no prefix)."""
    at = "" if where is None else f"{where}: "
    kinds = {**optional, **required}
    missing = required.keys() - record.keys()
    unknown = record.keys() - kinds.keys()
    if missing:
        raise ConfigError(f"{at}missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{at}unknown keys {sorted(unknown)}")
    for key, value in record.items():
        kind = kinds[key]
        check = {int: is_int, float: is_number}.get(kind)
        if not (check(value) if check else isinstance(value, kind)):
            name = {int: "an integer", float: "a number", str: "a string", list: "a list",
                    bool: "true or false", dict: "an object"}[kind]
            raise ConfigError(f"{at}{key} must be {name}")


def _stage_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


# pipeline stages


def _ref(objects: dict, name, expected):
    if not isinstance(name, str) or name not in objects:
        raise ConfigError(
            f"references stage {name!r}, which does not exist yet "
            "(stages may only reference earlier stages)"
        )
    value = objects[name]
    if not isinstance(value, expected):
        raise ConfigError(
            f"stage {name!r} holds {type(value).__name__}, not {expected.__name__}"
        )
    return value


def _named(key: str, where) -> str:
    """A record key as messages name it: the key in a pipeline, or the
    option that sets it in a subcommand (where is None)."""
    if where is not None:
        return key
    return "--" + ("trajectory" if key == "x0_from" else key).replace("_", "-")


def _need(record: dict, keys: list, what: str, where) -> None:
    """Raise ConfigError naming every one of keys when record lacks any."""
    if not all(key in record for key in keys):
        raise ConfigError(f"{what} needs {', '.join(_named(key, where) for key in keys)}")


def _resolve_x0(spec, n: int, issues: int, stage_seed: int) -> np.ndarray:
    if issues < 1:
        raise ConfigError("issues must be positive")
    if isinstance(spec, str):
        if spec == "spread":
            if issues != 1:
                raise ConfigError("x0 'spread' is single-issue; use 'random' or a matrix")
            return np.linspace(0.0, 1.0, n)
        if spec == "random":
            return philox_stream(stage_seed, 101).random((n, issues))
    message = f"x0 must be 'spread', 'random', or {n} rows of values"
    try:
        x0 = np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(message) from exc
    if x0.ndim in (1, 2) and x0.shape[0] == n:
        return x0
    raise ConfigError(message)


def _parse_floats(text: str, error: str):
    """A float, or a list of floats when the text holds commas; raises
    ConfigError(error) on anything else."""
    try:
        values = [float(item) for item in text.split(",")]
    except ValueError as exc:
        raise ConfigError(error) from exc
    return values if "," in text else values[0]


def _read_trajectory(path) -> OpinionTrajectory:
    _, states = load_trajectory(path)
    if not np.isfinite(states).all():
        raise ConfigError(f"trajectory {path} holds a non-finite opinion")
    return OpinionTrajectory(
        states=states, model=ModelDescriptor(kind="loaded", params={"path": str(path)})
    )


def _stage_generate(record, where, stage_seed, objects):
    _check_keys(
        record,
        {"stage": str, "name": str, "model": str, "n": int},
        {"p": float, "k": int, "beta_rw": float, "m0": int, "lambda_range": list},
        where,
    )
    lambda_range = tuple(record.get("lambda_range", (0.0, 1.0)))
    if len(lambda_range) != 2 or not all(map(is_number, lambda_range)):
        raise ConfigError("lambda_range must be two numbers")
    config = GeneratorConfig(
        model=record["model"],
        n=record["n"],
        p=record.get("p"),
        k=record.get("k"),
        beta_rw=record.get("beta_rw"),
        m0=record.get("m0"),
        lambda_range=lambda_range,
    )
    return generate_network(config, seed=stage_seed)


def _stage_load(record, where, stage_seed, objects):
    _check_keys(record, {"stage": str, "name": str, "path": str, "format": str}, {}, where)
    path = Path(record["path"])
    if not path.is_file():
        raise ConfigError(f"input file {path} does not exist")
    kind = record["format"]
    if kind == "network":
        return load_network(path)
    if kind == "trajectory":
        return _read_trajectory(path)
    if kind == "stream":
        return load_stream(path)
    raise ConfigError(f"unknown format {kind!r}")


def _stage_simulate(record, where, stage_seed, objects):
    _check_keys(
        record,
        {"stage": str, "name": str, "network": str, "kind": str, "steps": int},
        {"x0": object, "issues": int, "activation_size": int, "stride": int},
        where,
    )
    net = _ref(objects, record["network"], InfluenceNetwork)
    x0 = _resolve_x0(record.get("x0", "spread"), net.n, record.get("issues", 1), stage_seed)
    kind = record["kind"]
    if kind == "fj":
        return simulate_fj(net, x0, record["steps"])
    if kind == "gossip":
        _need(record, ["activation_size"], "gossip", where)
        return simulate_gossip_fj(
            net, x0, record["steps"], record["activation_size"], seed=stage_seed
        )
    raise ConfigError(f"unknown dynamics kind {kind!r}")


def _stage_observe(record, where, stage_seed, objects):
    _check_keys(
        record,
        {"stage": str, "name": str, "trajectory": str, "kind": str},
        {"rho": object, "issue": int},
        where,
    )
    traj = _ref(objects, record["trajectory"], OpinionTrajectory)
    rho = record.get("rho")
    if isinstance(rho, list) and all(map(is_number, rho)):
        rho = np.asarray(rho, dtype=float)
    elif rho is not None and not is_number(rho):
        raise ConfigError("rho must be a number or a list of numbers")
    model = SamplingModel(kind=record["kind"], rho=rho)
    return sample_observations(traj, model, seed=stage_seed, issue=record.get("issue", 0))


def _stage_identify(record, where, stage_seed, objects):
    """One estimate. The equilibrium methods read x0 and x(inf) from the two
    frames of profiles, or draw x0 and compute x(inf) on network."""
    _check_keys(
        record,
        {"stage": str, "name": str, "method": str},
        {"trajectory": str, "network": str, "stream": str, "profiles": str, "x0": object,
         "issues": int, "eps": float, "nonneg": bool, "beta": float, "mode": str,
         "eta": float, "max_lag": int, "n_sigma": int, "threshold": float, "x0_from": str},
        where,
    )
    method = record["method"]
    net = None
    if "network" in record:
        net = _ref(objects, record["network"], InfluenceNetwork)
    if method == "finite_horizon":
        _need(record, ["trajectory"], method, where)
        traj = _ref(objects, record["trajectory"], OpinionTrajectory)
        lam = None if net is None else net.lam
        return identify_finite_horizon(traj, eps=record.get("eps", 0.0), lam=lam)
    if method == "yule_walker":
        _need(record, ["stream", "network", "beta", "x0_from"], method, where)
        stream = _ref(objects, record["stream"], ObservationStream)
        source = _ref(objects, record["x0_from"], OpinionTrajectory)
        moments = estimate_cross_correlations(
            stream, record.get("max_lag", N_SIGMA), record.get("n_sigma", N_SIGMA)
        )
        # anchored at frame 0 of the source trajectory
        b_bar = record["beta"] * (1.0 - net.lam) * source.states[0, :, stream.issue]
        gamma_hat, info = estimate_gamma(
            moments, b_bar, mode=record.get("mode", "dense"), eta=record.get("eta", 0.0)
        )
        report = recover_topology_and_w(
            gamma_hat, net.lam, record["beta"], threshold=record.get("threshold")
        )
        return dataclasses.replace(report, solver_log={**report.solver_log, **info})
    if method not in ("infinite_horizon", "unknown_lambda"):
        raise ConfigError(f"unknown identify method {method!r}")
    if "profiles" in record:
        if "x0" in record or "issues" in record:
            raise ConfigError("profiles cannot be combined with x0 or issues")
        profiles = _ref(objects, record["profiles"], OpinionTrajectory).states
        if len(profiles) != 2:
            raise ConfigError(
                f"{_named('profiles', where)} must hold exactly 2 frames "
                f"(initial, equilibrium); got {len(profiles)}"
            )
    if method == "infinite_horizon":
        _need(record, ["network"], method, where)
        check_lambda_identifiability(net.lam)
    elif "profiles" not in record and net is None:
        raise ConfigError(
            f"{method} needs {_named('profiles', where)} or {_named('network', where)}"
        )
    if "profiles" not in record:
        x0 = _resolve_x0(
            record.get("x0", "random"), net.n, record.get("issues", net.n), stage_seed
        )
        profiles = x0, fj_equilibrium(net, x0)[0]
    nonneg = record.get("nonneg", False)
    if method == "infinite_horizon":
        return identify_infinite_horizon(*profiles, net.lam, nonneg=nonneg)
    return identify_unknown_lambda(*profiles, nonneg=nonneg)


def _stage_centrality(record, where, stage_seed, objects):
    _check_keys(
        record,
        {"stage": str, "name": str, "network": str, "measure": str},
        {"weighted": bool, "alpha": float, "damping": float},
        where,
    )
    net = _ref(objects, record["network"], InfluenceNetwork)
    measure, weighted = record["measure"], record.get("weighted", False)
    if measure == "in_degree":
        return degree_centrality(net, direction="in", weighted=weighted)
    if measure == "out_degree":
        return degree_centrality(net, direction="out", weighted=weighted)
    if measure == "closeness":
        return closeness_centrality(net, weighted=weighted)
    if measure == "betweenness":
        return betweenness_centrality(net, weighted=weighted)
    if measure == "eigenvector":
        return eigenvector_centrality(net.w)
    if measure == "pagerank":
        return pagerank(net.w, m=record.get("damping", 0.15), row_stochastic=True)
    if measure == "friedkin":
        return friedkin_centrality(net, alpha=record.get("alpha"))
    raise ConfigError(f"unknown centrality measure {measure!r}")


def _stage_evaluate(record, where, stage_seed, objects):
    _check_keys(
        record, {"stage": str, "name": str, "estimate": str, "truth": str}, {"tol": float}, where
    )
    report = _ref(objects, record["estimate"], EstimationReport)
    truth = _ref(objects, record["truth"], InfluenceNetwork)
    metrics = evaluate_estimate(truth.w, report, tol=record.get("tol", EVALUATE_TOL))
    return dataclasses.asdict(metrics)


def _stage_report(record, where, stage_seed, objects):
    _check_keys(record, {"stage": str, "name": str, "inputs": list}, {}, where)
    inputs = record["inputs"]
    if not inputs:
        raise ConfigError("inputs must be a non-empty list of stage names")
    rows = []
    for name in inputs:
        rows.extend(_plot_rows(name, _ref(objects, name, object)))
    return rows


def _plot_rows(name, value) -> list:
    """The (x, y, series) rows of one input, named after its stage, or after
    its file's stem in a subcommand; a dict's values that are not numbers
    are skipped."""
    series = Path(name).stem
    if isinstance(value, dict):
        return [(key, value[key], series) for key in sorted(value) if is_number(value[key])]
    if isinstance(value, CentralityVector):
        return [(i, v, series) for i, v in enumerate(value.values)]
    raise ConfigError(
        f"stage {name!r} holds {type(value).__name__}, which has no "
        "plottable rows (use evaluate or centrality outputs)"
    )


def _plot_text(rows) -> str:
    rows = sorted(rows, key=lambda row: (row[2], str(row[0])))
    ys = number_texts([float(y) for _, y, _ in rows])
    return "x,y,series\n" + "".join(
        f"{x},{y},{series}\n" for (x, _, series), y in zip(rows, ys)
    )


def _put(path, text: str) -> None:
    """Write text to path, or print it when path is None."""
    if path is None:
        click.echo(text, nl=False)
    else:
        Path(path).write_text(text)


_STAGES = {
    "generate": _stage_generate,
    "load": _stage_load,
    "simulate": _stage_simulate,
    "observe": _stage_observe,
    "identify": _stage_identify,
    "centrality": _stage_centrality,
    "evaluate": _stage_evaluate,
    "report": _stage_report,
}

# What each stage kind writes: the emit flag that gates it (None: always),
# the suffixes of the files named after the stage, and the writer, called
# with the stage value, the path of the first file and the stage record.
# The writers of the last three print the value when the path is None.
_ARTIFACTS = {
    "generate": (None, (".json",), lambda net, path, rec: save_network(net, path)),
    "simulate": ("trajectories", (".csv",), lambda traj, path, rec: save_trajectory(
        traj, path, stride=rec.get("stride", 1))),
    "observe": ("trajectories", (".csv", ".csv.meta.json"),
                lambda stream, path, rec: save_stream(stream, path)),
    "identify": ("reports", (".json",), lambda report, path, rec: save_report(report, path)),
    "centrality": ("reports", (".csv",), lambda values, path, rec: _put(
        path, "".join(table_text("agent,value", values.values)))),
    "evaluate": ("reports", (".json",), lambda doc, path, rec: _put(path, json_text(doc))),
    "report": ("plot_data", (".csv",), lambda rows, path, rec: _put(path, _plot_text(rows))),
}

_EMIT_DEFAULTS = {"reports": True, "trajectories": True, "plot_data": True}


def _output_dir(config, what: str, required: dict, optional: dict, output_dir) -> Path:
    """The output directory of a run or sweep config, created: output_dir,
    else the config's own. Raises ConfigError, prefixed with what, unless
    config is an object of the required and optional keys (output_dir is
    always optional) with a nonnegative seed."""
    if not isinstance(config, dict):
        raise ConfigError(f"{what} must be a JSON object")
    _check_keys(config, required, {"output_dir": str, **optional}, what)
    if config["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    target = output_dir or config.get("output_dir")
    if target is None:
        raise ConfigError("no output directory: set output_dir or pass one")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, config: dict, artifacts: dict, **extra) -> dict:
    """Write and return out/manifest.json: the artifact digests, the config's
    hash and seed, the tool versions and any extra entries."""
    manifest = {
        "artifacts": artifacts,
        "config_sha256": _config_hash(config),
        "seed": config["seed"],
        "versions": _version_table(),
        **extra,
    }
    write_json(out / "manifest.json", manifest)
    return manifest


def run_pipeline(config: dict, output_dir=None, values=None) -> dict:
    """Execute the stages of one experiment config and write a manifest.

    Returns the manifest document; values, an empty dict when given,
    receives each stage's value under the stage's name. Stage failures
    abort with the failing stage named; artifacts written before the
    failure stay on disk.
    """
    out = _output_dir(config, "config", {"seed": int, "stages": list}, {"emit": dict}, output_dir)
    stages = config["stages"]
    if not stages:
        raise ConfigError("stages must be a non-empty list")
    emit_spec = config.get("emit", {})
    _check_keys(emit_spec, {}, dict.fromkeys(_EMIT_DEFAULTS, bool), "emit")
    emit = {**_EMIT_DEFAULTS, **emit_spec}

    objects = {} if values is None else values
    artifacts: list = []
    seen = set()
    for index, record in enumerate(stages):
        if not isinstance(record, dict):
            raise ConfigError(f"stage {index} is not an object")
        kind = record.get("stage")
        if kind not in _STAGES:
            raise ConfigError(
                f"stage {index}: unknown stage kind {kind!r}; "
                f"choose from {sorted(_STAGES)}"
            )
        name = record.get("name")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ConfigError(f"stage {index}: name must match [A-Za-z0-9_-]+")
        if name in seen:
            raise ConfigError(f"stage {index}: duplicate name {name!r}")
        seen.add(name)
        where = f"stage {name!r} ({kind})"
        try:
            value = _STAGES[kind](record, where, _stage_seed(config["seed"], index), objects)
            objects[name] = value
            flag, suffixes, write = _ARTIFACTS.get(kind, (None, (), None))
            if write is not None and (flag is None or emit[flag]):
                write(value, out / f"{name}{suffixes[0]}", record)
                artifacts.extend(name + suffix for suffix in suffixes)
        except OpinionKitError as exc:
            if str(exc).startswith(where):
                raise
            raise type(exc)(f"{where}: {exc}") from exc

    return _write_manifest(out, config, {rel: _sha256(out / rel) for rel in sorted(artifacts)})


# sweeps


def _set_path(config, path: str, value) -> None:
    tokens = path.split(".")
    node = config
    try:
        for token in tokens[:-1]:
            node = node[int(token)] if isinstance(node, list) else node[token]
        last = tokens[-1]
        if isinstance(node, list):
            node[int(last)] = value
        elif isinstance(node, dict):
            node[last] = value
        else:
            raise TypeError(type(node).__name__)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise ConfigError(f"grid path {path!r} does not resolve: {exc}") from exc


def _sweep_point(payload):
    """Run one grid point; returns (index, evaluate metrics, the point's
    artifact digests keyed by their path below the sweep directory)."""
    index, config, point_dir = payload
    values = {}
    manifest = run_pipeline(config, output_dir=point_dir, values=values)
    metrics = {
        record["name"]: values[record["name"]]
        for record in config["stages"]
        if record["stage"] == "evaluate"
    }
    prefix = Path(point_dir).name
    digests = {f"{prefix}/{rel}": digest for rel, digest in manifest["artifacts"].items()}
    return index, metrics, digests


def run_sweep(config: dict, output_dir=None, jobs: int = 1) -> dict:
    """Run the cartesian grid of a sweep config; aggregate the metrics.

    Axes are ordered by sorted path name; each point gets an independent
    derived seed and its own point_NNNN directory, and the aggregation
    rows come out sorted by grid coordinates regardless of worker order.
    """
    out = _output_dir(config, "sweep config", {"base": dict, "grid": dict, "seed": int}, {},
                      output_dir)
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    base = config["base"]
    grid = config["grid"]
    if not grid:
        raise ConfigError("grid must map parameter paths to value lists")
    for path, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid {path!r} must list at least one value")

    axes = [(path, list(grid[path])) for path in sorted(grid)]
    payloads = []
    coordinates = []
    for index, combo in enumerate(itertools.product(*(values for _, values in axes))):
        point = copy.deepcopy(base)
        for (path, _), value in zip(axes, combo):
            _set_path(point, path, value)
        point["seed"] = _stage_seed(config["seed"], index)
        point.pop("output_dir", None)
        payloads.append((index, point, str(out / f"point_{index:04d}")))
        coordinates.append(combo)

    if jobs == 1:
        results = [_sweep_point(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point, payloads))
    results.sort(key=lambda item: item[0])
    digests = {}
    for _, _, point_digests in results:
        digests.update(point_digests)

    metric_columns = sorted(
        {
            f"{stage}.{key}"
            for _, metrics, _ in results
            for stage, doc in metrics.items()
            for key in doc
        }
    )
    rel = "sweep.csv"
    with open(out / rel, "w") as handle:
        header = ["point"] + [path for path, _ in axes] + metric_columns
        handle.write(",".join(header) + "\n")
        for index, metrics, _ in results:
            flat = {
                f"{stage}.{key}": doc[key]
                for stage, doc in metrics.items()
                for key in doc
            }
            coordinate = coordinates[index]
            cells = [flat.get(column) for column in metric_columns]
            texts = iter(number_texts(
                [value for value in coordinate if isinstance(value, float)]
                + [float(value) for value in cells if value is not None]
            ))
            row = [str(index)]
            row += [next(texts) if isinstance(v, float) else str(v) for v in coordinate]
            row += ["" if v is None else next(texts) for v in cells]
            handle.write(",".join(row) + "\n")

    # Every file under the sweep directory is hashed; the points' own
    # manifests already hold the digests of the artifacts they wrote, so
    # only the rest (point manifests, sweep.csv, stale files) is read back.
    files = sorted(
        p.relative_to(out).as_posix()
        for p in out.rglob("*")
        if p.is_file() and p.relative_to(out).as_posix() != "manifest.json"
    )
    artifacts = {rel: digests.get(rel) or _sha256(out / rel) for rel in files}
    return _write_manifest(out, config, artifacts, points=len(payloads))


# command definitions


def _run_stage(kind, record, objects, out, summary, seed=0) -> None:
    """Run the stage kind as a subcommand: record holds the options (None:
    not given) and references to the input files read into objects. The
    value is written to out with the stage's artifact writer and summary
    states it, or the writer prints it when out is None."""
    record = {
        "stage": kind, "name": kind,
        **{key: value for key, value in record.items() if value is not None},
    }
    value = _STAGES[kind](record, None, seed, objects)
    _ARTIFACTS[kind][2](value, out, record)
    if out is not None:
        click.echo(f"wrote {out}: {summary(value)}")


def _read_series(path):
    """A metrics JSON as a dict, or an agent,value table as {agent: value}."""
    if path.endswith(".json"):
        return read_json(path, "metrics")
    (agents,), values = read_table(path, "agent,value", "agent,value")
    return dict(zip(agents.tolist(), values.tolist()))


def _print_versions(ctx, param, value):
    if not value or ctx.resilient_parsing:
        return
    click.echo(json.dumps(_version_table(), indent=2, sort_keys=True))
    ctx.exit(0)


@click.group()
@click.version_option(__version__, "--version", prog_name="opinionkit")
@click.option(
    "--manifest",
    is_flag=True,
    expose_value=False,
    is_eager=True,
    callback=_print_versions,
    help="Print tool and dependency versions as JSON and exit.",
)
def cli():
    """Opinion-dynamics simulation and influence-network identification."""


@cli.command()
@click.option("--model", type=click.Choice(GENERATOR_MODELS), required=True)
@click.option("--n", "n_agents", type=int, required=True)
@click.option("--p", type=float, default=None, help="erdos_renyi edge probability.")
@click.option("--k", type=int, default=None, help="watts_strogatz ring degree (even).")
@click.option("--beta-rw", type=float, default=None, help="watts_strogatz rewiring probability.")
@click.option("--m0", type=int, default=None, help="barabasi_albert attachment count.")
@click.option("--lambda-range", nargs=2, type=float, default=(0.0, 1.0), show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def generate(model, n_agents, p, k, beta_rw, m0, lambda_range, seed, out):
    """Draw a random influence network and write it as JSON."""
    record = dict(model=model, n=n_agents, p=p, k=k, beta_rw=beta_rw, m0=m0,
                  lambda_range=list(lambda_range))
    _run_stage("generate", record, {}, out,
               lambda net: f"n={net.n}, edges={len(net.edge_set())}", seed)


@cli.command()
@click.argument("network", type=click.Path(exists=True, dir_okay=False))
@click.option("--measure", type=click.Choice(CENTRALITY_MEASURES), required=True)
@click.option("--weighted", is_flag=True, help="Use 1/weight edge lengths / weight mass.")
@click.option("--alpha", type=float, default=None, help="Uniform susceptibility for the friedkin measure.")
@click.option("--damping", type=float, default=0.15, show_default=True, help="Teleport mass for pagerank.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def centrality(network, measure, weighted, alpha, damping, out):
    """Rank the agents of a network by one centrality measure."""
    record = dict(network="network", measure=measure, weighted=weighted, alpha=alpha,
                  damping=damping)
    _run_stage("centrality", record, {"network": load_network(network)}, out,
               lambda values: f"{measure} for {len(values.values)} agents")


@cli.command()
@click.argument("network", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(["fj", "gossip"]), default="fj", show_default=True)
@click.option("--steps", type=int, required=True)
@click.option("--x0", default="spread", show_default=True, help="Comma-separated values or 'spread'.")
@click.option("--activation-size", type=int, default=None, help="Agents updating per gossip step.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--stride", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def simulate(network, kind, steps, x0, activation_size, seed, stride, out):
    """Run opinion dynamics on a stored network; write the trajectory CSV."""
    objects = {"network": load_network(network)}
    if x0 != "spread":
        x0 = np.atleast_1d(_parse_floats(x0, "x0 must be 'spread' or comma-separated floats"))
    record = dict(network="network", kind=kind, steps=steps, x0=x0,
                  activation_size=activation_size, stride=stride)
    _run_stage("simulate", record, objects, out,
               lambda traj: f"{traj.horizon + 1} frames, n={traj.n}", seed)


@cli.command()
@click.argument("trajectory", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(SAMPLING_KINDS), required=True)
@click.option("--rho", default=None, help="Scalar or comma-separated per-agent probabilities.")
@click.option("--issue", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def observe(trajectory, kind, rho, issue, seed, out):
    """Push a stored trajectory through an observation law; write the stream."""
    objects = {"trajectory": _read_trajectory(trajectory)}
    if rho is not None:
        rho = _parse_floats(rho, "rho must be a float or comma-separated floats")
    record = dict(trajectory="trajectory", kind=kind, rho=rho, issue=issue)
    _run_stage("observe", record, objects, out,
               lambda stream: f"{int(stream.mask.sum())} observations", seed)


@cli.command()
@click.option("--method", type=click.Choice(IDENTIFY_METHODS), required=True)
@click.option("--trajectory", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Trajectory CSV: finite-horizon data, or the yule_walker anchor profile (frame 0).")
@click.option("--profiles", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Two-frame trajectory CSV holding initial and equilibrium profiles "
                   "(without it, the equilibrium is computed on --network from a random x0).")
@click.option("--stream", "stream_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--network", "network_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Network JSON supplying the known susceptibilities.")
@click.option("--eps", type=float, default=0.0, show_default=True)
@click.option("--beta", type=float, default=None, help="Gossip activation fraction.")
@click.option("--mode", type=click.Choice(["dense", "sparse"]), default="dense", show_default=True)
@click.option("--eta", type=float, default=0.0, show_default=True)
@click.option("--n-sigma", type=int, default=N_SIGMA, show_default=True)
@click.option("--max-lag", type=int, default=N_SIGMA, show_default=True)
@click.option("--threshold", type=float, default=None)
@click.option("--nonneg", is_flag=True)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of the random x0 drawn when --profiles is not given.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def identify(method, trajectory, profiles, stream_path, network_path, eps, beta,
             mode, eta, n_sigma, max_lag, threshold, nonneg, seed, out):
    """Reconstruct the influence matrix from stored opinion data."""
    files = {
        "trajectory": (_read_trajectory, trajectory),
        "profiles": (_read_trajectory, profiles),
        "stream": (load_stream, stream_path),
        "network": (load_network, network_path),
    }
    objects = {key: read(path) for key, (read, path) in files.items() if path is not None}
    record = dict(method=method, eps=eps, beta=beta, mode=mode, eta=eta, n_sigma=n_sigma,
                  max_lag=max_lag, threshold=threshold, nonneg=nonneg,
                  x0_from="trajectory" if trajectory else None, **{key: key for key in objects})
    _run_stage("identify", record, objects, out,
               lambda report: f"{len(report.support)} recovered edges", seed)


@cli.command()
@click.option("--truth", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Ground-truth network JSON.")
@click.option("--estimate", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Estimation report JSON.")
@click.option("--tol", type=float, default=EVALUATE_TOL, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def evaluate(truth, estimate, tol, out):
    """Score an estimation report against a ground-truth network."""
    objects = {"truth": load_network(truth), "estimate": load_report(estimate)}
    record = dict(truth="truth", estimate="estimate", tol=tol)
    _run_stage("evaluate", record, objects, out, lambda doc: f"f1={doc['f1']:.4f}")


@cli.command(name="run")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", envvar="OPINIONKIT_OUT", default=None,
              help="Output directory (default: config output_dir or $OPINIONKIT_OUT).")
def run_command(config, out):
    """Execute a pipeline config; write artifacts plus manifest.json."""
    document = read_json(config, "config")
    manifest = run_pipeline(document, output_dir=out)
    target = out or document.get("output_dir")
    click.echo(f"wrote {len(manifest['artifacts'])} artifacts to {target}")


@cli.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", envvar="OPINIONKIT_OUT", default=None,
              help="Output directory (default: config output_dir or $OPINIONKIT_OUT).")
@click.option("--jobs", type=int, default=1, show_default=True)
def sweep(config, out, jobs):
    """Run a parameter grid of pipelines; aggregate metrics into sweep.csv."""
    document = read_json(config, "config")
    manifest = run_sweep(document, output_dir=out, jobs=jobs)
    target = out or document.get("output_dir")
    click.echo(f"swept {manifest['points']} points into {target}")


@cli.command()
@click.argument("inputs", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def report(inputs, out):
    """Aggregate metric JSONs / centrality CSVs into plot-ready x,y,series rows."""
    objects = {path: _read_series(path) for path in inputs}
    _run_stage("report", {"inputs": list(inputs)}, objects, out, lambda rows: f"{len(rows)} rows")


def main(argv=None) -> int:
    """Entry point with library exit-code mapping."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except OpinionKitError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    if isinstance(result, int):
        return result
    return 0
