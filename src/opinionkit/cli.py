"""Command-line pipeline driver.

Binds the library into reproducible generate -> simulate -> observe ->
identify -> evaluate -> report experiments. A pipeline is one JSON
document with a seed and an ordered stage list; stages reference earlier
stages by name, every artifact lands in one output directory, and a
manifest records the config hash, the seed, dependency versions, and a
digest per artifact. Reruns of the same config are byte-identical.

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
    write_table,
)
from .errors import ConfigError, OpinionKitError
from .centrality import (
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


def _check_keys(record: dict, required: set, optional: set, where: str) -> None:
    keys = set(record)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _stage_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


# pipeline stages


def _ref(objects: dict, name, expected, where: str):
    if not isinstance(name, str) or name not in objects:
        raise ConfigError(
            f"{where}: references stage {name!r}, which does not exist yet "
            "(stages may only reference earlier stages)"
        )
    value = objects[name]
    if not isinstance(value, expected):
        raise ConfigError(
            f"{where}: stage {name!r} holds {type(value).__name__}, "
            f"not {expected.__name__}"
        )
    return value


def _resolve_x0(spec, n: int, issues: int, stage_seed: int) -> np.ndarray:
    if isinstance(spec, str):
        if spec == "spread":
            if issues != 1:
                raise ConfigError("x0 'spread' is single-issue; use 'random' or a matrix")
            return np.linspace(0.0, 1.0, n)
        if spec == "random":
            from .numkit import philox_stream

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
    """A float, or an array of floats when the text holds commas; raises
    ConfigError(error) on anything else."""
    try:
        values = [float(item) for item in text.split(",")]
    except ValueError as exc:
        raise ConfigError(error) from exc
    return np.array(values) if "," in text else values[0]


def _read_trajectory(path) -> OpinionTrajectory:
    _, states = load_trajectory(path)
    if not np.isfinite(states).all():
        raise ConfigError(f"trajectory {path} holds a non-finite opinion")
    return OpinionTrajectory(
        states=states, model=ModelDescriptor(kind="loaded", params={"path": str(path)})
    )


def _simulate(net, kind, x0, steps, activation_size, seed):
    if kind == "fj":
        return simulate_fj(net, x0, steps)
    if kind == "gossip":
        return simulate_gossip_fj(net, x0, steps, activation_size, seed=seed)
    raise ConfigError(f"unknown dynamics kind {kind!r}")


def _identify_equilibrium(method, x0, x_inf, lam, nonneg):
    if method == "infinite_horizon":
        return identify_infinite_horizon(x0, x_inf, lam, nonneg=nonneg)
    return identify_unknown_lambda(x0, x_inf, nonneg=nonneg)


def _yule_walker(stream, net, source, beta, max_lag, n_sigma, mode, eta, threshold):
    """Lag moments, Gamma-hat and the recovered weights of one observed
    gossip stream, anchored at frame 0 of the source trajectory; the
    report's solver_log also carries estimate_gamma's diagnostics."""
    moments = estimate_cross_correlations(stream, max_lag=max_lag, n_sigma=n_sigma)
    b_bar = beta * (1.0 - net.lam) * source.states[0, :, stream.issue]
    gamma_hat, info = estimate_gamma(moments, b_bar, mode=mode, eta=eta)
    report = recover_topology_and_w(gamma_hat, net.lam, beta, threshold=threshold)
    return dataclasses.replace(report, solver_log={**report.solver_log, **info})


def _stage_generate(record, where, stage_seed, objects):
    _check_keys(
        record,
        {"stage", "name", "model", "n"},
        {"p", "k", "beta_rw", "m0", "lambda_range"},
        where,
    )
    lambda_range = tuple(record.get("lambda_range", (0.0, 1.0)))
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
    _check_keys(record, {"stage", "name", "path", "format"}, set(), where)
    path = Path(record["path"])
    if not path.is_file():
        raise ConfigError(f"{where}: input file {path} does not exist")
    kind = record["format"]
    if kind == "network":
        return load_network(path)
    if kind == "trajectory":
        return _read_trajectory(path)
    if kind == "stream":
        return load_stream(path)
    raise ConfigError(f"{where}: unknown format {kind!r}")


def _stage_simulate(record, where, stage_seed, objects):
    _check_keys(
        record,
        {"stage", "name", "network", "kind", "steps"},
        {"x0", "issues", "activation_size", "stride"},
        where,
    )
    net = _ref(objects, record["network"], InfluenceNetwork, where)
    x0 = _resolve_x0(
        record.get("x0", "spread"), net.n, record.get("issues", 1), stage_seed
    )
    if record["kind"] == "gossip" and "activation_size" not in record:
        raise ConfigError(f"{where}: gossip needs activation_size")
    return _simulate(
        net,
        record["kind"],
        x0,
        record["steps"],
        record.get("activation_size"),
        stage_seed,
    )


def _stage_observe(record, where, stage_seed, objects):
    _check_keys(
        record, {"stage", "name", "trajectory", "kind"}, {"rho", "issue"}, where
    )
    traj = _ref(objects, record["trajectory"], OpinionTrajectory, where)
    rho = record.get("rho")
    if isinstance(rho, list):
        rho = np.asarray(rho, dtype=float)
    model = SamplingModel(kind=record["kind"], rho=rho)
    return sample_observations(
        traj, model, seed=stage_seed, issue=record.get("issue", 0)
    )


def _stage_identify(record, where, stage_seed, objects):
    _check_keys(
        record,
        {"stage", "name", "method"},
        {
            "trajectory",
            "network",
            "stream",
            "x0",
            "issues",
            "eps",
            "nonneg",
            "beta",
            "mode",
            "eta",
            "max_lag",
            "n_sigma",
            "threshold",
            "x0_from",
        },
        where,
    )
    method = record["method"]
    if method == "finite_horizon":
        traj = _ref(objects, record.get("trajectory"), OpinionTrajectory, where)
        lam = None
        if "network" in record:
            lam = _ref(objects, record["network"], InfluenceNetwork, where).lam
        return identify_finite_horizon(traj, eps=record.get("eps", 0.0), lam=lam)
    if method in ("infinite_horizon", "unknown_lambda"):
        net = _ref(objects, record.get("network"), InfluenceNetwork, where)
        if method == "infinite_horizon":
            check_lambda_identifiability(net.lam)
        issues = record.get("issues", net.n)
        x0 = _resolve_x0(record.get("x0", "random"), net.n, issues, stage_seed)
        x_inf, _ = fj_equilibrium(net, x0)
        return _identify_equilibrium(
            method, x0, x_inf, net.lam, record.get("nonneg", False)
        )
    if method == "yule_walker":
        stream = _ref(objects, record.get("stream"), ObservationStream, where)
        net = _ref(objects, record.get("network"), InfluenceNetwork, where)
        if "beta" not in record or "x0_from" not in record:
            raise ConfigError(f"{where}: yule_walker needs beta and x0_from")
        source = _ref(objects, record["x0_from"], OpinionTrajectory, where)
        return _yule_walker(
            stream,
            net,
            source,
            record["beta"],
            max_lag=record.get("max_lag", 5),
            n_sigma=record.get("n_sigma", 5),
            mode=record.get("mode", "dense"),
            eta=record.get("eta", 0.0),
            threshold=record.get("threshold"),
        )
    raise ConfigError(f"{where}: unknown identify method {method!r}")


def _stage_centrality(record, where, stage_seed, objects):
    _check_keys(
        record,
        {"stage", "name", "network", "measure"},
        {"weighted", "alpha", "damping"},
        where,
    )
    net = _ref(objects, record["network"], InfluenceNetwork, where)
    return _centrality_values(
        net,
        record["measure"],
        weighted=record.get("weighted", False),
        alpha=record.get("alpha"),
        damping=record.get("damping", 0.15),
    )


def _stage_evaluate(record, where, stage_seed, objects):
    _check_keys(record, {"stage", "name", "estimate", "truth"}, {"tol"}, where)
    report = _ref(objects, record["estimate"], EstimationReport, where)
    truth = _ref(objects, record["truth"], InfluenceNetwork, where)
    metrics = evaluate_estimate(truth.w, report, tol=record.get("tol", 1e-8))
    return dataclasses.asdict(metrics)


def _stage_report(record, where, stage_seed, objects):
    _check_keys(record, {"stage", "name", "inputs"}, set(), where)
    inputs = record["inputs"]
    if not isinstance(inputs, list) or not inputs:
        raise ConfigError(f"{where}: inputs must be a non-empty list of stage names")
    rows = []
    for name in inputs:
        value = _ref(objects, name, object, where)
        rows.extend(_plot_rows(name, value, where))
    return rows


def _plot_rows(name: str, value, where: str) -> list:
    from .centrality import CentralityVector

    if isinstance(value, dict):
        return [(key, value[key], name) for key in sorted(value)]
    if isinstance(value, CentralityVector):
        return [(i, v, name) for i, v in enumerate(value.values)]
    raise ConfigError(
        f"{where}: stage {name!r} holds {type(value).__name__}, which has no "
        "plottable rows (use evaluate or centrality outputs)"
    )


def _plot_text(rows) -> str:
    rows = sorted(rows, key=lambda row: (row[2], str(row[0])))
    ys = number_texts([float(y) for _, y, _ in rows])
    return "x,y,series\n" + "".join(
        f"{x},{y},{series}\n" for (x, _, series), y in zip(rows, ys)
    )


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
_ARTIFACTS = {
    "generate": (None, (".json",), lambda net, path, rec: save_network(net, path)),
    "simulate": (
        "trajectories",
        (".csv",),
        lambda traj, path, rec: save_trajectory(traj, path, stride=rec.get("stride", 1)),
    ),
    "observe": (
        "trajectories",
        (".csv", ".csv.meta.json"),
        lambda stream, path, rec: save_stream(stream, path),
    ),
    "identify": ("reports", (".json",), lambda report, path, rec: save_report(report, path)),
    "centrality": (
        "reports",
        (".csv",),
        lambda values, path, rec: write_table(path, "agent,value", values.values),
    ),
    "evaluate": ("reports", (".json",), lambda doc, path, rec: write_json(path, doc)),
    "report": ("plot_data", (".csv",), lambda rows, path, rec: path.write_text(_plot_text(rows))),
}

_EMIT_DEFAULTS = {"reports": True, "trajectories": True, "plot_data": True}


def run_pipeline(config: dict, output_dir=None) -> dict:
    """Execute the stages of one experiment config and write a manifest.

    Returns the manifest document. Stage failures abort with the failing
    stage named; artifacts written before the failure stay on disk.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(config, {"seed", "stages"}, {"output_dir", "emit"}, "config")
    seed = config["seed"]
    if not is_int(seed) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    stages = config["stages"]
    if not isinstance(stages, list) or not stages:
        raise ConfigError("stages must be a non-empty list")
    emit = dict(_EMIT_DEFAULTS)
    emit_spec = config.get("emit", {})
    _check_keys(emit_spec, set(), set(_EMIT_DEFAULTS), "emit")
    for key, value in emit_spec.items():
        if not isinstance(value, bool):
            raise ConfigError(f"emit.{key} must be boolean")
        emit[key] = value
    target = output_dir or config.get("output_dir")
    if target is None:
        raise ConfigError("no output directory: set output_dir or pass one")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)

    objects: dict = {}
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
            value = _STAGES[kind](record, where, _stage_seed(seed, index), objects)
            objects[name] = value
            flag, suffixes, write = _ARTIFACTS.get(kind, (None, (), None))
            if write is not None and (flag is None or emit[flag]):
                write(value, out / f"{name}{suffixes[0]}", record)
                artifacts.extend(name + suffix for suffix in suffixes)
        except OpinionKitError as exc:
            if str(exc).startswith(where):
                raise
            raise type(exc)(f"{where}: {exc}") from exc

    manifest = {
        "artifacts": {rel: _sha256(out / rel) for rel in sorted(artifacts)},
        "config_sha256": _config_hash(config),
        "seed": seed,
        "versions": _version_table(),
    }
    write_json(out / "manifest.json", manifest)
    return manifest


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
    manifest = run_pipeline(config, output_dir=point_dir)
    metrics = {}
    for record in config["stages"]:
        if isinstance(record, dict) and record.get("stage") == "evaluate":
            artifact = Path(point_dir) / f"{record['name']}.json"
            if artifact.is_file():
                metrics[record["name"]] = read_json(artifact, "metrics")
    prefix = Path(point_dir).name
    digests = {f"{prefix}/{rel}": digest for rel, digest in manifest["artifacts"].items()}
    return index, metrics, digests


def run_sweep(config: dict, output_dir=None, jobs: int = 1) -> dict:
    """Run the cartesian grid of a sweep config; aggregate the metrics.

    Axes are ordered by sorted path name; each point gets an independent
    derived seed and its own point_NNNN directory, and the aggregation
    rows come out sorted by grid coordinates regardless of worker order.
    """
    if not isinstance(config, dict):
        raise ConfigError("sweep config must be a JSON object")
    _check_keys(config, {"base", "grid", "seed"}, {"output_dir"}, "sweep config")
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    base = config["base"]
    grid = config["grid"]
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("grid must map parameter paths to value lists")
    for path, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid {path!r} must list at least one value")
    target = output_dir or config.get("output_dir")
    if target is None:
        raise ConfigError("no output directory: set output_dir or pass one")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)

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
    manifest = {
        "artifacts": {rel: digests.get(rel) or _sha256(out / rel) for rel in files},
        "config_sha256": _config_hash(config),
        "points": len(payloads),
        "seed": config["seed"],
        "versions": _version_table(),
    }
    write_json(out / "manifest.json", manifest)
    return manifest


# centrality helpers shared by the stage executor and the subcommand


def _centrality_values(net, measure, weighted=False, alpha=None, damping=0.15):
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
        return pagerank(net.w, m=damping, row_stochastic=True)
    if measure == "friedkin":
        return friedkin_centrality(net, alpha=alpha)
    raise ConfigError(f"unknown centrality measure {measure!r}")


# command definitions


def _print_or_write(text: str, out, summary: str) -> None:
    """Print a table or document, or write it to out and say so."""
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)
        click.echo(f"wrote {out}: {summary}")


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
    config = GeneratorConfig(
        model=model, n=n_agents, p=p, k=k, beta_rw=beta_rw, m0=m0,
        lambda_range=tuple(lambda_range),
    )
    net = generate_network(config, seed=seed)
    save_network(net, out)
    click.echo(f"wrote {out}: n={net.n}, edges={len(net.edge_set())}")


@cli.command()
@click.argument("network", type=click.Path(exists=True, dir_okay=False))
@click.option("--measure", type=click.Choice(CENTRALITY_MEASURES), required=True)
@click.option("--weighted", is_flag=True, help="Use 1/weight edge lengths / weight mass.")
@click.option("--alpha", type=float, default=None, help="Uniform susceptibility for the friedkin measure.")
@click.option("--damping", type=float, default=0.15, show_default=True, help="Teleport mass for pagerank.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def centrality(network, measure, weighted, alpha, damping, out):
    """Rank the agents of a network by one centrality measure."""
    net = load_network(network)
    values = _centrality_values(net, measure, weighted=weighted, alpha=alpha, damping=damping)
    text = "".join(table_text("agent,value", values.values))
    _print_or_write(text, out, f"{measure} for {net.n} agents")


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
    net = load_network(network)
    if x0 != "spread":
        x0 = np.atleast_1d(_parse_floats(x0, "x0 must be 'spread' or comma-separated floats"))
    profile = _resolve_x0(x0, net.n, 1, seed)
    if kind == "gossip" and activation_size is None:
        raise ConfigError("gossip needs --activation-size")
    traj = _simulate(net, kind, profile, steps, activation_size, seed)
    save_trajectory(traj, out, stride=stride)
    click.echo(f"wrote {out}: {traj.horizon + 1} frames, n={traj.n}")


@cli.command()
@click.argument("trajectory", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(SAMPLING_KINDS), required=True)
@click.option("--rho", default=None, help="Scalar or comma-separated per-agent probabilities.")
@click.option("--issue", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def observe(trajectory, kind, rho, issue, seed, out):
    """Push a stored trajectory through an observation law; write the stream."""
    traj = _read_trajectory(trajectory)
    if rho is not None:
        rho = _parse_floats(rho, "rho must be a float or comma-separated floats")
    model = SamplingModel(kind=kind, rho=rho)
    stream = sample_observations(traj, model, seed=seed, issue=issue)
    save_stream(stream, out)
    click.echo(f"wrote {out}: {int(stream.mask.sum())} observations")


@cli.command()
@click.option("--method", type=click.Choice(IDENTIFY_METHODS), required=True)
@click.option("--trajectory", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Trajectory CSV: finite-horizon data, or the yule_walker anchor profile (frame 0).")
@click.option("--profiles", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Two-frame trajectory CSV holding initial and equilibrium profiles.")
@click.option("--stream", "stream_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--network", "network_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Network JSON supplying the known susceptibilities.")
@click.option("--eps", type=float, default=0.0, show_default=True)
@click.option("--beta", type=float, default=None, help="Gossip activation fraction.")
@click.option("--mode", type=click.Choice(["dense", "sparse"]), default="dense", show_default=True)
@click.option("--eta", type=float, default=0.0, show_default=True)
@click.option("--n-sigma", type=int, default=5, show_default=True)
@click.option("--max-lag", type=int, default=5, show_default=True)
@click.option("--threshold", type=float, default=None)
@click.option("--nonneg", is_flag=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def identify(method, trajectory, profiles, stream_path, network_path, eps, beta,
             mode, eta, n_sigma, max_lag, threshold, nonneg, out):
    """Reconstruct the influence matrix from stored opinion data."""
    if method == "finite_horizon":
        if trajectory is None:
            raise ConfigError("finite_horizon needs --trajectory")
        traj = _read_trajectory(trajectory)
        lam = load_network(network_path).lam if network_path else None
        report = identify_finite_horizon(traj, eps=eps, lam=lam)
    elif method in ("infinite_horizon", "unknown_lambda"):
        if profiles is None:
            raise ConfigError(f"{method} needs --profiles")
        states = _read_trajectory(profiles).states
        if states.shape[0] != 2:
            raise ConfigError(
                f"--profiles must hold exactly 2 frames (initial, equilibrium); "
                f"got {states.shape[0]}"
            )
        lam = None
        if method == "infinite_horizon":
            if network_path is None:
                raise ConfigError("infinite_horizon needs --network for lambda")
            lam = load_network(network_path).lam
        report = _identify_equilibrium(method, states[0], states[1], lam, nonneg)
    else:
        if stream_path is None or network_path is None or beta is None or trajectory is None:
            raise ConfigError(
                "yule_walker needs --stream, --network, --beta, and --trajectory "
                "(anchor profile)"
            )
        stream, source = load_stream(stream_path), _read_trajectory(trajectory)
        report = _yule_walker(
            stream, load_network(network_path), source, beta,
            max_lag, n_sigma, mode, eta, threshold,
        )
    save_report(report, out)
    click.echo(f"wrote {out}: {len(report.support)} recovered edges")


@cli.command()
@click.option("--truth", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Ground-truth network JSON.")
@click.option("--estimate", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Estimation report JSON.")
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def evaluate(truth, estimate, tol, out):
    """Score an estimation report against a ground-truth network."""
    doc = dataclasses.asdict(
        evaluate_estimate(load_network(truth).w, load_report(estimate), tol=tol)
    )
    _print_or_write(json_text(doc), out, f"f1={doc['f1']:.4f}")


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
    rows = []
    for path in inputs:
        series = Path(path).stem
        if path.endswith(".json"):
            doc = read_json(path, "metrics")
            rows.extend(
                (key, float(doc[key]), series) for key in sorted(doc) if is_number(doc[key])
            )
        else:
            (agents,), values = read_table(path, "agent,value", "agent,value")
            rows.extend(zip(agents.tolist(), values.tolist(), [series] * len(values)))
    _print_or_write(_plot_text(rows), out, f"{len(rows)} rows")


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


if __name__ == "__main__":
    raise SystemExit(main())
