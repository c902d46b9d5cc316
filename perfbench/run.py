"""opinionkit benchmark: one workload per run, in a fresh process.

Run from the root of a source checkout (the directory holding
``src/opinionkit``):

    python3 perfbench/run.py --workload equilibrium_lp --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The run builds its inputs from ``--seed``, sets up (imports the package,
generates inputs, makes one warm-up call) three times, once here and twice
in child processes, then repeats whole rounds of the workload for about
``--seconds`` seconds, at least three. Untraced rounds run under a speed
probe (``workloads.SpeedProbe``), and their time is also reported in probe
units. Every operation is checked against an oracle, and every round must
reproduce the first one's outputs bit for bit.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run first repeats untraced
rounds for half the time, then traced rounds (at least one of each), and
reports per-layer metrics and the tracing overhead. Spans, counts and the environment are also
written to ``perfbench/out/``. ``--workload all`` runs every workload in its
own process and prints one table.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("equilibrium_lp", "gossip_stream", "pipeline_sweep")

# BLAS is pinned to one thread so that runs do not contend with each other
# for the cores.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CHILDREN = 2

# Set-up time is rescaled to a processor on which the speed probe takes this
# long, with the probe timed right after the set-up: in seconds, the set-up
# time of one checkout moved by up to 40% between sets of runs.
PROBE_REFERENCE_S = 0.005
PROBE_REPEATS = 5

HERE = Path(__file__).resolve().parent

# (name, unit): what a run reports with --trace 0 ...
END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("support_f1", "ratio"),
)

# ... and with --trace 1. Times are kept only for layers that every workload
# enters, so that no time reads zero on every run of some workload; the
# spans file holds the time of every traced function.
LAYER_MODULES = ("netgraph", "dynamics", "identify", "numkit")
LAYER_FUNCTIONS = (
    "netgraph.generate_network",
    "dynamics.is_schur_stable",
    "numkit.spectral_radius",
    "identify.evaluate_estimate",
)
CALL_COUNTS = (
    "numkit.solve_l1",
    "identify.identify_infinite_horizon",
    "identify.identify_unknown_lambda",
    "identify.identify_finite_horizon",
    "identify.estimate_cross_correlations",
    "identify.estimate_gamma",
    "identify.recover_topology_and_w",
    "identify.identify_multiplex",
    "dynamics.simulate_fj",
    "dynamics.fj_equilibrium",
    "dynamics.simulate_gossip_fj",
    "dynamics.simulate_multiplex_fj",
    "dynamics.cesaro_average",
    "observe.sample_observations",
    "centrality.friedkin_centrality",
    "centrality.betweenness_centrality",
    "cli.main",
    "cli.run_sweep",
    "cli.run_pipeline",
)
TRACER_COUNTS = (
    ("numkit.linprog.iterations", "count"),
    ("numkit.linprog.optimal", "count"),
    ("numkit.linprog.iteration_limit", "count"),
    ("numkit.linprog.infeasible", "count"),
    ("numkit.linprog.unbounded", "count"),
    ("numkit.linprog.numerical", "count"),
    ("dynamics.simulate_gossip_fj.steps", "count"),
    ("dynamics.save_trajectory.bytes", "bytes"),
    ("dynamics.load_trajectory.bytes", "bytes"),
    ("observe.save_stream.bytes", "bytes"),
    ("observe.load_stream.bytes", "bytes"),
    ("netgraph.save_network.bytes", "bytes"),
    ("netgraph.load_network.bytes", "bytes"),
    ("identify.save_report.bytes", "bytes"),
    ("cli.artifacts", "count"),
    ("cli.artifact_bytes", "bytes"),
)
HARNESS_COUNTS = (
    ("identify.identify_finite_horizon.stubborn_agents", "stubborn_agents"),
    ("identify.identify_finite_horizon.stubborn_anchored", "stubborn_anchored"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{module}.self_s": "s" for module in LAYER_MODULES}
    units.update({f"{name}.s": "s" for name in LAYER_FUNCTIONS})
    units.update({"harness.self_s": "s", "untraced.wall_s": "s", "trace.wall_s": "s",
                  "trace.overhead_s": "s"})
    units["identify.weight_err"] = "frobenius"
    units["numkit.linprog.calls"] = "count"
    units.update({f"{name}.calls": "count" for name in CALL_COUNTS})
    units.update(dict(TRACER_COUNTS))
    units.update({name: "count" for name, _ in HARNESS_COUNTS})
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    return parser.parse_args(argv)


def git_commit(root):
    """Commit of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _proc_field(path, key):
    try:
        for line in Path(path).read_text().splitlines():
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(root):
    from importlib.metadata import version

    import networkx
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(root),
    }


def set_up(args, root, workdir):
    """Import the package, build the inputs and make one warm-up call.

    Returns the workload, the set-up time in seconds, and the set-up time
    rescaled to the reference probe time."""
    start = time.perf_counter()
    import opinionkit

    source = (root / "src" / "opinionkit").resolve()
    if Path(opinionkit.__file__).resolve().parent != source:
        raise RuntimeError(f"imported opinionkit from {opinionkit.__file__}, not {source}")
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale, workdir)
    workload.warm_up()
    elapsed = time.perf_counter() - start
    probe = workloads.SpeedProbe()
    probe_s = statistics.median(end - begin for begin, end in
                                (probe.once() for _ in range(PROBE_REPEATS)))
    return workload, elapsed, elapsed * PROBE_REFERENCE_S / probe_s


def child_setup(args, root):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale, "--setup-only",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child exited {done.returncode}: {done.stderr.strip()}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["seconds"], sample["setup_s"]


class Round:
    def __init__(self, wall, ledger, ref=None, table=None, counts=None):
        self.wall = wall
        self.ledger = ledger
        self.ref = ref
        self.table = table
        self.counts = counts


def run_rounds(workload, budget, tracer=None, least=1):
    """Repeat rounds while the next one is expected to end within budget
    seconds; always at least ``least``."""
    import workloads

    rounds = []
    start = time.perf_counter()
    probe = workloads.SpeedProbe()
    while True:
        ledger = workloads.Ledger()
        if tracer is None:
            with probe.sampling():
                workload.round(ledger)
            rounds.append(Round(probe.busy_s(), ledger, ref=probe.units()))
        else:
            tracer.reset()
            with tracer.span("harness.round"):
                workload.round(ledger)
            _, began, ended, _ = tracer.spans[0]
            rounds.append(Round(ended - began, ledger, table=tracer.summary(),
                                counts=dict(tracer.counts)))
        expected = statistics.median(r.wall for r in rounds)
        if len(rounds) >= least and time.perf_counter() - start + expected > budget:
            return rounds


def layer_metrics(rnd):
    """Per-layer values of one traced round, but the tracing overhead."""
    table, counts = rnd.table, rnd.counts
    values = {}
    for module in LAYER_MODULES:
        values[f"{module}.self_s"] = sum(
            entry["self_s"] for name, entry in table.items() if name.startswith(module + ".")
        )
    for name in LAYER_FUNCTIONS:
        values[f"{name}.s"] = table.get(name, {"s": 0.0})["s"]
    values["harness.self_s"] = table["harness.round"]["self_s"]
    values["trace.wall_s"] = rnd.wall
    values["identify.weight_err"] = statistics.fmean(rnd.ledger.weight_err)
    for name in ("numkit.linprog",) + CALL_COUNTS:
        values[f"{name}.calls"] = table.get(name, {"calls": 0})["calls"]
    for name, _ in TRACER_COUNTS:
        values[name] = counts.get(name, 0)
    for name, key in HARNESS_COUNTS:
        values[name] = rnd.ledger.counts.get(key, 0)
    return values


def print_table(table):
    print(f"# {'span':44s} {'calls':>8s} {'s':>10s} {'self_s':>10s}")
    for name, entry in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        print(f"# {name:44s} {entry['calls']:8d} {entry['s']:10.4f} {entry['self_s']:10.4f}")


def measure(args, root, workdir):
    out_dir = HERE / "out"
    workload, seconds, rescaled = set_up(args, root, workdir)
    if args.setup_only:
        print(json.dumps({"seconds": seconds, "setup_s": rescaled}))
        return 0
    import opinionkit
    from tracer import Tracer

    setup_seconds, setups = zip(
        (seconds, rescaled), *(child_setup(args, root) for _ in range(SETUP_CHILDREN))
    )
    env = environment(root)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# set-up samples {[round(s, 4) for s in setup_seconds]} s, "
          f"rescaled {[round(s, 4) for s in setups]} s")

    if args.trace:
        rounds = run_rounds(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install(opinionkit)
        try:
            traced = run_rounds(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        rounds, traced = run_rounds(workload, args.seconds, least=3), []

    everything = rounds + traced
    attempted = sum(r.ledger.attempted for r in everything)
    failed = sum(r.ledger.failed for r in everything)
    failures = [f for r in everything for f in r.ledger.failures]
    # Every later round repeats the first one's inputs: one operation each,
    # failed when its outputs are not bit-identical to the first round's.
    for index, rnd in enumerate(everything[1:], start=2):
        attempted += 1
        if rnd.ledger.digest != everything[0].ledger.digest:
            failed += 1
            failures.append(f"round {index}: outputs differ from round 1")
    for index, rnd in enumerate(everything, start=1):
        kind = "traced" if rnd.table is not None else "untraced"
        print(f"# round {index} ({kind}): {rnd.wall:.4f} s, "
              f"{rnd.ledger.attempted} operations, {rnd.ledger.failed} failed")
    for failure in failures:
        print(f"# FAILED {failure}")
    counts = everything[0].ledger.counts
    if counts["stubborn_agents"]:
        print(f"# finite horizon: {counts['stubborn_anchored']} of {counts['stubborn_agents']} "
              "fully stubborn agents decoded as anchored (lambda_hat = 0)")

    untraced_wall = statistics.median(r.wall for r in rounds)
    print(f"# untraced wall_s {untraced_wall:.4f} s (median round, probing excluded)")
    if args.trace:
        per_round = [layer_metrics(rnd) for rnd in traced]
        values = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
        values["untraced.wall_s"] = untraced_wall
        values["trace.overhead_s"] = values["trace.wall_s"] - untraced_wall
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_units().items()
        }
        print_table(traced[-1].table)
        for name, count in sorted(traced[-1].counts.items()):
            print(f"# count {name} = {count}")
    else:
        values = {
            "wall_ref": statistics.median(r.ref for r in rounds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "support_f1": statistics.fmean(everything[0].ledger.f1),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, metric in metrics.items():
        print(f"# {name:52s} {metric['value']:>16.6g} {metric['unit']}")

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_seconds": setup_seconds,
        "setup_s": setups,
        "round_walls": [r.wall for r in everything],
        "round_refs": [r.ref for r in rounds],
        "attempted": attempted,
        "failed": failed, "failures": failures, "metrics": metrics,
    }
    if args.trace:
        record["spans_by_name"] = traced[-1].table
        record["counts"] = traced[-1].counts
        record["spans"] = tracer.dump()
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{'workload':16s} {'metric':52s} {'value':>16s} unit")
    for name, result in results.items():
        print(f"{name:16s} {'correct':52s} {str(result['correct']):>16s} "
              f"({result['failed']} of {result['attempted']} operations failed)")
        for metric, entry in result["metrics"].items():
            print(f"{name:16s} {metric:52s} {entry['value']:>16.6g} {entry['unit']}")
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "opinionkit" / "__init__.py").is_file():
        print(f"error: {root} holds no src/opinionkit; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    workdir = HERE / "out" / f"work-{os.getpid()}"
    try:
        return measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
