"""Self-test of the benchmark at tiny input sizes; takes about a minute.

    python3 perfbench/selftest.py        # from the root of a source checkout

Checks that
* every run prints, as its last line, exactly the four result keys,
  and every metric of BENCHMARK.json with its unit (both trace modes);
* the oracle checks run: each workload passes on the real library and
  reports failures when one library call is made to return a wrong answer;
* spans nest: children lie inside their parents, every self time is >= 0,
  and the self times add up to the traced round;
* the benchmark refuses to run, printing no result, without a source tree.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = 1


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def run(workload, trace, cwd=ROOT):
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
        "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(workload, trace, spec):
    done = run(workload, trace)
    if done.returncode != 0:
        fail(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if emitted != expected:
        fail(f"{workload} trace={trace}: metrics {emitted} != {expected}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")
    print(f"ok   {workload} trace={trace}: {len(emitted)} metrics, "
          f"{result['attempted']} operations")


def check_spans(tracer):
    spans = tracer.spans
    if spans[0][0] != "harness.round" or spans[0][3] != -1:
        fail("the first span is not the harness round")
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start or not -1 <= parent < index:
            fail(f"span {index} ({name}) is malformed")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                fail(f"span {index} ({name}) is not inside its parent")
    table = tracer.summary()
    if min(entry["self_s"] for entry in table.values()) < -1e-9:
        fail("a self time is negative")
    total = sum(entry["self_s"] for entry in table.values())
    wall = spans[0][2] - spans[0][1]
    if abs(total - wall) > 1e-6:
        fail(f"self times add up to {total} s, the round took {wall} s")


def check_oracles_and_spans():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import opinionkit as ok
    import workloads
    from tracer import Tracer

    def off_equilibrium(net, x0):
        x_inf, control = real["fj_equilibrium"](net, x0)
        return x_inf + 1e-3, control

    def off_average(traj):
        return real["cesaro_average"](traj) + 1.0

    def exits_3(argv):
        return 3

    sabotage = {
        "equilibrium_lp": (ok, "fj_equilibrium", off_equilibrium),
        "gossip_stream": (ok, "cesaro_average", off_average),
        "pipeline_sweep": (ok.cli, "main", exits_3),
    }
    real = {"fj_equilibrium": ok.fj_equilibrium, "cesaro_average": ok.cesaro_average}
    workdir = HERE / "out" / f"selftest-{os.getpid()}"
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(SEED, "tiny", workdir / name)
            tracer = Tracer()
            tracer.install(ok)
            try:
                ledger = workloads.Ledger()
                with tracer.span("harness.round"):
                    workload.round(ledger)
            finally:
                tracer.uninstall()
            if ledger.failed:
                fail(f"{name}: {ledger.failures}")
            check_spans(tracer)
            print(f"ok   {name}: {len(tracer.spans)} spans nest, self times add up")

            namespace, attr, wrong = sabotage[name]
            original = getattr(namespace, attr)
            setattr(namespace, attr, wrong)
            try:
                ledger = workloads.Ledger()
                workload.round(ledger)
            finally:
                setattr(namespace, attr, original)
            if not ledger.failed:
                fail(f"{name}: a wrong {attr} passed every oracle")
            print(f"ok   {name}: a wrong {attr} fails {ledger.failed} of "
                  f"{ledger.attempted} operations")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_refuses_without_source():
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run("equilibrium_lp", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail("the benchmark ran without a source tree")
    print("ok   refuses to run without src/opinionkit")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracles_and_spans()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_output(workload, trace, spec)
    check_refuses_without_source()
    print("selftest passed")


if __name__ == "__main__":
    main()
