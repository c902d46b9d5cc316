"""In-memory span tracer for the opinionkit benchmark.

The tracer replaces each public function of the seven opinionkit modules
with a wrapper in every namespace that binds it: the package root, the
defining module, and any module that imported the name directly (``cli``
does). Calls made through any route therefore land in one span list, and a
library function calling another traced function nests under it. scipy's
``linprog`` is wrapped where ``numkit`` and ``identify`` bind it.

A span is ``[name, start, end, parent]``. Self time is a span's duration
minus the time its child spans cover. Counts (LP iterations and statuses,
gossip steps, bytes written and read) are taken at the same boundaries.
"""

import collections
import contextlib
import functools
import inspect
import os
import sys
import time

MODULES = ("netgraph", "centrality", "dynamics", "observe", "identify", "numkit", "cli")

# Names scipy's linprog uses for its status codes.
LINPROG_STATUSES = ("optimal", "iteration_limit", "infeasible", "unbounded", "numerical")


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _count_linprog(counts, arguments, result):
    counts["numkit.linprog.iterations"] += int(getattr(result, "nit", 0))
    status = int(result.status)
    name = LINPROG_STATUSES[status] if 0 <= status < len(LINPROG_STATUSES) else "numerical"
    counts[f"numkit.linprog.{name}"] += 1


def _path_bytes(key):
    def hook(counts, arguments, result):
        counts[key] += _file_bytes(str(arguments["path"]))
    return hook


def _stream_bytes(key):
    def hook(counts, arguments, result):
        path = str(arguments["path"])
        counts[key] += _file_bytes(path, path + ".meta.json")
    return hook


def _gossip_steps(counts, arguments, result):
    counts["dynamics.simulate_gossip_fj.steps"] += int(arguments["steps"])


def _pipeline_artifacts(counts, arguments, result):
    out = arguments["output_dir"] or arguments["config"]["output_dir"]
    files = [os.path.join(out, rel) for rel in result["artifacts"]]
    files.append(os.path.join(out, "manifest.json"))
    counts["cli.artifacts"] += len(files)
    counts["cli.artifact_bytes"] += _file_bytes(*files)


def _sweep_artifacts(counts, arguments, result):
    # Point files are counted by the run_pipeline calls nested in the sweep.
    out = arguments["output_dir"] or arguments["config"]["output_dir"]
    files = [os.path.join(out, "sweep.csv"), os.path.join(out, "manifest.json")]
    counts["cli.artifacts"] += len(files)
    counts["cli.artifact_bytes"] += _file_bytes(*files)


HOOKS = {
    "numkit.linprog": _count_linprog,
    "dynamics.simulate_gossip_fj": _gossip_steps,
    "dynamics.save_trajectory": _path_bytes("dynamics.save_trajectory.bytes"),
    "dynamics.load_trajectory": _path_bytes("dynamics.load_trajectory.bytes"),
    "observe.save_stream": _stream_bytes("observe.save_stream.bytes"),
    "observe.load_stream": _stream_bytes("observe.load_stream.bytes"),
    "netgraph.save_network": _path_bytes("netgraph.save_network.bytes"),
    "netgraph.load_network": _path_bytes("netgraph.load_network.bytes"),
    "identify.save_report": _path_bytes("identify.save_report.bytes"),
    "identify.load_report": _path_bytes("identify.load_report.bytes"),
    "cli.run_pipeline": _pipeline_artifacts,
    "cli.run_sweep": _sweep_artifacts,
}


class Tracer:
    """Records spans and counts while installed; restores every binding on
    uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Span around the benchmark's own code."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, result)
            return result

        return wrapper

    def _replace(self, namespaces, original, wrapper):
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                    self._patches.append((namespace, attr, original))

    def install(self, package):
        """Wrap the public functions of every module of ``package``."""
        modules = {short: sys.modules[f"{package.__name__}.{short}"] for short in MODULES}
        namespaces = [package, *modules.values()]
        targets = []
        for short, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    targets.append((f"{short}.{attr}", value))
        for name, fn in targets:
            self._replace(namespaces, fn, self._wrap(name, fn))
        linprog = modules["numkit"].linprog
        self._replace(
            [modules["numkit"], modules["identify"]],
            linprog,
            self._wrap("numkit.linprog", linprog),
        )

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def summary(self):
        """Per span name: inclusive seconds ``s``, ``self_s`` and ``calls``.

        A span nested inside a span of the same name adds to ``self_s``
        but not again to ``s``.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        table = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["s"] += end - start
        return table

    def dump(self):
        """Spans with times relative to the first span, for writing out."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            [name, start - origin, end - origin, parent]
            for name, start, end, parent in self.spans
        ]
