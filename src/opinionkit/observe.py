"""Random observation models over opinion trajectories.

A stream holds the samples z(k) = P(k) x(k) where P(k) is a random 0/1
diagonal: either the whole vector is seen with probability rho
(intermittent), each coordinate independently with probability rho_i
(independent), or everything (full). Missing values are absent records in
the file format; in memory a boolean mask separates observed zeros from
gaps.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._files import is_int, is_number, read_json, read_table, write_json, write_table
from .dynamics import OpinionTrajectory
from .errors import ConfigError, ParameterError, StructuralError
from .numkit import DRAW_BLOCK, philox_stream

SAMPLING_KINDS = ("full", "intermittent", "independent")


@dataclass(frozen=True)
class SamplingModel:
    """Observation law: kind plus the observation probability rho
    (scalar for intermittent, scalar or per-agent vector for independent,
    unused for full)."""

    kind: str
    rho: float | np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in SAMPLING_KINDS:
            raise ParameterError(f"unknown sampling kind {self.kind!r}")
        if self.kind == "full":
            if self.rho is not None:
                raise ParameterError("full sampling takes no rho")
            return
        if self.rho is None:
            raise ParameterError(f"{self.kind} sampling needs rho")
        rho = np.asarray(self.rho, dtype=float)
        if self.kind == "intermittent" and rho.ndim != 0:
            raise ParameterError("intermittent sampling takes a scalar rho")
        if not ((rho >= 0.0) & (rho <= 1.0)).all():  # NaN fails both
            raise ParameterError("rho entries must lie in [0, 1]")

    def rho_vector(self, n: int) -> np.ndarray:
        """Per-agent observation probability pi."""
        if self.kind == "full":
            return np.ones(n)
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim == 0:
            return np.full(n, float(rho))
        if rho.shape[0] != n:
            raise StructuralError(f"rho has {rho.shape[0]} entries for {n} agents")
        return rho


@dataclass(frozen=True)
class ObservationStream:
    """Zero-filled sample matrix with an observation mask.

    values[k, i] is z_i(k) (zero when unobserved); mask[k, i] records
    whether (k, i) was actually seen, so observed zeros stay
    distinguishable from gaps.
    """

    values: np.ndarray
    mask: np.ndarray
    model: SamplingModel
    seed: int | None = None
    issue: int = 0

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        mask = np.atleast_2d(np.asarray(self.mask, dtype=bool))
        if values.shape != mask.shape:
            raise StructuralError("values and mask shapes differ")
        # A nonzero or NaN value where the mask is false, found a row block
        # at a time, so that no full-size temporary is made.
        for lo in range(0, len(values), DRAW_BLOCK):
            block, seen = values[lo : lo + DRAW_BLOCK], mask[lo : lo + DRAW_BLOCK]
            if ((block != 0.0) > seen).any():
                raise StructuralError("unobserved entries must be stored as zeros")
        values.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def records(self):
        """Yield (k, agent, value) for every observed entry."""
        for k, i in zip(*np.nonzero(self.mask)):
            yield int(k), int(i), float(self.values[k, i])


@dataclass(frozen=True)
class ObservationMoments:
    """First and second moments of the observation process: pi_i = E[p_i]
    and cap_pi[l] = E[p(k) p(k + l)'] for lags 0..max_lag."""

    pi: np.ndarray
    cap_pi: np.ndarray


def sample_observations(
    traj: OpinionTrajectory,
    model: SamplingModel,
    seed: int | None = None,
    issue: int = 0,
) -> ObservationStream:
    """Apply the observation law to each stored step of a trajectory.

    The full model reproduces the trajectory exactly; the random models
    draw the masks from a dedicated seeded stream.

    Random-stream layout: a Philox(seed) stream yields one uniform per step
    (intermittent; step k is seen when its draw is below rho) or one
    uniform per (step, agent) in row-major order (independent; entry
    [k, i] is seen when its draw is below rho_i). The independent draws are
    made in blocks of DRAW_BLOCK rows, which yield the same doubles as one
    draw, so only the mask spans the run.
    """
    if not 0 <= issue < traj.n_issues:
        raise ParameterError(f"issue {issue} outside 0..{traj.n_issues - 1}")
    x = traj.states[:, :, issue]
    steps, n = x.shape
    rng = philox_stream(seed)
    if model.kind == "full":
        mask = np.ones((steps, n), dtype=bool)
    elif model.kind == "intermittent":
        mask = np.repeat(rng.random(steps)[:, None] < float(model.rho), n, axis=1)
    else:
        rho = model.rho_vector(n)
        mask = np.empty((steps, n), dtype=bool)
        for lo in range(0, steps, DRAW_BLOCK):
            block = mask[lo : lo + DRAW_BLOCK]
            np.less(rng.random(block.shape), rho, out=block)
    return ObservationStream(
        values=np.where(mask, x, 0.0), mask=mask, model=model, seed=seed, issue=issue
    )


def observation_moments(model: SamplingModel, n: int, max_lag: int) -> ObservationMoments:
    """Exact moments of the sampling process for lags 0..max_lag.

    Independent: cap_pi[0] = diag(rho) + rho rho' off the diagonal, and
    rho rho' for every positive lag. Intermittent: rho everywhere at lag 0
    (the whole vector is seen or missed together), rho^2 at positive lags.
    """
    if max_lag < 0:
        raise ParameterError("max_lag must be >= 0")
    pi = model.rho_vector(n)
    cap = np.empty((max_lag + 1, n, n))
    cross = np.outer(pi, pi)
    if model.kind == "intermittent":
        cap[0] = pi[0]
    else:
        cap[0] = cross.copy()
        np.fill_diagonal(cap[0], pi)
    cap[1:] = cross
    if np.any(pi == 0.0):
        warnings.warn(
            "some agents are never observed; moment corrections divide by zero there",
            stacklevel=2,
        )
    return ObservationMoments(pi=pi, cap_pi=cap)


# ---- file format ----------------------------------------------------------
#
# Streams are tables (see _files) with header k,agent,value holding only the
# observed records, plus a sidecar JSON object <path>.meta.json with the
# sampling model, seed, horizon, agent count, and observed issue.

_SIDECAR_KEYS = {"horizon", "issue", "kind", "n", "rho", "seed"}


def _sidecar_path(path) -> str:
    return str(path) + ".meta.json"


def save_stream(stream: ObservationStream, path) -> None:
    write_table(path, "k,agent,value", stream.values, mask=stream.mask)
    rho = stream.model.rho
    if isinstance(rho, np.ndarray):
        rho = rho.tolist()
    descriptor = {
        "horizon": stream.horizon,
        "issue": stream.issue,
        "kind": stream.model.kind,
        "n": stream.n,
        "rho": rho,
        "seed": stream.seed,
    }
    write_json(_sidecar_path(path), descriptor)


def load_stream(path) -> ObservationStream:
    sidecar = _sidecar_path(path)
    descriptor = read_json(sidecar, "stream descriptor", _SIDECAR_KEYS)
    for key in ("horizon", "n", "issue"):
        if not is_int(descriptor[key]) or descriptor[key] < 0:
            raise ConfigError(f"stream descriptor {sidecar}: {key} must be a nonnegative integer")
    if descriptor["seed"] is not None and not is_int(descriptor["seed"]):
        raise ConfigError(f"stream descriptor {sidecar}: seed must be an integer or null")
    rho = descriptor["rho"]
    if not (rho is None or is_number(rho) or isinstance(rho, list) and all(map(is_number, rho))):
        raise ConfigError(
            f"stream descriptor {sidecar}: rho must be null, a number or a list of numbers"
        )
    if isinstance(rho, list):
        rho = np.asarray(rho, dtype=float)
    model = SamplingModel(kind=descriptor["kind"], rho=rho)
    (ks, agents), observed = read_table(path, "k,agent,value", "stream")
    steps, n = descriptor["horizon"] + 1, descriptor["n"]
    outside = np.flatnonzero((ks >= steps) | (agents >= n))
    if outside.size:
        row = outside[0]
        raise ConfigError(f"{path}: record ({ks[row]}, {agents[row]}) outside the stream frame")
    values = np.zeros((steps, n))
    mask = np.zeros((steps, n), dtype=bool)
    values[ks, agents] = observed
    mask[ks, agents] = True
    return ObservationStream(
        values=values,
        mask=mask,
        model=model,
        seed=descriptor["seed"],
        issue=descriptor["issue"],
    )
