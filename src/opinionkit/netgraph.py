"""Influence-network types, metrics, random generators, and file formats.

Conventions: opinions of agent i are driven by the entries of row i of the
influence matrix W, so edge (i, j) means "j influences i". W is
row-stochastic with nonnegative entries; entries with magnitude below
STRUCTURAL_ZERO are structural zeros. Each agent i carries a
susceptibility lambda_i in [0, 1] (lambda_i = 1 recovers pure averaging,
lambda_i = 0 a fully stubborn agent).
"""

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import networkx as nx
import numpy as np
from scipy import sparse

from ._files import is_int, is_number, number_texts, read_json
from .errors import ConfigError, EstimationError, ParameterError, StructuralError
from .numkit import STRUCTURAL_ZERO, SUM_TOL, philox_stream

GENERATOR_MODELS = ("erdos_renyi", "watts_strogatz", "barabasi_albert")
MULTIPLEX_MODELS = ("common_component", "common_support", "independent")


# Cells of one dense row block: generated networks sum their rows
# (_dense_row_sums), Erdos-Renyi draws its n(n - 1) pair uniforms and
# common_component layers draw their n^2 innovation uniforms, a block of
# rows at a time.
ROW_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True, init=False, eq=False)
class InfluenceNetwork:
    """A weighted directed influence network with per-agent susceptibilities.

    InfluenceNetwork(w, lam, directed) freezes a copy of the dense w, so
    the caller's array stays writable and its later writes change nothing
    here. The generators and loaders build the network from its entries
    as CSR instead, and its dense w (n^2 doubles) is then built on first
    use. Every cached view is computed once and read-only: `w`;
    `nonzeros`, the exact nonzeros of w as canonical CSR; and `support`,
    the structural edges |w| > STRUCTURAL_ZERO, which every support
    consumer reads instead of rescanning w.
    """

    lam: np.ndarray
    directed: bool = True

    def __init__(self, w, lam, directed: bool = True):
        w = np.array(w, dtype=float, ndmin=2)
        if w.shape[0] != w.shape[1]:
            raise StructuralError(f"influence matrix must be square, got {w.shape}")
        self._set_susceptibilities(lam, w.shape[0], directed)
        w.setflags(write=False)
        self.__dict__["w"] = w

    @classmethod
    def _from_entries(cls, entries: sparse.csr_array, lam, directed: bool):
        """The network whose w holds the entries of the canonical CSR
        `entries` and zeros elsewhere. Listed zeros keep their sign in w
        and stay out of nonzeros, as in sparse.csr_array(w)."""
        net = cls.__new__(cls)
        net._set_susceptibilities(lam, entries.shape[0], directed)
        nonzeros = entries
        if (entries.data == 0.0).any():
            nonzeros = entries.copy()
            nonzeros.eliminate_zeros()
        for matrix in (entries, nonzeros):
            for part in (matrix.data, matrix.indices, matrix.indptr):
                part.setflags(write=False)
        net.__dict__.update(_entries=entries, nonzeros=nonzeros)
        return net

    def _set_susceptibilities(self, lam, n: int, directed: bool) -> None:
        lam = np.asarray(lam, dtype=float).ravel()
        if lam.shape[0] != n:
            raise StructuralError(f"{lam.shape[0]} susceptibilities for {n} agents")
        if not np.isfinite(lam).all():
            bad = np.flatnonzero(~np.isfinite(lam)).tolist()
            raise ParameterError(f"susceptibilities of agents {bad} are not finite")
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "directed", directed)

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    @cached_property
    def w(self) -> np.ndarray:
        """The dense influence matrix, built here from the entries of a
        network made from them."""
        entries = self._entries
        w = np.zeros(entries.shape)
        w[np.repeat(np.arange(self.n), np.diff(entries.indptr)), entries.indices] = entries.data
        w.setflags(write=False)
        return w

    @cached_property
    def nonzeros(self) -> sparse.csr_array:
        """The entries w != 0 (NaN included) as canonical CSR, equal to
        sparse.csr_array(w) in indptr, indices and data."""
        matrix = sparse.csr_array(self.w)
        for part in (matrix.data, matrix.indices, matrix.indptr):
            part.setflags(write=False)
        return matrix

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, weights) of the entries |w| > STRUCTURAL_ZERO in
        row-major order, the indices as np.nonzero returns them."""
        matrix = self.nonzeros
        keep = np.abs(matrix.data) > STRUCTURAL_ZERO
        rows = np.repeat(np.arange(self.n), np.diff(matrix.indptr))[keep]
        triple = (rows, matrix.indices[keep].astype(np.intp), matrix.data[keep])
        for part in triple:
            part.setflags(write=False)
        return triple

    def edge_set(self) -> set[tuple[int, int]]:
        rows, cols, _ = self.support
        return set(zip(rows.tolist(), cols.tolist()))

    def _with_susceptibilities(self, lam) -> "InfluenceNetwork":
        """This network with susceptibilities lam. The derived network
        shares w, its entries and the sparse views cached from them
        (nonzeros and support, which depend on w only) instead of
        rescanning w."""
        derived = type(self).__new__(type(self))
        derived._set_susceptibilities(lam, self.n, self.directed)
        shared = {key: self.__dict__[key] for key in ("w", "_entries") if key in self.__dict__}
        derived.__dict__.update(shared, nonzeros=self.nonzeros, support=self.support)
        return derived


@dataclass(frozen=True)
class MultiplexNetwork:
    """A stack of influence layers over one agent set."""

    layers: tuple[InfluenceNetwork, ...]
    model_tag: str
    base: InfluenceNetwork | None = None

    def __post_init__(self):
        if not self.layers:
            raise StructuralError("a multiplex network needs at least one layer")
        n = self.layers[0].n
        if any(layer.n != n for layer in self.layers):
            raise StructuralError("all layers must share the agent set")
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def n(self) -> int:
        return self.layers[0].n

    @property
    def n_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]


@dataclass(frozen=True)
class DensityReport:
    n_edges: int
    density: float
    sparse: bool | None


@dataclass(frozen=True)
class DegreeProfile:
    """Support-count and weight-mass degrees; d_max is the largest
    row-support size (the quantity entering sample-complexity bounds)."""

    in_degree: np.ndarray
    out_degree: np.ndarray
    weighted_in_degree: np.ndarray
    weighted_out_degree: np.ndarray
    d_max: int


@dataclass(frozen=True)
class PowerLawFit:
    gamma: float
    k_min: float
    n_tail: int


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for one random network draw.

    model selects the topology family; p (erdos_renyi edge probability),
    k/beta_rw (watts_strogatz ring degree and rewiring probability), and
    m0 (barabasi_albert attachment count) apply to their model only.
    Susceptibilities are drawn uniformly from lambda_range.
    """

    model: str
    n: int
    p: float | None = None
    k: int | None = None
    beta_rw: float | None = None
    m0: int | None = None
    lambda_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        if self.model not in GENERATOR_MODELS:
            raise ParameterError(f"unknown generator model {self.model!r}")
        if self.n < 2:
            raise ParameterError("generators need n >= 2")
        lo, hi = self.lambda_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ParameterError(f"lambda_range {self.lambda_range} not inside [0, 1]")
        if self.model == "erdos_renyi":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ParameterError("erdos_renyi needs p in [0, 1]")
        elif self.model == "watts_strogatz":
            if self.k is None or self.k < 2 or self.k >= self.n or self.k % 2:
                raise ParameterError("watts_strogatz needs even k with 2 <= k < n")
            if self.beta_rw is None or not 0.0 <= self.beta_rw <= 1.0:
                raise ParameterError("watts_strogatz needs beta_rw in [0, 1]")
        elif self.model == "barabasi_albert":
            if self.m0 is None or not 1 <= self.m0 < self.n:
                raise ParameterError("barabasi_albert needs 1 <= m0 < n")


@dataclass(frozen=True)
class MultiplexConfig:
    """Parameters for a multi-layer draw.

    common_component: every layer is the base raw weight matrix plus a
    sparse innovation (edge probability innovation_p, weights in
    (0, innovation_scale]), row-renormalized. common_support: layers share
    the base support and redraw weights. independent: fresh draw per layer.
    """

    model_tag: str
    base: GeneratorConfig
    n_layers: int
    innovation_p: float = 0.0
    innovation_scale: float = 0.5

    def __post_init__(self):
        if self.model_tag not in MULTIPLEX_MODELS:
            raise ParameterError(f"unknown multiplex model {self.model_tag!r}")
        if self.n_layers < 1:
            raise ParameterError("n_layers must be >= 1")
        if not 0.0 <= self.innovation_p <= 1.0:
            raise ParameterError("innovation_p must lie in [0, 1]")
        if not 0.0 < self.innovation_scale < np.inf:
            raise ParameterError("innovation_scale must be positive and finite")


def validate_network(net: InfluenceNetwork, tol: float = SUM_TOL) -> ValidationReport:
    """Check row-stochasticity, weight range, and susceptibility range.

    Returns every violation found; an empty problem list means the network
    satisfies the model contract within tol (which must be nonnegative).
    Reads the nonzeros of w, never the dense w: a row sum adds the row's
    nonzeros, so it can differ from the dense w.sum(axis=1) in the last
    bit, and a verdict can differ from that of the dense sum only for a
    row that misses 1 by tol within rounding.
    """
    if not tol >= 0.0:
        raise ParameterError(f"validation tolerance must be nonnegative, got {tol}")
    problems: list[str] = []
    matrix = net.nonzeros
    if not np.isfinite(matrix.data).all():
        problems.append("non-finite weight entries")
    else:
        rows = np.repeat(np.arange(net.n), np.diff(matrix.indptr))
        (bad,) = np.nonzero((matrix.data < -tol) | (matrix.data > 1.0 + tol))
        problems.extend(
            f"w[{rows[k]},{matrix.indices[k]}]={matrix.data[k]:.6g} outside [0, 1]"
            for k in bad[:20]
        )
        if len(bad) > 20:
            problems.append(f"... {len(bad) - 20} more weight-range violations")
        sums = matrix.sum(axis=1)
        for i in np.flatnonzero(np.abs(sums - 1.0) > tol):
            problems.append(f"row {i} sums to {sums[i]:.12g}")
    lam = net.lam
    for i in np.flatnonzero((lam < -tol) | (lam > 1.0 + tol)):
        problems.append(f"lambda[{i}]={lam[i]:.6g} outside [0, 1]")
    return ValidationReport(ok=not problems, problems=tuple(problems))


def network_density(net: InfluenceNetwork, alpha: float | None = None) -> DensityReport:
    """Edge count over n^2 (self-loops included). When alpha is given, the
    sparse flag reports whether |E| <= alpha * n."""
    n_edges = net.support[0].size
    density = n_edges / net.n**2
    is_sparse = None if alpha is None else bool(n_edges <= alpha * net.n)
    return DensityReport(n_edges=n_edges, density=density, sparse=is_sparse)


def degree_profile(net: InfluenceNetwork) -> DegreeProfile:
    rows, cols, _ = net.support
    in_degree = np.bincount(rows, minlength=net.n)
    return DegreeProfile(
        in_degree=in_degree,
        out_degree=np.bincount(cols, minlength=net.n),
        weighted_in_degree=_weight_sums(net, axis=1),
        weighted_out_degree=_weight_sums(net, axis=0),
        d_max=int(in_degree.max()),
    )


def laplacian(net: InfluenceNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Degree matrix D = diag(row sums) and Laplacian L = D - W."""
    degree = np.diag(net.w.sum(axis=1))
    return degree, degree - net.w


def laplacian_quadratic(net: InfluenceNetwork, x: np.ndarray) -> float:
    """Disagreement energy (1/2) * sum_ij w_ij (x_i - x_j)^2.

    Defined for symmetric W, where it equals x' L x; directed inputs are
    accepted with the same double sum and flagged (np.allclose(w, w.T,
    atol=STRUCTURAL_ZERO) fails). Both read the nonzeros of w, never the
    dense w; the sum runs over them alone.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != net.n:
        raise StructuralError(f"profile length {x.shape[0]} != n = {net.n}")
    w = net.nonzeros.tocoo()
    keys = np.ravel_multi_index((w.row, w.col), w.shape)  # ascending: w is canonical CSR
    mirror_keys = np.ravel_multi_index((w.col, w.row), w.shape)
    at = np.searchsorted(keys, mirror_keys)
    mirror = np.where(keys.take(at, mode="clip") == mirror_keys, w.data.take(at, mode="clip"), 0.0)
    if not np.isclose(w.data, mirror, atol=STRUCTURAL_ZERO).all():
        warnings.warn(
            "laplacian_quadratic on an asymmetric matrix: value is the "
            "literal double sum, not a quadratic form of L",
            stacklevel=2,
        )
    return float(0.5 * np.sum(w.data * (x[w.row] - x[w.col]) ** 2))


def _topology(config: GeneratorConfig, rng: np.random.Generator):
    """(rows, cols) of the configured model's edges, both directions of an
    undirected edge, each edge once and no self-loop, in row-major order."""
    n = config.n
    if config.model == "erdos_renyi":
        return _gnp_edges(n, config.p, rng)
    if config.model == "watts_strogatz":
        graph = nx.watts_strogatz_graph(n, config.k, config.beta_rw, seed=rng)
    else:
        graph = nx.barabasi_albert_graph(n, config.m0, seed=rng)
    edges = np.array(graph.edges(), dtype=np.int64).reshape(-1, 2)
    if not graph.is_directed():
        edges = np.concatenate([edges, edges[:, ::-1]])
    rows, cols = np.divmod(np.unique(edges[:, 0] * n + edges[:, 1]), n)
    off_diagonal = rows != cols
    return rows[off_diagonal], cols[off_diagonal]


def _gnp_edges(n: int, p: float, rng: np.random.Generator):
    """(rows, cols) of networkx.gnp_random_graph(n, p, seed=rng,
    directed=True) and the same draws: one uniform per ordered pair i != j
    in itertools.permutations order (row i, then j ascending), an edge
    where it is below p. The uniforms are drawn a block of ROW_BLOCK_CELLS
    cells at a time; p <= 0 and p >= 1 draw none."""
    if p <= 0.0 or p >= 1.0:  # the empty or the complete graph
        rows, cols = np.divmod(np.arange(n * (n - 1) if p >= 1.0 else 0), n - 1)
        return rows, cols + (cols >= rows)
    step, rows, cols = _block_rows(n - 1), [], []
    for lo in range(0, n, step):
        hits, at = np.nonzero(rng.random((min(step, n - lo), n - 1)) < p)
        rows.append(hits + lo)
        cols.append(at)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return rows, cols + (cols >= rows)


def _csr(n: int, rows, cols, data) -> sparse.csr_array:
    """The n x n CSR of entries at distinct positions given in row-major
    order, with the index dtype of sparse.csr_array of the dense matrix."""
    index = np.int32 if max(len(data), n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_array((data, np.asarray(cols, dtype=index), indptr), shape=(n, n))


def _raw_weights(n: int, rows, cols, rng: np.random.Generator) -> sparse.csr_array:
    """Positive raw weights on the edges, drawn in their row-major order;
    empty rows get self-loop 1."""
    data = 1.0 - rng.random(len(rows))
    empty = np.flatnonzero(np.bincount(rows, minlength=n) == 0)
    if empty.size:
        rows, cols = np.concatenate([rows, empty]), np.concatenate([cols, empty])
        data = np.concatenate([data, np.ones(empty.size)])
        order = np.argsort(rows, kind="stable")
        rows, cols, data = rows[order], cols[order], data[order]
    return _csr(n, rows, cols, data)


def _block_rows(width: int) -> int:
    """Rows of one dense row block: ROW_BLOCK_CELLS cells, at least one row."""
    return max(1, ROW_BLOCK_CELLS // width)


def _dense_row_sums(matrix: sparse.csr_array) -> np.ndarray:
    """The row sums of the dense matrix, zeros included, bit for bit: each
    block of rows is scattered into one dense buffer and summed by numpy's
    pairwise rule, whose grouping a sum over the nonzeros alone would
    change. O(ROW_BLOCK_CELLS + n) memory, O(n^2) time."""
    n_rows, width = matrix.shape
    step = _block_rows(width)
    buffer = np.zeros((min(step, n_rows), width))
    sums = np.empty(n_rows)
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        span = slice(matrix.indptr[lo], matrix.indptr[hi])
        at = (np.repeat(np.arange(hi - lo), np.diff(matrix.indptr[lo : hi + 1])), matrix.indices[span])
        buffer[at] = matrix.data[span]
        sums[lo:hi] = buffer[: hi - lo].sum(axis=1)
        buffer[at] = 0.0
    return sums


def _weight_sums(net: InfluenceNetwork, axis: int) -> np.ndarray:
    """net.w.sum(axis) bit for bit, from the nonzeros without the dense w.
    Row sums (axis 1) come from _dense_row_sums. numpy reduces axis 0 of a
    C-ordered array row by row, from 0.0, so a column sum adds its entries
    in row order, as bincount does; the zeros between them change no
    partial sum. O(ROW_BLOCK_CELLS + n) memory."""
    matrix = net.nonzeros
    if axis == 1:
        return _dense_row_sums(matrix)
    return np.bincount(matrix.indices, weights=matrix.data, minlength=net.n)


def _row_normalize(raw: sparse.csr_array) -> sparse.csr_array:
    sums = _dense_row_sums(raw)
    data = raw.data / np.repeat(sums, np.diff(raw.indptr))
    return sparse.csr_array((data, raw.indices, raw.indptr), shape=raw.shape)


def _draw_lambda(
    config: GeneratorConfig, rng: np.random.Generator, n: int
) -> np.ndarray:
    lo, hi = config.lambda_range
    return rng.uniform(lo, hi, size=n)


def generate_network(config: GeneratorConfig, seed: int | None = None) -> InfluenceNetwork:
    """Draw a row-stochastic influence network from the configured model.

    Bit-reproducible for fixed (config, seed). Agents left without
    out-edges by the topology draw anchor to themselves with a self-loop
    of weight 1. The network is built from its edge list as CSR, so the
    draw holds O(ROW_BLOCK_CELLS + edges) memory, not n^2 doubles; the
    row sums are those of the dense rows bit for bit (_dense_row_sums),
    in O(n^2) time.
    """
    rng = philox_stream(seed)
    raw = _raw_weights(config.n, *_topology(config, rng), rng)
    lam = _draw_lambda(config, rng, config.n)
    return InfluenceNetwork._from_entries(_row_normalize(raw), lam, directed=True)


def fit_power_law(degrees: np.ndarray, k_min: float = 1.0) -> PowerLawFit:
    """Tail-exponent fit gamma = 1 + N / sum(log(k_i / (k_min - 1/2))).

    Uses the continuous maximum-likelihood estimator with the half-integer
    offset for integer-valued degrees, over the tail degrees >= k_min.
    """
    degrees = np.asarray(degrees, dtype=float).ravel()
    if k_min < 1.0:
        raise ParameterError("k_min must be >= 1")
    tail = degrees[degrees >= k_min]
    if tail.size < 10:
        raise EstimationError(
            f"only {tail.size} degrees >= k_min={k_min}; need at least 10"
        )
    if np.all(tail == tail[0]):
        raise EstimationError("degenerate degree sample: all tail degrees equal")
    gamma = 1.0 + tail.size / np.sum(np.log(tail / (k_min - 0.5)))
    return PowerLawFit(gamma=float(gamma), k_min=float(k_min), n_tail=int(tail.size))


def pair_d_correlation(mx: MultiplexNetwork, dims: tuple[int, int]) -> float:
    """Jaccard overlap |E_a & E_b| / |E_a | E_b| of two layers' edge sets."""
    a, b = dims
    edges_a = mx.layers[a].edge_set()
    edges_b = mx.layers[b].edge_set()
    union = edges_a | edges_b
    if not union:
        warnings.warn("both layers are empty; overlap reported as 0", stacklevel=2)
        return 0.0
    return len(edges_a & edges_b) / len(union)


def build_multiplex(config: MultiplexConfig, seed: int | None = None) -> MultiplexNetwork:
    """Draw a multi-layer network under the configured coupling model.

    Layer streams are spawned from the seed, so layers are independent
    and the draw is reproducible regardless of evaluation order. Every
    layer is built as generate_network builds a network; common_component
    draws its n^2 innovation uniforms a row block at a time.
    """
    n = config.base.n
    base_rng = philox_stream(seed, 0)
    edges = _topology(config.base, base_rng)
    base_raw = _raw_weights(n, *edges, base_rng)
    base_net = InfluenceNetwork._from_entries(
        _row_normalize(base_raw), _draw_lambda(config.base, base_rng, n), directed=True
    )

    layers = []
    for layer_idx in range(config.n_layers):
        rng = philox_stream(seed, 1, layer_idx)
        if config.model_tag == "independent":
            raw = _raw_weights(n, *_topology(config.base, rng), rng)
        elif config.model_tag == "common_support":
            raw = _raw_weights(n, *edges, rng)
        else:  # common_component
            raw = base_raw
            if config.innovation_p > 0.0:
                raw = base_raw + _innovation(config, rng)
        layers.append(
            InfluenceNetwork._from_entries(
                _row_normalize(raw), _draw_lambda(config.base, rng, n), directed=True
            )
        )
    base = base_net if config.model_tag != "independent" else None
    return MultiplexNetwork(layers=tuple(layers), model_tag=config.model_tag, base=base)


def _innovation(config: MultiplexConfig, rng: np.random.Generator) -> sparse.csr_array:
    """The sparse innovation of a common_component layer: an off-diagonal
    edge wherever one of n^2 uniforms (drawn a row block at a time) falls
    below innovation_p, then weights in (0, innovation_scale] in row-major
    order."""
    n = config.base.n
    rows, cols = [], []
    step = _block_rows(n)
    for lo in range(0, n, step):
        local, block_cols = np.nonzero(rng.random((min(step, n - lo), n)) < config.innovation_p)
        off_diagonal = local + lo != block_cols
        rows.append(local[off_diagonal] + lo)
        cols.append(block_cols[off_diagonal])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return _csr(n, rows, cols, config.innovation_scale * (1.0 - rng.random(rows.size)))


# ---- file format ----------------------------------------------------------
#
# Networks are stored as a single JSON object:
#   {"n": 3, "directed": true, "lambda": [...], "edges": [[i, j, w], ...]}
# with 0-based indices, edges sorted by (i, j), and weights printed with 17
# significant digits so that load(save(net)) is bit-exact. Files are read
# through _files.read_json; every field is checked where it is read, by an
# error that names the file (and the layer of a multiplex file).

_NETWORK_KEYS = {"n", "directed", "lambda", "edges"}
_MULTIPLEX_KEYS = {"model_tag", "base", "layers"}


def _network_doc(net: InfluenceNetwork) -> str:
    lam = ", ".join(number_texts(net.lam))
    rows, cols, weights = net.support
    edges = ", ".join(
        f"[{i}, {j}, {weight}]"
        for i, j, weight in zip(rows.tolist(), cols.tolist(), number_texts(weights))
    )
    directed = "true" if net.directed else "false"
    return (
        f'{{"n": {net.n}, "directed": {directed}, '
        f'"lambda": [{lam}], "edges": [{edges}]}}'
    )


def _network_from_doc(doc, where: str) -> InfluenceNetwork:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: a network document must be a JSON object")
    unknown = set(doc) - _NETWORK_KEYS
    if unknown:
        raise ConfigError(f"{where}: unknown network file keys: {sorted(unknown)}")
    missing = _NETWORK_KEYS - set(doc)
    if missing:
        raise ConfigError(f"{where}: network file missing keys: {sorted(missing)}")
    n, lam, edges = doc["n"], doc["lambda"], doc["edges"]
    if not is_int(n) or n < 0:
        raise ConfigError(f"{where}: network n must be a nonnegative integer, got {n!r}")
    if n == 0:
        raise ConfigError(f"{where}: network n must be at least 1, got 0")
    if not isinstance(doc["directed"], bool):
        raise ConfigError(f"{where}: network directed must be true or false, got {doc['directed']!r}")
    if not isinstance(lam, list) or not all(map(is_number, lam)):
        raise ConfigError(f"{where}: network lambda must be a list of numbers")
    if len(lam) != n or not np.isfinite(lam).all():
        raise ConfigError(f"{where}: network lambda must hold {n} finite numbers")
    if not isinstance(edges, list):
        raise ConfigError(f"{where}: network edges must be a list")
    rows, cols, weights, problem = [], [], [], None
    for entry in edges:
        if not (isinstance(entry, list) and len(entry) == 3 and is_number(entry[2])
                and is_int(entry[0]) and is_int(entry[1])):
            problem = f"{where}: network edge {entry!r} is not [int, int, number]"
            break
        i, j, weight = entry
        if not (0 <= i < n and 0 <= j < n):
            problem = f"{where}: edge ({i}, {j}) outside agent range 0..{n - 1}"
            break
        rows.append(i)
        cols.append(j)
        weights.append(weight)
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))  # stable: a repeated edge follows its first listing
    rows, cols = rows[order], cols[order]
    repeats = order[1:][(rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])]
    if repeats.size:  # the first repeat in file order comes before any later problem
        i, j, _ = edges[repeats.min()]
        raise ConfigError(f"{where}: edge ({i}, {j}) is listed twice")
    if problem is not None:
        raise ConfigError(problem)
    entries = _csr(n, rows, cols, np.array(weights, dtype=float)[order])
    net = InfluenceNetwork._from_entries(entries, np.asarray(lam, dtype=float), doc["directed"])
    report = validate_network(net)
    if not report.ok:
        raise ConfigError(f"{where}: invalid network: {'; '.join(report.problems)}")
    return net


def save_network(net: InfluenceNetwork, path) -> None:
    with open(path, "w") as fh:
        fh.write(_network_doc(net) + "\n")


def load_network(path) -> InfluenceNetwork:
    """The network stored at path, built from the file's edge list as CSR,
    so loading holds O(n + edges) memory, never n^2 doubles. A listed 0.0
    or -0.0 weight keeps its sign in w and stays out of nonzeros. Raises
    ConfigError naming the file and, for a bad edge list, the first bad
    entry in file order."""
    return _network_from_doc(read_json(path, "network"), f"network {path}")


def save_multiplex(mx: MultiplexNetwork, path) -> None:
    base = _network_doc(mx.base) if mx.base is not None else "null"
    layers = ", ".join(_network_doc(layer) for layer in mx.layers)
    with open(path, "w") as fh:
        fh.write(
            f'{{"model_tag": "{mx.model_tag}", "base": {base}, '
            f'"layers": [{layers}]}}\n'
        )


def load_multiplex(path) -> MultiplexNetwork:
    doc = read_json(path, "multiplex", _MULTIPLEX_KEYS)
    if not isinstance(doc["layers"], list):
        raise ConfigError(f"multiplex {path}: layers must be a list")
    where = f"multiplex {path}"
    base = None if doc["base"] is None else _network_from_doc(doc["base"], f"{where} base")
    layers = tuple(_network_from_doc(d, f"{where} layer {s}") for s, d in enumerate(doc["layers"]))
    return MultiplexNetwork(layers=layers, model_tag=doc["model_tag"], base=base)
