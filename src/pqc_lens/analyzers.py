"""Ensemble analyzers for parameterized circuits.

expressibility, entanglement_capability and entanglement_spectrum go
through one ensemble runner, ``_ensemble``: it simulates whole samples
through simulator.simulate_map in memory-bounded ranges, in order, drawing
a range's parameter vectors uniformly from [0, 2*pi)^M as it runs it, one
RNG stream per sample seeded base + i. A row's arithmetic does not depend
on its range and reductions run sequentially, so outputs are byte-stable
for any chunk size and S' samples are the first S' of S. The base seed is
None, for a fresh one, or a non-negative integer, never rounded; it, the
counts and the modes are checked by one rule (``circuit._check_count`` and
``_check_choice``) before any draw, and reals by ``circuit._check_real``.

Reports serialize through to_dict() into plain JSON trees tagged with the
schema version "pqc-lens/1". Every to_dict, and every result the command
line writes, goes through one converter (``_document``), so a numpy value
becomes JSON by one rule: its ``tolist()``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations

import numpy as np

from .baselines import (
    Histogram,
    MPBaseline,
    _check_bins,
    _haar_batch,
    haar_fidelity_baseline,
    histogram,
    js_distance,
    kl_divergence,
    mp_reference_spectrum,
    xi_profiles,
)
from .circuit import (CircuitDescriptor, _check_choice, _check_count, _check_real,
                      _resolve_seed, make_circuit)
from .library import all_zeros_infidelity_cost, mean_excitation_cost
from .projection import (_MAX_COORD, PointCloud, SubspaceBasis, _check_tsne, pca,
                         random_basis, tsne)
from .simulator import (
    StateVector,
    _fits,
    _row_bytes,
    expectation_batch,
    map_chunks,
    purity_batch,
    row_vdot,
    sample,
    simulate_map,
)
from .trainer import (
    OptimizerConfig,
    TrainingTrace,
    _check_run,
    _loss_and_gradient,
    cost_batch,
    ensemble_train,
)

SCHEMA = "pqc-lens/1"

_DIVERGENCES = {"kld": kl_divergence, "jsd": js_distance}
DIVERGENCE_MEASURES = tuple(_DIVERGENCES)
ENTANGLEMENT_MEASURES = ("meyer-wallach", "scott")


def _ensemble(circuit: CircuitDescriptor, samples: int, seed, reduce,
              draws: int = 1, width: int = 1) -> tuple[int, np.ndarray]:
    """(base, results): the resolved base seed and reduce(states), concatenated
    in order over chunks of whole samples. Sample i is ``draws`` rows whose
    parameter vectors default_rng(base + i) draws from U[0, 2*pi) in its chunk.

    ValueError, before any draw, if the results, ``width`` words per sample,
    take more than half of physical memory.
    """
    base = _resolve_seed(seed)
    program = circuit.program
    _fits(8 * samples * width, f"the results of {samples} samples")

    def rows(r: range) -> np.ndarray:
        return program.angles(np.concatenate([np.random.default_rng(base + i).uniform(
            0.0, 2.0 * math.pi, (draws, program.n_params)) for i in r]))

    return base, simulate_map(lambda states, _: reduce(states), program, rows, samples, draws)


def _pair_fidelities(states: np.ndarray) -> np.ndarray:
    """|<a|b>|^2 of each pair of rows 2i and 2i + 1."""
    return np.abs(row_vdot(states[0::2], states[1::2])) ** 2


def _block_impurities(states: np.ndarray, n: int, m_values) -> np.ndarray:
    """Per row, one column per m: 1 - the mean subsystem purity over all
    size-m blocks of the n qubits."""
    return np.stack([1.0 - sum(purity_batch(states, block)
                               for block in combinations(range(n), m)) / math.comb(n, m)
                     for m in m_values], axis=1)


def _plain(value):
    """``value`` as plain JSON data: numpy scalars and arrays by ``tolist()``,
    tuples as lists, a Histogram or SubspaceBasis as the dict of its fields, a
    nested report as its ``to_dict()``, and dicts and lists entry by entry."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (Histogram, SubspaceBasis)):
        value = vars(value)
    elif hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _document(kind: str, **fields) -> dict:
    """The report of this kind: the schema, the kind and every field that is
    not None, as plain JSON data (``_plain``)."""
    fields = {key: v for key, v in fields.items() if v is not None}
    return _plain({"schema": SCHEMA, "kind": kind, **fields})


def _final_losses(traces) -> tuple:
    """The last loss of every trace, in order."""
    return tuple(float(t.losses[-1]) for t in traces)


@dataclass(frozen=True)
class MetricSpec:
    """How to turn a bound circuit into a scalar figure of merit.

    The mode follows from the scorer. Without one it is "expectation": the
    cost observable, evaluated exactly. With one it is "from_samples": the
    state is measured shots times and the scorer gets the (shots, n) 0/1 matrix.
    """

    EXPECTATION = "expectation"
    FROM_SAMPLES = "from_samples"

    scorer: object = None
    shots: int = 1024

    @property
    def mode(self) -> str:
        return self.EXPECTATION if self.scorer is None else self.FROM_SAMPLES

    def __post_init__(self) -> None:
        if self.scorer is not None:
            if not callable(self.scorer):
                raise ValueError("scorer must be callable")
            _check_count(self.shots, "shots")


def _metric_values(circuit: CircuitDescriptor, thetas, metric: MetricSpec,
                   seeds) -> np.ndarray:
    """The metric at every row of thetas; sampling row r uses seeds[r]."""
    if metric.mode == MetricSpec.EXPECTATION:
        return cost_batch(circuit, thetas)

    def scores(states: np.ndarray, rows: range) -> list[float]:
        return [float(metric.scorer(sample(StateVector(circuit.n_qubits, psi),
                                           metric.shots, seeds[r]).bit_matrix()))
                for r, psi in zip(rows, states)]

    angles = circuit.program.angles(thetas)
    return simulate_map(scores, circuit.program, lambda r: angles[r.start:r.stop], len(angles))


@dataclass(frozen=True)
class ExpressibilityReport:
    measure: str
    value: float
    fidelity_histogram: Histogram
    baseline: Histogram
    samples: int
    n_qubits: int
    seed: int

    def to_dict(self) -> dict:
        return _document("expressibility",
                         measure=self.measure,
                         value=self.value,
                         samples=self.samples,
                         n_qubits=self.n_qubits,
                         seed=self.seed,
                         fidelity_histogram=self.fidelity_histogram,
                         baseline_histogram=self.baseline)


def expressibility(circuit: CircuitDescriptor, samples: int,
                   measure: str = "kld", bins: int = 75,
                   seed=None) -> ExpressibilityReport:
    """Divergence of the circuit's fidelity distribution from Haar.

    Each of `samples` fidelities comes from a fresh pair of parameter
    vectors (2 * samples draws in total, none reused). Smaller values mean
    the ensemble covers state space more evenly.
    """
    _check_count(samples, "samples", 2)
    _check_choice(measure, "measure", DIVERGENCE_MEASURES)
    _check_bins(bins)
    base, fidelities = _ensemble(circuit, samples, seed, _pair_fidelities, draws=2)
    observed = histogram(fidelities, bins, (0.0, 1.0))
    reference = haar_fidelity_baseline(bins, 2**circuit.n_qubits)
    value = _DIVERGENCES[measure](observed, reference)
    return ExpressibilityReport(measure, value, observed, reference,
                                samples, circuit.n_qubits, base)


@dataclass(frozen=True)
class EntanglementReport:
    measure: str
    q: object  # float for meyer-wallach, tuple of floats for scott
    samples: int
    n_qubits: int
    seed: int

    def to_dict(self) -> dict:
        return _document("entanglement",
                         measure=self.measure,
                         q=self.q,
                         samples=self.samples,
                         n_qubits=self.n_qubits,
                         seed=self.seed)


def entanglement_capability(circuit: CircuitDescriptor, samples: int,
                            measure: str = "meyer-wallach",
                            seed=None) -> EntanglementReport:
    """Average entanglement generated over uniformly sampled parameters.

    meyer-wallach: Q = 2 * mean over theta of (1 - mean single-qubit
    purity). scott: Q_m = 2^m/(2^m - 1) * mean over theta of (1 - mean
    size-m block purity), one entry per m = 1..floor(n/2), every block
    enumerated exhaustively.
    """
    n = circuit.n_qubits
    if n < 2:
        raise ValueError("entanglement needs at least 2 qubits")
    _check_count(samples, "samples")
    _check_choice(measure, "measure", ENTANGLEMENT_MEASURES)
    # Meyer-Wallach's Q is Scott's Q_1
    m_values = range(1, 2 if measure == "meyer-wallach" else n // 2 + 1)
    base, rows = _ensemble(circuit, samples, seed,
                           partial(_block_impurities, n=n, m_values=m_values),
                           width=len(m_values))
    q_m = tuple(
        float(2.0**m / (2.0**m - 1.0) * rows[:, j].mean())
        for j, m in enumerate(m_values)
    )
    return EntanglementReport(measure, q_m[0] if measure == "meyer-wallach" else q_m,
                              samples, n, base)


@dataclass(frozen=True)
class SpectrumReport:
    esd: float
    profile: np.ndarray
    cutoff: float
    subsystem_size: int
    xi_histogram: Histogram
    reference: MPBaseline
    measure: str
    samples: int
    n_qubits: int
    seed: int

    def to_dict(self) -> dict:
        return _document("spectrum",
                         esd=self.esd,
                         measure=self.measure,
                         profile=self.profile,
                         reference_profile=self.reference.profile,
                         cutoff=self.cutoff,
                         subsystem_size=self.subsystem_size,
                         samples=self.samples,
                         reference_samples=self.reference.samples,
                         n_qubits=self.n_qubits,
                         seed=self.seed,
                         xi_histogram=self.xi_histogram,
                         reference_histogram=self.reference.histogram)


def _schmidt_rank_bound(circuit: CircuitDescriptor, k: int) -> int:
    """2**min(c, k, n - k), c the CX and CZ gates with one qubit below k and
    one at or above it. From |0...0>, each such gate at most doubles the
    Schmidt rank across that cut and no other gate changes it, whatever the
    angles."""
    c = sum((g.targets[0] < k) != (g.targets[1] < k)
            for g in circuit.gates if g.kind in ("CX", "CZ"))
    return 2 ** min(c, k, circuit.n_qubits - k)


def entanglement_spectrum(circuit: CircuitDescriptor, samples: int,
                          measure: str = "kld", cutoff: float = -30.0,
                          bins: int = 75, seed=None) -> SpectrumReport:
    """Spectrum of -ln(eigenvalues of rho_A) versus the Haar reference.

    A is the first ceil(n/2) qubits. Per sample the xi values are sorted
    descending; the report carries their per-rank mean profile plus the
    divergence (esd) between the pooled xi histogram and the histogram of
    an ensemble of as many Haar states, both binned on [0, |cutoff|].
    The eigenvalues are the squared singular values of each state's
    (2**k, 2**(n-k)) amplitude matrix, found at the circuit's Schmidt rank
    bound r (``_schmidt_rank_bound``) in O(2**k * 2**(n-k) * r) work; when r
    is the smaller side, that is the full SVD.
    """
    n = circuit.n_qubits
    if n < 2:
        raise ValueError("spectrum needs at least 2 qubits")
    _check_count(samples, "samples")
    _check_choice(measure, "measure", DIVERGENCE_MEASURES)
    _check_real(cutoff, "cutoff", "negative")
    cutoff = float(cutoff)
    _check_bins(bins)
    k = (n + 1) // 2
    rank = _schmidt_rank_bound(circuit, k)
    base, profiles = _ensemble(circuit, samples, seed,
                               partial(xi_profiles, k=k, cutoff=cutoff, rank=rank), width=2**k)
    pooled = histogram(profiles.reshape(-1), bins, (0.0, abs(cutoff)))
    reference = mp_reference_spectrum(n, k, samples, rng=base + samples,
                                      cutoff=cutoff, bins=bins)
    esd = _DIVERGENCES[measure](pooled, reference.histogram)
    return SpectrumReport(esd, profiles.mean(axis=0), cutoff, k, pooled,
                          reference, measure, samples, n, base)


@dataclass(frozen=True)
class LandscapeGrid:
    basis: SubspaceBasis
    phi_values: np.ndarray
    values: np.ndarray
    center_value: float
    metric_mode: str
    scan_range: float
    seed: int

    def to_dict(self) -> dict:
        return _document("landscape",
                         basis=self.basis,
                         phi=self.phi_values,
                         values=self.values,
                         center_value=self.center_value,
                         metric_mode=self.metric_mode,
                         scan_range=self.scan_range,
                         seed=self.seed)


BASIS_MODES = ("random", "pca")


def _check_grid(points: int, scan_range: float) -> None:
    _check_count(points, "points", 2)
    _check_real(scan_range, "scan_range")


def _check_landscape(circuit: CircuitDescriptor, theta_star, basis_mode: str,
                     points: int, scan_range: float) -> np.ndarray:
    """theta_star as a flat float vector; ValueError, before any simulation,
    unless a ``loss_landscape`` of these arguments can be evaluated."""
    _check_choice(basis_mode, "basis_mode", BASIS_MODES)
    _check_grid(points, scan_range)
    theta_star = np.asarray(theta_star, dtype=float).reshape(-1)
    if theta_star.shape[0] != circuit.n_params:
        raise ValueError(
            f"theta_star has length {theta_star.shape[0]}, "
            f"circuit declares {circuit.n_params}"
        )
    if not math.isfinite(float(np.max(np.abs(theta_star), initial=0.0)) + 2.0 * scan_range):
        raise ValueError("the scan grid overflows: theta_star must be finite and "
                         "|theta_star| + 2 * scan_range within the float range")
    _fits(8 * (points**2 + 1) * (circuit.n_params + circuit.program.kinds.size),
          f"a {points} x {points} landscape grid")
    return theta_star


def loss_landscape(circuit: CircuitDescriptor, theta_star,
                   basis_mode: str = "random", metric: MetricSpec | None = None,
                   points: int = 21, scan_range: float = math.pi,
                   seed=None, trace: TrainingTrace | None = None) -> LandscapeGrid:
    """Metric values on a 2-D slice through theta_star.

    The slice directions are either a random orthonormal pair or the top-2
    principal axes of a supplied training trace; the frame's origin is
    theta_star, so value(phi) = metric(theta_star + phi0*axis0 +
    phi1*axis1) over the square [-scan_range, scan_range]^2. A circuit
    with a single parameter gets a degenerate (zero) second axis, which
    flattens the grid along phi1. Every grid point must be a float:
    |theta_star| + 2 * scan_range within the float range.

    Sampling-based metrics draw per-node seeds base + 1 + flat_index; the
    center evaluation uses the base seed itself.
    """
    theta_star = _check_landscape(circuit, theta_star, basis_mode, points, scan_range)
    if metric is None:
        metric = MetricSpec()
    base = _resolve_seed(seed)

    if basis_mode == "pca":
        if trace is None:
            raise ValueError("pca basis mode needs a training trace")
        _, trace_basis, _ = pca(PointCloud(trace.thetas), dims=2)
        basis = SubspaceBasis(theta_star, trace_basis.axes)
    else:
        basis = SubspaceBasis(theta_star,
                              random_basis(circuit.n_params, 2, seed=base).axes)

    phi = np.linspace(-scan_range, scan_range, points)
    grid = theta_star + phi[:, None, None] * basis.axes[0] + phi[None, :, None] * basis.axes[1]
    # the center first: row r, node r - 1 in flat order, draws seed base + r
    thetas = np.concatenate([theta_star[None], grid.reshape(points * points, theta_star.size)])
    values = _metric_values(circuit, thetas, metric, range(base, base + thetas.shape[0]))
    return LandscapeGrid(basis, phi, values[1:].reshape(points, points),
                         float(values[0]), metric.mode, float(scan_range), base)


@dataclass(frozen=True)
class ScanGrids:
    cost_kind: str
    theta1_values: np.ndarray
    theta2_values: np.ndarray
    loss: np.ndarray
    grad_theta2: np.ndarray

    @property
    def mean_abs_grad(self) -> float:
        return float(np.mean(np.abs(self.grad_theta2)))

    def to_dict(self) -> dict:
        return _document("barren-plateau-scan",
                         cost_kind=self.cost_kind,
                         theta1=self.theta1_values,
                         theta2=self.theta2_values,
                         loss=self.loss,
                         grad_theta2=self.grad_theta2,
                         mean_abs_grad=self.mean_abs_grad)


_COSTS = {"global": all_zeros_infidelity_cost, "local": mean_excitation_cost}
COST_KINDS = tuple(_COSTS)


def barren_plateau_scan(circuit: CircuitDescriptor, cost_kind: str = "global",
                        points: int = 21,
                        scan_range: float = math.pi) -> ScanGrids:
    """Loss and second-parameter gradient grids for a 2-parameter task.

    cost_kind "global" scores 1 - p(all zeros), "local" scores the mean
    per-qubit excitation probability; both vanish exactly when the circuit
    acts as the identity on |0...0>. The gradient grid holds the
    parameter-shift derivative with respect to parameter index 1 at every
    grid node, so the two cost kinds can be compared for flatness on
    equal footing.
    """
    _check_choice(cost_kind, "cost_kind", COST_KINDS)
    if circuit.n_params != 2:
        raise ValueError("scan expects a circuit with exactly 2 parameters")
    _check_grid(points, scan_range)
    _fits(16 * points**2, f"a {points} x {points} scan grid")

    scored = make_circuit(circuit.n_qubits, circuit.gates, circuit.parameter_names,
                          _COSTS[cost_kind](circuit.n_qubits))

    axis = np.linspace(-scan_range, scan_range, points)
    thetas = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    loss, grad = _loss_and_gradient(scored, thetas)
    return ScanGrids(cost_kind, axis, axis.copy(), loss.reshape(points, points),
                     grad[:, 1].reshape(points, points))


@dataclass(frozen=True)
class PathEmbedding:
    mode: str
    coords: np.ndarray
    restarts: np.ndarray
    steps: np.ndarray
    losses: np.ndarray
    final_losses: tuple
    explained: np.ndarray | None = None
    basis: SubspaceBasis | None = None
    overlay: LandscapeGrid | None = None

    def to_dict(self) -> dict:
        return _document("training-path",
                         mode=self.mode,
                         restart=self.restarts,
                         step=self.steps,
                         loss=self.losses,
                         x=self.coords[:, 0],
                         y=self.coords[:, 1],
                         restart_final_loss=self.final_losses,
                         explained_variance_ratio=self.explained,
                         basis=self.basis,
                         overlay=self.overlay)


PATH_MODES = ("pca", "tsne")


def _check_path(points: int, mode: str, overlay: bool, perplexity: float,
                iters: int) -> None:
    """ValueError, before any embedding, unless ``training_path`` can embed
    ``points`` pooled points in this mode, with an overlay or not."""
    _check_choice(mode, "mode", PATH_MODES)
    if overlay and mode != "pca":
        raise ValueError("an overlay needs the pca mode (tsne has no inverse map)")
    if points < 3:
        raise ValueError("need at least 3 pooled points")
    if mode == "tsne":
        _check_tsne(points, perplexity, iters)


def training_path(traces, mode: str = "pca",
                  overlay: LandscapeGrid | None = None,
                  perplexity: float = 30.0, iters: int = 1000,
                  seed=None) -> PathEmbedding:
    """2-D embedding of every parameter vector visited during training.

    Points from all traces are pooled; each embedded point keeps its
    (restart, step, loss) tag so the polylines can be reassembled. With an
    overlay the landscape's own frame does the projecting, which puts the
    paths and the loss surface on shared axes for a 3-axis plot; that only
    makes sense for linear frames, so overlay plus tsne is rejected. Traces
    of different parameter counts, or an overlay frame of another, are a
    ValueError before any embedding.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    width = traces[0].thetas.shape[1]
    for t in traces[1:]:
        if t.thetas.shape[1] != width:
            raise ValueError(f"trace {t.restart_id} has {t.thetas.shape[1]} parameters, "
                             f"trace {traces[0].restart_id} has {width}")
    if overlay is not None and overlay.basis.origin.shape[0] != width:
        raise ValueError(f"the overlay's frame has {overlay.basis.origin.shape[0]} "
                         f"parameters, the traces have {width}")
    _check_path(sum(t.thetas.shape[0] for t in traces), mode, overlay is not None,
                perplexity, iters)

    points = np.vstack([t.thetas for t in traces])
    restarts = np.concatenate([
        np.full(t.thetas.shape[0], t.restart_id, dtype=int) for t in traces
    ])
    steps = np.concatenate([
        np.arange(t.thetas.shape[0], dtype=int) for t in traces
    ])
    losses = np.concatenate([t.losses for t in traces])

    explained = None
    basis = None
    if overlay is not None:
        basis = overlay.basis
        coords = basis.project(points)
    elif mode == "pca":
        coords, basis, explained = pca(PointCloud(points), dims=2)
    else:
        coords = tsne(PointCloud(points), dims=2, perplexity=perplexity,
                      iters=iters, seed=_resolve_seed(seed))
    return PathEmbedding(mode, coords, restarts, steps, losses,
                         _final_losses(traces), explained, basis, overlay)


@dataclass(frozen=True)
class ParameterHistogramSeries:
    bins: int
    n_members: int
    ranges: np.ndarray  # (n_params, 2)
    bin_edges: np.ndarray  # (n_params, bins + 1)
    masses: np.ndarray  # (n_steps, n_params, bins)

    @property
    def n_steps(self) -> int:
        return self.masses.shape[0]

    @property
    def n_params(self) -> int:
        return self.masses.shape[1]

    def histogram_at(self, step: int, param: int) -> Histogram:
        return Histogram(self.bin_edges[param], self.masses[step, param],
                         self.n_members)

    def _parameter(self, p: int) -> dict:
        return {
            "index": p,
            "lo": self.ranges[p, 0],
            "hi": self.ranges[p, 1],
            "bin_edges": self.bin_edges[p],
            "masses": self.masses[:, p],
        }

    def to_dict(self) -> dict:
        return _document("parameter-histograms",
                         bins=self.bins,
                         members=self.n_members,
                         steps=self.n_steps,
                         parameters=list(map(self._parameter, range(self.n_params))))


def _check_histogram(members: int, n_steps: int, n_params: int, bins: int) -> None:
    """ValueError, before any binning, unless ``parameter_histogram`` can bin
    ``members`` traces of n_steps x n_params parameters into ``bins`` cells."""
    if members < 2:
        raise ValueError("need at least 2 ensemble members")
    # this larger check first, so oversized bins are reported in its terms
    _fits(8 * (n_steps + 1) * n_params * (bins + 1),
          f"{n_params} parameter histograms of {bins} bins over {n_steps} steps")
    _check_bins(bins)


def parameter_histogram(ensemble, bins: int = 75) -> ParameterHistogramSeries:
    """Per-step marginal distribution of each parameter across an ensemble.

    All members must share the same step count and parameter count. Each
    parameter gets one fixed bin grid spanning its pooled min/max over the
    whole run, so the histograms are comparable across steps; a parameter
    that never moves gets a hair-width symmetric range around its value.
    A parameter above 1e100 in magnitude (a run that diverged to about
    1e308) is a ValueError, as it is for a PointCloud.
    """
    traces = list(ensemble)
    shape = traces[0].thetas.shape if traces else (0, 0)
    _check_histogram(len(traces), *shape, bins)
    for t in traces[1:]:
        if t.thetas.shape != shape:
            raise ValueError(
                f"ragged ensemble: {t.thetas.shape} does not match {shape}"
            )
    n_steps, n_params = shape
    stack = np.stack([t.thetas for t in traces])  # (members, steps, params)

    ranges = np.empty((n_params, 2))
    edges = np.empty((n_params, bins + 1))
    masses = np.empty((n_steps, n_params, bins))
    for p in range(n_params):
        lo = float(stack[:, :, p].min())
        hi = float(stack[:, :, p].max())
        if not max(abs(lo), abs(hi)) <= _MAX_COORD:
            raise ValueError(f"parameter {p} exceeds {_MAX_COORD:g} in magnitude")
        if not lo < hi:
            pad = max(1e-9, abs(lo) * 1e-9)
            lo, hi = lo - pad, hi + pad
        ranges[p] = (lo, hi)
        for t in range(n_steps):
            h = histogram(stack[:, t, p], bins, (lo, hi))
            masses[t, p] = h.masses
        edges[p] = np.linspace(lo, hi, bins + 1)
    return ParameterHistogramSeries(bins, len(traces), ranges, edges, masses)


@dataclass(frozen=True)
class ReachabilityReport:
    f_r: float
    haar_minimum: float
    pqc_minimum: float
    haar_samples: int
    restarts: int
    seed: int

    def to_dict(self) -> dict:
        return _document("reachability",
                         f_r=self.f_r,
                         haar_minimum=self.haar_minimum,
                         pqc_minimum=self.pqc_minimum,
                         haar_samples=self.haar_samples,
                         restarts=self.restarts,
                         seed=self.seed)


def reachability(circuit: CircuitDescriptor, haar_samples: int,
                 restarts: int, config: OptimizerConfig | None = None,
                 seed=None) -> ReachabilityReport:
    """Signed gap between the Haar-sampled and the trained cost minimum.

    f_r = (min cost over haar_samples random states) - (best cost seen
    across restarts of training). A finite estimate can land on either
    side of zero, so the raw value is reported together with both terms.
    Haar draws use seeds base + i; when the optimizer config carries no
    seed, training restarts continue the same seed sequence. A run that
    ``trainer._check_run`` refuses, and Haar costs beyond half of physical
    memory, are a ValueError before any draw.
    """
    if config is None:
        config = OptimizerConfig()
    _check_run(circuit, config, restarts)
    _check_count(haar_samples, "haar_samples")
    base = _resolve_seed(seed)
    _fits(8 * haar_samples, f"the Haar cost array of {haar_samples} samples")

    def haar_costs(chunk: range) -> np.ndarray:
        rngs = [np.random.default_rng(base + i) for i in chunk]
        return expectation_batch(_haar_batch(circuit.n_qubits, rngs), circuit.cost)

    haar_min = float(np.min(map_chunks(haar_costs, haar_samples,
                                       _row_bytes(circuit.n_qubits))))

    if config.seed is None:
        config = replace(config, seed=base + haar_samples)
    traces = ensemble_train(circuit, config, restarts)
    pqc_min = min(float(t.losses.min()) for t in traces)
    return ReachabilityReport(haar_min - pqc_min, haar_min, pqc_min,
                              haar_samples, restarts, base)
