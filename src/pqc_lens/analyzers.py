"""Ensemble analyzers for parameterized circuits.

Every analyzer draws parameter vectors uniformly from [0, 2*pi)^M, one
dedicated RNG stream per sample seeded base + i, all of them up front, and
simulates its samples through simulator.simulate_map, which runs them as
memory-bounded ranges of consecutive rows on PQC_LENS_THREADS worker
threads (default 1). Each row's arithmetic does not depend on its range,
gathering is ordered and reductions run sequentially, so outputs are
byte-stable for any thread count.

Reports serialize through to_dict() into JSON-compatible trees tagged with
the schema version "pqc-lens/1".
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .baselines import (
    HaarFidelityBaseline,
    Histogram,
    MPBaseline,
    haar_fidelity_baseline,
    histogram,
    js_distance,
    kl_divergence,
    mp_reference_spectrum,
    sample_haar_state,
    spectral_xi,
)
from .circuit import CircuitDescriptor, GateProgram, make_circuit
from .library import all_zeros_infidelity_cost, mean_excitation_cost
from .projection import _MAX_COORD, PointCloud, SubspaceBasis, pca, random_basis, tsne
from .simulator import (
    _AMPLITUDE_BYTES,
    StateVector,
    expectation_batch,
    map_chunks,
    purity_batch,
    row_vdot,
    sample,
    schmidt_spectrum,
    simulate_map,
)
from .trainer import (
    OptimizerConfig,
    TrainingTrace,
    _loss_and_gradient,
    _resolve_seed,
    cost_batch,
    ensemble_train,
)

SCHEMA = "pqc-lens/1"

DIVERGENCE_MEASURES = ("kld", "jsd")
ENTANGLEMENT_MEASURES = ("meyer-wallach", "scott")


def _sampled_angles(program: GateProgram, base: int, samples: int,
                    draws: int = 1) -> np.ndarray:
    """Angles of samples * draws rows, sample i's drawn from default_rng(base + i)."""
    shape = (draws, program.n_params)
    thetas = [np.random.default_rng(base + i).uniform(0.0, 2.0 * math.pi, shape)
              for i in range(samples)]
    return program.angles(np.concatenate(thetas))


def _divergence(measure: str, p, q) -> float:
    if measure == "kld":
        return kl_divergence(p, q)
    return js_distance(p, q)


def _histogram_dict(h) -> dict:
    return {
        "bin_edges": [float(v) for v in h.bin_edges],
        "masses": [float(v) for v in h.masses],
        "total_samples": int(getattr(h, "total_samples", 0)),
    }


def _basis_dict(basis: SubspaceBasis) -> dict:
    return {
        "origin": [float(v) for v in basis.origin],
        "axes": [[float(v) for v in row] for row in basis.axes],
    }


@dataclass(frozen=True)
class MetricSpec:
    """How to turn a bound circuit into a scalar figure of merit.

    mode "expectation" evaluates the circuit's cost observable exactly.
    mode "from_samples" measures the state (shots repetitions) and feeds
    the resulting (shots, n_qubits) 0/1 matrix to the scorer callable.
    """

    EXPECTATION = "expectation"
    FROM_SAMPLES = "from_samples"

    mode: str = "expectation"
    scorer: object = None
    shots: int = 1024

    def __post_init__(self) -> None:
        if self.mode not in (self.EXPECTATION, self.FROM_SAMPLES):
            raise ValueError(f"unknown metric mode {self.mode!r}")
        if self.mode == self.FROM_SAMPLES:
            if not callable(self.scorer):
                raise ValueError("from_samples metric needs a scorer callable")
            if self.shots < 1:
                raise ValueError("from_samples metric needs shots >= 1")


def _metric_values(circuit: CircuitDescriptor, thetas, metric: MetricSpec,
                   seeds) -> np.ndarray:
    """The metric at every row of thetas; sampling row r uses seeds[r]."""
    if metric.mode == MetricSpec.EXPECTATION:
        return cost_batch(circuit, thetas)

    def scores(states: np.ndarray, rows: range) -> list[float]:
        return [float(metric.scorer(sample(StateVector(circuit.n_qubits, psi),
                                           metric.shots, seeds[r]).bit_matrix()))
                for r, psi in zip(rows, states)]

    return simulate_map(scores, circuit.program, circuit.program.angles(thetas))


@dataclass(frozen=True)
class ExpressibilityReport:
    measure: str
    value: float
    fidelity_histogram: Histogram
    baseline: HaarFidelityBaseline
    samples: int
    n_qubits: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "expressibility",
            "measure": self.measure,
            "value": float(self.value),
            "samples": int(self.samples),
            "n_qubits": int(self.n_qubits),
            "seed": int(self.seed),
            "fidelity_histogram": _histogram_dict(self.fidelity_histogram),
            "baseline_histogram": _histogram_dict(self.baseline),
        }


def expressibility(circuit: CircuitDescriptor, samples: int,
                   measure: str = "kld", bins: int = 75,
                   seed=None) -> ExpressibilityReport:
    """Divergence of the circuit's fidelity distribution from Haar.

    Each of `samples` fidelities comes from a fresh pair of parameter
    vectors (2 * samples draws in total, none reused). Smaller values mean
    the ensemble covers state space more evenly.
    """
    if samples < 2:
        raise ValueError("need at least 2 fidelity samples")
    if measure not in DIVERGENCE_MEASURES:
        raise ValueError(f"measure must be one of {DIVERGENCE_MEASURES}")
    base = _resolve_seed(seed)
    program = circuit.program
    # pair i is rows 2i and 2i + 1
    fidelities = simulate_map(
        lambda states, rows: np.abs(row_vdot(states[0::2], states[1::2])) ** 2,
        program, _sampled_angles(program, base, samples, draws=2), group=2)
    observed = histogram(fidelities, bins, (0.0, 1.0))
    reference = haar_fidelity_baseline(bins, 2**circuit.n_qubits)
    value = _divergence(measure, observed, reference)
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
        if self.measure == "scott":
            q_value = [float(v) for v in self.q]
        else:
            q_value = float(self.q)
        return {
            "schema": SCHEMA,
            "kind": "entanglement",
            "measure": self.measure,
            "q": q_value,
            "samples": int(self.samples),
            "n_qubits": int(self.n_qubits),
            "seed": int(self.seed),
        }


def _mean_block_impurity(states: np.ndarray, n: int, m: int) -> np.ndarray:
    """Per row, 1 - mean subsystem purity over all size-m blocks of qubits."""
    total = 0.0
    count = 0
    for block in combinations(range(n), m):
        total += purity_batch(states, block)
        count += 1
    return 1.0 - total / count


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
    if samples < 1:
        raise ValueError("samples must be positive")
    if measure not in ENTANGLEMENT_MEASURES:
        raise ValueError(f"measure must be one of {ENTANGLEMENT_MEASURES}")
    base = _resolve_seed(seed)
    program = circuit.program

    # Meyer-Wallach's Q is Scott's Q_1
    m_values = range(1, 2 if measure == "meyer-wallach" else n // 2 + 1)

    def block_impurities(states: np.ndarray, rows: range) -> np.ndarray:
        return np.stack([_mean_block_impurity(states, n, m) for m in m_values], axis=1)

    rows = simulate_map(block_impurities, program,
                        _sampled_angles(program, base, samples))
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
        return {
            "schema": SCHEMA,
            "kind": "spectrum",
            "esd": float(self.esd),
            "measure": self.measure,
            "profile": [float(v) for v in self.profile],
            "reference_profile": [float(v) for v in self.reference.profile],
            "cutoff": float(self.cutoff),
            "subsystem_size": int(self.subsystem_size),
            "samples": int(self.samples),
            "reference_samples": int(self.reference.samples),
            "n_qubits": int(self.n_qubits),
            "seed": int(self.seed),
            "xi_histogram": _histogram_dict(self.xi_histogram),
            "reference_histogram": _histogram_dict(self.reference.histogram),
        }


def entanglement_spectrum(circuit: CircuitDescriptor, samples: int,
                          measure: str = "kld", cutoff: float = -30.0,
                          bins: int = 75, seed=None,
                          reference_samples=None) -> SpectrumReport:
    """Spectrum of -ln(eigenvalues of rho_A) versus the Haar reference.

    A is the first ceil(n/2) qubits. Per sample the xi values are sorted
    descending; the report carries their per-rank mean profile plus the
    divergence (esd) between the pooled xi histogram and the histogram of
    a matching Haar-state ensemble, both binned on [0, |cutoff|].
    """
    n = circuit.n_qubits
    if n < 2:
        raise ValueError("spectrum needs at least 2 qubits")
    if samples < 1:
        raise ValueError("samples must be positive")
    if measure not in DIVERGENCE_MEASURES:
        raise ValueError(f"measure must be one of {DIVERGENCE_MEASURES}")
    if cutoff >= 0:
        raise ValueError("cutoff must be negative (it is a log threshold)")
    k = (n + 1) // 2
    base = _resolve_seed(seed)
    program = circuit.program

    def sorted_xi(states: np.ndarray, rows: range) -> np.ndarray:
        return np.sort(spectral_xi(schmidt_spectrum(states, k), cutoff), axis=1)[:, ::-1]

    profiles = simulate_map(sorted_xi, program, _sampled_angles(program, base, samples))
    pooled = histogram(profiles.reshape(-1), bins, (0.0, abs(cutoff)))
    ref_count = samples if reference_samples is None else int(reference_samples)
    reference = mp_reference_spectrum(n, k, ref_count, rng=base + samples,
                                      cutoff=cutoff, bins=bins)
    esd = _divergence(measure, pooled, reference.histogram)
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
        return {
            "schema": SCHEMA,
            "kind": "landscape",
            "basis": _basis_dict(self.basis),
            "phi": [float(v) for v in self.phi_values],
            "values": [[float(v) for v in row] for row in self.values],
            "center_value": float(self.center_value),
            "metric_mode": self.metric_mode,
            "scan_range": float(self.scan_range),
            "seed": int(self.seed),
        }


BASIS_MODES = ("random", "pca")


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
    if basis_mode not in BASIS_MODES:
        raise ValueError(f"basis_mode must be one of {BASIS_MODES}")
    if points < 2:
        raise ValueError("points must be at least 2")
    if not (math.isfinite(scan_range) and scan_range > 0):
        raise ValueError("scan_range must be finite and positive")
    theta_star = np.asarray(theta_star, dtype=float).reshape(-1)
    if theta_star.shape[0] != circuit.n_params:
        raise ValueError(
            f"theta_star has length {theta_star.shape[0]}, "
            f"circuit declares {circuit.n_params}"
        )
    if not math.isfinite(float(np.max(np.abs(theta_star), initial=0.0)) + 2.0 * scan_range):
        raise ValueError("the scan grid overflows: theta_star must be finite and "
                         "|theta_star| + 2 * scan_range within the float range")
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

    phi_values = np.linspace(-scan_range, scan_range, points)
    thetas = np.array([
        theta_star + phi_values[i] * basis.axes[0] + phi_values[j] * basis.axes[1]
        for i in range(points) for j in range(points)
    ] + [theta_star])
    seeds = [base + 1 + flat for flat in range(points * points)] + [base]
    values = _metric_values(circuit, thetas, metric, seeds)
    return LandscapeGrid(basis, phi_values, values[:-1].reshape(points, points),
                         float(values[-1]), metric.mode, float(scan_range), base)


@dataclass(frozen=True)
class ScanGrids:
    cost_kind: str
    theta1_values: np.ndarray
    theta2_values: np.ndarray
    loss: np.ndarray
    grad_theta2: np.ndarray
    seed: int | None = None

    @property
    def mean_abs_grad(self) -> float:
        return float(np.mean(np.abs(self.grad_theta2)))

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "barren-plateau-scan",
            "cost_kind": self.cost_kind,
            "theta1": [float(v) for v in self.theta1_values],
            "theta2": [float(v) for v in self.theta2_values],
            "loss": [[float(v) for v in row] for row in self.loss],
            "grad_theta2": [[float(v) for v in row] for row in self.grad_theta2],
            "mean_abs_grad": self.mean_abs_grad,
        }


COST_KINDS = ("global", "local")


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
    if cost_kind not in COST_KINDS:
        raise ValueError(f"cost_kind must be one of {COST_KINDS}")
    if circuit.n_params != 2:
        raise ValueError("scan expects a circuit with exactly 2 parameters")
    if points < 2:
        raise ValueError("points must be at least 2")
    if not (math.isfinite(scan_range) and scan_range > 0):
        raise ValueError("scan_range must be finite and positive")

    n = circuit.n_qubits
    cost = (all_zeros_infidelity_cost(n) if cost_kind == "global"
            else mean_excitation_cost(n))
    scored = make_circuit(n, circuit.gates,
                          [p.name for p in circuit.parameters], cost)

    axis = np.linspace(-scan_range, scan_range, points)
    thetas = np.array([(axis[i], axis[j]) for i in range(points) for j in range(points)])
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
        doc = {
            "schema": SCHEMA,
            "kind": "training-path",
            "mode": self.mode,
            "restart": [int(v) for v in self.restarts],
            "step": [int(v) for v in self.steps],
            "loss": [float(v) for v in self.losses],
            "x": [float(v) for v in self.coords[:, 0]],
            "y": [float(v) for v in self.coords[:, 1]],
            "restart_final_loss": [float(v) for v in self.final_losses],
        }
        if self.explained is not None:
            doc["explained_variance_ratio"] = [float(v) for v in self.explained]
        if self.basis is not None:
            doc["basis"] = _basis_dict(self.basis)
        if self.overlay is not None:
            doc["overlay"] = self.overlay.to_dict()
        return doc


PATH_MODES = ("pca", "tsne")


def training_path(traces, mode: str = "pca",
                  overlay: LandscapeGrid | None = None,
                  perplexity: float = 30.0, iters: int = 1000,
                  seed=None) -> PathEmbedding:
    """2-D embedding of every parameter vector visited during training.

    Points from all traces are pooled; each embedded point keeps its
    (restart, step, loss) tag so the polylines can be reassembled. With an
    overlay the landscape's own frame does the projecting, which puts the
    paths and the loss surface on shared axes for a 3-axis plot; that only
    makes sense for linear frames, so overlay plus tsne is rejected.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    if mode not in PATH_MODES:
        raise ValueError(f"mode must be one of {PATH_MODES}")
    if overlay is not None and mode != "pca":
        raise ValueError("an overlay needs the pca mode (tsne has no inverse map)")

    points = np.vstack([t.thetas for t in traces])
    if points.shape[0] < 3:
        raise ValueError("need at least 3 pooled points")
    restarts = np.concatenate([
        np.full(t.thetas.shape[0], t.restart_id, dtype=int) for t in traces
    ])
    steps = np.concatenate([
        np.arange(t.thetas.shape[0], dtype=int) for t in traces
    ])
    losses = np.concatenate([t.losses for t in traces])
    final_losses = tuple(float(t.losses[-1]) for t in traces)

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
                         final_losses, explained, basis, overlay)


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

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": "parameter-histograms",
            "bins": int(self.bins),
            "members": int(self.n_members),
            "steps": int(self.n_steps),
            "parameters": [
                {
                    "index": p,
                    "lo": float(self.ranges[p, 0]),
                    "hi": float(self.ranges[p, 1]),
                    "bin_edges": [float(v) for v in self.bin_edges[p]],
                    "masses": [
                        [float(v) for v in self.masses[t, p]]
                        for t in range(self.n_steps)
                    ],
                }
                for p in range(self.n_params)
            ],
        }


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
    if len(traces) < 2:
        raise ValueError("need at least 2 ensemble members")
    shape = traces[0].thetas.shape
    for t in traces[1:]:
        if t.thetas.shape != shape:
            raise ValueError(
                f"ragged ensemble: {t.thetas.shape} does not match {shape}"
            )
    if bins < 1:
        raise ValueError("bins must be positive")
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
        return {
            "schema": SCHEMA,
            "kind": "reachability",
            "f_r": float(self.f_r),
            "haar_minimum": float(self.haar_minimum),
            "pqc_minimum": float(self.pqc_minimum),
            "haar_samples": int(self.haar_samples),
            "restarts": int(self.restarts),
            "seed": int(self.seed),
        }


def reachability(circuit: CircuitDescriptor, haar_samples: int,
                 restarts: int, config: OptimizerConfig | None = None,
                 seed=None) -> ReachabilityReport:
    """Signed gap between the Haar-sampled and the trained cost minimum.

    f_r = (min cost over haar_samples random states) - (best cost seen
    across restarts of training). A finite estimate can land on either
    side of zero, so the raw value is reported together with both terms.
    Haar draws use seeds base + i; when the optimizer config carries no
    seed, training restarts continue the same seed sequence.
    """
    if circuit.cost is None:
        raise ValueError("reachability needs a circuit with a cost observable")
    if haar_samples < 1:
        raise ValueError("haar_samples must be positive")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if config is None:
        config = OptimizerConfig()
    base = _resolve_seed(seed)

    def haar_costs(chunk: range) -> np.ndarray:
        states = np.stack([sample_haar_state(circuit.n_qubits, base + i).amplitudes
                           for i in chunk])
        return expectation_batch(states, circuit.cost)

    haar_min = float(np.min(np.concatenate(
        map_chunks(haar_costs, haar_samples, _AMPLITUDE_BYTES * 2**circuit.n_qubits))))

    if config.seed is None:
        config = replace(config, seed=base + haar_samples)
    traces = ensemble_train(circuit, config, restarts)
    pqc_min = min(float(t.losses.min()) for t in traces)
    return ReachabilityReport(haar_min - pqc_min, haar_min, pqc_min,
                              haar_samples, restarts, base)
