"""The benchmark workloads: set-up, one closed-loop round, and output checks.

``setup`` builds circuits and graphs (the only place ``pqc_lens.library`` is
used) and makes a first call per analyzer and width. ``run_round`` issues
the workload's analysis calls one after another through ``Round.call``,
which runs the calibration kernel, then times the call, counts it, and
checks its output. Every pqc_lens
function is looked up on the package at call time, so a tracer installed
between rounds sees the calls. Seeds for graphs, optimizers and analyzers
are derived from the workload seed; pqc_lens only ever receives them as
arguments.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
import time

import numpy as np

import clock
import pqc_lens as P
import pqc_lens.cli  # noqa: F401  (makes P.cli available)
import refsim

# Output checks against recorded reference values pass when
# |value - reference| <= REF_ABS + REF_REL * |reference|.
REF_ABS = 1e-9
REF_REL = 1e-6
_UNIT_TOL = 1e-12


def derived_seed(*words: int) -> int:
    """A 32-bit seed drawn from the SeedSequence of ``words``."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def compare(values: list[float], expected) -> list[str]:
    if expected is None:
        return ["no reference value recorded"]
    if len(values) != len(expected):
        return [f"{len(values)} values, reference has {len(expected)}"]
    bad = [i for i, (a, b) in enumerate(zip(values, expected))
           if not abs(a - b) <= REF_ABS + REF_REL * abs(b)]
    if not bad:
        return []
    i = bad[0]
    return [f"{len(bad)} of {len(values)} values differ from the reference "
            f"(first at {i}: {values[i]!r} vs {expected[i]!r})"]


class Round:
    """One pass over a workload's call sequence."""

    def __init__(self, seed: int, index: int, reference: dict | None,
                 kernel_runs: int = 1):
        self.seed = seed
        self.kernel_runs = kernel_runs
        self.index = index
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.summaries: dict[str, list[float]] = {}
        # per call key: (group, work, seconds) of the call that succeeded
        self.calls: dict[str, tuple[str, int, float]] = {}
        # calibration kernel times, kernel_runs before each call (see clock.py)
        self.kernel_s: list[float] = []
        self.seconds = 0.0
        self._seeds_drawn = 0

    def next_seed(self) -> int:
        self._seeds_drawn += 1
        return derived_seed(self.seed, self.index, self._seeds_drawn)

    def call(self, key: str, group: str, work: int, fn, *args,
             check=None, summary=None, **kwargs):
        """Time ``fn(*args, **kwargs)``, then check its result outside the timer.

        ``work`` counts the parameter samples or optimizer steps the call
        performs. Returns None when the call raised.
        """
        self.attempted += 1
        self.kernel_s += [clock.kernel_seconds() for _ in range(self.kernel_runs)]
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failing call is counted, the run goes on
            self.failures.append(f"{key}: raised {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        self.calls[key] = (group, work, elapsed)
        problems = list(check(result)) if check is not None else []
        if summary is not None and not problems:
            values = [float(v) for v in summary(result)]
            self.summaries[key] = values
            if self.reference is not None:
                problems += compare(values, self.reference.get(key))
        if problems:
            self.failures.append(f"{key}: " + "; ".join(problems))
        return result


def _outside_unit_interval(label: str, values) -> list[str]:
    return [f"{label} = {v!r} outside [0, 1]" for v in np.ravel(values)
            if not -_UNIT_TOL <= v <= 1.0 + _UNIT_TOL]


def _masses_not_normalised(label: str, masses) -> list[str]:
    masses = np.asarray(masses)
    total = float(masses.sum())
    if abs(total - 1.0) > 1e-9 or np.any(masses < 0):
        return [f"{label} masses sum to {total!r} or are negative"]
    return []


def _not_finite(label: str, values) -> list[str]:
    return [] if np.all(np.isfinite(values)) else [f"{label} has non-finite entries"]


# ---------------------------------------------------------------------------
# ensemble workloads


def check_expressibility(report, samples: int) -> list[str]:
    problems = _masses_not_normalised("fidelity histogram", report.fidelity_histogram.masses)
    problems += _masses_not_normalised("Haar baseline", report.baseline.masses)
    if report.fidelity_histogram.total_samples != samples:
        problems.append(f"{report.fidelity_histogram.total_samples} fidelities, expected {samples}")
    if not (math.isfinite(report.value) and report.value >= 0.0):
        problems.append(f"divergence {report.value!r} is not a finite non-negative number")
    if report.measure == "jsd" and report.value > math.sqrt(math.log(2.0)) + _UNIT_TOL:
        problems.append(f"JS distance {report.value!r} exceeds sqrt(ln 2)")
    return problems


def check_entanglement(report) -> list[str]:
    label = "Scott Q_m" if report.measure == "scott" else "Meyer-Wallach Q"
    return _outside_unit_interval(label, report.q)


def check_spectrum(report) -> list[str]:
    problems = _masses_not_normalised("xi histogram", report.xi_histogram.masses)
    problems += _masses_not_normalised("reference xi histogram", report.reference.histogram.masses)
    problems += _not_finite("profile", report.profile)
    if not (math.isfinite(report.esd) and report.esd >= 0.0):
        problems.append(f"esd {report.esd!r} is not a finite non-negative number")
    if np.any(report.profile < 0) or np.any(report.profile > abs(report.cutoff)):
        problems.append("profile leaves [0, |cutoff|]")
    if np.any(np.diff(report.profile) > 1e-9):
        problems.append("profile is not sorted in descending order")
    return problems


class Ensemble:
    """Sampling analyzers over a fixed list of layered_ansatz configurations.

    Each round calls expressibility, then entanglement_capability with every
    measure in ENTANGLEMENT_MEASURES, then entanglement_spectrum, on every
    configuration. Subclasses set the configurations and sample counts.
    """

    name = ""
    # (qubits, layers, entangler, expressibility measure)
    CONFIGS: tuple = ()
    ENTANGLEMENT_MEASURES: tuple = ()
    EXPRESSIBILITY_SAMPLES = 0
    ENTANGLEMENT_SAMPLES = 0
    SPECTRUM_SAMPLES = 0
    sampling_groups = ("expressibility", "entanglement", "spectrum")
    KERNEL_RUNS = 1

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.circuits: list = []

    def warm_circuit(self, circuit):
        return circuit

    def setup(self) -> None:
        self.circuits = []
        for k, (n, layers, entangler, measure) in enumerate(self.CONFIGS):
            circuit = P.layered_ansatz(n, layers, entangler)
            self.circuits.append((f"{n}q-{layers}l-{entangler}", measure, circuit))
            warm = self.warm_circuit(circuit)
            seed = derived_seed(self.seed, 1_000_000 + k)
            P.expressibility(warm, 2, measure, seed=seed)
            for entanglement in self.ENTANGLEMENT_MEASURES:
                P.entanglement_capability(warm, 1, entanglement, seed=seed)
            P.entanglement_spectrum(warm, 1, seed=seed)

    def run_round(self, rnd: Round) -> None:
        for tag, measure, circuit in self.circuits:
            samples = self.EXPRESSIBILITY_SAMPLES
            rnd.call(f"expressibility/{measure}/{tag}", "expressibility", samples,
                     P.expressibility, circuit, samples, measure, seed=rnd.next_seed(),
                     check=lambda r, s=samples: check_expressibility(r, s),
                     summary=lambda r: [r.value, *r.fidelity_histogram.masses])
            for entanglement in self.ENTANGLEMENT_MEASURES:
                rnd.call(f"entanglement/{entanglement}/{tag}", "entanglement",
                         self.ENTANGLEMENT_SAMPLES, P.entanglement_capability, circuit,
                         self.ENTANGLEMENT_SAMPLES, entanglement, seed=rnd.next_seed(),
                         check=check_entanglement, summary=lambda r: np.ravel(r.q))
            # the largest eigenvalues only: ranks near the cutoff carry
            # rounding noise of eigenvalues at 1e-13 and below
            rnd.call(f"spectrum/{tag}", "spectrum", self.SPECTRUM_SAMPLES,
                     P.entanglement_spectrum, circuit, self.SPECTRUM_SAMPLES,
                     seed=rnd.next_seed(), check=check_spectrum,
                     summary=lambda r: [r.esd, *r.profile[-8:]])

    def final_checks(self) -> list[tuple[str, list[str]]]:
        return []


class EnsembleNarrow(Ensemble):
    """4-8 qubits, 1-4 layers, many samples: per-gate Python overhead and bind."""

    name = "ensemble-narrow"
    CONFIGS = ((4, 1, "chain", "kld"), (6, 3, "chain", "jsd"),
               (6, 2, "full", "kld"), (8, 4, "full", "jsd"))
    ENTANGLEMENT_MEASURES = ("meyer-wallach", "scott")
    EXPRESSIBILITY_SAMPLES = 100
    ENTANGLEMENT_SAMPLES = 25
    SPECTRUM_SAMPLES = 25
    STATES_CHECKED = 2
    MW_CHECK_SAMPLES = 3

    def final_checks(self) -> list[tuple[str, list[str]]]:
        """Compare pqc_lens against the independent reference simulator."""
        results = []
        for k, (tag, _, circuit) in enumerate(self.circuits):
            rng = np.random.default_rng(derived_seed(self.seed, 2_000_000 + k))
            states = []
            for i in range(self.STATES_CHECKED):
                theta = rng.uniform(0.0, 2.0 * math.pi, circuit.n_params)
                got = P.simulate(P.bind(circuit, theta)).amplitudes
                want = refsim.final_state(circuit, theta)
                error = float(np.max(np.abs(got - want)))
                problems = [] if error <= 1e-10 else [f"max amplitude error {error:.3g}"]
                results.append((f"state {i} of {tag} vs reference simulator", problems))
                states.append((got, want))
            fidelity = float(abs(np.vdot(states[0][0], states[1][0])) ** 2)
            want = float(abs(np.vdot(states[0][1], states[1][1])) ** 2)
            problems = _outside_unit_interval("fidelity", fidelity)
            if abs(fidelity - want) > 1e-10:
                problems.append(f"fidelity {fidelity!r}, reference simulator {want!r}")
            results.append((f"pair fidelity of {tag}", problems))

        # Meyer-Wallach Q on the smallest circuit, drawing sample i from a
        # generator seeded base + i as pqc_lens documents
        tag, _, circuit = self.circuits[0]
        base = derived_seed(self.seed, 3_000_000)
        thetas = [np.random.default_rng(base + i).uniform(0.0, 2.0 * math.pi, circuit.n_params)
                  for i in range(self.MW_CHECK_SAMPLES)]
        got = P.entanglement_capability(circuit, self.MW_CHECK_SAMPLES, seed=base).q
        want = refsim.meyer_wallach(circuit, thetas)
        problems = [] if abs(got - want) <= 1e-10 else [f"Q {got!r}, reference simulator {want!r}"]
        results.append((f"Meyer-Wallach Q of {tag} vs reference simulator", problems))
        return results


class EnsembleWide(Ensemble):
    """18-19 qubits, few samples: 4-8 MiB states, gate kernels and bytes moved.

    20 qubits is left out: on the development host its calls, with a 16 MiB
    state and its temporaries, spread by up to 35 % between rounds of one
    run, where the 18- and 19-qubit calls spread by under 10 %.
    """

    name = "ensemble-wide"
    CONFIGS = ((18, 1, "chain", "kld"), (19, 1, "chain", "jsd"))
    ENTANGLEMENT_MEASURES = ("meyer-wallach",)
    EXPRESSIBILITY_SAMPLES = 2
    ENTANGLEMENT_SAMPLES = 1
    SPECTRUM_SAMPLES = 1
    # a round holds only six calls of 0.2-1.5 s: sample the host's clock
    # densely so that the round's median kernel time is steady
    KERNEL_RUNS = 16

    def warm_circuit(self, circuit):
        """A two-gate circuit of the same width: first calls and full-size
        allocations at a fraction of the cost of the real circuit."""
        n = circuit.n_qubits
        return P.make_circuit(n, [P.Gate("RY", (0,), P.ParamRef("t")),
                                  P.Gate("CX", (0, n - 1))], ["t"])


# ---------------------------------------------------------------------------
# QAOA training pipeline


class TrainQaoa:
    """QAOA MaxCut through the API, barren-plateau scans, and one CLI run."""

    name = "train-qaoa"
    NODES, EDGES, LAYERS = 8, 20, 1
    TRAIN_CALLS, RESTARTS, STEPS = 3, 2, 3
    PERPLEXITY = 6.0
    LANDSCAPE_POINTS = 9
    SHOTS = 1024
    PLATEAU_QUBITS, PLATEAU_POINTS = 8, 5
    CLI_ARGS = ("qaoa", "--nodes", "6", "--edges", "9", "--p", "1", "--steps", "5",
                "--restarts", "2", "--points", "5", "--mode", "tsne",
                "--perplexity", "3", "--iters", "250", "--shots", "256")
    sampling_groups = ()
    KERNEL_RUNS = 1

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        self.edges = P.random_gnm_edges(self.NODES, self.EDGES, seed=derived_seed(self.seed, 4_000_000))
        self.circuit = P.qaoa_builder(self.edges, self.LAYERS, n_nodes=self.NODES)
        self.max_cut = P.max_cut_size(self.edges, self.NODES)
        self.scorer = P.mean_cut_scorer(self.edges)
        self.plateau = P.identity_learning_ansatz(self.PLATEAU_QUBITS)

        warm = derived_seed(self.seed, 5_000_000)
        traces = P.ensemble_train(self.circuit, P.OptimizerConfig(steps=2, seed=warm), 2)
        P.loss_landscape(self.circuit, traces[0].thetas[-1], "pca", points=2,
                         seed=warm, trace=traces[0])
        P.training_path(traces, "tsne", perplexity=1.5, iters=10, seed=warm)
        P.sample(P.simulate(P.bind(self.circuit, traces[0].thetas[-1])), 16, warm)
        for kind in ("global", "local"):
            P.barren_plateau_scan(self.plateau, kind, points=2)
        with tempfile.TemporaryDirectory(dir=self.scratch) as out:
            P.cli.run([*self.CLI_ARGS, "--seed", str(warm), "--out", out])

    # -- checks ------------------------------------------------------------

    def _check_traces(self, traces) -> list[str]:
        problems = []
        for t in traces:
            problems += _not_finite(f"restart {t.restart_id} losses", t.losses)
        best = min(float(t.losses.min()) for t in traces)
        expected_cut = len(self.edges) / 2.0 - best
        if not -1e-9 <= expected_cut <= self.max_cut + 1e-9:
            problems.append(f"expected cut {expected_cut!r} outside [0, max cut {self.max_cut}]")
        return problems

    def _check_landscape(self, grid) -> list[str]:
        bound = len(self.edges) / 2.0 + 1e-9
        problems = _not_finite("landscape", grid.values)
        if np.any(np.abs(grid.values) > bound):
            problems.append(f"landscape value beyond the cost bound {bound}")
        return problems

    def _check_path(self, path) -> list[str]:
        points = self.TRAIN_CALLS * self.RESTARTS * (self.STEPS + 1)
        if path.coords.shape != (points, 2):
            return [f"embedding shape {path.coords.shape}, expected {(points, 2)}"]
        return _not_finite("embedding", path.coords)

    def _check_cut(self, cut: float) -> list[str]:
        if not 0.0 <= cut <= self.max_cut:
            return [f"sampled mean cut {cut!r} outside [0, max cut {self.max_cut}]"]
        return []

    def _check_scan(self, scan, global_scan=None) -> list[str]:
        n = self.PLATEAU_QUBITS
        problems = _outside_unit_interval("loss", scan.loss) + _not_finite("gradient", scan.grad_theta2)
        # at theta = (0, 0) qubits 0 and 1 stay in |0>; each of the other
        # n - 2 qubits carries RX(pi/2) and reads 0 with probability 1/2,
        # so the loss vanishes only for n = 2
        centre = float(scan.loss[self.PLATEAU_POINTS // 2, self.PLATEAU_POINTS // 2])
        want = 1.0 - 0.5 ** (n - 2) if scan.cost_kind == "global" else (n - 2) / (2.0 * n)
        if abs(centre - want) > 1e-9:
            problems.append(f"loss at the identity node {centre!r}, expected {want!r}")
        if global_scan is not None and not global_scan.mean_abs_grad < scan.mean_abs_grad:
            problems.append(f"global mean |grad| {global_scan.mean_abs_grad!r} is not below "
                            f"the local one {scan.mean_abs_grad!r}")
        return problems

    @staticmethod
    def _cli_report(out: str) -> dict:
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def _check_cli(self, code: int, out: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            report = self._cli_report(out)
        except (OSError, ValueError) as exc:
            return [f"unreadable report.json: {exc}"]
        problems = [f"artifact {name} missing" for name in report["artifacts"]
                    if not os.path.isfile(os.path.join(out, name))]
        result = report["result"]
        if result["expected_cut_at_best"] > result["optimum_cut"] + 1e-9:
            problems.append("expected cut exceeds the optimum cut")
        if not 0.0 <= result["sampled_mean_cut"] <= result["optimum_cut"]:
            problems.append("sampled mean cut outside [0, optimum cut]")
        return problems

    def _cli_summary(self, out: str) -> list[float]:
        result = self._cli_report(out)["result"]
        return [result["optimum_cut"], result["expected_cut_at_best"],
                result["sampled_mean_cut"], *result["training"]["final_losses"]]

    # -- round -------------------------------------------------------------

    def run_round(self, rnd: Round) -> None:
        # training is split into short calls so that a run holds many short
        # rounds, whose median is steady
        traces = []
        for k in range(self.TRAIN_CALLS):
            config = P.OptimizerConfig(method="adam", steps=self.STEPS, seed=rnd.next_seed())
            batch = rnd.call(f"ensemble_train/{k}", "train", self.RESTARTS * self.STEPS,
                             P.ensemble_train, self.circuit, config, self.RESTARTS,
                             check=self._check_traces,
                             summary=lambda ts: [v for t in ts for v in (*t.losses, *t.thetas[-1])])
            if batch is None:
                return
            traces += batch
        best = min(traces, key=lambda t: float(t.losses.min()))
        theta = best.thetas[int(np.argmin(best.losses))]

        rnd.call("loss_landscape", "landscape", 0, P.loss_landscape, self.circuit, theta,
                 "pca", points=self.LANDSCAPE_POINTS, seed=rnd.next_seed(), trace=best,
                 check=self._check_landscape,
                 summary=lambda g: [g.center_value, *g.values.ravel()])
        # t-SNE coordinates are chaotic under rounding: checked, not compared
        rnd.call("training_path", "embed", 0, P.training_path, traces, "tsne",
                 perplexity=self.PERPLEXITY, seed=rnd.next_seed(), check=self._check_path)

        shots_seed = rnd.next_seed()
        rnd.call("sample", "sample", 0,
                 lambda: self.scorer(P.sample(P.simulate(P.bind(self.circuit, theta)),
                                              self.SHOTS, shots_seed).bit_matrix()),
                 check=self._check_cut, summary=lambda cut: [cut])

        global_scan = None
        for kind in ("global", "local"):
            scan = rnd.call(f"plateau/{kind}", "plateau", 0, P.barren_plateau_scan,
                            self.plateau, kind, points=self.PLATEAU_POINTS,
                            check=lambda s: self._check_scan(s, global_scan),
                            summary=lambda s: [*s.loss.ravel(), *s.grad_theta2.ravel()])
            if kind == "global":
                global_scan = scan

        with tempfile.TemporaryDirectory(dir=self.scratch) as out:
            rnd.call("cli/qaoa", "cli", 0, P.cli.run,
                     [*self.CLI_ARGS, "--seed", str(rnd.next_seed()), "--out", out],
                     check=lambda code: self._check_cli(code, out),
                     summary=lambda code: self._cli_summary(out))

    def final_checks(self) -> list[tuple[str, list[str]]]:
        return []


WORKLOADS = {w.name: w for w in (EnsembleNarrow, EnsembleWide, TrainQaoa)}
