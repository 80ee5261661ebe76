"""Command-line front end.

One subcommand per analyzer plus `train` and `qaoa` pipelines. Every run
writes a canonical `report.json` (sorted keys, 2-space indent, trailing
newline) whose `artifacts` array names every file the run produced, so a
byte-for-byte identical report means the whole run was reproduced. Beside
it go SVG plots and these CSV tables, floats written as their repr:

- expressibility: fidelity_histogram.csv (bin_lo, bin_hi, observed, haar)
- spectrum: spectrum_profile.csv (rank, xi_mean, xi_reference)
- train: trace_<r>.csv per restart (step, loss, theta_0 ... theta_<P-1>)
- landscape: landscape.csv (phi0, phi1, value)
- path: path.csv (restart, step, loss, x, y), and overlay.csv (phi0, phi1,
  value) with --overlay
- histogram: parameter_histograms.csv (step, param, bin_lo, bin_hi, mass)
- qaoa: the train, landscape and path tables, and circuit.spec.json

entanglement and reachability write the report alone. Exit codes: 0
success, 2 usage problems, 3 circuit-spec parse failures, 4 numerical
failures such as a diverging optimizer.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .analyzers import (
    BASIS_MODES,
    DIVERGENCE_MEASURES,
    ENTANGLEMENT_MEASURES,
    PATH_MODES,
    SCHEMA,
    _check_histogram,
    _check_landscape,
    _check_path,
    _document,
    _final_losses,
    entanglement_capability,
    entanglement_spectrum,
    expressibility,
    loss_landscape,
    parameter_histogram,
    reachability,
    training_path,
)
from .circuit import (
    CircuitDescriptor,
    CircuitSpecError,
    _resolve_seed,
    bind,
    parse_circuit_spec,
    qaoa_builder,
    serialize_circuit_spec,
)
from .library import max_cut_size, mean_cut_scorer, random_gnm_edges
from .simulator import _check_shots, sample, simulate
from .svg import heatmap, histogram_plot, line_plot, path_plot
from .trainer import METHODS, DivergenceError, OptimizerConfig, _check_run, ensemble_train


def _load_circuit(path: str) -> CircuitDescriptor:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read circuit file {path}: {exc}") from exc
    return parse_circuit_spec(text)


def _csv(header, *columns) -> str:
    """One line per row of the columns, each flattened in C order; every value
    is written as the repr of its Python int or float, which reads back exactly."""
    rows = zip(*(np.ravel(column).tolist() for column in columns), strict=True)
    return "\n".join([",".join(header), *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _grid_csv(grid) -> str:
    return _csv(["phi0", "phi1", "value"],
                *np.meshgrid(grid.phi_values, grid.phi_values, indexing="ij"), grid.values)


def _trace_files(traces) -> dict:
    return {
        f"trace_{t.restart_id}.csv": _csv(
            ["step", "loss"] + [f"theta_{i}" for i in range(t.thetas.shape[1])],
            np.arange(t.losses.shape[0]), t.losses, *t.thetas.T)
        for t in traces
    }


def _landscape_files(grid, title: str) -> dict:
    return {
        "landscape.csv": _grid_csv(grid),
        "landscape.svg": heatmap(grid.phi_values, grid.phi_values, grid.values,
                                 title, "phi0", "phi1"),
    }


def _path_files(path, title: str) -> dict:
    return {
        "path.csv": _csv(["restart", "step", "loss", "x", "y"],
                         path.restarts, path.steps, path.losses, *path.coords.T),
        "path.svg": path_plot(path.coords, path.restarts, title),
    }


def _costed_circuit(args) -> CircuitDescriptor:
    """The --circuit spec, which must declare a cost observable."""
    circuit = _load_circuit(args.circuit)
    if circuit.cost is None:
        raise ValueError(
            f"the {args.command} command needs a circuit spec with a cost observable"
        )
    return circuit


def _optimizer_config(args, circuit, seed: int | None) -> OptimizerConfig:
    """The training flags as a config, checked with --restarts against the
    circuit; a training command calls this before any check of its own."""
    config = OptimizerConfig(method=args.method, learning_rate=args.lr,
                             steps=args.steps, seed=seed)
    _check_run(circuit, config, args.restarts)
    return config


def _best_trace(traces):
    best = min(range(len(traces)), key=lambda r: float(traces[r].losses.min()))
    trace = traces[best]
    at = int(np.argmin(trace.losses))
    return best, trace, trace.thetas[at].copy(), float(trace.losses[at])


def _check_best_landscape(circuit, args, theta=None) -> None:
    """``_best_landscape``'s checks, before training: at ``theta``, or at zeros
    in place of the trained point, on a trace of --steps + 1 points."""
    _check_landscape(circuit, np.zeros(circuit.n_params) if theta is None else theta,
                     "pca", args.points, args.scan_range, args.steps + 1)


def _best_landscape(circuit, traces, args, seed: int, theta=None):
    """The loss on the PCA frame of the best restart's path, centred on its
    lowest-loss point, or on ``theta`` if given."""
    _, trace, best_theta, _ = _best_trace(traces)
    return loss_landscape(circuit, best_theta if theta is None else theta,
                          basis_mode="pca", points=args.points,
                          scan_range=args.scan_range, seed=seed, trace=trace)


def _training_summary(traces) -> dict:
    best, _, best_theta, best_loss = _best_trace(traces)
    return _document("training",
                     restarts=len(traces),
                     steps=traces[0].losses.shape[0] - 1,
                     final_losses=_final_losses(traces),
                     best_restart=best,
                     best_loss=best_loss,
                     best_theta=best_theta)


def _cmd_expressibility(args, seed: int):
    circuit = _load_circuit(args.circuit)
    report = expressibility(circuit, args.samples, args.measure,
                            bins=args.bins, seed=seed)
    hist = report.fidelity_histogram
    base = report.baseline
    svg = histogram_plot(
        [("circuit", hist.bin_edges, hist.masses, "bar"),
         ("haar", base.bin_edges, base.masses, "line")],
        f"fidelity distribution ({args.measure} = {report.value:.4f})",
        "fidelity",
    )
    files = {
        "expressibility.svg": svg,
        "fidelity_histogram.csv": _csv(["bin_lo", "bin_hi", "observed", "haar"],
                                       hist.bin_edges[:-1], hist.bin_edges[1:],
                                       hist.masses, base.masses),
    }
    return report.to_dict(), files


def _cmd_entanglement(args, seed: int):
    circuit = _load_circuit(args.circuit)
    report = entanglement_capability(circuit, args.samples, args.measure,
                                     seed=seed)
    return report.to_dict(), {}


def _cmd_spectrum(args, seed: int):
    circuit = _load_circuit(args.circuit)
    report = entanglement_spectrum(circuit, args.samples, args.measure,
                                   bins=args.bins, seed=seed)
    ranks = np.arange(1, report.profile.shape[0] + 1)
    svg = line_plot(
        [("circuit", ranks, report.profile),
         ("haar reference", ranks, report.reference.profile)],
        f"entanglement spectrum (esd = {report.esd:.4f})",
        "rank", "mean xi",
    )
    files = {
        "spectrum.svg": svg,
        "spectrum_profile.csv": _csv(["rank", "xi_mean", "xi_reference"],
                                     ranks, report.profile, report.reference.profile),
    }
    return report.to_dict(), files


def _cmd_train(args, seed: int):
    circuit = _costed_circuit(args)
    traces = ensemble_train(circuit, _optimizer_config(args, circuit, seed), args.restarts)
    files = _trace_files(traces)
    steps = np.arange(traces[0].losses.shape[0])
    files["loss_curves.svg"] = line_plot(
        [(f"restart {t.restart_id}", steps, t.losses) for t in traces],
        "training loss", "step", "loss",
    )
    return {**_training_summary(traces), "seed": seed}, files


def _parse_theta(text: str):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"cannot parse --theta value {text!r}") from exc
    return np.asarray(values)


def _cmd_landscape(args, seed: int):
    circuit = _costed_circuit(args)
    theta = None if args.theta is None else _parse_theta(args.theta)
    if args.basis == "pca":
        config = _optimizer_config(args, circuit, seed)
        _check_best_landscape(circuit, args, theta)
        traces = ensemble_train(circuit, config, args.restarts)
        grid = _best_landscape(circuit, traces, args, seed, theta)
    else:
        grid = loss_landscape(circuit, np.zeros(circuit.n_params) if theta is None else theta,
                              basis_mode="random", points=args.points,
                              scan_range=args.scan_range, seed=seed)
    return grid.to_dict(), _landscape_files(grid, "loss landscape")


def _cmd_path(args, seed: int):
    circuit = _costed_circuit(args)
    config = _optimizer_config(args, circuit, seed)
    _check_path((args.steps + 1) * args.restarts, args.mode, args.overlay,
                args.perplexity, args.iters)
    if args.overlay:
        _check_best_landscape(circuit, args)
    traces = ensemble_train(circuit, config, args.restarts)
    overlay = _best_landscape(circuit, traces, args, seed) if args.overlay else None
    path = training_path(traces, mode=args.mode, overlay=overlay,
                         perplexity=args.perplexity, iters=args.iters,
                         seed=seed)
    files = _path_files(path, f"training paths ({args.mode})")
    if overlay is not None:
        files["overlay.csv"] = _grid_csv(overlay)
    return path.to_dict(), files


def _cmd_histogram(args, seed: int):
    circuit = _costed_circuit(args)
    config = _optimizer_config(args, circuit, seed)
    _check_histogram(args.restarts, args.steps + 1, circuit.n_params, args.bins)
    traces = ensemble_train(circuit, config, args.restarts)
    series = parameter_histogram(traces, bins=args.bins)
    step, param, b = np.indices(series.masses.shape)
    files = {
        "parameter_histograms.csv": _csv(
            ["step", "param", "bin_lo", "bin_hi", "mass"], step, param,
            series.bin_edges[param, b], series.bin_edges[param, b + 1], series.masses),
    }
    steps = np.arange(series.n_steps)
    for p in range(series.n_params):
        centers = 0.5 * (series.bin_edges[p][:-1] + series.bin_edges[p][1:])
        files[f"param_{p}.svg"] = heatmap(
            steps, centers, series.masses[:, p, :],
            f"theta_{p} marginal over training", "step", f"theta_{p}",
        )
    return {**series.to_dict(), "seed": seed}, files


def _cmd_reachability(args, seed: int):
    circuit = _costed_circuit(args)
    report = reachability(circuit, args.samples, args.restarts,
                          config=_optimizer_config(args, circuit, None), seed=seed)
    return report.to_dict(), {}


def _cmd_qaoa(args, seed: int):
    edges = random_gnm_edges(args.nodes, args.edges, seed=seed)
    optimum_cut = max_cut_size(edges, args.nodes)  # before any simulation
    circuit = qaoa_builder(edges, args.p, n_nodes=args.nodes)
    config = _optimizer_config(args, circuit, seed)
    _check_shots(args.shots, args.nodes)  # and the shot draw, before training
    _check_path((args.steps + 1) * args.restarts, args.mode, False,
                args.perplexity, args.iters)
    _check_best_landscape(circuit, args)
    traces = ensemble_train(circuit, config, args.restarts)
    _, _, best_theta, best_loss = _best_trace(traces)
    counts = sample(simulate(bind(circuit, best_theta)), args.shots, seed + 10_000)
    sampled_cut = mean_cut_scorer(edges)(counts.bit_matrix())
    grid = _best_landscape(circuit, traces, args, seed)
    path = training_path(traces, mode=args.mode, perplexity=args.perplexity,
                         iters=args.iters, seed=seed)
    files = {
        **_trace_files(traces),
        **_landscape_files(grid, f"qaoa p={args.p} loss"),
        **_path_files(path, f"qaoa p={args.p} training paths"),
        "circuit.spec.json": serialize_circuit_spec(circuit),
    }
    return _document("qaoa",
                     nodes=args.nodes,
                     edges=edges,
                     p=args.p,
                     optimum_cut=optimum_cut,
                     expected_cut_at_best=len(edges) / 2.0 - best_loss,
                     sampled_mean_cut=sampled_cut,
                     shots=args.shots,
                     training=_training_summary(traces),
                     seed=seed), files


_COMMANDS = {
    "expressibility": _cmd_expressibility,
    "entanglement": _cmd_entanglement,
    "spectrum": _cmd_spectrum,
    "train": _cmd_train,
    "landscape": _cmd_landscape,
    "path": _cmd_path,
    "histogram": _cmd_histogram,
    "reachability": _cmd_reachability,
    "qaoa": _cmd_qaoa,
}


def _add_training_flags(sub, restarts_default: int) -> None:
    sub.add_argument("--steps", type=int, default=100)
    sub.add_argument("--restarts", type=int, default=restarts_default)
    sub.add_argument("--lr", type=float, default=0.05)
    sub.add_argument("--method", choices=METHODS, default="adam")


def _add_grid_flags(sub) -> None:
    sub.add_argument("--points", type=int, default=21)
    sub.add_argument("--range", dest="scan_range", type=float, default=math.pi)


def _add_path_flags(sub) -> None:
    sub.add_argument("--mode", choices=PATH_MODES, default="pca")
    sub.add_argument("--perplexity", type=float, default=30.0)
    sub.add_argument("--iters", type=int, default=1000)


def _add_sampling_flags(sub, measures: tuple[str, ...]) -> None:
    sub.add_argument("--samples", type=int, default=1000)
    sub.add_argument("--measure", choices=measures, default=measures[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqc-lens",
        description="Analyze parameterized quantum circuits: expressibility, "
                    "entanglement, landscapes, and training behavior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name: str, needs_circuit: bool = True):
        p = sub.add_parser(name)
        if needs_circuit:
            p.add_argument("--circuit", required=True,
                           help="path to a JSON circuit spec")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="pqc-lens-out",
                       help="output directory (created if absent)")
        return p

    p = new("expressibility")
    _add_sampling_flags(p, DIVERGENCE_MEASURES)
    p.add_argument("--bins", type=int, default=75)

    _add_sampling_flags(new("entanglement"), ENTANGLEMENT_MEASURES)

    p = new("spectrum")
    _add_sampling_flags(p, DIVERGENCE_MEASURES)
    p.add_argument("--bins", type=int, default=75)

    p = new("train")
    _add_training_flags(p, restarts_default=1)

    p = new("landscape")
    _add_training_flags(p, restarts_default=1)
    p.add_argument("--basis", choices=BASIS_MODES, default="random")
    p.add_argument("--theta", default=None,
                   help="comma-separated center parameters (default zeros, "
                        "or the trained optimum with --basis pca)")
    _add_grid_flags(p)

    p = new("path")
    _add_training_flags(p, restarts_default=5)
    _add_path_flags(p)
    p.add_argument("--overlay", action="store_true",
                   help="also evaluate the loss on the projection grid "
                        "(pca mode only)")
    _add_grid_flags(p)

    p = new("histogram")
    _add_training_flags(p, restarts_default=8)
    p.add_argument("--bins", type=int, default=75)

    p = new("reachability")
    _add_training_flags(p, restarts_default=5)
    p.add_argument("--samples", type=int, default=1000,
                   help="number of Haar states for the reference minimum")

    p = new("qaoa", needs_circuit=False)
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edges", type=int, required=True,
                   help="edge count of the random graph")
    p.add_argument("--p", type=int, default=1)
    _add_training_flags(p, restarts_default=5)
    p.add_argument("--shots", type=int, default=1024)
    _add_path_flags(p)
    _add_grid_flags(p)

    return parser


def run(argv=None) -> int:
    """Parse argv, run one command, write its outputs. Returns exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        seed = _resolve_seed(args.seed)
        result, files = _COMMANDS[args.command](args, seed)
    except CircuitSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {
        "schema": SCHEMA,
        "command": args.command,
        "manifest": {**vars(args), "seed": seed},
        "result": result,
        "artifacts": sorted(list(files) + ["report.json"]),
    }
    files["report.json"] = json.dumps(report, sort_keys=True, indent=2) + "\n"
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, content in files.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(content)
    except OSError as exc:
        print(f"error: cannot write outputs to {args.out}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> None:
    raise SystemExit(run(argv))


if __name__ == "__main__":
    main()
