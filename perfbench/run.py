"""Closed-loop benchmark of pqc_lens.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. A single client issues one analysis call
after another through the public pqc_lens API, on inputs generated from
``--seed``. The run sets up SETUP_REPEATS times (after one import) and
reports the median as ``setup_s``, then repeats rounds of the workload's
call sequence until ``--seconds`` have passed. Times are reported at a
reference clock (see clock.py), which takes out the host's slow spells.
``--trace 1`` spends half of ``--seconds`` untraced and half with spans
around the traced functions, and reports per-layer figures instead of the
end-to-end ones.

Metric names and units come from BENCHMARK.json at the checkout root.
Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
DEFAULT_SEED = 0
REFERENCE_FILE = HERE / "reference_seed0.json"
# CLI runs write into a temporary directory inside the checkout
SCRATCH_PREFIX = ".perfbench_tmp"
# Single-threaded throughout: PQC_LENS_THREADS=1 is the library default,
# and one BLAS thread keeps the run from competing with itself on a small
# machine. Set before numpy is imported.
THREAD_VARS = ("PQC_LENS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def prepare() -> float:
    """Pin threads, put the checkout's src/ first on sys.path, import pqc_lens.

    Returns the import time. Exits when the checkout holds no pqc_lens
    sources, rather than benchmarking some other installed copy.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = ROOT / "src" / "pqc_lens"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no pqc_lens sources at {package}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, str(package.parent))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import pqc_lens
    import pqc_lens.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(pqc_lens.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported pqc_lens from {pqc_lens.__file__}, "
                         f"expected {package}")
    return elapsed


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            if kind != "Instruction":
                caches[f"L{level}"] = size
    except OSError:
        caches["error"] = "cache sizes unreadable"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
    }


def measure(workload, seed: int, first_round: int, seconds: float, reference) -> list:
    """Run whole rounds until ``seconds`` have passed; at least one."""
    from workloads import Round

    rounds = []
    start = time.perf_counter()
    index = first_round
    while not rounds or time.perf_counter() - start < seconds:
        expected = reference if index == 0 else None
        rnd = Round(seed, index, expected, workload.KERNEL_RUNS)
        began = time.perf_counter()
        workload.run_round(rnd)
        rnd.seconds = time.perf_counter() - began
        rounds.append(rnd)
        index += 1
    return rounds


def calls_at_reference_clock(rnd) -> dict[str, tuple[str, int, float]]:
    """Per call key of one round: its group, its work and its time at the
    reference clock, converted with the round's median kernel time."""
    kernel = statistics.median(rnd.kernel_s)
    return {key: (group, work, clock.at_reference_clock(seconds, kernel))
            for key, (group, work, seconds) in rnd.calls.items()}


def typical_calls(rounds) -> dict[str, tuple[str, int, float]]:
    """Per call key: its group, its work and the median over ``rounds`` of
    its time at the reference clock."""
    per_key: dict[str, tuple[str, int, list[float]]] = {}
    for rnd in rounds:
        for key, (group, work, seconds) in calls_at_reference_clock(rnd).items():
            per_key.setdefault(key, (group, work, []))[2].append(seconds)
    return {key: (group, work, statistics.median(times))
            for key, (group, work, times) in per_key.items()}


def round_figures(rounds, sampling_groups) -> dict[str, float]:
    """End-to-end figures of one measured phase.

    Times are at the reference clock (see clock.py) and are medians over
    the phase's rounds: ``round_s`` of each round's summed call times, the
    per-call figures of each call's time.
    """
    typical = typical_calls(rounds).values()

    def times(groups) -> list[float]:
        return [seconds for group, _, seconds in typical if group in groups]

    def per_call(group: str) -> float:
        values = times((group,))
        return sum(values) / len(values) if values else 0.0

    def rate(groups) -> float:
        work = sum(w for group, w, _ in typical if group in groups)
        seconds = sum(times(groups))
        return work / seconds if seconds else 0.0

    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    return {
        "round_s": statistics.median(sum(s for _, _, s in calls_at_reference_clock(r).values())
                                     for r in rounds),
        "wall_s": statistics.median(r.seconds for r in rounds),
        "clock.kernel_s": statistics.median(k for r in rounds for k in r.kernel_s),
        "expressibility_s": per_call("expressibility"),
        "entanglement_s": per_call("entanglement"),
        "spectrum_s": per_call("spectrum"),
        "samples_per_s": rate(sampling_groups),
        "steps_per_s": rate(("train",)),
        "landscape_s": per_call("landscape"),
        "embed_s": per_call("embed"),
        "plateau_s": per_call("plateau"),
        "cli_s": per_call("cli"),
        "error_rate": failed / attempted if attempted else 0.0,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    # the host's clock during set-up: kernel runs before the import and
    # before and after every set-up (see clock.py)
    kernels = [clock.kernel_seconds() for _ in range(3)]
    import_s = prepare()
    sys.path.insert(0, str(HERE))
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE_FILE.read_text())[args.workload]

    with tempfile.TemporaryDirectory(prefix=SCRATCH_PREFIX, dir=ROOT) as scratch:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        setups = []
        for _ in range(SETUP_REPEATS):
            kernels.append(clock.kernel_seconds())
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        kernels.append(clock.kernel_seconds())

        # a traced run splits its time between an untraced and a traced phase
        phase_seconds = args.seconds / 2 if args.trace else args.seconds
        rounds = measure(workload, args.seed, 0, phase_seconds, reference)
        figures = round_figures(rounds, workload.sampling_groups)
        figures["setup_s"] = clock.at_reference_clock(
            import_s + statistics.median(setups), statistics.median(kernels))
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        all_rounds = list(rounds)

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seed, len(rounds), phase_seconds, reference)
            finally:
                tracer.uninstall()
            all_rounds += traced
            traced_seconds = sum(r.seconds for r in traced)
            figures.update(layer_metrics(tracer, len(traced), traced_seconds))
            traced_round = round_figures(traced, workload.sampling_groups)["round_s"]
            figures["trace.overhead_frac"] = traced_round / figures["round_s"] - 1.0

        end_checks = workload.final_checks()

    failures = [f for r in all_rounds for f in r.failures]
    failures += [f"{label}: " + "; ".join(problems) for label, problems in end_checks if problems]
    attempted = sum(r.attempted for r in all_rounds) + len(end_checks)
    failed = len(failures)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {len(rounds)}" + (f" + {len(all_rounds) - len(rounds)} traced" if args.trace else "")
          + f" reference {'on' if reference is not None else 'off (invariants only)'}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print("round_wall_s " + " ".join(f"{r.seconds:.4f}" for r in all_rounds))
    for key, (_, _, seconds) in typical_calls(rounds).items():
        print(f"call {key:<48} median_s {seconds:.4f}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in figures.items():
        print(f"metric {name:<44} {value:14.6g} {units.get(name, '')}")
    print(f"checks attempted {attempted} failed {failed}")
    for failure in failures:
        print(f"FAILED {failure}")
    if tracer is not None:
        for line in tracer.table():
            print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
