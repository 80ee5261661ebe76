"""Entanglement spectrum: deeper circuits approach the Haar reference.

An 8-qubit layered ansatz with a CX chain is sampled at depths 1, 4,
and 8. For each parameter draw the state is split down the middle; the
eigenvalues lambda of the reduced density matrix on the first 4 qubits
are the squared singular values of the state's 16 x 16 amplitude
matrix, so the density matrix is never formed, and the log-spectrum
xi = -ln(lambda) is collected. A depth-L chain crosses the cut with L
CX gates, so its Schmidt rank is at most 2^L: at depth 1 a range finder
computes only those 2 values, in O(16 * 16 * 2) work, and from depth 4
on the bound reaches all 16 ranks and the full SVD runs. Shallow
circuits leave most weight on a single Schmidt vector (one small xi,
the rest pushed to the cutoff); deep circuits spread weight across all
16 ranks the way random states do, so the divergence from the Haar
ensemble (esd) falls with depth.

A parameter-free Bell pair is included as the textbook check: both of
its Schmidt weights are exactly 1/2, so the profile is [ln 2, ln 2].
"""

import math
from pathlib import Path

from pqc_lens import bell_circuit, entanglement_spectrum, layered_ansatz
from pqc_lens import svg

OUT = Path(__file__).parent / "out" / "spectrum_depth"
SEED = 3


def depth_sweep() -> None:
    depths = [1, 4, 8]
    print("8-qubit chain ansatz, half/half split, 100 samples per depth")
    reports = []
    for depth in depths:
        circuit = layered_ansatz(8, depth, entangler="chain")
        report = entanglement_spectrum(circuit, samples=100, seed=SEED)
        reports.append((depth, report))
        print(f"  layers = {depth}  esd = {report.esd:.4f}")

    ranks = list(range(1, len(reports[0][1].profile) + 1))
    series = [(f"L={depth}", ranks, list(report.profile))
              for depth, report in reports]
    reference = reports[-1][1].reference
    series.append(("Haar", ranks, list(reference.profile)))
    doc = svg.line_plot(series, title="Mean sorted log-spectrum by rank",
                        xlabel="rank", ylabel="xi = -ln(lambda)")
    (OUT / "rank_profiles.svg").write_text(doc)

    deepest = reports[-1][1]
    doc = svg.histogram_plot(
        [("L=8", deepest.xi_histogram.bin_edges, deepest.xi_histogram.masses,
          "bar"),
         ("Haar", deepest.reference.histogram.bin_edges,
          deepest.reference.histogram.masses, "line")],
        title="Pooled xi distribution at depth 8 vs Haar",
        xlabel="xi")
    (OUT / "xi_histogram_depth8.svg").write_text(doc)


def bell_check() -> None:
    report = entanglement_spectrum(bell_circuit(), samples=1, seed=SEED)
    print("\nBell pair profile (exact [ln 2, ln 2] expected):")
    print(f"  profile = [{report.profile[0]:.6f}, {report.profile[1]:.6f}]"
          f"  ln 2 = {math.log(2):.6f}")


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    depth_sweep()
    bell_check()
    print(f"\nwrote plots to {OUT}")


if __name__ == "__main__":
    main()
