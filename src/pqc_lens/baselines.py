"""Histograms, divergences, and Haar-random reference ensembles.

Two reference objects matter downstream: the closed-form fidelity
distribution of Haar-random states, P(F) = (N-1)(1-F)^(N-2) with
CDF(F) = 1 - (1-F)^(N-1), and the entanglement-spectrum ensemble obtained
by actually sampling Haar states and taking the squared singular values of
their amplitude matrices, which are the eigenvalues of the reduced density
matrices (the Marchenko-Pastur style baseline used for spectral
divergences). All divergences use natural logarithms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import _check_count, _check_real
from .simulator import StateVector, _fits, _row_bytes, map_chunks, schmidt_spectrum

_EPS = 1e-12


@dataclass(frozen=True)
class Histogram:
    """Equal-width binned masses; bins are [lo, hi) with the last bin closed."""

    bin_edges: np.ndarray
    masses: np.ndarray
    total_samples: int

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "masses", masses)
        if edges.ndim != 1 or edges.shape[0] != masses.shape[0] + 1:
            raise ValueError("bin_edges must have one more entry than masses")
        if not np.all(masses >= 0.0):  # NaN fails too
            raise ValueError("histogram masses must be non-negative")
        if not abs(float(masses.sum()) - 1.0) <= 1e-9:  # an infinite sum fails too
            raise ValueError("histogram masses must sum to 1")


@dataclass(frozen=True)
class MPBaseline:
    """Haar-state entanglement spectrum reference for an (n_qubits, k) split.

    Finite-size stand-in for the Marchenko-Pastur law: built by sampling
    rather than from the asymptotic density, so it is exact at these dims.
    """

    n_qubits: int
    k: int
    profile: np.ndarray
    histogram: Histogram
    samples: int

    @property
    def d_a(self) -> int:
        return 2**self.k

    @property
    def d_b(self) -> int:
        return 2 ** (self.n_qubits - self.k)


def _check_bins(bins: int, what: str = "histogram") -> None:
    """ValueError unless bins is positive and a ``what`` of that many bins,
    three arrays of bins + 1 floats, takes at most half of physical memory."""
    _check_count(bins, "bins")
    _fits(24 * (bins + 1), f"a {what} of {bins} bins")


def histogram(samples, bins: int, value_range: tuple[float, float]) -> Histogram:
    """Bin samples into `bins` equal-width cells over value_range.

    Values outside the range are clamped onto the boundary bins, which keeps
    fidelity estimates at exactly 1.0 (or barely above, from rounding) in
    the last bin instead of being dropped.
    """
    if not (isinstance(value_range, (tuple, list, np.ndarray)) and len(value_range) == 2):
        raise ValueError(f"value_range must be a pair (lo, hi), got {value_range!r}")
    for i in (0, 1):
        _check_real(value_range[i], f"value_range[{i}]", None)
    lo, hi = float(value_range[0]), float(value_range[1])
    if not lo < hi:
        raise ValueError(f"empty value range ({lo}, {hi})")
    _check_bins(bins)
    data = np.asarray(samples, dtype=float).reshape(-1)
    if data.size == 0:
        raise ValueError("histogram needs at least one sample")
    clamped = np.clip(data, lo, hi)
    counts, edges = np.histogram(clamped, bins=bins, range=(lo, hi))
    return Histogram(edges, counts / data.size, int(data.size))


def haar_fidelity_cdf(fidelity, dim: int):
    """CDF(F) = 1 - (1-F)^(N-1) for Haar-random state pairs in dimension N;
    fidelity is a real number (``_check_real``) or an array of finite reals."""
    _check_count(dim, "dim", 2)
    if np.isscalar(fidelity):
        _check_real(fidelity, "fidelity", None)
    elif not (np.asarray(fidelity).dtype.kind in "iuf" and np.isfinite(fidelity).all()):
        raise ValueError("fidelity must be a real number or an array of finite reals")
    f = np.clip(np.asarray(fidelity, dtype=float), 0.0, 1.0)
    out = 1.0 - (1.0 - f) ** (dim - 1)
    return float(out) if np.isscalar(fidelity) else out


def haar_fidelity_baseline(bins: int, dim: int) -> Histogram:
    """Closed-form bin masses on [0, 1] of the Haar fidelity distribution for
    dimension N = dim; no sampling involved, so ``total_samples`` is 0."""
    _check_bins(bins, "baseline")
    edges = np.linspace(0.0, 1.0, bins + 1)
    cdf = haar_fidelity_cdf(edges, dim)
    return Histogram(edges, np.diff(cdf), 0)


def _haar_batch(n_qubits: int, rngs) -> np.ndarray:
    """Haar-random states, row i drawn from the generator rngs[i], in order:
    2**n normal real parts, then as many imaginary parts, written straight
    into the row, which is then normalised in place."""
    states = np.empty((len(rngs), 2**n_qubits), dtype=complex)
    for rng, row in zip(rngs, states):
        row.real = rng.standard_normal(row.size)
        row.imag = rng.standard_normal(row.size)
        row /= np.linalg.norm(row)
    return states


def sample_haar_state(n_qubits: int, rng=None) -> StateVector:
    """Haar-random pure state: normalized complex Gaussian amplitudes.

    rng is anything ``np.random.default_rng`` takes, a Generator included:
    successive calls with one Generator draw successive states.
    """
    return StateVector(n_qubits, _haar_batch(n_qubits, [np.random.default_rng(rng)])[0])


def _smoothed(masses: np.ndarray) -> np.ndarray:
    p = np.asarray(masses, dtype=float) + _EPS
    return p / p.sum()


def _check_same_grid(p, q) -> None:
    if p.bin_edges.shape != q.bin_edges.shape or not np.allclose(
        p.bin_edges, q.bin_edges, rtol=0.0, atol=1e-12
    ):
        raise ValueError("histograms are defined on different grids")


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    ps, qs = _smoothed(p), _smoothed(q)
    return float(np.sum(ps * np.log(ps / qs)))


def kl_divergence(p, q) -> float:
    """KL(P || Q) with additive 1e-12 smoothing, natural log. Asymmetric."""
    _check_same_grid(p, q)
    return _kl(p.masses, q.masses)


def js_distance(p, q) -> float:
    """Jensen-Shannon distance (square root of the natural-log divergence).

    Symmetric, bounded by sqrt(ln 2) ~ 0.8326, and a metric, which makes it
    a convenient alternative read-out wherever a KL value is reported.
    """
    _check_same_grid(p, q)
    m = 0.5 * (np.asarray(p.masses, float) + np.asarray(q.masses, float))
    js = 0.5 * _kl(p.masses, m) + 0.5 * _kl(q.masses, m)
    return math.sqrt(max(js, 0.0))


def spectral_xi(eigenvalues, cutoff: float = -30.0) -> np.ndarray:
    """Map reduced-density eigenvalues to xi = -ln(lambda), clamped at |cutoff|.

    Eigenvalues below e^cutoff (including the tiny negatives eigvalsh can
    produce) saturate at |cutoff|; values a hair above 1 from rounding are
    clipped to xi = 0.
    """
    _check_real(cutoff, "cutoff", "negative")
    lam = np.asarray(eigenvalues, dtype=float)
    floor = math.exp(cutoff)
    xi = np.where(lam < floor, abs(cutoff), -np.log(np.maximum(lam, floor)))
    return np.clip(xi, 0.0, abs(cutoff))


def xi_profiles(states: np.ndarray, k: int, cutoff: float = -30.0,
                rank: int | None = None) -> np.ndarray:
    """Per row of a (B, 2**n) batch, the xi of rho on the first k qubits, sorted
    descending; ``rank`` bounds the rows' Schmidt rank (``schmidt_spectrum``)."""
    return np.sort(spectral_xi(schmidt_spectrum(states, k, rank), cutoff), axis=1)[:, ::-1]


def mp_reference_spectrum(n_qubits: int, k: int, samples: int, rng=None,
                          cutoff: float = -30.0, bins: int = 75) -> MPBaseline:
    """Entanglement-spectrum ensemble of Haar states, split first-k vs rest.

    Returns the per-rank mean profile (xi sorted descending within each
    sample) and the pooled histogram on [0, |cutoff|], the two pieces the
    spectral-divergence analyzer compares against. rng is anything
    ``np.random.default_rng`` takes, a Generator included, which the draws
    then continue.
    """
    _check_real(cutoff, "cutoff", "negative")
    _check_count(n_qubits, "n_qubits", 2)
    _check_count(k, "k", 1, n_qubits - 1)
    _check_count(samples, "samples")
    _check_bins(bins)
    rng = np.random.default_rng(rng)

    def chunk(rows: range) -> np.ndarray:  # the chunks draw from rng in order
        return xi_profiles(_haar_batch(n_qubits, [rng] * len(rows)), k, cutoff)

    profiles = map_chunks(chunk, samples, _row_bytes(n_qubits))
    pooled = histogram(profiles.reshape(-1), bins, (0.0, abs(cutoff)))
    return MPBaseline(n_qubits, k, profiles.mean(axis=0), pooled, samples)


def haar_mean_marginal_purity(d_a: int, d_b: int) -> float:
    """E[Tr rho_A^2] over Haar states of a d_a x d_b split: (d_a+d_b)/(d_a*d_b+1)."""
    _check_count(d_a, "d_a")
    _check_count(d_b, "d_b")
    return (d_a + d_b) / (d_a * d_b + 1.0)
