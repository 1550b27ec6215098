"""Fast evaluation of exponential sums on dense uniform grids.

The spectral pieces of the triple-count decomposition integrate products of
exponential sums S(lambda t) = sum_j w_j e(f_j t) over t-ranges that need
~1e8 oscillation-resolving samples at desk scale.  `trig_sum_uniform`
evaluates

    out[m] = sum_j w_j e(f_j (t0 + m dt)),  m = 0..n-1

by one of two evaluators, chosen from the sizes alone:

* blocked (n < 4096 samples, or at most 512 frequencies): with
  m = m1 + L m2 and L a power of two near sqrt(n) the sum is one complex
  matrix product of an (n/L x n_freqs) and an (n_freqs x L) phase table.
  Exact to rounding; cost O(n * n_freqs), nearly all of it in BLAS.
* NUFFT (otherwise): sources are spread onto an oversampled fine grid
  with a Kaiser-Bessel window, one FFT evaluates the grid, and a
  closed-form deconvolution removes the window (Barnett, Magland and
  af Klinteberg, SISC 2019).  Cost O(M log M) per call.

On one 2^21-point chunk on a 2-vCPU Xeon the blocked path wins below
~800 frequencies with one BLAS thread and below ~1300 with two (202
frequencies: 0.05-0.1 s against 0.28-0.36 s), so 512 sits below the
crossover.

Accuracy, measured against an mpmath oracle exact for the double inputs,
as the largest gap relative to sum |w_j| (see tests/test_trigpoly.py):
it grows in proportion to max |f_j t|, at most 4e-17 max |f_j t| on
either path (3e-12 at 1e5, 1e-11 to 2e-11 at 5.6e5, 1e-10 at 5.6e6,
1e-9 to 2e-9 at 1e8).  Nearly all of it is the rounding of the products
f_j t0 and f_j dt to doubles, which both paths share; with exact phase
products the blocked path is within 5e-15.

Determinism: reruns are bitwise identical for fixed inputs, a fixed BLAS
library and a fixed BLAS thread count.  The blocked path's bits depend on
the BLAS build and thread count (they differ between
OPENBLAS_NUM_THREADS=1 and 2); the NUFFT path's do not.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft
from scipy.special import i0 as _bessel_i0

__all__ = ["trig_sum_uniform"]

_SPREAD_WIDTH = 13          # Kaiser-Bessel support in fine-grid cells (odd)
_OVERSAMPLING = 2.0
_BETA = np.pi * _SPREAD_WIDTH * (1.0 - 1.0 / (2.0 * _OVERSAMPLING))
_DIRECT_CUTOFF = 4096       # below this many samples the blocked path wins
_BLOCKED_MAX_FREQS = 512    # up to this many frequencies the blocked path wins


def _phase_powers(phase: np.ndarray, count: int) -> np.ndarray:
    """e(phase_j m) for m < count as a (count, len(phase)) array.

    With m = r + q s, q a power of two near sqrt(count), this is the
    product of two exp tables of about sqrt(count) rows each; {phase_j q}
    is exact, so no exp argument exceeds max(q, count/q) turns.
    """
    q = 1 << (count.bit_length() // 2)
    rows = -(-count // q)
    fine = np.exp((2j * np.pi) * np.outer(np.arange(q), phase))
    step = phase * q
    step -= np.floor(step)
    coarse = np.exp((2j * np.pi) * np.outer(np.arange(rows), step))
    table = coarse[:, None, :] * fine[None, :, :]
    return table.reshape(rows * q, phase.size)[:count]


def _blocked_sum(
    freqs: np.ndarray, weights: np.ndarray, t0: float, dt: float, n: int
) -> np.ndarray:
    """Exact-to-rounding evaluation as one complex matrix product.

    With m = m1 + L m2 and L a power of two near sqrt(n),
    e(f_j (t0 + m dt)) = e(f_j t0) e(phi_j m1) e(psi_j m2), where
    phi_j = {f_j dt} and psi_j = {phi_j L} (exact, L being a power of
    two), so out = B @ A.T with A[m1, j] = e(phi_j m1) and
    B[m2, j] = w_j e(f_j t0) e(psi_j m2).
    """
    n = int(n)
    size = 1 << (n.bit_length() // 2)
    phi = freqs * dt
    phi -= np.floor(phi)
    psi = phi * size
    psi -= np.floor(psi)
    theta = freqs * t0
    theta -= np.floor(theta)
    inner = _phase_powers(phi, size)
    outer = _phase_powers(psi, -(-n // size))
    outer *= weights * np.exp((2j * np.pi) * theta)
    return (outer @ inner.T).reshape(-1)[:n]


def _kb_window(s: np.ndarray) -> np.ndarray:
    """Kaiser-Bessel spreading window on |s| <= K/2, zero outside."""
    half = _SPREAD_WIDTH / 2.0
    u = 1.0 - (s / half) ** 2
    out = np.zeros_like(s, dtype=np.float64)
    inside = u > 0.0
    out[inside] = _bessel_i0(_BETA * np.sqrt(u[inside]))
    return out / _bessel_i0(_BETA)


def _kb_transform(nu: np.ndarray) -> np.ndarray:
    """Continuous Fourier transform of the spreading window at frequency nu
    (cycles per fine-grid cell).  Real and even; sinh branch inside the
    window's main lobe, sinc-like oscillatory branch beyond it.
    """
    half = _SPREAD_WIDTH / 2.0
    arg = _BETA**2 - (2.0 * np.pi * nu * half) ** 2
    out = np.empty_like(arg)
    pos = arg > 0.0
    rt = np.sqrt(arg[pos])
    out[pos] = np.sinh(rt) / rt
    neg = ~pos
    rtn = np.sqrt(-arg[neg])
    # sinh(ix)/(ix) = sin(x)/x; the x -> 0 limit of both branches is 1
    with np.errstate(invalid="ignore"):
        out[neg] = np.where(rtn > 0.0, np.sin(rtn) / np.where(rtn > 0, rtn, 1.0), 1.0)
    return out * (2.0 * half / _bessel_i0(_BETA))


_DECONV_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _deconvolution(n: int, m_fine: int) -> np.ndarray:
    """1 / window-transform for output modes m' = m - n//2, m = 0..n-1."""
    key = (n, m_fine)
    cached = _DECONV_CACHE.get(key)
    if cached is None:
        m_prime = np.arange(n, dtype=np.float64) - (n // 2)
        cached = 1.0 / _kb_transform(m_prime / m_fine)
        if len(_DECONV_CACHE) > 8:
            _DECONV_CACHE.clear()
        _DECONV_CACHE[key] = cached
    return cached


def trig_sum_uniform(
    freqs: np.ndarray,
    weights: np.ndarray,
    t0: float,
    dt: float,
    n: int,
) -> np.ndarray:
    """sum_j w_j e(f_j (t0 + m dt)) for m = 0..n-1.

    The blocked matrix-product evaluator when n < _DIRECT_CUTOFF or there
    are at most _BLOCKED_MAX_FREQS frequencies, the NUFFT otherwise (see
    the module docstring for the measured crossover and errors).  Callers
    keep |f_j t| below 2**52.  Bitwise identical on reruns with fixed
    inputs and a fixed BLAS library and thread count; the choice of
    evaluator, the fine-grid size and the FFT plan depend only on
    (n, len(freqs)).
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.complex128)
    if n < _DIRECT_CUTOFF or freqs.size <= _BLOCKED_MAX_FREQS:
        return _blocked_sum(freqs, weights, t0, dt, n)

    m0 = n // 2
    # fold the grid midpoint into the source weights so output modes are
    # centered: out[m] = sum_j wj e(f_j t_mid) e(phi_j (m - m0))
    t_mid = t0 + dt * m0
    theta = freqs * t_mid
    theta -= np.floor(theta)
    w_eff = weights * np.exp((2j * np.pi) * theta)

    phi = freqs * dt
    phi -= np.floor(phi)

    m_fine = _fft.next_fast_len(int(np.ceil(_OVERSAMPLING * n)), real=False)
    x = phi * m_fine                      # source positions on the fine grid
    centers = np.rint(x)
    offsets = np.arange(_SPREAD_WIDTH) - (_SPREAD_WIDTH // 2)
    # spread: fine[c + u] += w * win(c + u - x) for each tap u
    taps = centers[:, None] + offsets[None, :]
    vals = _kb_window(taps - x[:, None]) * w_eff[:, None]
    fine = np.zeros(m_fine, dtype=np.complex128)
    idx = np.mod(taps.astype(np.int64), m_fine)
    np.add.at(fine.real, idx, vals.real)
    np.add.at(fine.imag, idx, vals.imag)

    # unnormalized inverse DFT: F[m] = sum_g fine[g] e(+g m / M)
    spectrum = _fft.ifft(fine, norm="forward")
    m_prime = np.arange(n) - m0
    out = spectrum[np.mod(m_prime, m_fine)]
    out *= _deconvolution(n, m_fine)
    return out
