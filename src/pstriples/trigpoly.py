"""Fast evaluation of exponential sums on dense uniform grids.

The spectral pieces of the triple-count decomposition integrate products of
exponential sums S(lambda t) = sum_j w_j e(f_j t) over t-ranges that need
~1e8 oscillation-resolving samples at desk scale.  `trig_sum_uniform`
evaluates

    out[m] = sum_j w_j e(f_j (t0 + m dt)),  m = 0..n-1

by one of two evaluators, chosen from the sizes alone:

* blocked (n < 4096 samples, or at most 512 frequencies): with
  m = m1 + L m2 and L a power of two near sqrt(n), the rows m2 are
  mirrored about the middle row r0, e(psi (r0 +- d)) = e(psi r0) (C +- iS)
  with real (d x n_freqs) tables C and S, and the sum is two real matrix
  products on the float view of one complex (n_freqs x L) table, plus
  one add and one subtract into the output rows: half the flops of one
  complex product over all rows.  Exact to rounding; cost
  O(n * n_freqs), nearly all of it in BLAS.
* NUFFT (otherwise): sources are spread onto an oversampled fine grid
  with a Kaiser-Bessel window, one FFT evaluates the grid, and a
  closed-form deconvolution removes the window (Barnett, Magland and
  af Klinteberg, SISC 2019).  Cost O(M log M) per call.

Crossover on one 2^21-point chunk at t0 = 40 on a 2-vCPU Xeon, medians
of 5 alternating calls (blocked / NUFFT, s).  One BLAS thread: 202
frequencies 0.05-0.06 / 0.25-0.27, 800 0.17 / 0.23, 1000 0.21 / 0.25,
1500 0.34-0.38 / 0.25-0.28.  Two BLAS threads: 400 0.06 / 0.24, 1000
0.15 / 0.25, 1500 0.22-0.24 / 0.25-0.26, 2000 0.35 / 0.27.  So the
blocked path wins below ~1100 frequencies with one thread and ~1600
with two, and 512 sits below both; no benchmark workload has a window
that wide, so the constant is not raised.

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
_MIRROR_ROWS = 128          # mirrored row pairs per pair of real products


def _phase_powers(
    phase: np.ndarray, count: int, scale: "np.ndarray | None" = None
) -> np.ndarray:
    """scale_j e(phase_j m) for m < count as a (len(phase), count) array
    (scale 1 when None).

    With m = r + q s, q a power of two near sqrt(count), this is the
    product of two exp tables of about sqrt(count) columns each, the
    scale folded into the coarse one; {phase_j q} is exact, so no exp
    argument exceeds max(q, count/q) turns.
    """
    q = 1 << (count.bit_length() // 2)
    rows = -(-count // q)
    fine = np.exp((2j * np.pi) * np.outer(phase, np.arange(q)))
    step = phase * q
    step -= np.floor(step)
    coarse = np.exp((2j * np.pi) * np.outer(step, np.arange(rows)))
    if scale is not None:
        coarse *= scale[:, None]
    table = coarse[:, :, None] * fine[:, None, :]
    return table.reshape(phase.size, rows * q)[:, :count]


def _blocked_sum(
    freqs: np.ndarray, weights: np.ndarray, t0: float, dt: float, n: int
) -> np.ndarray:
    """Exact-to-rounding evaluation as two real matrix products.

    With m = m1 + L m2 and L a power of two near sqrt(n),
    e(f_j (t0 + m dt)) = e(f_j t0) e(phi_j m1) e(psi_j m2), where
    phi_j = {f_j dt} and psi_j = {phi_j L} (exact, L being a power of
    two).  Rows m2 = r0 +- d are mirrored about the middle row r0, so
    e(psi_j m2) = e(psi_j r0) (C[d, j] +- i S[d, j]) with real tables C
    and S.  With AT[j, m1] = w_j e(f_j t0) e(psi_j r0) e(phi_j m1), row
    r0 +- d of the output is C[d] @ AT +- i S[d] @ AT, and each real
    table times the complex AT is one real product on AT's float view:
    half the flops of one complex product over all rows.
    """
    n = int(n)
    size = 1 << (n.bit_length() // 2)
    rows = -(-n // size)
    r0 = rows // 2
    phi = freqs * dt
    phi -= np.floor(phi)
    psi = phi * size
    psi -= np.floor(psi)
    theta = freqs * t0
    theta -= np.floor(theta)
    mirror = _phase_powers(psi, r0 + 1)          # e(psi_j d), d <= r0
    lead = weights * np.exp((2j * np.pi) * theta) * mirror[:, r0]
    at_f = _phase_powers(phi, size, lead).view(np.float64)
    iat_f = _phase_powers(phi, size, 1j * lead).view(np.float64)
    cos_t = np.ascontiguousarray(mirror.real.T)
    sin_t = np.ascontiguousarray(mirror.imag.T)
    out = np.empty((2 * r0 + 1, size), dtype=np.complex128)
    even_f = np.empty((min(_MIRROR_ROWS, r0 + 1), 2 * size))
    odd_f = np.empty_like(even_f)
    for d0 in range(0, r0 + 1, _MIRROR_ROWS):
        d1 = min(d0 + _MIRROR_ROWS, r0 + 1)
        even = np.matmul(cos_t[d0:d1], at_f, out=even_f[: d1 - d0])
        odd = np.matmul(sin_t[d0:d1], iat_f, out=odd_f[: d1 - d0])
        even, odd = even.view(np.complex128), odd.view(np.complex128)
        np.add(even, odd, out=out[r0 + d0 : r0 + d1])
        np.subtract(even, odd, out=out[r0 - d0 :: -1][: d1 - d0])
    return out.reshape(-1)[:n]


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
