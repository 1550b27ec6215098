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
  af Klinteberg, SISC 2019).  Cost O(M log M) per call.  Only this path
  needs scipy (scipy.fft, scipy.special), imported on its first call.

Plans.  Everything the blocked path builds that does not depend on t0
(phi, the mirrored tables C and S, the exp tables of the phase powers
and the output rows) lives in a `BlockedPlan`; `plan_uniform` returns
one where the dispatch picks the blocked path and None where it picks
the NUFFT, which has no plan.  A call plan(t0) builds the lead phase and
the complex table, runs the products and adds and subtracts them into
the plan's output rows, and returns a view of those rows that is valid
until the plan's next call.  Its bits are those of trig_sum_uniform,
which is one plan built and called once.  Plans may share their table
and product buffer (same frequency count and n) when called one at a
time, as the band sweep's three sums are.  Per 2^21-point call at 202
frequencies on a 2-vCPU Xeon (OpenBLAS, medians of 24 calls): products
22 ms at two BLAS threads (36-39 ms at one), add and subtract 6.6 ms,
lead phase and tables 2.4 ms; building the plan costs 3-4.5 ms once, and
a fresh output of that size took 7.6-37 ms to fill against 4.0-4.8 ms
for the plan's reused one.

Crossover on one 2^21-point chunk at t0 = 40 on a 2-vCPU Xeon, medians
of 5 alternating calls (blocked / NUFFT, s).  One BLAS thread: 202
frequencies 0.05-0.06 / 0.25-0.27, 800 0.17 / 0.23, 1000 0.21 / 0.25,
1500 0.34-0.38 / 0.25-0.28.  Two BLAS threads: 400 0.06 / 0.24, 1000
0.15 / 0.25, 1500 0.22-0.24 / 0.25-0.26, 2000 0.35 / 0.27.  So the
blocked path wins below ~1100 frequencies with one thread and ~1600
with two, and 512 sits below both; no benchmark workload has a window
that wide, so the constant is not raised.

Accuracy, against an mpmath oracle exact for the double inputs, as the
largest gap relative to sum |w_j| (see tests/test_trigpoly.py).  Nearly
all of it is the rounding of the products f_j t0 and f_j dt to doubles,
which both paths share: each is off by at most u = 2^-53 relative, so
the phase of term j at t0 + m dt is off by at most u |f_j| (|t0| + m dt)
turns and the gap by 2 pi u max |f_j| (|t0| + m dt) (the blocked path;
the NUFFT forms its phases about the grid's midpoint).  Measured, the
gap reaches 0.63 of that on 9 frequencies at t up to 14, and about 4e-17
max |f_j t| on 202 to 1325, whose errors partly cancel (3e-12 at 1e5,
1e-11 to 2e-11 at 5.6e5, 1e-10 at 5.6e6, 1e-9 to 2e-9 at 1e8).  Below
it, at small |f_j t|, each path has a floor that does not fall with t
(`error_floor`): with exact phase products the blocked path is within
5.2e-15 (tests/test_trigpoly.py), the NUFFT within 1.6e-12 (dyadic
inputs, 513 to 4287 frequencies, 4096 to 2^21 points, f_max dt 0.4 to
0.8) and 1.7e-12 on the window of q0 120 near t = Delta, from its
Kaiser-Bessel window.

Determinism: reruns are bitwise identical for fixed inputs, a fixed BLAS
library and a fixed BLAS thread count.  Only the blocked path's grid sums
depend on the BLAS build and thread count (they differ between
OPENBLAS_NUM_THREADS=1 and 2); the NUFFT path's do not, and neither do
the band rule's endpoint series (expsums.ps_sum_series), which make no
BLAS call.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["BlockedPlan", "error_floor", "plan_uniform", "trig_sum_uniform"]

_SPREAD_WIDTH = 13          # Kaiser-Bessel support in fine-grid cells (odd)
_OVERSAMPLING = 2.0
_BETA = np.pi * _SPREAD_WIDTH * (1.0 - 1.0 / (2.0 * _OVERSAMPLING))
_DIRECT_CUTOFF = 4096       # below this many samples the blocked path wins
_BLOCKED_MAX_FREQS = 512    # up to this many frequencies the blocked path wins
_MIRROR_ROWS = 128          # mirrored row pairs per pair of real products
# each path's error at small |f_j t| relative to sum |w_j| (module docstring)
_BLOCKED_FLOOR = 5.2e-15
_NUFFT_FLOOR = 2e-12


def _phase_factors(phase: np.ndarray, count: int) -> "tuple[np.ndarray, np.ndarray]":
    """Exp tables coarse (len(phase) x rows) and fine (len(phase) x q)
    with e(phase_j m) = coarse[j, r] fine[j, s] for m = s + q r < rows q.

    q is a power of two near sqrt(count) and rows q >= count; {phase_j q}
    is exact, so no exp argument exceeds max(q, rows) turns.
    """
    q = 1 << (count.bit_length() // 2)
    rows = -(-count // q)
    fine = np.exp((2j * np.pi) * np.outer(phase, np.arange(q)))
    step = phase * q
    step -= np.floor(step)
    coarse = np.exp((2j * np.pi) * np.outer(step, np.arange(rows)))
    return coarse, fine


class BlockedPlan:
    """The blocked evaluator for fixed (freqs, weights, dt, n), built once
    and called with each grid start t0.

    With m = m1 + L m2 and L a power of two near sqrt(n),
    e(f_j (t0 + m dt)) = e(f_j t0) e(phi_j m1) e(psi_j m2), where
    phi_j = {f_j dt} and psi_j = {phi_j L} (exact, L being a power of
    two).  Rows m2 = r0 +- d are mirrored about the middle row r0, so
    e(psi_j m2) = e(psi_j r0) (C[d, j] +- i S[d, j]) with real tables C
    and S.  With AT[j, m1] = w_j e(f_j t0) e(psi_j r0) e(phi_j m1), row
    r0 +- d of the output is C[d] @ AT +- i S[d] @ AT, and each real
    table times the complex AT is one real product on AT's float view:
    half the flops of one complex product over all rows.

    Everything that does not depend on t0 is built here: phi, the
    mirrored tables C and S, the two exp tables whose outer product is
    e(phi_j m1), and the output rows.  A call builds the lead phase
    w_j e(f_j t0) e(psi_j r0) and AT, writes C @ AT into rows r0 + d,
    rebuilds the same table as iAT = i AT, and adds S @ iAT to and
    subtracts it from those rows, _MIRROR_ROWS row pairs at a time.  It
    returns a view of the output rows, valid until the next call.
    Plans built with share=other (same frequency count and n) use
    other's table and product buffer, so they are called one at a time.
    """

    def __init__(
        self, freqs: np.ndarray, weights: np.ndarray, dt: float, n: int,
        share: "BlockedPlan | None" = None,
    ) -> None:
        n = int(n)
        size = 1 << (n.bit_length() // 2)
        rows = -(-n // size)
        r0 = rows // 2
        self.freqs, self.dt, self.n = freqs, dt, n
        self._weights, self._r0 = weights, r0
        phi = freqs * dt
        phi -= np.floor(phi)
        psi = phi * size
        psi -= np.floor(psi)
        coarse, fine = _phase_factors(psi, r0 + 1)
        mirror = (coarse[:, :, None] * fine[:, None, :]).reshape(
            freqs.size, coarse.shape[1] * fine.shape[1])[:, : r0 + 1]  # e(psi_j d)
        self._mid = mirror[:, r0].copy()
        self._cos = np.ascontiguousarray(mirror.real.T)
        self._sin = np.ascontiguousarray(mirror.imag.T)
        del mirror
        # e(phi_j m1) for m1 < L, scaled by the lead phase per call
        self._coarse, self._fine = _phase_factors(phi, size)
        self._out = np.empty((2 * r0 + 1, size), dtype=np.complex128)
        if share is None:
            self._table = np.empty((freqs.size, size), dtype=np.complex128)
            self._odd_f = np.empty((min(_MIRROR_ROWS, r0 + 1), 2 * size))
        elif share._table.shape == (freqs.size, size) and share._r0 == r0:
            self._table, self._odd_f = share._table, share._odd_f
        else:
            raise ValueError("shared plans need the same frequency count and n")

    def _fill(self, scale: np.ndarray) -> np.ndarray:
        """The table scale_j e(phi_j m1), written in place; its float view."""
        coarse = self._coarse * scale[:, None]
        np.multiply(coarse[:, :, None], self._fine[:, None, :],
                    out=self._table.reshape(coarse.shape + self._fine.shape[1:]))
        return self._table.view(np.float64)

    def __call__(self, t0: float) -> np.ndarray:
        r0, out = self._r0, self._out
        theta = self.freqs * t0
        theta -= np.floor(theta)
        lead = self._weights * np.exp((2j * np.pi) * theta) * self._mid
        at_f = self._fill(lead)
        upper_f = out[r0:].view(np.float64)
        for d0 in range(0, r0 + 1, _MIRROR_ROWS):
            d1 = min(d0 + _MIRROR_ROWS, r0 + 1)
            np.matmul(self._cos[d0:d1], at_f, out=upper_f[d0:d1])
        iat_f = self._fill(1j * lead)
        for d0 in range(0, r0 + 1, _MIRROR_ROWS):
            d1 = min(d0 + _MIRROR_ROWS, r0 + 1)
            odd_f = np.matmul(self._sin[d0:d1], iat_f, out=self._odd_f[: d1 - d0])
            odd = odd_f.view(np.complex128)
            even = out[r0 + d0 : r0 + d1]
            lower = out[r0 - d0 :: -1][: d1 - d0]
            if d0 == 0:
                # row r0 is its own mirror and takes even - odd
                np.subtract(even[:1], odd[:1], out=even[:1])
                even, odd, lower = even[1:], odd[1:], lower[1:]
            np.subtract(even, odd, out=lower)
            np.add(even, odd, out=even)
        return out.reshape(-1)[: self.n]


def _takes_blocked(n: int, n_freqs: int) -> bool:
    """The dispatch rule: the blocked evaluator below _DIRECT_CUTOFF
    samples or up to _BLOCKED_MAX_FREQS frequencies, the NUFFT otherwise."""
    return n < _DIRECT_CUTOFF or n_freqs <= _BLOCKED_MAX_FREQS


def plan_uniform(
    freqs: np.ndarray, weights: np.ndarray, dt: float, n: int,
    share: "BlockedPlan | None" = None,
) -> "BlockedPlan | None":
    """A BlockedPlan for repeated trig_sum_uniform(freqs, weights, t0, dt, n)
    calls at several t0, bit for bit equal to them; None where
    trig_sum_uniform takes the NUFFT, which has no plan."""
    freqs = np.asarray(freqs, dtype=np.float64)
    if not _takes_blocked(n, freqs.size):
        return None
    return BlockedPlan(freqs, np.asarray(weights, dtype=np.complex128), dt, n, share)


def _kb_window(s: np.ndarray) -> np.ndarray:
    """Kaiser-Bessel spreading window on |s| <= K/2, zero outside."""
    from scipy.special import i0 as _bessel_i0

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
    from scipy.special import i0 as _bessel_i0

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


@functools.lru_cache(maxsize=8)
def _deconvolution(n: int, m_fine: int) -> np.ndarray:
    """1 / window-transform for output modes m' = m - n//2, m = 0..n-1;
    read-only, as one cached array serves every caller."""
    m_prime = np.arange(n, dtype=np.float64) - (n // 2)
    out = 1.0 / _kb_transform(m_prime / m_fine)
    out.flags.writeable = False
    return out


def error_floor(n_freqs: int) -> float:
    """A bound on trig_sum_uniform's error at small |f_j t|, relative to
    sum |w_j|: the blocked path's where every grid takes it (at most
    _BLOCKED_MAX_FREQS frequencies), else the NUFFT's (1.7e-12 measured,
    charged 2e-12), which also covers that window's short grids."""
    return _BLOCKED_FLOOR if n_freqs <= _BLOCKED_MAX_FREQS else _NUFFT_FLOOR


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
    if _takes_blocked(n, freqs.size):
        return BlockedPlan(freqs, weights, dt, n)(t0)
    return _nufft_sum(freqs, weights, t0, dt, n)


def _nufft_sum(
    freqs: np.ndarray, weights: np.ndarray, t0: float, dt: float, n: int
) -> np.ndarray:
    """trig_sum_uniform by spreading, one FFT and deconvolution."""
    import scipy.fft as _fft

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
