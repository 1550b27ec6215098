"""Fast evaluation of exponential sums on dense uniform grids.

The spectral pieces of the triple-count decomposition integrate products of
exponential sums S(lambda t) = sum_j w_j e(f_j t) over t-ranges that need
~1e8 oscillation-resolving samples at desk scale.  `trig_sum_uniform`
evaluates

    out[m] = sum_j w_j e(f_j (t0 + m dt)),  m = 0..n-1

by one of two evaluators, chosen from the sizes alone (_takes_blocked):

* blocked (n < 4096 samples, or at most 512 frequencies): with m = m1 +
  L m2 and L the largest power of two <= sqrt(n), the rows m2 are
  mirrored about the middle row r0, e(psi (r0 +- d)) = e(psi r0) (C +- iS)
  with real (d x n_freqs) tables C and S, and the sum is two real matrix
  products on the float view of one complex (n_freqs x L) table, plus
  one add and one subtract into the output rows: half the flops of one
  complex product over all rows.  Exact to rounding; cost
  O(n * n_freqs), nearly all of it in BLAS.
* NUFFT (otherwise): sources are spread onto an oversampled fine grid
  with a Kaiser-Bessel window, one FFT evaluates the grid, and a
  closed-form deconvolution removes the window (Barnett, Magland and
  af Klinteberg, SISC 2019), spreading with one np.bincount over the
  flattened taps.  Cost O(M log M) per call.  Only this path needs scipy
  (scipy.fft, scipy.special), imported on its first call.

Plans.  Everything a path builds that does not depend on t0 lives in a
plan, a `BlockedPlan` (phi, the mirrored tables C and S, the exp tables
of the phase powers and the output rows) or a `NufftPlan` (the fine-grid
size, the tap indices and window values, the gather index, the
deconvolution and the output); `plan_uniform` returns the one the
dispatch picks.  A call plan(t0) does only the work that depends on t0,
in work arrays of its own (the blocked table and odd product, the NUFFT
fine grid), and returns a view of the plan's output that is valid until
that plan's next call.  Its bits are those of trig_sum_uniform, which is
one plan built and called once.  Plans are independent: no plan holds
another's buffers.  Per call on instance A's band chunk of 62,091
points (L 128, 487 output rows) on a 2-vCPU Xeon, medians of 24 calls in
each of two processes: blocked at 202 frequencies 0.6 ms at two OpenBLAS
threads (products 0.4-0.5 ms) and 0.8-0.9 ms at one (products 0.6 ms),
both table fills 0.1 ms, plan built once in 1.2-1.4 ms; NUFFT 1.9-2.1 ms
at 929 frequencies and 2.6-2.8 ms at 7,916 (the FFT of 124,416 points
1.4-1.6 ms, window and spreading 0.04 and 0.25 ms at 929, 0.4 and 0.7 ms
at 7,916, gather and deconvolution 0.2 ms), plan built once in 1.0-1.1
and 4.9-5.0 ms.

Crossover on that chunk at t0 = 40 on a 2-vCPU Xeon, medians of 9
alternating planned calls (blocked / NUFFT, ms).  One BLAS thread: 202
frequencies 0.9 / 2.6, 400 1.6 / 2.7, 512 2.0 / 2.4, 800 3.0 / 1.9,
1000 3.8 / 1.9, 1500 5.6 / 2.0.  Two BLAS threads: 400 1.3-2.5 / 2.7,
512 1.3-1.4 / 2.4, 800 2.0-2.1 / 2.0-2.5, 1000 2.5 / 2.0, 1500 3.8 /
2.1, 2000 5.0 / 2.1.  So the blocked path wins below ~600 frequencies
with one thread and ~800 with two, and 512 sits below both; no benchmark
workload has a window of 300 to 512 primes, so the constant is not
moved.

Accuracy, against an mpmath oracle exact for the double inputs, as the
largest gap relative to sum |w_j| (see tests/test_trigpoly.py).  Each
plan carries its two figures.  `rounding` is the phase rounding both
paths share, per unit max |f_j| (|t0| + m dt) (_ROUNDING).  Measured,
the gap reaches 0.32 of it on 9 frequencies at t up to 14, and about
4e-17 max |f_j t| on 202 to 1325, whose errors partly cancel (3e-12 at
1e5, 1e-11 to 2e-11 at 5.6e5, 1e-10 at 5.6e6, 1e-9 to 2e-9 at 1e8).
`floor` is the error at small |f_j t|, which does not fall with t: with
exact phase products the blocked path is within 5.2e-15 (at most 512
frequencies), the NUFFT within 1.6e-12 (dyadic inputs, 513 to 4287
frequencies, 4096 to 2^21 points, f_max dt 0.4 to 0.8) and 1.7e-12 on
the window of q0 120 near t = Delta, from its Kaiser-Bessel window.

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

__all__ = ["BlockedPlan", "NufftPlan", "plan_uniform", "trig_sum_uniform"]

_SPREAD_WIDTH = 13          # Kaiser-Bessel support in fine-grid cells (odd)
_OVERSAMPLING = 2.0
_BETA = np.pi * _SPREAD_WIDTH * (1.0 - 1.0 / (2.0 * _OVERSAMPLING))
_DIRECT_CUTOFF = 4096       # below this many samples the blocked path wins
_BLOCKED_MAX_FREQS = 512    # up to this many frequencies the blocked path wins
# each path's floor relative to sum |w_j| (module docstring)
_BLOCKED_FLOOR = 5.2e-15
_NUFFT_FLOOR = 2e-12
# a plan's rounding relative to sum |w_j| per unit max |f_j| (|t0| + m dt):
# f_j t0, f_j dt (taken m times) and f_j itself, a caller's product (as
# expsums' lam p), each off by u = 2^-53 relative, put the phase of term j
# off by 2 u |f_j| (|t0| + m dt) turns and the term by 2 pi times that
_ROUNDING = 4.0 * np.pi * 2.0**-53


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

    With m = m1 + L m2 and L the largest power of two <= sqrt(n) (so
    L to 4 L rows m2: the per-call table is the narrow side),
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
    e(phi_j m1), the output rows, and the error figures floor and
    rounding (module docstring).  A call builds the lead phase
    w_j e(f_j t0) e(psi_j r0) and AT in a table of its own, writes C @ AT
    into rows r0 + d in one product, rebuilds the same table as
    iAT = i AT, takes S @ iAT as an odd product of r0 + 1 rows (at most
    half the output) in one more, and adds it to and subtracts it from
    those rows.  It returns a view of the output rows, valid until the
    next call.
    """

    def __init__(self, freqs: np.ndarray, weights: np.ndarray, dt: float, n: int) -> None:
        n = int(n)
        size = 1 << max(0, (n.bit_length() - 1) // 2)     # L <= sqrt(n)
        rows = -(-n // size)
        r0 = rows // 2
        self.freqs, self.dt, self.n = freqs, dt, n
        self._weights, self._r0 = weights, r0
        # the blocked floor holds up to _BLOCKED_MAX_FREQS frequencies; a
        # wider window's short grids take this path but are charged the
        # NUFFT's floor, which its long grids take
        self.floor = _NUFFT_FLOOR if freqs.size > _BLOCKED_MAX_FREQS else _BLOCKED_FLOOR
        self.rounding = _ROUNDING
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

    def _fill(self, scale: np.ndarray, table: np.ndarray) -> np.ndarray:
        """The table scale_j e(phi_j m1), written into table; its float view."""
        coarse = self._coarse * scale[:, None]
        np.multiply(coarse[:, :, None], self._fine[:, None, :],
                    out=table.reshape(coarse.shape + self._fine.shape[1:]))
        return table.view(np.float64)

    def __call__(self, t0: float) -> np.ndarray:
        r0, out = self._r0, self._out
        theta = self.freqs * t0
        theta -= np.floor(theta)
        lead = self._weights * np.exp((2j * np.pi) * theta) * self._mid
        table = np.empty((self.freqs.size, out.shape[1]), dtype=np.complex128)
        at_f = self._fill(lead, table)
        np.matmul(self._cos, at_f, out=out[r0:].view(np.float64))
        iat_f = self._fill(1j * lead, table)
        odd = np.matmul(self._sin, iat_f).view(np.complex128)
        even, lower = out[r0:], out[r0::-1]
        # row r0 is its own mirror and takes even - odd
        np.subtract(even[:1], odd[:1], out=even[:1])
        np.subtract(even[1:], odd[1:], out=lower[1:])
        np.add(even[1:], odd[1:], out=even[1:])
        return out.reshape(-1)[: self.n]


def _takes_blocked(n: int, n_freqs: int) -> bool:
    """The dispatch rule: the blocked evaluator below _DIRECT_CUTOFF
    samples or up to _BLOCKED_MAX_FREQS frequencies, the NUFFT otherwise."""
    return n < _DIRECT_CUTOFF or n_freqs <= _BLOCKED_MAX_FREQS


def plan_uniform(
    freqs: np.ndarray, weights: np.ndarray, dt: float, n: int,
) -> "BlockedPlan | NufftPlan":
    """A plan for repeated trig_sum_uniform(freqs, weights, t0, dt, n)
    calls at several t0, bit for bit equal to them: a BlockedPlan where
    the dispatch picks the blocked path, a NufftPlan where it picks the
    NUFFT."""
    freqs = np.asarray(freqs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.complex128)
    if _takes_blocked(n, freqs.size):
        return BlockedPlan(freqs, weights, dt, n)
    return NufftPlan(freqs, weights, dt, n)


def _kb_window(s: np.ndarray) -> np.ndarray:
    """Kaiser-Bessel spreading window on |s| <= K/2, zero outside."""
    from scipy.special import i0 as _bessel_i0

    half = _SPREAD_WIDTH / 2.0
    u = 1.0 - (s / half) ** 2
    out = np.zeros_like(s, dtype=np.float64)
    inside = u > 0.0
    out[inside] = _bessel_i0(_BETA * np.sqrt(u[inside]))
    return out / _bessel_i0(_BETA)


def _kb_transform(nu: np.ndarray, width: int, beta: float) -> np.ndarray:
    """Continuous Fourier transform at frequency nu (cycles per fine-grid
    cell) of the Kaiser-Bessel window of that width and beta.  Real and
    even; sinh branch inside the window's main lobe, sinc-like
    oscillatory branch beyond it.
    """
    from scipy.special import i0 as _bessel_i0

    half = width / 2.0
    arg = beta**2 - (2.0 * np.pi * nu * half) ** 2
    out = np.empty_like(arg)
    pos = arg > 0.0
    rt = np.sqrt(arg[pos])
    out[pos] = np.sinh(rt) / rt
    neg = ~pos
    rtn = np.sqrt(-arg[neg])
    # sinh(ix)/(ix) = sin(x)/x; the x -> 0 limit of both branches is 1
    with np.errstate(invalid="ignore"):
        out[neg] = np.where(rtn > 0.0, np.sin(rtn) / np.where(rtn > 0, rtn, 1.0), 1.0)
    return out * (2.0 * half / _bessel_i0(beta))


@functools.lru_cache(maxsize=8)
def _deconvolution(n: int, m_fine: int, width: int, beta: float) -> np.ndarray:
    """1 / window-transform for output modes m' = m - n//2, m = 0..n-1,
    of the window of that width and beta; read-only, as one cached array
    serves every caller."""
    m_prime = np.arange(n, dtype=np.float64) - (n // 2)
    out = 1.0 / _kb_transform(m_prime / m_fine, width, beta)
    out.flags.writeable = False
    return out


def trig_sum_uniform(
    freqs: np.ndarray,
    weights: np.ndarray,
    t0: float,
    dt: float,
    n: int,
) -> np.ndarray:
    """sum_j w_j e(f_j (t0 + m dt)) for m = 0..n-1.

    One plan (plan_uniform) built and called once, on the evaluator the
    dispatch picks (module docstring).  Callers keep |f_j t| below
    2**52.  Bitwise identical on reruns with fixed inputs and a fixed BLAS
    library and thread count; the choice of evaluator, the fine-grid size
    and the FFT plan depend only on (n, len(freqs)).
    """
    return plan_uniform(freqs, weights, dt, n)(t0)


class NufftPlan:
    """The NUFFT evaluator for fixed (freqs, weights, dt, n), built once
    and called with each grid start t0.

    The output modes are centred on the grid's midpoint m0 = n // 2:
    out[m] = sum_j w_j e(f_j t_mid) e(phi_j (m - m0)), t_mid = t0 + dt
    m0 and phi_j = {f_j dt}.  Source j sits at x_j = phi_j M on a fine
    grid of M >= 2n cells and is spread onto the _SPREAD_WIDTH cells
    nearest it with a Kaiser-Bessel window; one unnormalized inverse FFT
    evaluates the grid, modes m - m0 are gathered from it and the
    window's transform is divided out.

    Everything that does not depend on t0 is built here: M, phi, the tap
    indices and window values, the gather index, the deconvolution and
    the error figures floor and rounding (module docstring).
    A call forms w_j e(f_j t_mid), spreads it with np.bincount into a
    fine grid of its own (_spread), transforms the grid (which the FFT may
    overwrite), gathers and deconvolves into the plan's output and
    returns it, valid until the next call.
    """

    def __init__(self, freqs: np.ndarray, weights: np.ndarray, dt: float, n: int) -> None:
        import scipy.fft as _fft

        n = int(n)
        self.freqs, self.dt, self.n = freqs, dt, n
        self._weights = weights
        self._m0 = n // 2
        self.floor, self.rounding = _NUFFT_FLOOR, _ROUNDING
        phi = freqs * dt
        phi -= np.floor(phi)
        m_fine = _fft.next_fast_len(int(np.ceil(_OVERSAMPLING * n)), real=False)
        x = phi * m_fine                      # source positions on the fine grid
        offsets = np.arange(_SPREAD_WIDTH) - (_SPREAD_WIDTH // 2)
        # spread: fine[c + u] += w * win(c + u - x) for each tap u
        taps = np.rint(x)[:, None] + offsets[None, :]
        self._window = _kb_window(taps - x[:, None])
        self._taps = np.mod(taps.astype(np.int64), m_fine).ravel()
        self._gather = np.mod(np.arange(n) - self._m0, m_fine)
        self._deconv = _deconvolution(n, m_fine, _SPREAD_WIDTH, _BETA)
        self._m_fine = m_fine
        self._out = np.empty(n, dtype=np.complex128)
        self._ifft = _fft.ifft

    def _spread(self, vals: np.ndarray) -> np.ndarray:
        """A fresh fine grid with vals[j, u] added at cell taps[j, u]: a
        bincount over the flattened taps, which adds each cell's values
        in source order from 0, as np.add.at does, bit for bit."""
        fine = np.empty(self._m_fine, dtype=np.complex128)
        fine.real = np.bincount(self._taps, vals.real.ravel(), self._m_fine)
        fine.imag = np.bincount(self._taps, vals.imag.ravel(), self._m_fine)
        return fine

    def __call__(self, t0: float) -> np.ndarray:
        # fold the grid midpoint into the source weights so output modes
        # are centred
        theta = self.freqs * (t0 + self.dt * self._m0)
        theta -= np.floor(theta)
        vals = self._window * (self._weights * np.exp((2j * np.pi) * theta))[:, None]
        fine = self._spread(vals)
        # unnormalized inverse DFT, in place: F[m] = sum_g fine[g] e(+g m / M)
        spectrum = self._ifft(fine, norm="forward", overwrite_x=True)
        out = np.take(spectrum, self._gather, out=self._out)
        out *= self._deconv
        return out
