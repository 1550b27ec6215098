"""Primes and floor-power primes, produced two independent ways.

A floor-power prime (exponent gamma in (0,1)) is a prime of the form
p = floor(n^(1/gamma)).  Membership is decided either by the indicator
floor(-p^gamma) - floor(-(p+1)^gamma), which counts integers in
[p^gamma, (p+1)^gamma), or by direct enumeration over n; the two agree
exactly and the test suite holds them to that.

A power that lands within _BOUNDARY_GUARD of an integer is re-decided by
a 60-digit comparison of logarithms.  mpmath is imported only there, in
the guard branches, so a process whose powers all clear the band never
loads it.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .params import GammaExponent, ParameterError, RunParameters

__all__ = [
    "CacheFormatError",
    "PrimeTable",
    "PSPrimeSet",
    "sieve_primes",
    "ps_indicator",
    "ps_indicator_array",
    "ps_primes_in",
    "check_window_set",
    "ps_enumerate_oracle",
    "cache_store",
    "cache_load",
]

_SEGMENT = 1 << 20
_LIMIT_MAX = 1 << 40

# A double within this distance of an integer gets re-decided at high
# precision before flooring; see _floor_neg_power.
_BOUNDARY_GUARD = 1e-9


class CacheFormatError(RuntimeError):
    """Cache file failed a header or checksum check."""


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending."""

    limit: int
    primes: np.ndarray

    @property
    def count(self) -> int:
        return int(self.primes.size)

    def between(self, lo: float, hi: float) -> np.ndarray:
        """The table's primes in (lo, hi]; hi may not pass the limit."""
        if hi > self.limit:
            raise ValueError(f"hi={hi:.6g} exceeds table limit {self.limit}")
        i, j = np.searchsorted(self.primes, (lo, hi), side="right").tolist()
        return self.primes[i:j]


@dataclass(frozen=True)
class PSPrimeSet:
    """Floor-power primes in (lo, hi] with their summation weights, which
    the set derives from its primes and gamma: weights is p^(1-gamma) *
    log p, each prime's weight in the exponential sums S(alpha) and, one
    factor per prime, in a triple's weight."""

    gamma: GammaExponent
    lo: float
    hi: float
    primes: np.ndarray
    weight_w: np.ndarray = field(init=False)    # p^(1-gamma)
    weight_log: np.ndarray = field(init=False)  # log p
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        logs = np.log(self.primes.astype(np.float64))
        w = np.exp((1.0 - self.gamma.value) * logs)
        object.__setattr__(self, "weight_w", w)
        object.__setattr__(self, "weight_log", logs)
        object.__setattr__(self, "weights", w * logs)

    @property
    def count(self) -> int:
        return int(self.primes.size)


def _simple_sieve(n: int) -> np.ndarray:
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented sieve of Eratosthenes; exact and deterministic."""
    if not isinstance(limit, int) or isinstance(limit, bool):
        raise ValueError(f"limit must be an integer, got {limit!r}")
    if limit < 2 or limit > _LIMIT_MAX:
        raise ValueError(f"limit must lie in [2, 2^40], got {limit}")
    root = math.isqrt(limit)
    base = _simple_sieve(max(root, 2))
    if limit <= max(root, 2):
        return PrimeTable(limit, base[base <= limit])

    chunks = [base]
    start = int(max(root, 2)) + 1
    for lo in range(start, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT - 1, limit)
        mask = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            if p * p > hi:
                break
            first = max(p * p, ((lo + p - 1) // p) * p)
            mask[first - lo :: p] = False
        chunks.append(np.nonzero(mask)[0].astype(np.int64) + lo)
    return PrimeTable(limit, np.concatenate(chunks))


def _boundary_floor_neg(base: int, gamma: float, m: int) -> int:
    # Decide floor(-base**gamma) when base**gamma sits within the guard
    # band of integer m.  Compare gamma*log(base) with log(m) at high
    # precision; agreement below 1e-50 is treated as exact equality
    # (covers dyadic gamma like 0.5 hitting perfect powers).
    from mpmath import mp

    with mp.workdps(60):
        d = gamma * mp.log(base) - mp.log(m)
        if abs(d) <= mp.mpf("1e-50"):
            return -m
        if d > 0:
            return -(m + 1)
        return -m


def _floor_neg_power(base: int, gamma: float) -> int:
    """floor(-base**gamma), guarding floors near representable integers."""
    x = math.pow(base, gamma)
    m = round(x)
    if m >= 1 and abs(x - m) < _BOUNDARY_GUARD:
        return _boundary_floor_neg(base, gamma, m)
    return -math.ceil(x)


def ps_indicator(p: int, gamma: "GammaExponent | float") -> int:
    """Indicator floor(-p^gamma) - floor(-(p+1)^gamma), always 0 or 1.

    Equals 1 iff some integer n has floor(n^(1/gamma)) = p, i.e. iff an
    integer lies in [p^gamma, (p+1)^gamma).
    """
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    g = gamma.value if isinstance(gamma, GammaExponent) else float(gamma)
    return _floor_neg_power(p, g) - _floor_neg_power(p + 1, g)


def ps_indicator_array(ps: np.ndarray, gamma: "GammaExponent | float") -> np.ndarray:
    """Vectorized indicator over an integer array; boundary cases re-decided
    scalar-wise at high precision (they are vanishingly rare)."""
    g = gamma.value if isinstance(gamma, GammaExponent) else float(gamma)
    ps = np.asarray(ps, dtype=np.int64)
    lo = np.power(ps.astype(np.float64), g)
    hi = np.power((ps + 1).astype(np.float64), g)
    neg_floor_lo = -np.ceil(lo)
    neg_floor_hi = -np.ceil(hi)
    out = (neg_floor_lo - neg_floor_hi).astype(np.int64)

    for arr, vals, sign in ((neg_floor_lo, lo, 1), (neg_floor_hi, hi, -1)):
        near = np.abs(vals - np.rint(vals)) < _BOUNDARY_GUARD
        for i in np.nonzero(near)[0]:
            base = int(ps[i]) + (0 if sign == 1 else 1)
            exact = _floor_neg_power(base, g)
            out[i] += sign * (exact - int(arr[i]))
    return out


def ps_primes_in(
    lo: float, hi: float, gamma: "GammaExponent | float", table: PrimeTable
) -> PSPrimeSet:
    """Floor-power primes in (lo, hi] selected by the indicator."""
    g = gamma if isinstance(gamma, GammaExponent) else GammaExponent(float(gamma))
    cand = table.between(lo, hi)
    keep = cand[ps_indicator_array(cand, g.value) == 1]
    return PSPrimeSet(gamma=g, lo=float(lo), hi=float(hi), primes=keep)


def check_window_set(params: RunParameters, pset: PSPrimeSet) -> None:
    """Raise ParameterError unless pset is the instance's window set.

    The exponent must equal the instance's bit for bit, and both ends of
    (lo, hi] must lie within 1e-12 relative of (lambda0*X, X].  A set
    built from the instance's own doubles passes exactly; one built for
    another instance or exponent does not.
    """
    if pset.gamma.value != params.gamma.value:
        raise ParameterError(
            f"prime set gamma {pset.gamma.value!r} does not match "
            f"instance gamma {params.gamma.value!r}"
        )
    lo = params.lambda0 * params.X
    if not (math.isclose(pset.lo, lo, rel_tol=1e-12)
            and math.isclose(pset.hi, params.X, rel_tol=1e-12)):
        raise ParameterError(
            f"prime set window ({pset.lo}, {pset.hi}] does not match "
            f"instance window ({lo}, {params.X}]"
        )


def _floor_root_power(n: int, inv_gamma_of: float) -> int:
    """floor(n**(1/gamma)) with the same boundary guard, gamma passed raw."""
    g = inv_gamma_of
    x = math.exp(math.log(n) / g)
    m = round(x)
    if m >= 1 and abs(x - m) < _BOUNDARY_GUARD * max(1.0, abs(x)):
        from mpmath import mp

        with mp.workdps(60):
            d = mp.log(n) / g - mp.log(m)
            if abs(d) <= mp.mpf("1e-50"):
                return m
            if d > 0:
                return m
            return m - 1
    return math.floor(x)


def ps_enumerate_oracle(
    limit: int, gamma: "GammaExponent | float", table: "PrimeTable | None" = None
) -> PSPrimeSet:
    """Enumerate floor(n^(1/gamma)) directly; independent of the indicator.
    The package keeps it as the independent side of acceptance criterion
    1, which ps_primes_in must match."""
    if limit < 2:
        raise ValueError(f"limit must be at least 2, got {limit}")
    g = gamma if isinstance(gamma, GammaExponent) else GammaExponent(float(gamma))
    if table is None:
        table = sieve_primes(limit)
    n_top = math.ceil(math.pow(limit + 1, g.value)) + 2  # margin; excess filtered
    n = np.arange(1, n_top + 1, dtype=np.float64)
    x = np.exp(np.log(n) / g.value)
    vals = np.floor(x).astype(np.int64)

    near = np.abs(x - np.rint(x)) < _BOUNDARY_GUARD * np.maximum(1.0, x)
    for i in np.nonzero(near)[0]:
        vals[i] = _floor_root_power(int(n[i]), g.value)

    vals = np.unique(vals[(vals >= 2) & (vals <= limit)])
    idx = np.searchsorted(table.primes, vals)
    idx = np.minimum(idx, table.primes.size - 1)
    keep = vals[table.primes[idx] == vals]
    return PSPrimeSet(gamma=g, lo=0.0, hi=float(limit), primes=keep)


# the cache's magic; files of an older format fail on it and are rebuilt
_MAGIC = b"PSP2"


def _checksum(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=8).digest()


def cache_store(pset: PSPrimeSet, path: "str | os.PathLike") -> None:
    """Write the binary cache: magic, gamma bits, limit, count, p values,
    trailing 8-byte BLAKE2b digest of everything before it.  Full-range sets
    only: the format carries no lower bound."""
    if pset.lo != 0.0:
        raise CacheFormatError("cache format stores full-range (0, limit] sets only")
    if pset.hi != math.floor(pset.hi) or pset.hi < 2:
        raise CacheFormatError(f"cache requires an integer limit >= 2, got {pset.hi}")
    payload = _MAGIC
    payload += struct.pack("<d", pset.gamma.value)
    payload += struct.pack("<Q", int(pset.hi))
    payload += struct.pack("<Q", pset.primes.size)
    payload += pset.primes.astype("<u8").tobytes()
    payload += _checksum(payload)
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def cache_load(
    path: "str | os.PathLike", gamma: "GammaExponent | float | None" = None
) -> PSPrimeSet:
    """Read a cache file back; weights are recomputed, never stored.

    When gamma is given, the header value must match it bit for bit.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 + 8 + 8 + 8 + 8:
        raise CacheFormatError("file too short for a valid cache")
    if blob[:4] != _MAGIC:
        raise CacheFormatError(f"bad magic {blob[:4]!r}")
    if _checksum(blob[:-8]) != blob[-8:]:
        raise CacheFormatError("checksum mismatch (file truncated or corrupted)")
    g_val = struct.unpack("<d", blob[4:12])[0]
    limit = struct.unpack("<Q", blob[12:20])[0]
    count = struct.unpack("<Q", blob[20:28])[0]
    body = blob[28:-8]
    if len(body) != 8 * count:
        raise CacheFormatError(f"count field {count} disagrees with body size")
    if gamma is not None:
        want = gamma.value if isinstance(gamma, GammaExponent) else float(gamma)
        if struct.pack("<d", want) != blob[4:12]:
            raise CacheFormatError(
                f"gamma mismatch: file has {g_val!r}, requested {want!r}"
            )
    primes = np.frombuffer(body, dtype="<u8").astype(np.int64)
    g = GammaExponent(g_val)
    return PSPrimeSet(gamma=g, lo=0.0, hi=float(limit), primes=primes)
