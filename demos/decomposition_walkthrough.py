"""The full band decomposition on the demo instance, piece by piece.

The weighted count of prime triples with |form| < eps equals an
integral of three exponential sums against the kernel transform.  The
integral splits into a main band |t| < Delta, a middle band up to a
cut, and a tail covered by an analytic bound.  This script runs the
decomposition on the sqrt(2) demo config and prints the whole chain:
pieces, bound comparisons, and the closure against the direct count.
"""

from pathlib import Path

from pstriples.config import parse_config
from pstriples.pipeline import Instance
from pstriples.triplesum import (
    band_frequency,
    decompose,
    find_triples,
)

HERE = Path(__file__).resolve().parent


def main():
    cfg = parse_config(HERE / "sqrt2_demo.conf")
    params, coeffs = cfg.params, cfg.canonical
    print(f"config: q0 = {params.q0}, X = {params.X:.2f}, "
          f"search width {params.epsilon_effective}")

    inst = Instance(params)
    pset, kern = inst.window_set, inst.kernel
    print(f"window primes: {pset.count}, kernel k = {kern.k}")
    print()

    res = decompose(params, coeffs, pset, kernel=kern, with_direct=True)

    print("pieces -----------------------------------------")
    print(f"  main band    |t| < {params.Delta:.3e}: {res.gamma1.real:14.4f}")
    print(f"  middle band  up to {params.H_effective:9.3f}: {res.gamma2.real:14.4f}")
    print(f"  far band     up to {res.piece3_cut:9.3f}: {res.gamma3.real:14.4f}")
    print(f"    (under the far band's bound {res.tail:.1f}, the transform's "
          f"decay past H against S(0)^3)")
    f_max = band_frequency(params, coeffs, kern)
    print(f"  band grids at the integrand's top frequency f_max = {f_max:.1f}:")
    for p in (1, 2, 3):
        band = res.bands[p]
        print(f"    piece {p}: {band.n_points:9d} points, "
              f"f_max h = {f_max * band.spacing:.4f}, bar {band.error:.2e}")
    print("    (piece 3's bar covers the far band past the cut as well)")
    print(f"  total                       : {res.gamma_total.real:14.4f}")
    print(f"  direct count                : {res.direct_value:14.4f}")
    print(f"  closure |total - direct| / direct = {res.closure_error:.2e}")
    print()

    print("bound chain ------------------------------------")
    print(f"  main band target integral J = {res.j_integral:.4f} "
          f"(bar {res.bands['J'].error:.1e})")
    print(f"  box lower term            B = {res.box.value:.4f}")
    print(f"  |J - B| = {abs(res.j_integral - res.box.value):.4f} "
          f"<= envelope {res.phi.value:.4f}")
    print(f"  middle band majorant: {res.majorant.bound_squares:.4f} "
          f"(sweep gave {abs(res.gamma2):.4f})")
    print()

    print("nearest triples --------------------------------")
    recs = find_triples(params, coeffs, pset, max_results=5)
    for r in recs:
        print(f"  ({r.p1:5d}, {r.p2:5d}, {r.p3:5d})  "
              f"form {r.form_value:+.6f}  weight {r.weight:9.3f}")
    print(f"  triples inside the window: {res.triples_found}")


if __name__ == "__main__":
    main()
