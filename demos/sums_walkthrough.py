"""Exponential sums over the prime window and their exact identities.

The weighted sum S(alpha) = sum p^(1-g) log p * e(alpha p) over the
window's floor-power primes splits exactly into a smooth part (primes
weighted by the density g) plus a floor-error part; the script checks
that split at machine precision, then the mean-square identity
int_0^1 |S|^2 = sum of squared weights, and finally the closed form of
the companion interval integral against brute quadrature.
"""

import numpy as np

from pstriples.expsums import (
    decomposition_residual,
    interval_integral,
    ps_exp_sum,
    unit_mean_square,
)
from pstriples.params import RunParameters
from pstriples.pipeline import Instance
from pstriples.quadrature import adaptive_simpson


def main():
    # q0 = 70 puts the top of the window near 1e4
    params = RunParameters(70, 0.9, 0.5, epsilon_user=1.0)
    inst = Instance(params)
    table, pset = inst.table, inst.window_set
    print(f"instance: X = {params.X:.2f}, window ({pset.lo:.1f}, {pset.hi:.1f}], "
          f"{pset.count} primes")
    print()

    print("sum values -------------------------------------")
    for alpha in (0.0, 0.1, 0.37):
        s = ps_exp_sum(alpha, params, pset)
        print(f"  S({alpha:4.2f}) = {s.value.real:12.4f} "
              f"{s.value.imag:+12.4f}i   |S| = {abs(s.value):.4f}")
    print()

    print("floor split ------------------------------------")
    worst = 0.0
    alphas = (0.05, 0.31, 0.73, 0.99)
    for alpha, res in zip(alphas, decomposition_residual(alphas, params, table)):
        worst = max(worst, abs(res.identity_residual))
        print(f"  alpha = {alpha:4.2f}: smooth + floor-error rebuilds S "
              f"to {abs(res.identity_residual):.2e}")
    print(f"  worst residual {worst:.2e}")
    print()

    print("mean square ------------------------------------")
    res = unit_mean_square(params, pset)
    gap = abs(res.value - res.exact_reference) / res.exact_reference
    print(f"  mean of |S|^2 over {res.panels} points on [0, 1): {res.value:.6f}")
    print(f"  sum of squared weights:                  {res.exact_reference:.6f}")
    print(f"  relative gap {gap:.2e}, error bar {res.error / res.exact_reference:.2e}")
    print()

    print("interval integral ------------------------------")
    g = params.gamma.value
    lo, hi = params.lambda0 * params.X, params.X
    for alpha in (0.002, -0.013):
        closed = interval_integral(alpha, params)
        re = adaptive_simpson(
            lambda y: g * np.cos(2 * np.pi * alpha * y), lo, hi, rel_tol=1e-12
        ).value
        im = adaptive_simpson(
            lambda y: g * np.sin(2 * np.pi * alpha * y), lo, hi, rel_tol=1e-12
        ).value
        print(f"  alpha = {alpha:+.3f}: closed {closed:.6f}, "
              f"quadrature gap {abs(closed - complex(re, im)):.2e}")


if __name__ == "__main__":
    main()
