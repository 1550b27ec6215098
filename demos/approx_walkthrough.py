"""Rational approximation and the two-denominator dichotomy.

The band analysis hinges on rational approximation: every t gets
denominators q1, q2 for t*lambda1 and t*lambda2 via the capped
approximation, and when lambda1/lambda2 is a quadratic irrational the
two cannot both stay small, except in configurations the probe
classifies exactly.  This script walks the sqrt(2) convergent ladder,
shows some capped approximations, then classifies a sweep of t values
on the demo instance.
"""

import math
from collections import Counter

from pstriples.approx import continued_fraction, dichotomy_probe, dirichlet_approx
from pstriples.params import Coefficients, RunParameters

SQRT2 = math.sqrt(2.0)


def main():
    print("convergent ladder of sqrt(2) -------------------")
    seq = continued_fraction(SQRT2, 10)
    print(f"  partial quotients: {list(seq.partial_quotients)}")
    for r in seq.convergents[:7]:
        err = abs(SQRT2 - r.value)
        print(f"  {str(r):>8}   error {err:.3e}   1/q^2 = {1.0 / r.q**2:.3e}")
    print()

    print("capped approximation ---------------------------")
    for x, cap in ((SQRT2, 25), (math.pi, 113), (0.25, 10)):
        r = dirichlet_approx(x, cap)
        print(f"  x = {x:.6f}, q <= {cap:3d}: best {str(r):>8}, "
              f"|x - a/q| = {abs(x - r.value):.3e} < 1/(qQ) = {1.0 / (r.q * cap):.3e}")
    print()

    print("dichotomy sweep --------------------------------")
    # q0 = 29 is a convergent denominator of lambda1/lambda2 = sqrt(2)
    params = RunParameters(29, 0.9, 0.5, epsilon_user=1.0)
    coeffs = Coefficients(SQRT2, 1.0, -1.0, 0.0)
    conv = next(r for r in seq.convergents if r.q == 29)
    floor_q = params.X ** (1.0 / 13.0)
    print(f"  instance X = {params.X:.1f}, probing t in "
          f"[{params.Delta:.2e}, {params.H_effective:.1f}], "
          f"small means q < {floor_q:.2f}")
    cases = Counter()
    n = 400
    for i in range(n):
        t = params.Delta + (params.H_effective - params.Delta) * (i + 0.5) / n
        rep = dichotomy_probe(coeffs, conv, params, t)
        cases[rep.case] += 1
        assert rep.explained
    for case, count in sorted(cases.items()):
        print(f"  {case:>14}: {count:4d} of {n}")
    print("  every sample explained: True")


if __name__ == "__main__":
    main()
