"""Smoothing kernel: plateau, support, transform decay, inversion.

The search window |form| < eps is smoothed by a C^(k-1) bump theta that is
1 on |y| <= 3 eps/4 and 0 outside |y| < eps.  Its Fourier transform
decays like |x|^(-k-1), which is what makes the tail of the band
integral summable.  This script tables the bump, checks the decay
envelope, and reconstructs theta from the transform.
"""

import numpy as np

from pstriples.kernel import (
    invert_transform,
    make_kernel,
    theta,
    theta_transform,
    transform_bound,
    verify_bounds,
)


def main():
    eps, k = 0.5, 6
    kern = make_kernel(eps, k)
    print(f"kernel eps = {eps}, k = {k}")
    print(f"  plateau |y| <= {kern.plateau}, support |y| < {kern.support}")
    print(f"  theta = 1 on the plateau, C^{k - 1} rolloff between")
    print()

    print("bump profile -----------------------------------")
    for y in (0.0, 0.25, 0.375, 0.4, 0.45, 0.49, 0.5):
        val = float(theta(kern, np.array([y]))[0])
        print(f"  theta({y:5.3f}) = {val:.6f}")
    print()

    print("transform decay --------------------------------")
    xs = np.array([0.1, 1.0, 10.0, 100.0, 1000.0]) / eps
    vals = np.abs(theta_transform(kern, xs))
    caps = transform_bound(kern, xs)
    for x, v, c in zip(xs, vals, caps):
        print(f"  x = {x:8.1f}: |transform| = {v:.3e} <= bound {c:.3e}")
    rep = verify_bounds(kern, np.geomspace(1e-3 / eps, 1e3 / eps, 4000))
    print(f"  envelope check on 4000 log-spaced x: "
          f"{rep.violations} violations, min slack {rep.min_slack:.2e}")
    print()

    print("inversion --------------------------------------")
    ys = np.linspace(-1.1 * eps, 1.1 * eps, 101)
    err = float(np.max(np.abs(invert_transform(kern, ys) - theta(kern, ys))))
    print(f"  max |reconstructed - theta| on {ys.size} points: {err:.2e}")


if __name__ == "__main__":
    main()
