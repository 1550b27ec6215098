"""Explicit witness triples in the thin range.

Near the top of the exponent range the floor-power family is almost
all primes, and the search finds explicit triples whose linear form
sits within a hand-picked width of zero.  The formula-driven width is
astronomically larger than any attainable |form| at desk scale, so
its per-triple check is vacuous; the run states that rather than
pretending it constrains anything.
"""

from pathlib import Path

from pstriples.config import parse_config
from pstriples.pipeline import Instance
from pstriples.triplesum import find_triples, threshold_vacuous, triple_threshold

HERE = Path(__file__).resolve().parent


def main():
    cfg = parse_config(HERE / "thin_range.conf")
    params, coeffs = cfg.params, cfg.canonical
    print(f"config: q0 = {params.q0}, gamma = {params.gamma.value}, "
          f"X = {params.X:.1f}")
    print(f"search width (user): {params.epsilon_effective}")
    print(f"formula width:       {params.epsilon:.3e}  "
          f"(vacuous here: {threshold_vacuous(params, coeffs)})")
    print()

    pset = Instance(params).window_set
    print(f"window primes: {pset.count}")

    recs = find_triples(params, coeffs, pset, max_results=10)
    print(f"ten nearest of the matched triples:")
    for r in recs:
        print(f"  ({r.p1:5d}, {r.p2:5d}, {r.p3:5d})  "
              f"form {r.form_value:+.8f}  weight {r.weight:9.3f}")
    print()
    p_max = max(recs[0].p1, recs[0].p2, recs[0].p3)
    print(f"per-triple admissibility width at p = {p_max}: "
          f"{triple_threshold(params.gamma.value, p_max):.3e}")
    print("every record above was re-verified from scratch inside the search")


if __name__ == "__main__":
    main()
