#!/usr/bin/env python3
"""Sweep the knot corpus and check the four conjecture families.

For every corpus knot with the relevant epimorphisms this runs:
  * A   over (p, n) in {(3,2), (2,3), (5,2)}
  * A'  over D_p = G(2,p|-1) for p in {3,5,7}
  * B(1) and B(2) for every p-coloring, p in {3,5,7}

One line per (knot, target, epimorphism); B(2) failures are engine defects.
"""
import argparse
import time

import pipe_exit
from twistalex import knots
from twistalex.conjectures import (check_conjecture_A, check_conjecture_Aprime,
                                   check_conjecture_B1, check_conjecture_B2)
from twistalex.metabelian import find_dihedral_epis, find_zn_apn_epis


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-crossings", type=int, default=8)
    args = ap.parse_args()
    failures = 0
    t0 = time.time()
    for fx in knots.corpus(args.max_crossings):
        pres = knots.presentation(fx.name)
        for (p0, n) in ((3, 2), (2, 3), (5, 2)):
            for epi in find_zn_apn_epis(pres, n, p0):
                r = check_conjecture_A(pres, epi, n, p0, knot=fx.name)
                print(f"A     {fx.name:7s} p={p0} n={n}: {r.verdict}   F={r.witnesses.get('F')}")
                failures += 0 if r.holds else 1
        for p in (3, 5, 7):
            for d in find_dihedral_epis(pres, p):
                ra = check_conjecture_Aprime(pres, 2, p, -1, d.colors, knot=fx.name)
                r1 = check_conjecture_B1(pres, d, knot=fx.name)
                r2 = check_conjecture_B2(pres, d, knot=fx.name)
                obs = r1.witnesses.get("obstruction")
                print(f"A'    {fx.name:7s} p={p}: {ra.verdict}")
                print(f"B(1)  {fx.name:7s} p={p}: {r1.verdict}"
                      + (f"   obstruction={obs}" if obs else f"   f={r1.witnesses.get('f')}"))
                print(f"B(2)  {fx.name:7s} p={p}: {r2.verdict}")
                failures += (0 if ra.holds else 1) + (0 if r2.holds else 1)
    print(f"# done in {time.time() - t0:.1f}s; {failures} hard failures "
          "(B(1) counterexamples are expected and not counted)")
    return 1 if failures else 0


if __name__ == "__main__":
    pipe_exit.run(main)
