#!/usr/bin/env python3
"""Print H_1(L_k) for the corpus knots and the two companions, k = 2..6,
with the order formula |prod Delta(zeta_k^j)| as an independent cross-check."""
import pipe_exit
from twistalex import knots
from twistalex.metabelian import (ModulePresentation, alexander_polynomial,
                                  branched_cover_homology, order_from_alexander)


def main() -> int:
    rows = []
    for fx in knots.corpus():
        pres = knots.presentation(fx.name)
        delta = alexander_polynomial(pres)
        rows.append((fx.name, pres, delta))
    for name in ("9_30", "11a359"):
        delta = knots.alexander_fixture(name)
        rows.append((name, ModulePresentation(((delta,),)), delta))
    for name, src, delta in rows:
        line = [f"{name:8s}"]
        for k in range(2, 7):
            q = branched_cover_homology(src, k)
            order = q.structure.order()
            formula = order_from_alexander(delta, k)
            mark = "" if (order or 0) == formula else " [!]"
            line.append(f"L_{k}: {q.structure}{mark}")
        print("  ".join(line))
    return 0


if __name__ == "__main__":
    pipe_exit.run(main)
