#!/usr/bin/env python3
"""Run the tensor-product satellite experiment and print every exact witness.

Two companions with matching branched-cover data give satellites whose
twisted polynomials agree for each block representation separately but differ
for the tensor product; this script reproduces all products from scratch.
"""
import pipe_exit
from twistalex import knots
from twistalex.conjectures import wada_experiment
from twistalex.metabelian import branched_cover_homology

def main() -> int:
    tre = knots.presentation("3_1")
    dc = knots.alexander_fixture("9_30")
    dcp = knots.alexander_fixture("11a359")

    print("branched cover homology of the companions (cyclic module fixtures):")
    from twistalex.metabelian import ModulePresentation

    for name, delta in (("9_30", dc), ("11a359", dcp)):
        mp = ModulePresentation(((delta,),))
        for k in (2, 3, 6):
            q = branched_cover_homology(mp, k)
            print(f"  {name:8s} H_1(L_{k}) = {q.structure}")
    print()
    report = wada_experiment(tre, dc, dcp, names=("9_30", "11a359"))
    print(f"verdict: {report.verdict}")
    for key in sorted(report.witnesses):
        print(f"  {key} = {report.witnesses[key]}")
    return 0 if report.holds else 1


if __name__ == "__main__":
    pipe_exit.run(main)
