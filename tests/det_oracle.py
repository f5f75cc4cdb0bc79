"""Determinants by cofactor expansion along the first row: the brute-force
oracle the determinant tests compare `twistalex.polydet` against."""
from twistalex.domains import Domain
from twistalex.laurent import LaurentPoly


def det_cofactor(rows, dom: Domain) -> LaurentPoly:
    n = len(rows)
    if n == 0:
        return LaurentPoly.one(dom)
    if n == 1:
        return rows[0][0]
    acc = LaurentPoly.zero(dom)
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor, dom)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc
