"""Determinants by cofactor expansion along the first row: the brute-force
oracle the determinant tests compare `twistalex.polydet` against; and the
tests' one entry into polydet's multimodular engine, and their spy on which
path det_poly_matrix takes."""
from twistalex import polydet
from twistalex.domains import Domain
from twistalex.laurent import LaurentPoly

# the engine itself, bound at import: a test's spy on the module attribute
# counts det_poly_matrix's calls only
_engine = polydet._det_multimodular


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


def engine_det(rows, dom: Domain) -> LaurentPoly:
    """The multimodular engine's determinant of rows at any side, on the
    cleared form det_poly_matrix would hand it."""
    if not rows:
        return LaurentPoly.one(dom)
    c = polydet._cleared(rows, dom)
    return LaurentPoly.zero(dom) if c is None else _engine(c, dom)


def count_paths(monkeypatch):
    """The sides det_poly_matrix hands to each path, as two lists."""
    kron, engine = [], []
    real_kron, real_engine = polydet._det_kronecker, polydet._det_multimodular
    monkeypatch.setattr(polydet, "_det_kronecker",
                        lambda c, dom, b, x: kron.append(len(c.terms)) or real_kron(c, dom, b, x))
    monkeypatch.setattr(polydet, "_det_multimodular",
                        lambda c, dom: engine.append(len(c.terms)) or real_engine(c, dom))
    return kron, engine
