"""Determinants by cofactor expansion along the first row: the brute-force
oracle the determinant tests compare `twistalex.polydet` against; the
clearing of a matrix of LaurentPolys cell by cell, the reference polydet's
clearing of sparse rows is pinned to; the tests' one entry into polydet's
multimodular engine, and their spy on which path det_poly_matrix takes."""
from math import lcm

from twistalex import polydet
from twistalex.cyclo import CyclotomicField
from twistalex.domains import Domain, TwistalexError
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


def sparse_rows(rows) -> list:
    """A matrix of LaurentPolys as the lists of its rows' nonzero (exponent,
    column, value) entries, as det_poly_matrix hands it to det_sparse."""
    return [[(e, j, v) for j, f in enumerate(row) for e, v in f.terms()] for row in rows]


def cleared_reference(rows, dom: Domain):
    """polydet._Cleared of a square matrix of LaurentPolys, read cell by cell
    with every stored coefficient, zeros included, or None when a row or
    column is zero; a matrix above polydet._WORK_CAP is refused first."""
    n = len(rows)
    cyclo = isinstance(dom, CyclotomicField)
    phi = dom.degree if cyclo else 1
    spans = [[(f.low(), f.deg()) if not f.is_zero() else None for f in row] for row in rows]
    lows = [min((s[0] for s in row if s), default=None) for row in spans]
    if None in lows:
        return None
    col_lows = [min((row[j][0] - lo for row, lo in zip(spans, lows) if row[j]), default=None)
                for j in range(n)]
    if None in col_lows:
        return None
    tops = [[s[1] - lo - c if s else 0 for s, c in zip(row, col_lows)]
            for row, lo in zip(spans, lows)]
    row_tops = list(map(max, tops))
    npoints = min(sum(row_tops), sum(map(max, zip(*tops)))) + 1
    work = n**3 * npoints * phi
    if work > polydet._WORK_CAP:
        raise TwistalexError(f"determinant work side^3 * points * phi = {n}^3 * {npoints} * "
                             f"{phi} = {work} is above the cap _WORK_CAP = {polydet._WORK_CAP}")
    terms, scale, widest, height = [], 1, 0, 1
    for row, lo in zip(rows, lows):
        raw = [(j, e, v) for j, f in enumerate(row)
               for e, v in enumerate(f.coeffs(), f.low() - lo - col_lows[j])]
        if cyclo:
            l = lcm(*(den for _, _, (_, den) in raw))
            out = [(j, e, k, y * (l // den)) for j, e, (pairs, den) in raw for k, y in pairs]
        else:
            l = lcm(*(v.denominator for _, _, v in raw))
            out = [(j, e, 0, v.numerator * (l // v.denominator)) for j, e, v in raw if v]
        norm = sum(abs(t[3]) for t in out)
        terms.append(out)
        scale *= l
        widest = max(widest, norm)
        height *= norm
    return polydet._Cleared(sum(lows) + sum(col_lows), max(row_tops) + 1, npoints, scale,
                            widest, height, terms)


def assert_clears_as_reference(sparse, cells, dom: Domain) -> None:
    """polydet._cleared of the sparse rows against cleared_reference of the
    same matrix as LaurentPolys: every field equal, and each row's terms as
    one multiset."""
    got, want = polydet._cleared(sparse, dom), cleared_reference(cells, dom)
    if want is None:
        assert got is None
        return
    assert got[:-1] == want[:-1]
    assert [sorted(r) for r in got.terms] == [sorted(r) for r in want.terms]


def engine_det(rows, dom: Domain) -> LaurentPoly:
    """The multimodular engine's determinant of rows at any side, on the
    cleared form det_poly_matrix would hand it."""
    if not rows:
        return LaurentPoly.one(dom)
    c = polydet._cleared(sparse_rows(rows), dom)
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
