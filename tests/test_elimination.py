"""The unit-cell elimination in front of the multimodular engine.

`polydet.det_sparse` sends a matrix above `_KRONECKER_BITS` to the engine
only after eliminating its unit cells (c t^a with c a unit the domain
inverts by one division: ±1 over ZZ, any nonzero constant over QQ and GF(p),
a rational times zeta^k over Q(zeta_m)) by Schur complements; the core left
takes the same route.  These tests hold it to the oracles of
`tests/det_oracle.py`, pin that the Kronecker route and the `_WORK_CAP`
refusal come before it, and that the benchmark's conjecture checks no
longer load numpy.
"""
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from twistalex import cyclo, polydet
from twistalex.cyclo import CYC, CyclotomicField
from twistalex.domains import GF, QQ, ZZ, PrimeField, TwistalexError
from twistalex.laurent import LaurentPoly
from twistalex.polydet import det_poly_matrix

from det_oracle import count_paths, det_cofactor, engine_det, sparse_rows

ELIM_DOMS = [ZZ, QQ, GF(7), CYC(5), CYC(12)]


def _unit(rng, dom):
    """A constant the elimination may pivot on."""
    if dom is ZZ:
        return rng.choice((1, -1))
    if dom is QQ:
        return dom.coerce(Fraction(rng.choice((1, -1, 2, -3)), rng.randint(1, 4)))
    if isinstance(dom, PrimeField):
        return rng.randrange(1, dom.p)
    r = dom.coerce(Fraction(rng.choice((1, -1, 2, -3)), rng.randint(1, 3)))
    return dom.mul(r, dom.zeta(rng.randrange(dom.m)))


def _coeff(rng, dom):
    if dom is ZZ:
        return rng.randint(-3, 3)
    if dom is QQ:
        return dom.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    if isinstance(dom, PrimeField):
        return rng.randrange(dom.p)
    return dom.coerce(tuple(Fraction(rng.randint(-2, 2)) for _ in range(dom.degree)))


def _sparse_matrix(rng, dom, n, spread):
    """A seeded n x n matrix, about half its cells zero and half of the rest
    one unit term c t^a, the others up to three terms, exponents in
    [-spread, spread]."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < 0.45:
                row.append(LaurentPoly.zero(dom))
            elif rng.random() < 0.5:
                row.append(LaurentPoly.from_terms(dom, {rng.randint(-spread, spread):
                                                        _unit(rng, dom)}))
            else:
                row.append(LaurentPoly.from_terms(dom, {rng.randint(-spread, spread):
                                                        _coeff(rng, dom) for _ in range(3)}))
        rows.append(row)
    return rows


def _above_the_bits(rows, dom) -> bool:
    c = polydet._cleared(sparse_rows(rows), dom)
    n = len(rows)
    x = n * (dom.degree - 1) + 1
    return c is not None and n * n * (c.height.bit_length() + 1) * x * c.npoints > \
        polydet._KRONECKER_BITS


@pytest.mark.parametrize("dom", ELIM_DOMS, ids=str)
def test_engine_route_matrices_with_unit_cells_match_the_oracles(dom, monkeypatch):
    # every matrix lies above _KRONECKER_BITS, so each is eliminated before
    # the engine; the engine on the whole matrix is the oracle, and cofactor
    # expansion too at side 4 (drawn over Q(zeta_m) only: over ZZ, QQ and
    # GF(p) a side 4 packs at this spread)
    kron, engine = count_paths(monkeypatch)
    rng = random.Random(3800 + dom.m + len(dom.name))
    spread = 20 if isinstance(dom, CyclotomicField) else 60
    sides, shrunk = [], 0
    for trial in range(24):
        n = 4 + trial % 4 if isinstance(dom, CyclotomicField) else 5 + trial % 3
        rows = _sparse_matrix(rng, dom, n, spread)
        if not _above_the_bits(rows, dom):
            continue
        del kron[:], engine[:]
        got = det_poly_matrix(rows, dom)
        assert got == engine_det(rows, dom), (dom, n)
        if n == 4:
            assert got == det_cofactor(rows, dom), dom
        sides.append(n)
        # the core, of a smaller side, goes on to either path
        shrunk += all(m < n for m in kron + engine)
    assert len(sides) >= 10 and shrunk >= 8, (sides, shrunk)


@pytest.mark.parametrize("dom", ELIM_DOMS, ids=str)
def test_elimination_on_every_side_against_cofactors(dom, monkeypatch):
    # with every matrix on the engine route, small sides test the sign, the
    # pivots' product and the fill-in against cofactor expansion
    monkeypatch.setattr(polydet, "_KRONECKER_BITS", 0)
    rng = random.Random(3900 + dom.m + len(dom.name))
    for n in range(2, 6):
        for _ in range(6):
            rows = _sparse_matrix(rng, dom, n, 3)
            assert det_poly_matrix(rows, dom) == det_cofactor(rows, dom), (dom, n)


@pytest.mark.parametrize("dom", ELIM_DOMS, ids=str)
def test_a_monomial_permutation_matrix_is_its_signed_pivots(dom, monkeypatch):
    # every cell is a unit: the core is empty and the determinant is
    # sgn(perm) times the product of the cells
    monkeypatch.setattr(polydet, "_KRONECKER_BITS", 0)
    kron, engine = count_paths(monkeypatch)
    rng = random.Random(4000 + dom.m)
    zero = LaurentPoly.zero(dom)
    for n in (2, 3, 5, 6):
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[LaurentPoly.from_terms(dom, {rng.randint(-5, 5): _unit(rng, dom)})
                     if j == perm[i] else zero for j in range(n)] for i in range(n)]
            assert det_poly_matrix(rows, dom) == det_cofactor(rows, dom), (dom, perm)
    assert (kron, engine) == ([], [])


def test_a_row_that_cancels_is_a_zero_determinant(monkeypatch):
    monkeypatch.setattr(polydet, "_KRONECKER_BITS", 0)
    kron, engine = count_paths(monkeypatch)
    f = LaurentPoly.from_terms(ZZ, {0: 1, 1: 1})
    t = LaurentPoly.t(ZZ)
    two = LaurentPoly.const(ZZ, 2)
    rows = [[t, f, two], [t * t, t * f, t * two], [f, two, f * f]]
    assert det_cofactor(rows, ZZ).is_zero()
    assert det_poly_matrix(rows, ZZ).is_zero()
    assert (kron, engine) == ([], [])  # the core's zero row is read off


@pytest.mark.parametrize("n", [8000, 16000])
def test_the_high_degree_two_by_two_is_eliminated_not_evaluated(n, monkeypatch):
    # [[1 + t^N, t^N], [t^N, 1 + t^N + t^2N]] lies above _KRONECKER_BITS
    # (3N + 1 points); its unit cell t^N leaves a 1 x 1 core, so the engine,
    # quadratic in its points, is never called
    def refuse(c, dom):
        raise AssertionError("the engine was called")

    monkeypatch.setattr(polydet, "_det_multimodular", refuse)
    one, tn = LaurentPoly.one(ZZ), LaurentPoly.t(ZZ, n)
    rows = [[one + tn, tn], [tn, one + tn + tn * tn]]
    assert _above_the_bits(rows, ZZ)
    want = LaurentPoly.from_terms(ZZ, {0: 1, n: 2, 2 * n: 1, 3 * n: 1})
    assert det_poly_matrix(rows, ZZ) == want


def test_the_work_cap_is_decided_on_the_input_before_any_elimination(monkeypatch):
    # side 50, the identity but for one cell 1 + t^1000: elimination would
    # leave a 1 x 1 core, but 50^3 * 1001 points is above _WORK_CAP, so the
    # input is refused with the same text and nothing is eliminated
    n = 50
    rows = [[LaurentPoly.from_terms(ZZ, {0: 1, 1000: 1} if i == j == 0 else {0: 1} if i == j
                                    else {}) for j in range(n)] for i in range(n)]
    unit, shift, core = polydet._eliminate(sparse_rows(rows), ZZ)
    assert len(core) == 1 and (unit, shift) == (1, 0)

    def refuse(rows, dom):
        raise AssertionError("eliminated before the cap")

    monkeypatch.setattr(polydet, "_eliminate", refuse)
    with pytest.raises(TwistalexError) as got:
        det_poly_matrix(rows, ZZ)
    assert str(got.value) == (
        "determinant work side^3 * points * phi = 50^3 * 1001 * 1 = 125125000 is above the "
        "cap _WORK_CAP = 100000000")


def test_the_kronecker_route_eliminates_nothing(monkeypatch):
    # a matrix that packs is packed whole, unit cells and all
    def refuse(rows, dom):
        raise AssertionError("eliminated on the Kronecker route")

    monkeypatch.setattr(polydet, "_eliminate", refuse)
    kron, engine = count_paths(monkeypatch)
    rng = random.Random(4100)
    for dom in ELIM_DOMS:
        rows = _sparse_matrix(rng, dom, 5, 2)
        assert not _above_the_bits(rows, dom)
        assert det_poly_matrix(rows, dom) == det_cofactor(rows, dom)
    assert engine == [] and set(kron) <= {5}


def test_pivots_invert_by_the_table_of_powers_never_the_norm(monkeypatch):
    # r zeta^k inverts by the field's table, every k < m and a rational r;
    # an element with no such form is no pivot
    def refuse(self, a):
        raise AssertionError("a pivot inverted by the norm")

    monkeypatch.setattr(cyclo.CyclotomicField, "_norm_inv", refuse)
    for m in (3, 5, 12, 20, 105):
        F = CYC(m)
        for k in range(m):
            for r in (Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 7)):
                a = F.mul(F.from_rational(r), F.zeta(k))
                inv = F.unit_inverse(a)
                assert F.mul(a, inv) == F.one() and inv == F.inv(a), (m, k, r)
        assert F.unit_inverse(F.add(F.zeta(1), F.coerce(2))) is None
        assert F.unit_inverse(F.zero()) is None
    assert [ZZ.unit_inverse(x) for x in (1, -1, 2, 0)] == [1, -1, None, None]
    assert (QQ.unit_inverse(Fraction(2, 3)), GF(7).unit_inverse(3), GF(7).unit_inverse(0)) == \
        (Fraction(3, 2), 5, None)


def test_the_sweeps_dihedral_checks_leave_numpy_unloaded():
    # every determinant of the corpus's B(1) and B(2) checks at p = 5 and 7
    # that lies above _KRONECKER_BITS (four: sides 14 and 15) leaves a core
    # that packs, so the process never imports numpy; nor do the sweep's
    # other checks
    code = """
import sys
from twistalex import polydet
from twistalex.conjectures import (check_conjecture_A, check_conjecture_Aprime,
                                   check_conjecture_B1, check_conjecture_B2)
from twistalex.knots import corpus, presentation
from twistalex.metabelian import find_dihedral_epis, find_zn_apn_epis
real, eliminated = polydet._eliminate, []
polydet._eliminate = lambda rows, dom: eliminated.append(len(rows)) or real(rows, dom)
checks = 0
for fx in corpus():
    pres = presentation(fx.name)
    for p in (5, 7):
        for d in find_dihedral_epis(pres, p):
            check_conjecture_B1(pres, d, knot=fx.name)
            check_conjecture_B2(pres, d, knot=fx.name)
            checks += 2
assert checks >= 10 and sorted(eliminated) == [14, 14, 15, 15], (checks, eliminated)
assert "numpy" not in sys.modules
# and the rest of the sweep: A on the Z/n x| A_{p,n} targets, A' at p = 3, 5, 7
for fx in corpus():
    pres = presentation(fx.name)
    for p0, n in ((3, 2), (2, 3), (5, 2)):
        for epi in find_zn_apn_epis(pres, n, p0):
            check_conjecture_A(pres, epi, n, p0, knot=fx.name)
    for p in (3, 5, 7):
        for d in find_dihedral_epis(pres, p):
            check_conjecture_Aprime(pres, 2, p, -1, d.colors, knot=fx.name)
assert len(eliminated) > 4, eliminated
assert "numpy" not in sys.modules
"""
    src = str(Path(polydet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
