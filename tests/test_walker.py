"""The substitution walker against the full Fox minor it replaces.

`_reference_wada_numerator` is Wada's numerator computed the plain way: the
determinant of the whole Fox matrix through rho tensor t^phi, one block row
per relator, with the deleted column's block removed.  The walker's reduced
matrix times its unit must be exactly that polynomial, so the numerator and
denominator of `TwistedPolynomial.value` are compared exactly, not only the
canonical text.  The inputs include the GF(p) reductions of dihedral reps,
as `check_conjecture_B2` walks them, where entries can cancel mod p.  Delta
from the reduced route is compared with the full Alexander minor's on the
braids of the reduced Burau oracle.

A mismatch here is a walker defect, not a reason to change the check.
"""
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from twistalex.cyclo import CYC
from twistalex.domains import QQ, ZZ
from twistalex.fox import (alexander_fox_matrix, reduced_fox_matrix, specialize_matrix,
                           substitution_order)
from twistalex.knots import KNOT_TABLE, corpus, presentation
from twistalex.laurent import LaurentPoly, RationalFunction
from twistalex.matrix import to_dense
from twistalex.metabelian import (alexander_polynomial, branched_cover_homology,
                                  characters_of_quotient, deleted_column, find_dihedral_epis,
                                  find_metacyclic_epis, find_zn_apn_epis,
                                  normalize_integer_poly)
from twistalex.polydet import det_poly_matrix
from twistalex.presentation import (BraidWord, braid_closure_presentation, parse_braid,
                                    parse_presentation)
from twistalex.reps import (rep_dihedral, rep_gamma_compose, rep_metabelian,
                            rep_metacyclic, rep_mod_p, rep_onedim, rep_trivial)
from twistalex.twisted import wada_invariant

from det_oracle import assert_clears_as_reference
from test_fox import PHI_PRESENTATIONS
from test_oracles import _cover_workload_braids, _seeded_braids

METACYCLIC = ((3, 7, 2), (4, 5, 2))   # (m, p, k)
GAMMA = ((3, 2), (2, 5))               # (n, p0)


def _reference_wada_numerator(pres, rep, column):
    """det of the Fox matrix through rho tensor t^phi without column's block."""
    n = rep.dim
    big = specialize_matrix(rep, pres)
    cols = [c for c in range(pres.generator_count * n)
            if not column * n <= c < (column + 1) * n]
    minor = [[row[c] for c in cols] for row in big]
    return det_poly_matrix(minor, rep.dom)


def _reference_value(pres, rep, column):
    dom, n = rep.dom, rep.dim
    field = dom if dom.is_field else QQ
    img = to_dense(dom, rep.image_of_gen(column, 1))
    block = [[LaurentPoly.from_terms(dom, {0: dom.one() if a == b else dom.zero(),
                                           pres.phi[column]: dom.neg(img[a][b])})
              for b in range(n)] for a in range(n)]
    num = _reference_wada_numerator(pres, rep, column)
    den = det_poly_matrix(block, dom)
    return RationalFunction(num.copy_to(field), den.copy_to(field))


def _assert_exact(pres, rep, column=None):
    tw = wada_invariant(pres, rep, column)
    ref = _reference_value(pres, rep, tw.column)
    assert tw.dom.name == ref.dom.name
    assert tw.value.num == ref.num and tw.value.den == ref.den, (rep.label, tw.column)
    return tw


def _assert_every_column(pres, rep):
    for j in range(pres.generator_count):
        if pres.phi[j]:  # every such column is admissible
            _assert_exact(pres, rep, j)


def _dense(dom, dim, rng):
    """A dense invertible matrix over ZZ: unitriangular with random entries."""
    up = [[0 if b < a else 1 if a == b else rng.choice((-2, -1, 1, 2)) for b in range(dim)]
          for a in range(dim)]
    low = [[1 if a == b else 0 if b > a else rng.choice((-1, 1)) for b in range(dim)]
           for a in range(dim)]
    m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*up)] for row in low]
    return tuple(tuple(dom.coerce(x) for x in row) for row in m)


def _metabelian(pres):
    q = branched_cover_homology(pres, 2)
    e = q.structure.exponent()
    if e <= 1:
        return None
    p = next(d for d in range(2, e + 1) if e % d == 0)
    chi = next(c for c in characters_of_quotient(q, p) if not c.is_trivial())
    return rep_metabelian(pres, 2, chi)


def _corpus_reps(pres, rng):
    """Dihedral p = 3, 5, 7 reps and their reductions mod p, metacyclic,
    gamma and metabelian n = 2 reps, as far as pres admits them, and dense
    conjugates of two of them."""
    out = [rep_dihedral(pres, d) for p in (3, 5, 7) for d in find_dihedral_epis(pres, p)[:1]]
    out += [rep_mod_p(rep, rep.dim) for rep in out]
    out += [rep_metacyclic(pres, m, p, k, c) for m, p, k in METACYCLIC
            for c in find_metacyclic_epis(pres, m, p, k)[:1]]
    out += [rep_gamma_compose(pres, n, p0, a) for n, p0 in GAMMA
            for a in find_zn_apn_epis(pres, n, p0)[:1]]
    meta = _metabelian(pres)
    if meta is not None:
        out += [meta, meta.conjugate(_dense(meta.dom, 2, rng))]
    if out[0].dim == 3:
        out.append(out[0].conjugate(_dense(out[0].dom, 3, rng)))
    return out


def test_walker_reduces_braid_closures_to_the_top_arcs():
    # seeds are the s top arcs and every crossing but s - 1 is a pivot
    for fx in KNOT_TABLE:
        braid = parse_braid(fx.braid)
        pres = braid_closure_presentation(braid)
        pivots, seeds, rows, _ = substitution_order(pres, 0)
        assert len(seeds) <= braid.strands and len(rows) == len(seeds) - 1, fx.name
        assert len(pivots) + len(seeds) == pres.generator_count


def test_numerator_exact_on_the_corpus_at_every_column():
    rng = random.Random(1994)
    labels = set()
    for fx in corpus():
        pres = presentation(fx.name)
        reps = _corpus_reps(pres, rng)
        # every admissible column for dihedral p = 3 and the dense conjugate
        # of the metabelian rep, the default column for the rest
        for rep in reps:
            labels.add(rep.label.split("(")[0])
            if rep.label in ("dihedral(p=3)", "conj(metabelian(n=2))"):
                _assert_every_column(pres, rep)
            else:
                _assert_exact(pres, rep)
    assert labels == {"dihedral", "modp", "metacyclic", "gamma", "metabelian", "conj"}, labels


def test_numerator_exact_on_phi_presentations():
    # no generator qualifies as a pivot: the walk degrades to the plain one
    for text in PHI_PRESENTATIONS:
        pres = parse_presentation(text)
        F = CYC(5)
        for rep in (rep_trivial(pres), rep_onedim(pres, -1), rep_onedim(pres, F.zeta(1), F)):
            _assert_every_column(pres, rep)


def test_unit_carries_sign_and_determinant():
    # an odd-dimensional rep with images of determinant -1 and pivots at
    # negative crossings: every factor of the unit is exercised
    pres = presentation("8_20")
    rep = rep_dihedral(pres, find_dihedral_epis(pres, 3)[0])
    assert all(rep.dom.eq(d, -1) for d in rep.det_image_generators())
    pivots, _, _, _ = substitution_order(pres, 0)
    assert {pres.relators[ri][1][1] for ri, _, _ in pivots} == {1, -1}
    _assert_every_column(pres, rep)
    rows, unit = reduced_fox_matrix(rep, pres, 0, rep.det_image_generators())
    assert len(rows) < 3 * (pres.generator_count - 1) and unit.low() == unit.deg()


def _cells(rows, dom):
    """The walker's sparse rows as a square matrix of LaurentPolys."""
    cells = [[{} for _ in rows] for _ in rows]
    for row, out in zip(rows, cells):
        for e, j, v in row:
            assert e not in out[j]  # at most one entry per (exponent, column)
            out[j][e] = v
    return [[LaurentPoly.from_terms(dom, cell) for cell in out] for out in cells]


def test_sparse_clearing_equals_the_cell_by_cell_one_on_the_corpus():
    # the walker's rows go to polydet._cleared as they are; on every corpus
    # knot at every admissible column its fields, and each row's terms as a
    # multiset, equal those of the old clearing of the same matrix as
    # LaurentPolys, so each matrix takes the same path with the same b, x
    # and primes
    rng = random.Random(36)
    labels = set()
    for fx in corpus():
        pres = presentation(fx.name)
        reps = [rep_dihedral(pres, d) for p in (3, 5, 7) for d in find_dihedral_epis(pres, p)][:1]
        reps += [rep_mod_p(rep, rep.dim) for rep in reps]
        meta = _metabelian(pres)
        if meta is not None:
            reps += [meta, meta.conjugate(_dense(meta.dom, 2, rng))]
        for rep in reps:
            labels.add(rep.label.split("(")[0])
            dom, dets = rep.dom, rep.det_image_generators()
            for j in range(pres.generator_count):
                if not pres.phi[j]:
                    continue
                rows, _ = reduced_fox_matrix(rep, pres, j, dets)
                assert_clears_as_reference(rows, _cells(rows, dom), dom)
    assert labels == {"dihedral", "modp", "metabelian", "conj"}, labels


def _dot_operands(monkeypatch, rep, pres):
    """(dot calls, zero operands) of one reduced_fox_matrix call, after a
    first call has filled the rep's image cache, so only the walk's own
    products reach the domain's dot."""
    dom, dets = rep.dom, rep.det_image_generators()
    reduced_fox_matrix(rep, pres, 0, dets)
    counts = [0, 0]
    dot = dom.dot

    def spy(xs, ys):
        xs, ys = list(xs), list(ys)
        counts[0] += 1
        counts[1] += sum(dom.is_zero(v) for v in xs + ys)
        return dot(xs, ys)

    monkeypatch.setattr(dom, "dot", spy)
    reduced_fox_matrix(rep, pres, 0, dets)
    return tuple(counts)


@pytest.mark.parametrize("case", ["dihedral over ZZ", "dense conjugate over Q(zeta_m)"])
def test_walker_multiplies_no_zero(monkeypatch, case):
    # the block columns D(g) hold their nonzero entries only, so every
    # operand the walk hands to dom.dot is nonzero; zero-filled dense blocks
    # would reach it through Domain.mat_mul.  Over ZZ some of 5_1's cells
    # cancel, so a cell whose dot is zero must be dropped too
    pres = presentation("5_1")
    if case == "dihedral over ZZ":
        rep = rep_dihedral(pres, find_dihedral_epis(pres, 5)[0])
        assert rep.dom is ZZ
    else:
        meta = _metabelian(pres)
        rep = meta.conjugate(_dense(meta.dom, 2, random.Random(33)))
        assert rep.dom.name == "Q(zeta_20)"
    calls, zeros = _dot_operands(monkeypatch, rep, pres)
    assert calls > 0 and zeros == 0, (calls, zeros)


_braids = st.integers(2, 5).flatmap(lambda s: st.tuples(
    st.just(s), st.lists(st.integers(1, s - 1).flatmap(lambda i: st.sampled_from((i, -i))),
                         min_size=1, max_size=12)))


@given(_braids, st.integers(0, 2**16))
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
def test_numerator_exact_on_random_braids(braid, salt):
    strands, letters = braid
    word = BraidWord(strands, tuple(letters))
    assume(word.closure_is_knot())
    pres = braid_closure_presentation(word)
    rng = random.Random(salt)
    F = CYC(5)
    reps = [rep_trivial(pres), rep_onedim(pres, F.zeta(1), F)]
    dihedral = [rep_dihedral(pres, d) for d in find_dihedral_epis(pres, 3)[:1]]
    reps += dihedral + [rep_mod_p(rep, 3) for rep in dihedral]
    meta = _metabelian(pres)
    if meta is not None:
        reps += [meta, meta.conjugate(_dense(meta.dom, 2, rng))]
    for rep in reps:
        _assert_exact(pres, rep)
        _assert_exact(pres, rep, rng.randrange(pres.generator_count))


def _full_minor_alexander(pres):
    col = deleted_column(pres)
    minor = [list(row[:col] + row[col + 1:]) for row in alexander_fox_matrix(pres)]
    d = det_poly_matrix(minor, ZZ)
    cofactor = LaurentPoly.from_terms(ZZ, {j: 1 for j in range(abs(pres.phi[col]))})
    return normalize_integer_poly(d.exact_div(cofactor))


def test_delta_from_the_reduced_route_on_the_burau_braids():
    braids = [parse_braid(fx.braid) for fx in KNOT_TABLE]
    braids += _seeded_braids() + _cover_workload_braids()
    assert len(braids) == 81
    for braid in braids:
        pres = braid_closure_presentation(braid)
        assert alexander_polynomial(pres) == _full_minor_alexander(pres), braid.letters
