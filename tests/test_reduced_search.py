"""The epimorphism searches on the walker's reduced module against the full one.

`metabelian._kernel_epis` solves the Alexander matrix at t -> the target's
companion matrix on the (seeds - 1)-square reduced module and fills every
generator in by the trivial walk's columns D(g).  `_full_module_kernel_epis`
is the search it replaced, kept verbatim but for its name: a nullspace over
the full module, one row per relator.  Both must give the same colorings,
A_{p,n} epimorphisms and metacyclic epimorphisms, and the same refusals.
"""
import random

import pytest

from twistalex import fox, metabelian
from twistalex.domains import TwistalexError
from twistalex.knots import corpus, presentation
from twistalex.matrix import nullspace
from twistalex.metabelian import (Target, _ENUM_CAP, _UnitTable, _enumerate_span,
                                  alexander_module, alexander_polynomial,
                                  branched_cover_homology, find_dihedral_epis,
                                  find_metacyclic_epis, find_zn_apn_epis)
from twistalex.presentation import BraidWord, braid_closure_presentation, parse_braid


def _full_module_kernel_epis(pres, target):
    """The full-module search: meridian images (1, a_j) in the target."""
    d, p0 = target.d, target.p
    zero = [[0] * d] * d
    rows = []
    for r in alexander_module(pres).matrix:
        blocks = [zero if f.is_zero() else target.mul_matrix(f.terms()) for f in r]
        rows.extend([x for b in blocks for x in b[i]] for i in range(d))
    basis = nullspace(target.F, rows, d * (pres.generator_count - 1))
    if not basis:
        return []
    span, n_units = _enumerate_span(basis, p0), target.unit_count
    work = p0 ** len(basis) * n_units
    if work > _ENUM_CAP:
        raise TwistalexError(
            "unit normalization too large: p^dim * |units| = "
            f"{p0}^{len(basis)} * {n_units} = {work} exceeds the cap {_ENUM_CAP}")
    units = [_UnitTable(mu, p0) for mu in target.units()]
    least = {}  # first nonzero a_j -> the units taking it to its least multiple
    out = set()
    for v in span:
        if not any(v):
            continue
        ais = [(0,) * d, *zip(*[iter(v)] * d)]
        first = next(a for a in ais if any(a))
        if first not in least:
            low = min(u[first] for u in units)
            least[first] = [u for u in units if u[first] == low]
        out.add(min(tuple(map(u.__getitem__, ais)) for u in least[first]))
    return sorted(out)


# D_3, D_5, D_7 = G(2, p | p - 1), G(3, 7 | 2), and A_{3,2}, A_{2,3}, A_{5,2}
TARGETS = {"D_3": lambda: Target.metacyclic(2, 3, 2),
           "D_5": lambda: Target.metacyclic(2, 5, 4),
           "D_7": lambda: Target.metacyclic(2, 7, 6),
           "G(3,7|2)": lambda: Target.metacyclic(3, 7, 2),
           "A_{3,2}": lambda: Target.apn(2, 3), "A_{2,3}": lambda: Target.apn(3, 2),
           "A_{5,2}": lambda: Target.apn(2, 5)}


def _seeded_braids():
    """Twenty seeded knot-closing braids of 3-6 strands and 8-31 crossings."""
    rng = random.Random(3801)
    out = []
    while len(out) < 20:
        strands = 3 + len(out) % 4
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(rng.randint(8, 31)))
        braid = BraidWord(strands, letters)
        if braid.closure_is_knot():
            out.append(braid_closure_presentation(braid))
    return out


CASES = [(fx.name, presentation(fx.name)) for fx in corpus()] + \
    [(f"braid {i}", pres) for i, pres in enumerate(_seeded_braids())]


@pytest.mark.parametrize("target", TARGETS)
def test_reduced_searches_equal_the_full_module_ones(target):
    found = 0
    for name, pres in CASES:
        want = _full_module_kernel_epis(pres, TARGETS[target]())
        assert metabelian._kernel_epis(pres, TARGETS[target]()) == want, (name, target)
        found += bool(want)
    assert found >= 3, target


def test_the_public_searches_read_the_reduced_module():
    for name, pres in CASES:
        for p in (3, 5, 7):
            want = _full_module_kernel_epis(pres, Target.metacyclic(2, p, p - 1))
            assert [d.colors for d in find_dihedral_epis(pres, p)] == \
                [tuple(a for (a,) in sol) for sol in want], (name, p)
        want = _full_module_kernel_epis(pres, Target.metacyclic(3, 7, 2))
        assert find_metacyclic_epis(pres, 3, 7, 2) == [tuple(a for (a,) in sol) for sol in want]
        for p0, n in ((3, 2), (2, 3), (5, 2)):
            assert find_zn_apn_epis(pres, n, p0) == \
                _full_module_kernel_epis(pres, Target.apn(n, p0)), (name, p0, n)


def _connected_sum(braid: str, copies: int):
    """The closure of `copies` copies of a braid, each on its own strands
    but the one it shares with the next: their connected sum."""
    b = parse_braid(braid)
    step = b.strands - 1
    letters = tuple((abs(x) + step * c) * (1 if x > 0 else -1)
                    for c in range(copies) for x in b.letters)
    return braid_closure_presentation(BraidWord(step * copies + 1, letters))


@pytest.mark.parametrize("braid,copies,p,text", [
    # twelve trefoils: H_1 of the double cover is (Z/3)^12, a span of 3^12
    ("1 1 1", 12, 3, "coloring solution space too large to enumerate: p^dim = 3^12 = 531441 "
                     "exceeds the cap 500000"),
    # eight figure-eights: 5^8 passes the span's cap, 5^8 * 4 units does not
    ("1 -2 1 -2", 8, 5, "unit normalization too large: p^dim * |units| = 5^8 * 4 = 1562500 "
                        "exceeds the cap 500000"),
])
def test_enum_cap_refusals_are_unchanged(braid, copies, p, text):
    pres = _connected_sum(braid, copies)
    for search in (_full_module_kernel_epis, metabelian._kernel_epis):
        with pytest.raises(TwistalexError) as got:
            search(pres, Target.metacyclic(2, p, p - 1))
        assert str(got.value) == text


def test_the_searches_share_the_one_trivial_walk(monkeypatch):
    # Delta, the covers and every search read the one walk's module and
    # columns, kept in the presentation's memo
    walked = []
    walk = fox.reduced_fox_matrix

    def counted(rep, pres, column, dets):
        walked.append((id(pres), column))
        return walk(rep, pres, column, dets)

    monkeypatch.setattr(fox, "reduced_fox_matrix", counted)
    pres = presentation("8_21")
    for p in (3, 5, 7):
        find_dihedral_epis(pres, p)
    find_zn_apn_epis(pres, 2, 3)
    find_metacyclic_epis(pres, 3, 7, 2)
    alexander_polynomial(pres)
    branched_cover_homology(pres, 3)
    assert walked == [(id(pres), 0)]
