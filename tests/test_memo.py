"""The per-presentation memo: walk plans, Delta, the Alexander module, the
reduced module and the meridian copy are computed once per
`KnotPresentation` and die with it.

A memoized result must equal the one a fresh presentation computes, at every
column asked for in any order; a mismatch is a memo defect (a key that does
not name what the value depends on), not a reason to change the check.
"""
import weakref

import pytest

from twistalex import fox
from twistalex.fox import alexander_reduced_matrix, reduced_fox_matrix
from twistalex.knots import corpus, presentation
from twistalex.metabelian import (_with_meridian, alexander_module, alexander_polynomial,
                                  branched_cover_homology, characters_of_quotient,
                                  deleted_column, find_dihedral_epis)
from twistalex.presentation import parse_presentation
from twistalex.reps import parse_rep_spec, rep_dihedral, rep_onedim
from twistalex.twisted import wada_invariant

from test_fox import PHI_PRESENTATIONS, WIRTINGER_SPECS

# a presentation without a phi = ±1 generator: Delta and the module come from
# the meridian copy `_with_meridian` makes
NO_MERIDIAN = PHI_PRESENTATIONS[0]


def _columns(pres):
    cols = [j for j in range(pres.generator_count) if pres.phi[j]]
    return sorted({cols[0], cols[len(cols) // 2], cols[-1]})


def _reps(pres):
    if not pres.is_wirtinger_like():
        return [rep_onedim(pres, -1)]
    out = [rep_onedim(pres, -1)]
    colorings = find_dihedral_epis(pres, 3)
    if colorings:
        out.append(rep_dihedral(pres, colorings[0]))
    return out


def _work(pres):
    """Everything the memo serves, on one presentation."""
    out = [alexander_polynomial(pres).to_text(), alexander_module(pres)]
    out += [branched_cover_homology(pres, k).structure for k in (2, 3)]
    for rep in _reps(pres):
        out += [wada_invariant(pres, rep, column=j).to_text() for j in _columns(pres)]
    return out


def test_memo_dies_with_its_presentation():
    for make in (lambda: presentation("8_20"), lambda: parse_presentation(NO_MERIDIAN)):
        pres = make()
        _work(pres)
        q = branched_cover_homology(pres, 3)
        if not q.structure.free_rank:
            characters_of_quotient(q, 2)[0].value_basis(0)  # builds the SNF transform U
        assert {"alexander polynomial", "alexander module"} <= set(pres._memo)
        assert (_with_meridian(pres) is pres) == ("meridian" not in pres._memo)
        ref = weakref.ref(pres)
        del pres, q
        # no module-level cache and no reference cycle keeps it: it goes at
        # once, without a collection
        assert ref() is None
    assert not hasattr(fox.substitution_order, "cache_info")


def test_plan_is_built_once_per_presentation_and_column(monkeypatch):
    built = []
    build = fox._walk_plan

    def counted(pres, column):
        built.append((id(pres), column))
        return build(pres, column)

    monkeypatch.setattr(fox, "_walk_plan", counted)
    pres = presentation("8_20")
    for _ in range(2):
        for spec in WIRTINGER_SPECS:
            rep = parse_rep_spec(spec, pres)
            for j in range(pres.generator_count):
                wada_invariant(pres, rep, column=j)
        alexander_polynomial(pres)
        for k in (2, 3, 4):
            branched_cover_homology(pres, k)
    assert sorted(built) == [(id(pres), j) for j in range(pres.generator_count)]
    # the walk of a presentation without a meridian runs on its meridian copy
    del built[:]
    pres = parse_presentation(NO_MERIDIAN)
    for _ in range(2):
        alexander_polynomial(pres)
        branched_cover_homology(pres, 2)
    full = _with_meridian(pres)
    assert full is not pres and full is _with_meridian(pres)
    assert built == [(id(full), deleted_column(full))]


def test_one_plan_serves_every_rep():
    # the plan's words and exponents do not depend on the rep: the same plan
    # serves reps of different dimensions and domains at one column
    pres = presentation("6_1")
    plan = fox.walk_plan(pres, 1)
    for spec in WIRTINGER_SPECS:
        rep = parse_rep_spec(spec, pres)
        rows, unit, _ = reduced_fox_matrix(rep, pres, 1, rep.det_image_generators())
        assert len(rows) == (len(plan.seeds) - 1) * rep.dim
    assert fox.walk_plan(pres, 1) is plan
    assert alexander_reduced_matrix(pres, 1)[0] == alexander_reduced_matrix(pres, 1)[0]


@pytest.mark.parametrize("source", [fx.name for fx in corpus()] + ["phi"])
def test_memoized_results_equal_fresh_ones(source):
    def make():
        if source == "phi":
            return parse_presentation(NO_MERIDIAN)
        return presentation(source)

    warm = make()
    first = _work(warm)
    again = _work(warm)  # every value now comes through the memo
    assert again == first
    # a fresh presentation asked for one thing only, in another order
    assert alexander_module(make()) == first[1]
    assert alexander_polynomial(make()).to_text() == first[0]
    fresh = make()
    texts = []
    for rep in _reps(fresh)[::-1]:
        texts = [wada_invariant(fresh, rep, column=j).to_text()
                 for j in _columns(fresh)[::-1]][::-1] + texts
    assert texts == first[4:]


@pytest.mark.parametrize("source", [fx.name for fx in corpus()] + ["phi"])
def test_reduced_module_is_walked_once_per_presentation(source, monkeypatch):
    walked = []
    walk = fox.reduced_fox_matrix

    def counted(rep, pres, column, dets):
        walked.append((id(pres), column))
        return walk(rep, pres, column, dets)

    def make():
        return parse_presentation(NO_MERIDIAN) if source == "phi" else presentation(source)

    monkeypatch.setattr(fox, "reduced_fox_matrix", counted)
    pres = make()
    degrees = range(2, 7)
    first = [branched_cover_homology(pres, k) for k in degrees]
    delta = alexander_polynomial(pres)
    again = [branched_cover_homology(pres, k) for k in degrees]
    full = _with_meridian(pres)
    assert walked == [(id(full), deleted_column(full))]
    assert "reduced module" in pres._memo
    # each cover degree and Delta on a fresh presentation of their own
    for k, q, r in zip(degrees, first, again):
        fresh = branched_cover_homology(make(), k)
        assert (q.structure, q.diag) == (r.structure, r.diag) == (fresh.structure, fresh.diag)
    assert alexander_polynomial(make()) == delta
    assert len(walked) == 1 + len(degrees) + 1

