"""The Fox walker against oracles that do not run it: the fundamental formula
sum_j (dr/dg_j)(g_j - 1) = r - 1, which rho kills, and derivatives computed
by hand, both sent through rho tensor t^phi with rho(w) folded from the
generator images."""
import random

from twistalex import words
from twistalex.fox import alexander_fox_matrix, specialize_element, specialize_matrix
from twistalex.knots import corpus, presentation
from twistalex.laurent import LaurentPoly
from twistalex.matrix import gen_inv, gen_mul, identity, to_dense
from twistalex.metabelian import find_dihedral_epis
from twistalex.presentation import BraidWord, braid_closure_presentation, parse_presentation
from twistalex.reps import RepresentationError, parse_rep_spec, rep_dihedral, rep_trivial

PHI_PRESENTATIONS = ("gens: a b; rels: a a B B B; phi: a=3 b=2",
                     "gens: a b; rels: a a B B B B B; phi: a=5 b=2",
                     "gens: a b; rels: a b a B A B; phi: a=-1 b=-1")
LABELS = ("trivial", "onedim", "dihedral", "metabelian", "conj", "gamma")
# onedim z = z5 sends a generator to an element of order > 2, so that the
# walk inside a syllable g^e, |e| > 1, is told apart from one by rho(g)^-1
WIRTINGER_SPECS = ("trivial", "onedim:z=-1", "onedim:z=z5^1", "metabelian:n=2:m=3:chi=1",
                   "gamma:p=3:n=2")


def W(*syls):
    return words.word(*syls)


def _image(rep, w):
    """rho(w) as a dense matrix, folded from the generator images (no word cache)."""
    dom = rep.dom
    acc = identity(dom, rep.dim)
    for g, e in w:
        base = rep.images[g] if e > 0 else gen_inv(dom, rep.images[g])
        for _ in range(abs(e)):
            acc = to_dense(dom, gen_mul(dom, acc, base))
    return acc


def _expected_block(rep, pres, terms):
    """sum c * rho(w) t^phi(w) over the group-ring terms {w: c}."""
    dom, n = rep.dom, rep.dim
    cells = [[LaurentPoly.zero(dom) for _ in range(n)] for _ in range(n)]
    for w, c in terms.items():
        img, e = _image(rep, w), words.exponent_sum(w, pres.phi)
        for a in range(n):
            for b in range(n):
                term = LaurentPoly.from_terms(dom, {e: dom.mul(dom.coerce(c), img[a][b])})
                cells[a][b] = cells[a][b] + term
    return cells


def _block(row, j, n):
    return [r[j * n:(j + 1) * n] for r in row]


def _reps(pres):
    """Trivial, onedim z = -1 and z5, dihedral p = 3, metabelian over
    Q(zeta_12), its dense conjugate and gamma p = 3, n = 2, as far as pres
    admits them."""
    if not pres.is_wirtinger_like():
        return [parse_rep_spec(s, pres) for s in WIRTINGER_SPECS[:3]]
    out = []
    for spec in WIRTINGER_SPECS:
        try:
            out.append(parse_rep_spec(spec, pres))
        except RepresentationError:
            pass
    out += [rep_dihedral(pres, d) for d in find_dihedral_epis(pres, 3)[:1]]
    # conjugated by I + J (J all ones): invertible, dense, fractional inverse
    return out + [r.conjugate(tuple(tuple(r.dom.coerce(1 + (a == b)) for b in range(r.dim))
                                    for a in range(r.dim)))
                  for r in out if r.dom.name == "Q(zeta_12)"]


def _assert_fundamental_formula(pres, rep):
    """sum_j F_ij (rho(g_j) t^phi_j - I) = 0 for every relator block row i."""
    dom, n = rep.dom, rep.dim
    fox = specialize_matrix(rep, pres)
    assert len(fox) == n * len(pres.relators)
    assert all(len(row) == n * pres.generator_count for row in fox)
    for i in range(0, len(fox), n):
        total = [[LaurentPoly.zero(dom) for _ in range(n)] for _ in range(n)]
        for j in range(pres.generator_count):
            img = _image(rep, W((j, 1)))
            step = [[LaurentPoly.from_terms(dom, {pres.phi[j]: img[c][b]}) - LaurentPoly(
                dom, [dom.one() if c == b else dom.zero()]) for b in range(n)]
                for c in range(n)]
            block = _block(fox[i:i + n], j, n)
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        total[a][b] = total[a][b] + block[a][c] * step[c][b]
        assert all(x.is_zero() for row in total for x in row), (pres, rep.label, i)


def _random_braid_presentation(rng, strands, crossings):
    while True:
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(crossings))
        braid = BraidWord(strands, letters)
        if braid.closure_is_knot():
            return braid_closure_presentation(braid)


def _check_all(cases):
    labels = set()
    for pres in cases:
        for rep in _reps(pres):
            labels.add(rep.label.split("(")[0])
            _assert_fundamental_formula(pres, rep)
    return labels


def test_fundamental_identity_on_corpus():
    labels = _check_all(presentation(fx.name) for fx in corpus())
    assert labels == set(LABELS), labels


def test_fundamental_identity_on_random_braids_and_phi():
    rng = random.Random(1953)
    cases = [_random_braid_presentation(rng, s, c) for s, c in ((3, 8), (4, 11), (4, 15),
                                                             (5, 14), (5, 18))]
    cases += [parse_presentation(text) for text in PHI_PRESENTATIONS]
    assert _check_all(cases) == set(LABELS)


# ------------------------------------------------------ hand-computed rows

def _trefoil_2gen():
    # the meridians' images have order 4, so rho(g)^-1 != rho(g)
    pres = parse_presentation("gens: a b; rels: a b a B A B")
    return pres, parse_rep_spec("metabelian:n=2:m=3:chi=1", pres)


def _assert_row(word, j, terms):
    pres, rep = _trefoil_2gen()
    row = specialize_element(word, rep, pres)
    assert _block(row, j, rep.dim) == _expected_block(rep, pres, terms)


def test_kronecker_rule():
    pres, rep = _trefoil_2gen()
    for i in range(2):
        row = specialize_element(W((i, 1)), rep, pres)
        for j in range(2):
            assert _block(row, j, rep.dim) == _expected_block(rep, pres, {(): 1} if i == j else {})


def test_inverse_rule():
    # d(g^-1)/dg = -g^-1
    _assert_row(W((0, -1)), 0, {W((0, -1)): -1})


def test_commutator_derivative():
    # d(aba^-1b^-1)/da = 1 - aba^-1 ; d(aba^-1b^-1)/db = a - aba^-1b^-1
    w = W((0, 1), (1, 1), (0, -1), (1, -1))
    _assert_row(w, 0, {(): 1, W((0, 1), (1, 1), (0, -1)): -1})
    _assert_row(w, 1, {W((0, 1)): 1, w: -1})


def test_power_rules():
    # d(g^3)/dg = 1 + g + g^2 ; d(g^-2)/dg = -g^-1 - g^-2
    _assert_row(W((0, 3)), 0, {(): 1, W((0, 1)): 1, W((0, 2)): 1})
    _assert_row(W((0, -2)), 0, {W((0, -1)): -1, W((0, -2)): -1})
    _assert_row(W((0, -2), (1, 3)), 1, {W((0, -2)): 1, W((0, -2), (1, 1)): 1,
                                       W((0, -2), (1, 2)): 1})


def test_trefoil_2gen_relator():
    # d(abab^-1a^-1b^-1)/da = 1 + ab - abab^-1a^-1, by hand
    w = W((0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1))
    _assert_row(w, 0, {(): 1, W((0, 1), (1, 1)): 1,
                       W((0, 1), (1, 1), (0, 1), (1, -1), (0, -1)): -1})


def test_product_rule():
    # d(uv)/dg = du/dg + u dv/dg on random word pairs
    pres, rep = _trefoil_2gen()
    dom, n = rep.dom, rep.dim
    rng = random.Random(31)
    for _ in range(60):
        u, v = (words.reduce_syllables([(rng.randint(0, 1), rng.choice([-2, -1, 1, 2]))
                                        for _ in range(rng.randint(0, 4))]) for _ in range(2))
        su, sv = specialize_element(u, rep, pres), specialize_element(v, rep, pres)
        suv = specialize_element(words.reduce_syllables(u + v), rep, pres)
        img, e = _image(rep, u), words.exponent_sum(u, pres.phi)
        for a in range(n):
            for col in range(2 * n):
                rhs = su[a][col]
                for c in range(n):
                    rhs = rhs + LaurentPoly.from_terms(dom, {e: img[a][c]}) * sv[c][col]
                assert suv[a][col] == rhs, (u, v)


def test_specialize_trivial_and_onedim():
    # rho_z tensor t^phi is the trivial rep tensor (z t)^phi
    pres = presentation("3_1")
    trivial = specialize_matrix(rep_trivial(pres), pres)
    onedim = specialize_matrix(parse_rep_spec("onedim:z=-1", pres), pres)
    assert onedim == [[f.subs_neg_t() for f in row] for row in trivial]


def test_specialize_zero():
    # the empty word's derivatives vanish
    pres, rep = _trefoil_2gen()
    assert all(f.is_zero() for row in specialize_element((), rep, pres) for f in row)


def test_fox_matrix_shapes():
    m = alexander_fox_matrix(presentation("3_1"))
    assert len(m) == 2 and len(m[0]) == 3
    m = alexander_fox_matrix(presentation("10_164"))
    assert len(m) == 10 and len(m[0]) == 11
    # a Wirtinger relator touches at most 3 distinct generators
    for row in m:
        assert len([e for e in row if not e.is_zero()]) <= 3
