import ast
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import twistalex
from twistalex import cyclo
from twistalex.cyclo import (CYC, cyclotomic_polynomial, has_order,
                             is_cyclotomic_irreducible_mod_p)
from twistalex.domains import GF, QQ, ZZ, Domain, TwistalexError, convert
from twistalex.laurent import LaurentPoly, parse_poly, poly_divmod, poly_invmod, poly_trim
from twistalex.polydet import det_poly_matrix

from det_oracle import det_cofactor
from test_snf import resultant


def evaluate_at_root_of_unity(f, m, k=1):
    """f(zeta_m^k) in Q(zeta_m), through LaurentPoly.evaluate."""
    F = CYC(m)
    return f.copy_to(F).evaluate(F.zeta(k))


def test_cyclotomic_small():
    assert cyclotomic_polynomial(1).to_text() == "-1 + t"
    assert cyclotomic_polynomial(2).to_text() == "1 + t"
    assert cyclotomic_polynomial(3).to_text() == "1 + t + t^2"
    assert cyclotomic_polynomial(6).to_text() == "1 - t + t^2"
    assert cyclotomic_polynomial(12).to_text() == "1 - t^2 + t^4"


def test_cyclotomic_product_is_tn_minus_1():
    for n in (1, 2, 4, 6, 12, 15):
        acc = parse_poly("1")
        for d in range(1, n + 1):
            if n % d == 0:
                acc = acc * cyclotomic_polynomial(d)
        assert acc == parse_poly(f"-1 + t^{n}")


def test_irreducibility_mod_p():
    assert is_cyclotomic_irreducible_mod_p(3, 2)        # the A_4 case
    assert is_cyclotomic_irreducible_mod_p(1, 5)
    assert not is_cyclotomic_irreducible_mod_p(8, 7)    # ord_8(7) = 2 < 4
    assert is_cyclotomic_irreducible_mod_p(2, 3)
    with pytest.raises(TwistalexError, match="^n and p must be coprime$"):
        is_cyclotomic_irreducible_mod_p(6, 3)


def test_irreducibility_refuses_an_n_above_the_trial_cap():
    # n = 2^61 - 1 is prime: its trial division would take 1.5 * 10^9 steps
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        is_cyclotomic_irreducible_mod_p(2**61 - 1, 2)
    assert time.perf_counter() - start < 1
    assert str(err.value) == (f"n = {2**61 - 1} is above the cap _TRIAL_CAP = 10000000000 "
                              "for factoring n by trial division")
    # the cap itself is still tested: (Z/2^10)^* is not cyclic
    assert is_cyclotomic_irreducible_mod_p(cyclo._TRIAL_CAP, 3) is False


def test_has_order_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 40)
        a = rng.randint(1, n - 1)
        from math import gcd

        if gcd(a, n) != 1:
            continue
        k = next(j for j in range(1, n) if pow(a, j, n) == 1)  # the order, by walking
        assert [e for e in range(1, 2 * n) if has_order(a, e, n)] == [k]


def test_field_axioms_and_inverse():
    F = CYC(12)
    rng = random.Random(11)
    for _ in range(40):
        a = F.coerce(tuple(Fraction(rng.randint(-3, 3)) for _ in range(F.degree)))
        b = F.coerce(tuple(Fraction(rng.randint(-3, 3)) for _ in range(F.degree)))
        assert F.eq(F.mul(a, b), F.mul(b, a))
        if not F.is_zero(a):
            assert F.eq(F.mul(a, F.inv(a)), F.one())


def test_zeta_orders():
    for m in (1, 2, 3, 4, 6, 12):
        F = CYC(m)
        z = F.zeta(1)
        acc = F.one()
        for k in range(1, m + 1):
            acc = F.mul(acc, z)
            if k < m:
                assert not F.eq(acc, F.one()), (m, k)
        assert F.eq(acc, F.one())


def _remainder(nums, m):
    """nums mod Phi_m by the polynomial kernel over ZZ, as phi(m) integers."""
    _, r = poly_divmod(ZZ, nums, cyclotomic_polynomial(m).coeffs())
    return r + [0] * (CYC(m).degree - len(r))


def test_fold_is_the_remainder_mod_phi():
    # the field's one reduction against poly_divmod's, on integer lists of
    # every length class from 0 to 3m: below, at and just past phi, and m
    # and beyond, where the fold runs over many tops
    rng = random.Random(2024)
    for m in range(1, 211):
        F = CYC(m)
        d = F.degree
        lengths = {0, 1, d - 1, d, d + 1, m, 2 * m, 3 * m, rng.randint(0, 3 * m)}
        for n in sorted(lengths):
            nums = [rng.randint(-9, 9) for _ in range(n)]
            folded = list(nums)
            assert F._fold(folded) is None
            assert folded + [0] * (d - len(folded)) == _remainder(nums, m), (m, n)
            den = rng.randint(1, 6)
            want = F.coerce(tuple(Fraction(x, den) for x in _remainder(nums, m)))
            assert F.from_powers(list(nums), den) == want, (m, n)


def test_powers_are_x_to_the_k_mod_phi():
    for m in range(1, 211):
        F = CYC(m)
        assert len(F.powers) == m
        for k, w in enumerate(F.powers):
            assert list(F.coords(w)) == _remainder([0] * k + [1], m), (m, k)
        for k in range(-m, 3 * m + 1):
            assert F.zeta(k) is F.powers[k % m], (m, k)


@pytest.mark.parametrize("dom, m, degree, exponent", [
    (ZZ, 1, 1, 2), (QQ, 1, 1, 2), (GF(2), 1, 1, 1), (GF(7), 1, 1, 6),
    (CYC(1), 1, 1, 2), (CYC(2), 2, 1, 2), (CYC(12), 12, 4, 12), (CYC(105), 105, 48, 210)])
def test_every_domain_states_m_degree_and_torsion_exponent(dom, m, degree, exponent):
    assert (dom.m, dom.degree, dom.torsion_exponent) == (m, degree, exponent)
    # every root of unity u has u^N = 1 for the stated exponent N
    units = [dom.one(), dom.neg(dom.one())]
    if isinstance(dom, cyclo.CyclotomicField):
        units += dom.powers
    elif dom is not ZZ and dom is not QQ:
        units += range(1, dom.p)
    assert all(dom.pow(u, exponent) == dom.one() for u in units), dom


def test_embeddings():
    F12, F3, F4 = CYC(12), CYC(3), CYC(4)
    z3 = F12.embed(F3.zeta(1), F3)
    assert F12.eq(z3, F12.zeta(4))
    i = F12.embed(F4.zeta(1), F4)
    assert F12.eq(i, F12.zeta(3))


def test_evaluation_930_products():
    d930 = parse_poly("1 - 5*t + 12*t^2 - 17*t^3 + 12*t^4 - 5*t^5 + t^6")
    F3 = CYC(3)
    a = evaluate_at_root_of_unity(d930, 3, 1)
    b = evaluate_at_root_of_unity(d930, 3, 2)
    prod = F3.mul(a, b)
    assert F3.rational_value(prod) == 484
    # at zeta_1 = 1: coefficient sum
    F1 = CYC(1)
    v = evaluate_at_root_of_unity(d930, 1, 1)
    assert F1.rational_value(v) == -1
    # Delta(-1)^2 * Delta(1) = ±2809
    F2 = CYC(2)
    m1 = F2.rational_value(evaluate_at_root_of_unity(d930, 2, 1))
    p1 = F1.rational_value(evaluate_at_root_of_unity(d930, 1, 0))
    assert abs(m1 * m1 * p1) == 2809


def test_galois_product_equals_resultant():
    # prod over k coprime to m of f(zeta_m^k) = ± Res(f, Phi_m)
    d930 = parse_poly("1 - 5*t + 12*t^2 - 17*t^3 + 12*t^4 - 5*t^5 + t^6")
    for m in (3, 4, 6):
        F = CYC(m)
        acc = F.one()
        from math import gcd

        for k in range(1, m + 1):
            if gcd(k, m) == 1:
                acc = F.mul(acc, evaluate_at_root_of_unity(d930, m, k))
        val = F.rational_value(acc)
        res = resultant(d930.coeffs(), cyclotomic_polynomial(m).coeffs())
        assert abs(val) == abs(res)


def _schoolbook(F, a, b):
    """a * b by a Fraction convolution, reduced by long division by Phi_m."""
    phi = cyclotomic_polynomial(F.m).coeffs()
    d = F.degree
    prod = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(F.coords(a)):
        for j, y in enumerate(F.coords(b)):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        for i, p in enumerate(phi):
            prod[k - d + i] -= c * p
    return F.coerce(tuple(prod[:d]))


def _random_element(rng, F):
    kind = rng.random()
    if kind < 0.15:
        return F.zero()
    if kind < 0.4:
        return F.zeta(rng.randrange(F.m))
    return F.coerce(tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7, 12)))
                          if rng.random() < 0.7 else Fraction(0) for _ in range(F.degree)))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 12, 20, 28])
def test_mul_and_dot_match_schoolbook(m):
    F = CYC(m)
    rng = random.Random(m)
    for _ in range(60):
        a, b = _random_element(rng, F), _random_element(rng, F)
        assert F.mul(a, b) == _schoolbook(F, a, b)
    assert F.dot((), ()) == F.zero()
    for length in range(1, 6):
        xs = [_random_element(rng, F) for _ in range(length)]
        ys = [_random_element(rng, F) for _ in range(length)]
        expected = F.zero()
        for x, y in zip(xs, ys):
            expected = F.add(expected, _schoolbook(F, x, y))
        got = F.dot(xs, ys)
        assert got == expected
        assert all(isinstance(v, Fraction) for v in F.coords(got))
    # matrix products against the schoolbook sum: 2 x 2 by 2 x 2 and 1 x K by
    # K x w (the walker's block rows), with zero entries and denominators
    for rows, inner, cols in [(2, 2, 2)] * 8 + [(1, k, w) for k in (1, 3, 6) for w in (1, 4)]:
        a = tuple(tuple(_random_element(rng, F) for _ in range(inner)) for _ in range(rows))
        b = tuple(tuple(_random_element(rng, F) for _ in range(cols)) for _ in range(inner))
        got = F.mat_mul(a, b)
        assert len(got) == rows and all(len(row) == cols for row in got)
        for row, got_row in zip(a, got):
            for c, cell in enumerate(got_row):
                expected = F.zero()
                for x, r in zip(row, b):
                    expected = F.add(expected, _schoolbook(F, x, r[c]))
                assert cell == expected
                assert all(isinstance(v, Fraction) for v in F.coords(cell))


def count_fractions(monkeypatch):
    """The argument tuples of every Fraction built from now on, anywhere."""
    built, new = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return built


def test_products_of_integral_elements_build_no_fraction(monkeypatch):
    # mul, dot and mat_mul of denominator-1 elements run on integers end to
    # end: no Fraction is built, not even for the result.  Counts are
    # asserted, never times
    F = CYC(12)
    rng = random.Random(12)
    a, b = ([[F.coerce(tuple(rng.randint(-9, 9) for _ in range(F.degree))),
              F.zeta(rng.randrange(12))] for _ in range(2)] for _ in range(2))
    built = count_fractions(monkeypatch)
    got = F.mul(a[0][0], b[0][1]), F.dot(a[0], b[1]), F.mat_mul(a, b)
    assert built == []
    product = tuple(tuple(F.add(_schoolbook(F, row[0], b[0][c]), _schoolbook(F, row[1], b[1][c]))
                          for c in range(2)) for row in a)
    assert got == (_schoolbook(F, a[0][0], b[0][1]), Domain.dot(F, a[0], b[1]), product)


def test_roots_of_unity_invert_by_table(monkeypatch):
    # inv(±zeta^k) is zeta^-k from the table and a rational inverts by one
    # integer division, both equal to the polynomial kernel's inverse and
    # without the norm; any other element, such as 2 + zeta, goes by the norm
    calls = []
    norm_inv = cyclo.CyclotomicField._norm_inv

    def counted(self, a):
        calls.append(a)
        return norm_inv(self, a)

    monkeypatch.setattr(cyclo.CyclotomicField, "_norm_inv", counted)
    for m in range(1, 61):
        F = CYC(m)
        phi = [Fraction(c) for c in cyclotomic_polynomial(m).coeffs()]
        for k in range(m):
            for u in (F.zeta(k), F.neg(F.zeta(k))):
                got = F.inv(u)
                s = poly_invmod(QQ, poly_trim(QQ, list(F.coords(u))), phi)
                assert F.coords(got) == tuple(s + [Fraction(0)] * (F.degree - len(s)))
        assert calls == []
        two = F.coerce(2)
        s = poly_invmod(QQ, poly_trim(QQ, list(F.coords(two))), phi)
        assert F.coords(F.inv(two)) == tuple(s + [Fraction(0)] * (F.degree - len(s)))
        assert F.inv(two) == F.coerce(Fraction(1, 2))
        assert calls == []
        if F.degree > 1:  # 2 + zeta is neither rational nor ±zeta^k
            x = F.add(two, F.zeta(1))
            assert F.mul(x, F.inv(x)) == F.one()
            assert len(calls) == 1
            del calls[:]


def _general_elements(F, rng, count):
    """Seeded elements with every coordinate a nonzero rational of
    denominator at most 12: neither rational nor ±zeta^k."""
    return [F.coerce(tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12))
                           for _ in range(F.degree))) for _ in range(count)]


@pytest.mark.parametrize("m", [3, 5, 7, 8, 12, 15, 20, 21, 28])
def test_norm_inverse_equals_the_polynomial_kernel(m):
    # a general element inverts by its norm to the inverse mod Phi_m over QQ
    F, rng = CYC(m), random.Random(m)
    phi = [Fraction(c) for c in cyclotomic_polynomial(m).coeffs()]
    for a in _general_elements(F, rng, 4) + [F.add(F.coerce(2), F.zeta(1))]:
        s = poly_invmod(QQ, poly_trim(QQ, list(F.coords(a))), phi)
        assert F.coords(F.inv(a)) == tuple(s + [Fraction(0)] * (F.degree - len(s)))


@pytest.mark.parametrize("m", [105, 131])
def test_norm_inverse_at_large_phi(m):
    # phi = 48 and 130, where the kernel over QQ takes seconds per element
    F, rng = CYC(m), random.Random(m)
    for a in _general_elements(F, rng, 2 if m == 105 else 1):
        assert F.mul(a, F.inv(a)) == F.one()


def test_a_norm_that_is_not_rational_is_a_fault(monkeypatch):
    # the norm of a nonzero element is rational; if a defect ever breaks
    # that, inv raises instead of returning a wrong inverse
    F = CYC(7)
    a = F.add(F.coerce(2), F.zeta(1))
    F.inv(F.zeta(1))  # builds the unit table from the powers of zeta
    monkeypatch.setattr(F, "powers", [F.zeta(1)] * F.m)
    with pytest.raises(ArithmeticError, match="is not rational"):
        F.inv(a)


def test_rationals_invert_and_embed_without_fraction(monkeypatch):
    # a rational x/d inverts to ±d/|x| on integers, and an int or a Fraction
    # of ZZ or QQ enters Q(zeta_m) through its integer ratio: no Fraction is
    # built for either.  Counts are asserted, never times
    F = CYC(12)
    values = [Fraction(x, d) for x in (-6, -3, -1, 1, 2, 5) for d in (1, 2, 7)]
    rationals = [F.coerce(v) for v in values]
    want_inv = [F.coerce(1 / v) for v in values]
    want_in = [F.coerce(v) for v in values]
    ints = [v.numerator for v in values if v.denominator == 1]
    built = count_fractions(monkeypatch)
    got_inv = [F.inv(a) for a in rationals]
    got_in = [convert(v, QQ, F) for v in values] + [convert(v, ZZ, F) for v in ints]
    assert built == []
    assert got_inv == want_inv
    assert got_in == want_in + [F.coerce(v) for v in ints]


def test_degree_cap_is_checked_before_phi_m(monkeypatch):
    def refused(n):
        raise AssertionError(f"Phi_{n} computed for a field above the cap")

    monkeypatch.setattr(cyclo, "cyclotomic_polynomial", refused)
    for m in (1031, 100003, 2 * cyclo.PHI_CAP**2 + 1, 10**40):  # phi(1031) = 1030
        with pytest.raises(ValueError, match=f"phi\\({m}\\) above the cap PHI_CAP = 1024"):
            cyclo.CyclotomicField(m)


# ------------------------------------------------------------ element format

def _assert_canonical(F, a):
    """a is (pairs, den): nonzero int numerators at strictly increasing
    indices in [0, phi(m)), over an int den >= 1 coprime to them."""
    pairs, den = a
    assert type(pairs) is tuple and type(den) is int and den >= 1, a
    assert all(type(pair) is tuple and len(pair) == 2 for pair in pairs), a
    indices = [i for i, _ in pairs]
    assert all(type(i) is int and 0 <= i < F.degree for i in indices), a
    assert all(i < j for i, j in zip(indices, indices[1:])), a
    assert all(type(x) is int and x for _, x in pairs), a
    assert gcd(den, *[x for _, x in pairs]) == 1, a


def _assert_same(a, b):
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 12, 20, 28])
def test_every_result_is_in_the_one_canonical_form(m):
    F = CYC(m)
    rng = random.Random(100 + m)
    checked = 0

    def canonical(a):
        nonlocal checked
        _assert_canonical(F, a)
        checked += 1
        return a

    assert canonical(F.zero()) == ((), 1) and canonical(F.one()) == (((0, 1),), 1)
    for q in (0, 1, -3, Fraction(0, 5), Fraction(-6, 4), Fraction(7, 21)):
        _assert_same(canonical(F.coerce(q)), canonical(F.from_rational(Fraction(q))))
    _assert_same(canonical(F.coerce((Fraction(0),) * F.degree)), F.zero())
    _assert_same(canonical(F.coerce((Fraction(2, 4),) + (Fraction(0),) * (F.degree - 1))),
                 F.coerce(Fraction(1, 2)))
    for k in range(-m, 2 * m):
        _assert_same(canonical(F.zeta(k)), F.zeta(k % m))
    elements = [_random_element(rng, F) for _ in range(24)] + [F.zero(), F.one(), F.neg(F.one())]
    for a in elements:
        canonical(a)
        _assert_same(canonical(F.coerce(F.coords(a))), a)
        _assert_same(canonical(F.add(a, canonical(F.neg(a)))), F.zero())
        for q in (0, 3, Fraction(-2, 9)):
            s = canonical(F.mul(a, F.from_rational(q)))
            if q:
                _assert_same(canonical(F.mul(s, F.from_rational(1 / Fraction(q)))), a)
        if not F.is_zero(a):
            _assert_same(canonical(F.mul(a, canonical(F.inv(a)))), F.one())
        for d in (d for d in range(1, m) if m % d == 0):
            E = CYC(d)
            x = _random_element(rng, E)
            _assert_same(canonical(F.embed(x, E)), F.embed(E.coerce(E.coords(x)), E))
    for a, b in zip(elements, reversed(elements)):
        _assert_same(canonical(F.sub(canonical(F.add(a, b)), b)), a)
        _assert_same(canonical(F.mul(a, b)), F.mul(b, a))
        _assert_same(canonical(F.dot([a, b], [b, a])), F.add(F.mul(a, b), F.mul(b, a)))
    for row in F.mat_mul(*[tuple(tuple(rng.choice(elements) for _ in range(3)) for _ in range(3))
                           for _ in range(2)]):
        for cell in row:
            canonical(cell)
    # det_poly_matrix's exit (the Kronecker path at these sides)
    for side in (4, 5):
        rows = [[LaurentPoly(F, [_random_element(rng, F) for _ in range(2)], rng.randint(-1, 1))
                 for _ in range(side)] for _ in range(side)]
        det = det_poly_matrix(rows, F)
        for c in det.coeffs():
            canonical(c)
        if side == 4:
            _assert_same(det, det_cofactor(rows, F))
    assert checked > 400


def _private_cyclo_names(source: str) -> set[str]:
    """The _-prefixed names a module imports from cyclo or reads as cyclo._x."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in {
                ("cyclo", 1), ("twistalex.cyclo", 0)}:
            names |= {alias.name for alias in node.names if alias.name.startswith("_")}
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == "cyclo"):
            names.add(node.attr)
    return names


def test_no_module_outside_cyclo_reads_the_element_layout():
    # the layout helpers (_normal, _fold and any later one) stay in cyclo:
    # the determinant engine builds its elements by `from_powers`, and
    # metabelian's two names are integer number theory (the trial-division
    # cap and Euler's phi), not elements
    assert _private_cyclo_names("from .cyclo import CYC, _normal\nx = cyclo._dense\n"
                                "from twistalex.cyclo import _red\n") == {"_normal", "_dense", "_red"}
    readers = {path.name: names for path in Path(twistalex.__file__).parent.glob("*.py")
               if path.name != "cyclo.py"
               for names in [_private_cyclo_names(path.read_text())] if names}
    assert readers == {"metabelian.py": {"_TRIAL_CAP", "_euler_phi"}}
