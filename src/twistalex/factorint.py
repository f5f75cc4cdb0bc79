"""Factorization of integer Laurent polynomials into Q-irreducible factors.

Route: primitive/squarefree reduction, deterministic Berlekamp factorization
modulo a small good prime, linear multifactor Hensel lifting past a
Mignotte-style coefficient bound, then subset recombination.  Degrees are
capped at 64; everything this package needs to factor has degree <= 10.
"""
from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt, lcm, prod

from .domains import GF, ZZ, QQ, ExactDivisionError, TwistalexError
from .laurent import LaurentPoly, poly_divmod, poly_gcd, poly_invmod, poly_mul, poly_trim
from .matrix import nullspace

DEGREE_CAP = 64

_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


# --------------------------------------------------- dense helpers, F_p and Z
#
# Coefficient lists, lowest degree first, on the polynomial kernel of
# `laurent`; F_p coefficients are kept in 0..p-1.

def _ppowmod(base, e, mod, p):
    F = GF(p)
    out = [1]
    b = poly_divmod(F, base, mod)[1]
    while e:
        if e & 1:
            out = poly_divmod(F, poly_mul(F, out, b), mod)[1]
        b = poly_divmod(F, poly_mul(F, b, b), mod)[1]
        e >>= 1
    return out


def _pderiv(a, p):
    return poly_trim(ZZ, [(i * a[i]) % p for i in range(1, len(a))])


def _sym_mod(a, m):
    out = []
    for x in a:
        r = x % m
        out.append(r - m if r > m // 2 else r)
    return poly_trim(ZZ, out)


def _content(a):
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def _primitive(a):
    g = _content(a)
    if g in (0, 1):
        return list(a)
    return [x // g for x in a]


def _zdivexact(a, b):
    """Exact division in Z[x]; returns None when not exact."""
    try:
        q, r = poly_divmod(ZZ, a, b)
    except ExactDivisionError:
        return None
    return None if r else q


# -------------------------------------------------------------------- stages

def _berlekamp(f, p):
    """Monic irreducible factors of a squarefree monic f over F_p (deterministic)."""
    n = len(f) - 1
    if n <= 1:
        return [list(f)]
    F = GF(p)
    xp = _ppowmod([0, 1], p, f, p)
    cols = []
    cur = [1]
    for _ in range(n):
        cols.append(list(cur) + [0] * (n - len(cur)))
        cur = poly_divmod(F, poly_mul(F, cur, xp), f)[1]
    # v is Frobenius-fixed iff (Q - I) v = 0, Q[i][j] = coeff_i of x^(jp)
    q = [[(cols[j][i] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    basis = nullspace(F, q, n)
    if len(basis) == 1:
        return [list(f)]
    factors = [list(f)]
    for v in basis:
        if len(factors) == len(basis):
            break
        vpoly = poly_trim(F, list(v))
        if len(vpoly) <= 1:
            continue
        next_factors = []
        for g in factors:
            if len(g) - 1 <= 1:
                next_factors.append(g)
                continue
            rem = g
            pieces = []
            for c in range(p):
                if len(rem) - 1 == 0:
                    break
                shifted = [(vpoly[0] - c) % p] + vpoly[1:]
                h = poly_gcd(F, rem, shifted)
                if 0 < len(h) - 1:
                    pieces.append(h)
                    rem = poly_divmod(F, rem, h)[0]
            if len(rem) - 1 > 0:
                inv = pow(rem[-1], -1, p)
                pieces.append([x * inv % p for x in rem])
            next_factors.extend(pieces if pieces else [g])
        factors = next_factors
    return factors


def _hensel_lift_linear(f, facs, p, target):
    """Lift monic coprime factors of monic f from mod p to mod p^k >= target.

    Linear lifting: at modulus m = p^k the corrections delta_i solve
    sum_i delta_i * prod_{j != i} g_j = e (mod p) via precomputed inverses.
    """
    F = GF(p)
    r = len(facs)
    G = [list(g) for g in facs]
    # h_i = inverse of prod_{j != i} g_j modulo g_i, all mod p
    invs = []
    for i in range(r):
        acc = [1]
        for j in range(r):
            if j != i:
                acc = poly_mul(F, acc, facs[j])
        invs.append(poly_invmod(F, acc, facs[i]))
    m = p
    while m < target:
        acc = [1]
        for g in G:
            acc = poly_mul(ZZ, acc, g)
        diff = [x - y for x, y in zip(f + [0] * max(0, len(acc) - len(f)),
                                      acc + [0] * max(0, len(f) - len(acc)))]
        e = poly_trim(F, [(x // m) % p for x in diff])
        if e:
            for i in range(r):
                # G_i = facs_i (mod p): the corrections are multiples of m
                di = poly_divmod(F, poly_mul(F, e, invs[i]), facs[i])[1]
                for k, v in enumerate(di):
                    G[i][k] += m * (v % p)
        m *= p
    return G, m


def _factor_squarefree_primitive(f):
    """Q-irreducible factors (primitive, positive leading coeff) of a
    primitive squarefree integer polynomial with positive leading coeff."""
    n = len(f) - 1
    if n <= 1:
        return [list(f)]
    if n > DEGREE_CAP:
        raise TwistalexError(f"degree {n} exceeds the factorization cap {DEGREE_CAP}")
    lc = f[-1]
    if lc != 1:
        # monicify: F(y) = lc^(n-1) * f(y/lc), factor, map back via y -> lc*x
        F = [a * lc ** (n - 1 - i) for i, a in enumerate(f[:-1])] + [1]
        out = []
        for G in _factor_squarefree_monic(F):
            g = _primitive([v * lc**i for i, v in enumerate(G)])
            if g[-1] < 0:
                g = [-x for x in g]
            out.append(g)
        out.sort(key=lambda g: (len(g), g))
        return out
    return _factor_squarefree_monic(f)


def _factor_squarefree_monic(f):
    """Irreducible factors of a monic squarefree integer polynomial."""
    n = len(f) - 1
    if n <= 1:
        return [list(f)]
    p = None
    for cand in _SMALL_PRIMES:
        fp = poly_trim(ZZ, [x % cand for x in f])
        if len(fp) - 1 != n:
            continue
        if len(poly_gcd(GF(cand), fp, _pderiv(fp, cand))) == 1:
            p = cand
            break
    if p is None:
        raise TwistalexError("no good prime found below the cap")
    modular = _berlekamp([x % p for x in f], p)
    if len(modular) == 1:
        return [list(f)]
    modular.sort(key=lambda g: (len(g), g))
    norm2 = isqrt(sum(x * x for x in f)) + 1
    bound = (1 << (n + 1)) * norm2
    target = 2 * bound + 1
    lifted, m = _hensel_lift_linear(list(f), modular, p, target)
    found = []
    remaining = list(range(len(lifted)))
    fcur = list(f)
    size = 1
    while 2 * size <= len(remaining):
        progress = False
        for subset in combinations(remaining, size):
            cand = [1]
            for i in subset:
                cand = _sym_mod(poly_mul(ZZ, cand, lifted[i]), m)
            q = _zdivexact(fcur, cand)
            if q is not None:
                found.append(cand)
                remaining = [i for i in remaining if i not in subset]
                fcur = q
                progress = True
                break
        if not progress:
            size += 1
    if len(fcur) - 1 > 0:
        found.append(fcur)
    found.sort(key=lambda g: (len(g), g))
    return found


# ----------------------------------------------------------------- public API

def factor_integer_poly(f: LaurentPoly):
    """Factor a nonzero integer Laurent polynomial.

    Returns (unit, content, t_power, factors) with unit in {+1, -1}, content a
    positive integer, and factors a sorted list of (primitive Q-irreducible
    polynomial with positive leading coefficient, multiplicity) such that

        f = unit * content * t^t_power * prod g_i^e_i.
    """
    if f.is_zero():
        raise TwistalexError("cannot factor the zero polynomial")
    if f.dom is not ZZ and f.dom.name != "ZZ":
        raise TypeError("factor_integer_poly expects integer coefficients")
    t_power = f.low()
    coeffs = f.coeffs()
    content = _content(coeffs)
    unit = 1
    prim = [x // content for x in coeffs]
    if prim[-1] < 0:
        unit = -1
        prim = [-x for x in prim]
    if len(prim) - 1 == 0:
        return unit, content, t_power, []
    # squarefree part via gcd with the derivative over Q
    fq = LaurentPoly(QQ, prim)
    g = fq.gcd(fq.derivative())
    if g.deg() == 0:  # g has lowest exponent 0
        sqfree = list(prim)
    else:
        quot = fq.exact_div(g)
        qc = quot.coeffs()
        den = 1
        for v in qc:
            den = lcm(den, v.denominator)
        sqfree = _primitive([int(v * den) for v in qc])
        if sqfree[-1] < 0:
            sqfree = [-x for x in sqfree]
    irreducibles = _factor_squarefree_primitive(sqfree)
    factors = []
    rem = list(prim)
    for g_ in irreducibles:
        mult = 0
        while True:
            q = _zdivexact(rem, g_)
            if q is None:
                break
            rem = q
            mult += 1
        if mult:
            factors.append((LaurentPoly(ZZ, g_), mult))
    if len(rem) != 1 or abs(rem[0]) != 1:
        raise ArithmeticError("factor recombination failed to exhaust the input")
    unit *= rem[0]
    return unit, content, t_power, factors


def verify_factorization(f: LaurentPoly, unit: int, content: int, t_power: int, factors) -> bool:
    return prod((g for g, mult in factors for _ in range(mult)),
                start=LaurentPoly(ZZ, [unit * content], t_power)) == f


def is_irreducible(f: LaurentPoly) -> bool:
    """Q-irreducibility of a primitive integer polynomial (unit t-powers aside)."""
    unit, content, _, factors = factor_integer_poly(f)
    return content == 1 and len(factors) == 1 and factors[0][1] == 1
