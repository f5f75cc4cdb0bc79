"""Exact determinants of matrices of Laurent polynomials.

Negative exponents are cleared row by row (multiplying by t-powers, with the
correction unit restored at the end).  Three engines:

* cofactor expansion - the brute-force oracle for small sizes;
* fraction-free Bareiss elimination over D[t] - works over any exact domain
  (the elimination itself is matrix.bareiss, shared with snf.det_int);
* evaluation/interpolation - over ZZ/QQ/GF(p) through word-size primes and
  numpy row reduction (CRT-certified by an a-priori coefficient bound), and
  over cyclotomic fields through exact field elimination at integer points.
  Both recover the polynomial with the one Newton interpolation _interpolate,
  over GF(q) per prime or over the field itself.

The two forward-elimination kernels _det_mod_q (numpy, mod q) and _det_field
(field elements) stay separate from the shared echelon kernel matrix.rref:
they do nearly all of the work on the twisted-polynomial hot path, and they
only need a determinant, not the reduced form.  Word-size primes are tested
with domains.is_prime.

The twisted-polynomial pipeline produces matrices up to ~70x70 over ZZ[t];
pure Bareiss is too slow there, which is what the modular engine is for.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .domains import GF, Domain, ZZ, QQ, PrimeField, is_prime
from .laurent import LaurentPoly
from .matrix import bareiss


# --------------------------------------------------------------------- primes

def _prime_stream():
    q = 2**31 - 1
    while q > 2**30:
        if is_prime(q):
            yield q
        q -= 2


# ----------------------------------------------------------------- row shifts

def _shift_rows(rows):
    """Clear negative exponents per row; returns (shifted rows, total shift)."""
    out = []
    total = 0
    for row in rows:
        lows = [f.low() for f in row if not f.is_zero()]
        if not lows:
            return None, 0  # a zero row: determinant is zero
        lo = min(lows)
        if lo:
            row = [f.shift(-lo) for f in row]
            total += lo
        out.append(list(row))
    return out, total


# ------------------------------------------------------------------- engines

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


def det_bareiss(rows, dom: Domain) -> LaurentPoly:
    """Fraction-free elimination over D[t] after clearing negative exponents."""
    m, shift = _shift_rows(rows)
    if m is None:
        return LaurentPoly.zero(dom)
    return bareiss(m, LaurentPoly.one(dom), LaurentPoly.exact_div).shift(shift)


def _det_mod_q(a: np.ndarray, q: int) -> int:
    """Determinant of an int64 matrix mod q (q an odd word-size prime)."""
    m = a % q
    n = m.shape[0]
    det = 1
    for i in range(n):
        col = m[i:, i]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            return 0
        p = int(nz[0]) + i
        if p != i:
            m[[i, p]] = m[[p, i]]
            det = -det % q
        piv = int(m[i, i])
        det = det * piv % q
        if i + 1 < n:
            inv = pow(piv, -1, q)
            factors = m[i + 1 :, i] * inv % q
            m[i + 1 :, i:] = (m[i + 1 :, i:] - np.outer(factors, m[i, i:])) % q
    return det


def _interpolate(dom: Domain, ys):
    """Coefficients of the poly with values ys at x = 0..len(ys)-1 (Newton)."""
    k = len(ys)
    dd = list(ys)  # divided differences, built in place
    for level in range(1, k):
        # equally spaced points: x_i - x_{i-level} = level at every i
        inv = dom.inv(dom.coerce(level))
        for i in range(k - 1, level - 1, -1):
            dd[i] = dom.mul(dom.sub(dd[i], dd[i - 1]), inv)
    coeffs = [dom.zero()] * k
    basis = [dom.one()]  # prod_{i<j}(t - i)
    for j in range(k):
        for i, b in enumerate(basis):
            coeffs[i] = dom.add(coeffs[i], dom.mul(dd[j], b))
        nb = [dom.zero()] * (len(basis) + 1)
        mj = dom.neg(dom.coerce(j))
        for i, b in enumerate(basis):
            nb[i] = dom.add(nb[i], dom.mul(mj, b))
            nb[i + 1] = dom.add(nb[i + 1], b)
        basis = nb
    return coeffs


def det_modular_int(rows) -> LaurentPoly:
    """Determinant over ZZ[t^±1] via CRT over word-size primes."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one(ZZ)
    m, shift = _shift_rows(rows)
    if m is None:
        return LaurentPoly.zero(ZZ)
    deg_bound = 0
    coeff_bound = 1
    for row in m:
        deg_bound += max(f.deg() for f in row if not f.is_zero())
        coeff_bound *= sum(abs(v) for f in row for v in f.c.values())
    if coeff_bound == 0:
        return LaurentPoly.zero(ZZ)
    npoints = deg_bound + 1
    # dense layers: layer[d][i][j] = coefficient of t^d
    max_deg = max((f.deg() for row in m for f in row if not f.is_zero()), default=0)
    layers = [[[0] * n for _ in range(n)] for _ in range(max_deg + 1)]
    for i, row in enumerate(m):
        for j, f in enumerate(row):
            for e, v in f.c.items():
                layers[e][i][j] = v
    primes = []
    prod = 1
    for q in _prime_stream():
        primes.append(q)
        prod *= q
        if prod > 2 * coeff_bound + 1:
            break
    residues = []  # per prime: coefficient list mod q
    for q in primes:
        np_layers = [np.array([[v % q for v in row] for row in layer], dtype=np.int64)
                     for layer in layers]
        vals = []
        for x in range(npoints):
            acc = np_layers[-1].copy()
            for layer in reversed(np_layers[:-1]):
                acc = (acc * x + layer) % q
            vals.append(_det_mod_q(acc, q))
        residues.append(_interpolate(GF(q), vals))
    # CRT per coefficient, symmetric range
    coeffs = {}
    for d in range(npoints):
        x, mod = 0, 1
        for q, res in zip(primes, residues):
            r = res[d] if d < len(res) else 0
            t = (r - x) * pow(mod, -1, q) % q
            x += mod * t
            mod *= q
        if x > mod // 2:
            x -= mod
        if x:
            coeffs[d] = x
    return LaurentPoly(ZZ, coeffs).shift(shift)


def _det_field_at_points(rows, dom: Domain) -> LaurentPoly:
    """Evaluation/interpolation determinant over a field domain (exact)."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one(dom)
    m, shift = _shift_rows(rows)
    if m is None:
        return LaurentPoly.zero(dom)
    deg_bound = sum(max(f.deg() for f in row if not f.is_zero()) for row in m)
    npoints = deg_bound + 1
    xs = [dom.coerce(x) for x in range(npoints)]
    vals = []
    for x in xs:
        a = [[f.evaluate(x) for f in row] for row in m]
        vals.append(_det_field(a, dom))
    return LaurentPoly(dom, dict(enumerate(_interpolate(dom, vals)))).shift(shift)


def _det_field(a, dom: Domain):
    n = len(a)
    det = dom.one()
    for i in range(n):
        piv = next((r for r in range(i, n) if not dom.is_zero(a[r][i])), None)
        if piv is None:
            return dom.zero()
        if piv != i:
            a[i], a[piv] = a[piv], a[i]
            det = dom.neg(det)
        det = dom.mul(det, a[i][i])
        inv = dom.inv(a[i][i])
        for r in range(i + 1, n):
            if not dom.is_zero(a[r][i]):
                f = dom.mul(a[r][i], inv)
                a[r] = [dom.sub(x, dom.mul(f, y)) for x, y in zip(a[r], a[i])]
    return det


def det_poly_matrix(rows, dom: Domain) -> LaurentPoly:
    """Exact determinant of a square matrix of LaurentPoly over dom."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if dom.name == "ZZ":
        return det_modular_int(rows)
    if dom.name == "QQ":
        # clear denominators row by row, run the integer engine, scale back
        from math import lcm

        int_rows = []
        scale = Fraction(1)
        for row in rows:
            dens = [v.denominator for f in row for v in f.c.values()]
            l = lcm(*dens) if dens else 1
            scale /= l
            int_rows.append(
                [LaurentPoly(ZZ, {e: int(v * l) for e, v in f.c.items()}) for f in row]
            )
        d = det_modular_int(int_rows)
        return LaurentPoly(QQ, {e: Fraction(v) * scale for e, v in d.c.items()})
    if isinstance(dom, PrimeField):
        int_rows = [[LaurentPoly(ZZ, dict(f.c)) for f in row] for row in rows]
        d = det_modular_int(int_rows)
        return LaurentPoly(dom, {e: v % dom.p for e, v in d.c.items()})
    if n <= 4:
        return det_bareiss(rows, dom)
    return _det_field_at_points(rows, dom) if dom.is_field else det_bareiss(rows, dom)
