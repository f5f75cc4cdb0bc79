"""Exact determinants of matrices of Laurent polynomials.

A matrix comes in one format: per row, the list of its nonzero (exponent,
column, value) entries, at most one per (exponent, column).  Both paths
below take one cleared form (_cleared) of it from det_sparse, their one
entry, which reads sides 0 and 1 and a zero row or column off first.  The
substitution walker's rows come in that format (`fox.reduced_fox_matrix`);
det_poly_matrix, for a matrix of LaurentPolys (Delta_K, dense Wada
denominators, det_matrix), hands det_sparse its cells' nonzero terms.  Each
row's lowest exponent, then each column's lowest left after that, is
subtracted, and the total restored at the end; entry (i, j) then has
degree at most tops[i][j], and the determinant's degree d is at most both
sum_i max_j tops[i][j] and sum_j max_i tops[i][j] (a zero row or column is
a zero determinant).  Each row is scaled by one lcm of the
denominators of its coefficients (a Q(zeta_m) element is its nonzero
(index, integer numerator) pairs over one denominator, read here, and is
built again from integer coordinates by the field's `from_powers` at the
exit), so the matrix lies over Z[zeta_m][t], with m = dom.m and
phi(m) = dom.degree: ZZ, QQ and GF(p) as m = 1, GF(p) entries lifted to
0..p-1 so that their determinant is the integer one reduced mod p.  These
are the only coefficient domains the package defines; any other is a
TypeError.  A matrix whose elimination work side^3 * (d + 1) * phi(m) is
above _WORK_CAP is refused, from its exponents alone, before its terms are
built.

The Kronecker path (_det_kronecker).  zeta -> 2^b and t -> 2^(b x) pack
each entry into one integer (Kronecker substitution; von zur Gathen and
Gerhard, Modern Computer Algebra, 8.4), and the determinant of the packed
matrix, by the fraction-free integer elimination `snf._det_int` (Bareiss
1968), is the unreduced determinant at those powers of two: a polynomial
in zeta of degree at most n(phi - 1) < x = n(phi - 1) + 1 and in t of
degree at most d.  Each of its coefficients is at most H, the product of
the row l1-norms (Certification, below); with b = bitlength(H) + 1 each
lies strictly inside (-2^(b-1), 2^(b-1)), so the x (d + 1) signed base-2^b
digits of the integer are exactly the coefficients.  They are read off one
binary string after adding 2^(b-1) to every digit, and each t-coefficient's
x digits, its coordinates in the powers of zeta, become an element by the
field's `from_powers` (one fold mod Phi_m).  No prime, evaluation point or
numpy call is made, and the certification below covers both paths.

det_sparse takes the Kronecker path while n^2 * b * x * (d + 1),
about the bits of the packed matrix, is at most _KRONECKER_BITS = 2^18, and
the multimodular engine above it; sides 0 and 1 are read off.  Its time
over the engine's, warm per call on random matrices of sides 2-15 with
linear and quadratic entries, ±zeta^k and dense coefficients (2 vCPU,
Python 3.11.7, numpy 2.4.6):

    n^2 * b * x * (d + 1)    ZZ, QQ, GF(7)    Q(zeta_3), ..., Q(zeta_20)
    up to 2^14               0.14-0.56        0.19-0.44
    2^14 to 2^16             0.20-0.36        0.31-0.66
    2^16 to 2^17             0.35-0.71        0.61-1.34
    2^17 to 2^18             0.48-0.62        0.77-2.02
    2^18 to 2^19             0.60-0.75        1.23-7.2
    2^19 to 2^20             1.13-1.37        3.2-8.2
    above 2^20               (none drawn)     7.8-38

Summed over the determinants of a warm seed-1 pass of `conjecture-sweep`
and `cyclotomic-wada`, the constant 2^16, 2^17, 2^18, 2^19 and 2^20 gave
91, 81, 77, 79 and 91 ms, against 177 ms with every matrix on the engine;
at 2^18 the engine takes 9 of the 305 determinants of a `conjecture-sweep`
pass (sides 6 to 15) and none of `cyclotomic-wada`'s 207.  det_matrix
(constant entries) takes the same route.  (Wada denominators of monomial
images never get here: twisted reads them off the permutation's cycles.)
numpy is imported when the engine first reads it (`np` stands in for it
until then), so a process whose determinants all take the Kronecker path,
such as one computing Delta_K, branched covers and dihedral invariants of
small knots, never loads it.

The multimodular engine (_det_multimodular) evaluates at d + 1 points.
A word-size prime q = 1 (mod m) splits
Phi_m into distinct linear factors, so each primitive m-th root of unity w^k
in GF(q) (gcd(k, m) = 1) is a ring map Z[zeta_m] -> GF(q).  Per prime the
integer coordinate array goes through all phi(m) maps at once, as one
product with the Vandermonde matrix V of those roots, is evaluated
by Horner at x = 0..deg_bound, and one batched numpy forward elimination
(_det_mod_q, a pivot per matrix, fraction-free, one batched inverse at the
end, at most _CHUNK_CELLS cells at a time) gives every determinant value.
One product with V^-1 turns the embedding values back
into power-basis coordinates, and the one Newton interpolation gives the
coefficients in t.  At the equally spaced points 0..k-1 Newton's two stages
are triangular matrices whose leading k x k blocks do not depend on k: the
divided differences D and the Newton form to power basis T (von zur Gathen
and Gerhard, Modern Computer Algebra, ch. 5).  _divided_differences and
_power_basis are the two stages; run on the identity, they build each table
once per prime, grown to the next power of two up to _TABLE_POINTS, and
_interpolate is then T[:k, :k] @ (D[:k, :k] @ ys) mod q; above
_TABLE_POINTS points they run on the values.  CRT across the primes, into
the symmetric range, gives the exact integer coordinates; the row scales
and the t-shift are then undone.

Certification.  Expanding the permutation sum of the scaled matrix, each
coefficient of t^e in the determinant, before zeta is reduced, is a signed
sum of products y_1 ... y_n zeta^K, one integer term y_i zeta^(k_i) t^(e_i)
per row, K = sum k_i.  The absolute values of those integer products sum to
at most H := prod_rows (the row's l1-norm, the sum of |y| over its terms),
so every coefficient of the unreduced expansion, in zeta and t, is at most
H; the Kronecker path reads exactly these coefficients as its digits.
Reducing zeta^K = zeta^(K mod m) to the power basis multiplies each product
by coordinates at most M_m := max_{k < m} max |coordinate of zeta^k|
(_coordinate_bound, an int read once per m off the field's table of
zeta's powers, `CYC(m).powers`), so every power-basis coordinate of the
determinant, which the engine reads, is at most M_m H.
M_1 = 1 over ZZ, QQ and GF(p), the classical product of row l1-norms; M_m = 1
for every m <= 210 but 105, 165, 195 and 210, where it is 2.  The engine
takes primes until their product exceeds 2 M_m H + 1, so the symmetric CRT
residue is the coordinate itself: no heuristic stopping (von zur Gathen and
Gerhard, Modern Computer Algebra, 5.5).  Primes lie below 2^31, so every
product of two residues fits in int64; a product with a table (V, V^-1, D
or T) splits the table into 16-bit halves (_mul_mod).

Wada numerators and Delta_K come from the substitution walker's reduced
matrices (`fox.reduced_fox_matrix`; Delta_K's as LaurentPolys, kept once
per presentation), (seeds - 1) n square: on the benchmark
workloads at most 15 x 15 over ZZ, GF(p) and small cyclotomic fields
(`conjecture-sweep`) and 6 x 6 over Q(zeta_12..28) (`cyclotomic-wada`),
with more evaluation points per row than the full Fox minors they replace.
"""
from __future__ import annotations

from functools import lru_cache, partial
from itertools import count
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .cyclo import CYC, CyclotomicField, cyclotomic_polynomial, has_order
from .domains import Domain, PrimeField, QQ, TwistalexError, ZZ, is_prime
from .laurent import LaurentPoly
from .snf import _det_int

# int64 cells per batched evaluation/elimination chunk (512 KiB): bounds the
# peak memory of the engine whatever the matrix size and number of points
_CHUNK_CELLS = 1 << 16
# the most points interpolated through the cached Newton tables (_interpolate),
# so each of a prime's four table halves (D and T, lo and hi) holds at most
# _CHUNK_CELLS cells
_TABLE_POINTS = isqrt(_CHUNK_CELLS)
# the largest n^2 * b * x * points, about the bits of the packed matrix, that
# det_sparse hands to _det_kronecker; the multimodular engine takes the
# rest.  Of 2^16..2^20 it gave the fastest determinants over the workloads'
# matrices (timings in the module doc)
_KRONECKER_BITS = 1 << 18
# the largest side^3 * points * phi(m) det_sparse takes on, on either
# path: the engine's elimination work per prime.  Every test, script and
# benchmark input stays below 6.4e6; metacyclic p = 53 on 3_1 is 1.6e7 and
# takes 1.0 s
_WORK_CAP = 10**8


class _Numpy:
    """Stands in for numpy until an attribute is first read, then imports
    numpy and puts it in its place as the module's `np`."""

    def __getattr__(self, name):
        global np
        import numpy as np
        return getattr(np, name)


np = _Numpy()

# q -> the stacked split Newton tables (D, T) mod q (_interpolate)
_newton_tables: dict = {}


# --------------------------------------------------------------------- primes

@lru_cache(maxsize=None)
def _prime(m: int, i: int) -> int:
    """The i-th prime q = 1 (mod m) below 2^31, counting down from 2^31."""
    step = lcm(2, m)
    q = _prime(m, i - 1) - step if i else 2**31 - 1 - (2**31 - 2) % step
    while not is_prime(q):
        q -= step
    if q < 2**30:
        raise TwistalexError(f"ran out of word-size primes = 1 mod {m}")
    return q


@lru_cache(maxsize=None)
def _embeddings(m: int, q: int):
    """(V, V^-1) mod q, each split into 16-bit halves for _mul_mod (_split).
    V[e][j] = x_e^j for the phi(m) roots x_e = w^k_e of Phi_m mod q (k_e
    coprime to m, w the least-base primitive m-th root).  Column e of V^-1
    is the Lagrange basis polynomial Phi_m(x) / ((x - x_e) Phi_m'(x_e)), by
    one synthetic division each."""
    w = next(w for w in (pow(g, (q - 1) // m, q) for g in range(2, q)) if has_order(w, m, q))
    xs = [pow(w, k, q) for k in range(1, m + 1) if gcd(k, m) == 1]
    v = [[pow(x, j, q) for j in range(len(xs))] for x in xs]
    phi = [c % q for c in cyclotomic_polynomial(m).coeffs()]
    cols = []
    for x in xs:
        quo = [1]  # Phi_m / (x - x_e), leading coefficient first
        for c in phi[-2:0:-1]:
            quo.append((c + x * quo[-1]) % q)
        d = 0  # quo(x_e) = Phi_m'(x_e)
        for c in quo:
            d = (d * x + c) % q
        d = pow(d, -1, q)
        cols.append([c * d % q for c in reversed(quo)])
    return _split(np.array(v, dtype=np.int64)), _split(np.array(cols, dtype=np.int64).T)


@lru_cache(maxsize=None)
def _coordinate_bound(m: int) -> int:
    """M_m, the largest |power-basis coordinate| of any zeta_m^k, k < m, read
    off the field's table of zeta's powers (M_1 = 1 over ZZ, QQ and GF(p))."""
    return max(abs(x) for w in CYC(m).powers for _, x in w[0])


# ------------------------------------------------------------------- engines

def _det_mod_q(a: np.ndarray, q: int) -> np.ndarray:
    """Determinants mod q of a (b, n, n) int64 stack with entries in [0, q).

    Fraction-free forward elimination with a pivot per matrix: step i sets
    row_j <- piv * row_j - a_ji * row_i below the pivot (each product is
    below q^2 < 2^62), which multiplies the determinant by piv^(n - 1 - i).
    The product of those powers is the product of the running pivot
    products, a unit (a dead column's pivot counts as 1); it is divided out
    at the end by one batched inverse (`_inverses`).  a is overwritten.
    """
    b, n, _ = a.shape
    det = np.ones(b, dtype=np.int64)
    run = np.ones(b, dtype=np.int64)     # the pivots' product so far
    scaled = np.ones(b, dtype=np.int64)  # prod_i piv_i^(n - 1 - i)
    every = np.arange(b)
    for i in range(n):
        nonzero = a[:, i:, i] != 0
        p = nonzero.argmax(axis=1) + i
        swap = p != i
        if swap.any():
            row = a[every, i].copy()
            a[every, i] = a[every, p]
            a[every, p] = row
            det[swap] = -det[swap] % q
        piv = a[:, i, i].copy()
        dead = ~nonzero.any(axis=1)
        det[dead] = 0
        piv[dead] = 1
        det = det * piv % q
        if i + 1 < n:
            run = run * piv % q
            scaled = scaled * run % q
            rest = a[:, i + 1 :, i + 1 :]  # a view: updated in place
            rest *= piv[:, None, None]
            rest -= a[:, i + 1 :, i, None] * a[:, i, None, i + 1 :]
            rest %= q
    return det * _inverses(scaled, q) % q


def _inverses(x: np.ndarray, q: int) -> np.ndarray:
    """x^-1 mod q for an int64 array of units, by one pow: Montgomery's
    simultaneous inversion (prefix products, one inverse, a backward sweep)."""
    xs = x.tolist()
    prefix, acc = [], 1
    for v in xs:
        prefix.append(acc)
        acc = acc * v % q
    inv = pow(acc, -1, q)
    out = [0] * len(xs)
    for k in range(len(xs) - 1, -1, -1):
        out[k] = inv * prefix[k] % q
        inv = inv * xs[k] % q
    return np.array(out, dtype=np.int64)


def _divided_differences(ys: np.ndarray, q: int) -> np.ndarray:
    """Newton's first stage D mod q: the divided differences of the values
    ys[x] at x = 0..len(ys)-1, one poly per column of the (points, k) ys.
    Run on the identity, it gives its table (_interpolate)."""
    dd = ys.copy()
    for level in range(1, len(ys)):
        # equally spaced points: x_i - x_{i-level} = level at every i
        dd[level:] = (dd[level:] - dd[level - 1 : -1]) * pow(level, -1, q) % q
    return dd


def _power_basis(dd: np.ndarray, q: int) -> np.ndarray:
    """Newton's second stage T mod q: the Newton-form coefficients dd (one
    poly per column) in the power basis.  Run on the identity, it gives its
    table (_interpolate)."""
    coeffs = np.zeros_like(dd)
    basis = np.ones(1, dtype=np.int64)  # prod_{i<j}(t - i)
    for j in range(len(dd)):
        coeffs[: j + 1] = (coeffs[: j + 1] + basis[:, None] * dd[j]) % q
        nb = np.zeros(j + 2, dtype=np.int64)
        nb[1:] = basis
        nb[:-1] = (nb[:-1] - j * basis) % q
        basis = nb
    return coeffs


def _split(a: np.ndarray) -> np.ndarray:
    """a in [0, 2^31) as the stacked halves (lo, hi), a = lo + 2^16 hi."""
    return np.stack((a & 0xFFFF, a >> 16))


def _mul_mod(halves: np.ndarray, x: np.ndarray, q: int) -> np.ndarray:
    """(lo + 2^16 hi) @ x mod q for x in [0, q).  Each sum in lo @ x and
    hi @ x has at most max(_TABLE_POINTS, PHI_CAP) = 1024 products below
    2^16 * 2^31 = 2^47, so it stays below 2^57: no int64 overflow."""
    lo, hi = halves
    return ((lo @ x) % q + ((hi @ x) % q << 16)) % q


def _interpolate(ys: np.ndarray, q: int) -> np.ndarray:
    """Coefficients mod q of the polys with values ys[x] at x = 0..k-1,
    k = len(ys), one per column: T[:k, :k] @ (D[:k, :k] @ ys) from split
    tables built once per prime and grown to the next power of two; above
    _TABLE_POINTS points the two stages run on the values themselves."""
    k = len(ys)
    if k > _TABLE_POINTS:
        return _power_basis(_divided_differences(ys, q), q)
    tables = _newton_tables.get(q)
    if tables is None or tables.shape[-1] < k:
        eye = np.eye(1 << (k - 1).bit_length(), dtype=np.int64)
        tables = _newton_tables[q] = np.stack((_split(_divided_differences(eye, q)),
                                               _split(_power_basis(eye, q))))
    return _mul_mod(tables[1, :, :k, :k], _mul_mod(tables[0, :, :k, :k], ys, q), q)


def _coords_mod_q(a, m: int, q: int, npoints: int) -> np.ndarray:
    """(npoints, phi) power-basis coordinates mod q of the determinant's
    coefficients, from the (deg+1, phi, n, n) integer coordinate array a."""
    v, vinv = _embeddings(m, q)
    layers, phi, n = a.shape[0], a.shape[1], a.shape[2]
    aq = (a % q).astype(np.int64).reshape(layers, phi, n * n)
    # emb[d, e] = e-th embedding of the t^d layer
    emb = _mul_mod(v, aq, q).reshape(layers, phi, n, n)
    dets = np.empty((npoints, phi), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // (phi * n * n))
    for x0 in range(0, npoints, step):
        xs = np.arange(x0, min(x0 + step, npoints), dtype=np.int64)
        acc = np.repeat(emb[-1][None], len(xs), axis=0)
        for layer in emb[-2::-1]:
            acc *= xs[:, None, None, None]
            acc += layer
            acc %= q
        dets[x0 : x0 + len(xs)] = _det_mod_q(acc.reshape(-1, n, n), q).reshape(-1, phi)
    return _interpolate(_mul_mod(vinv, dets.T, q).T, q)


class _Cleared(NamedTuple):
    """A matrix over Z[zeta_m][t], as both paths read it (_cleared)."""
    shift: int     # the exponent cleared from rows and columns, restored at the exit
    depth: int     # one more than the highest exponent left in any entry
    npoints: int   # one more than the determinant's degree bound
    scale: int     # the product of the row scales, divided out at the exit
    widest: int    # the largest row l1-norm
    height: int    # H, the product of the row l1-norms
    terms: list    # terms[i]: row i's (j, e, k, y), y zeta^k t^e in entry (i, j)


def _cleared(rows, dom: Domain):
    """The matrix with its exponents cleared and its rows scaled to integers,
    or None when a row or column is zero; see the module doc.  rows[i] holds
    row i's nonzero (exponent, column, value) entries, at most one per
    (exponent, column).  A matrix whose work side^3 * points * phi(m) is
    above _WORK_CAP is refused first."""
    n, phi = len(rows), dom.degree
    # each row's lowest exponent, then each column's lowest left after it, is
    # cleared; the determinant's degree is then at most both the sum of the
    # rows' highest exponents left and the sum of the columns'
    lows = [min((e for e, _, _ in row), default=None) for row in rows]
    if None in lows:
        return None  # a zero row
    col_lows = [None] * n
    for row, lo in zip(rows, lows):
        for e, j, _ in row:
            if col_lows[j] is None or e - lo < col_lows[j]:
                col_lows[j] = e - lo
    if None in col_lows:
        return None  # a zero column
    rows = [[(e - lo - col_lows[j], j, v) for e, j, v in row] for row, lo in zip(rows, lows)]
    col_tops = [0] * n
    for row in rows:
        for e, j, _ in row:
            if e > col_tops[j]:
                col_tops[j] = e
    row_tops = [max(e for e, _, _ in row) for row in rows]
    npoints = min(sum(row_tops), sum(col_tops)) + 1  # the degree bound, plus one
    work = n**3 * npoints * phi
    if work > _WORK_CAP:
        raise TwistalexError(f"determinant work side^3 * points * phi = {n}^3 * {npoints} * "
                             f"{phi} = {work} is above the cap _WORK_CAP = {_WORK_CAP}")
    terms, scale, widest, height = [], 1, 0, 1
    for row in rows:
        # each term as integer coordinates over the row's one denominator l: a
        # Q(zeta_m) element's (index, numerator) pairs over its den, and a
        # rational v the one coordinate v.numerator over v.denominator
        if isinstance(dom, CyclotomicField):
            l = lcm(*(den for _, _, (_, den) in row))
            out = [(j, e, k, y * (l // den)) for e, j, (pairs, den) in row for k, y in pairs]
        else:
            l = lcm(*(v.denominator for _, _, v in row))
            out = [(j, e, 0, v.numerator * (l // v.denominator)) for e, j, v in row if v]
        norm = sum(abs(t[3]) for t in out)  # the row's l1-norm, at least each coordinate
        terms.append(out)
        scale *= l
        widest = max(widest, norm)
        height *= norm
    return _Cleared(sum(lows) + sum(col_lows), max(row_tops) + 1, npoints, scale, widest,
                    height, terms)


def _exit(dom: Domain, coords: list, scale: int):
    """The dom element sum_k coords[k] zeta^k / scale of the integer list
    coords, of any length over Q(zeta_m) and one integer over ZZ, QQ and
    GF(p) (scale is 1 over ZZ and GF(p), whose rows have no denominators)."""
    if isinstance(dom, CyclotomicField):
        return dom.from_powers(coords, scale)
    return dom.div(coords[0], scale)


def _det_kronecker(c: _Cleared, dom: Domain, b: int, x: int) -> LaurentPoly:
    """Exact determinant by Kronecker substitution t -> 2^(b x), zeta -> 2^b
    into one integer determinant (snf._det_int); see the module doc."""
    n = len(c.terms)
    packed = [[0] * n for _ in range(n)]
    for row, out in zip(c.terms, packed):
        for j, e, k, y in row:
            out[j] += y << b * (x * e + k)
    count = x * c.npoints
    half = 1 << (b - 1)
    # each signed digit plus half lies in [1, 2^b): one binary string holds them all
    text = format(_det_int(packed) + int(("1" + "0" * (b - 1)) * count, 2), "b").zfill(b * count)
    digits = [int(text[i - b : i], 2) - half for i in range(b * count, 0, -b)]
    return LaurentPoly(dom, [_exit(dom, digits[d : d + x], c.scale)
                             for d in range(0, count, x)], c.shift)


def _det_multimodular(c: _Cleared, dom: Domain) -> LaurentPoly:
    """Exact determinant of the cleared matrix c over ZZ, QQ, GF(p) or
    Q(zeta_m) by the multimodular engine; see the module doc."""
    n, m, phi = len(c.terms), dom.m, dom.degree
    cells = [[[[0] * n for _ in range(n)] for _ in range(phi)] for _ in range(c.depth)]
    for i, row in enumerate(c.terms):
        for j, e, k, y in row:
            cells[e][k][i][j] = y
    a = np.array(cells, dtype=np.int64 if c.widest < 2**62 else object)
    bound = _coordinate_bound(m) * c.height
    x, mod = np.zeros((c.npoints, phi), dtype=object), 1
    for q in map(partial(_prime, m), count()):
        r = _coords_mod_q(a, m, q, c.npoints).astype(object)
        x += mod * ((r - x) * pow(mod, -1, q) % q)
        mod *= q
        if mod > 2 * bound + 1:
            break
    x[x > mod // 2] -= mod
    return LaurentPoly(dom, [_exit(dom, xs, c.scale) for xs in x.tolist()], c.shift)


def det_matrix(a, dom: Domain):
    """Exact determinant of a square matrix of dom elements, dispatched as
    det_poly_matrix."""
    return det_poly_matrix([[LaurentPoly(dom, [x]) for x in row] for row in a], dom)[0]


def det_poly_matrix(rows, dom: Domain) -> LaurentPoly:
    """Exact determinant of a square matrix of LaurentPoly over dom: det_sparse
    of its cells' nonzero terms."""
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    return det_sparse([[(e, j, v) for j, f in enumerate(row) for e, v in f.terms()]
                       for row in rows], dom)


def det_sparse(rows, dom: Domain) -> LaurentPoly:
    """Exact determinant over dom of the square matrix whose row i is the list
    rows[i] of its nonzero (exponent, column, value) entries, at most one per
    (exponent, column): by Kronecker substitution while n^2 * b * x * points
    is at most _KRONECKER_BITS, else by the multimodular engine."""
    n = len(rows)
    if not (dom is ZZ or dom is QQ or isinstance(dom, (PrimeField, CyclotomicField))):
        raise TypeError(f"no determinant engine for {dom.name}")
    if n <= 1:  # side 1 is its one cell, side 0 is 1
        return LaurentPoly.from_terms(dom, {e: v for e, _, v in rows[0]} if n else {0: dom.one()})
    c = _cleared(rows, dom)
    if c is None:
        return LaurentPoly.zero(dom)
    b = c.height.bit_length() + 1  # every coefficient is at most H < 2^(b - 1)
    x = n * (dom.degree - 1) + 1  # zeta-slots of the unreduced determinant; 1 for m = 1
    if n * n * b * x * c.npoints <= _KRONECKER_BITS:
        return _det_kronecker(c, dom, b, x)
    return _det_multimodular(c, dom)
