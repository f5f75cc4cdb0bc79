"""Exact determinants of matrices of Laurent polynomials.

Negative exponents are cleared by rows and then by columns: each row's lowest
exponent, then each column's lowest left after that, is subtracted as the
cells are filled, and the total restored at the end.  One
engine computes every determinant above the cofactor sizes below: multimodular
evaluation/interpolation over Z[zeta_m][t], for ZZ, QQ and GF(p) (as m = 1)
and for the cyclotomic fields Q(zeta_m), the only coefficient domains the
package defines.  Any other domain is a TypeError.  A small matrix is
expanded by cofactors (det_cofactor): every side up to 3, and side 4 over ZZ
and GF(p).  Warm, on matrices of linear polynomials (2 vCPU, Python 3.11.7,
numpy 2.4.6), a 3 x 3 took 0.12-0.13 ms in the engine against 0.03-0.04 ms
by cofactors over ZZ and GF(p) and 0.08-0.12 ms over QQ.  Over Q(zeta_12)
and Q(zeta_20) it took 0.12-0.17 ms both ways with ±zeta^k coefficients (a
representation's values), and 0.13-0.16 ms in the engine against
0.15-0.25 ms by cofactors with dense ones; no workload pass got faster when
its Q(zeta_m) 3 x 3s took the engine.  A 4 x 4 over ZZ or GF(p) took
0.15-0.16 ms against 0.12-0.17 ms, over QQ 0.15-0.16 ms against 0.39-0.52 ms
and over Q(zeta_m) 0.17-0.21 ms against 0.95-1.64 ms (README, Notes).
det_matrix (constant entries) takes the same
route, and det_cofactor is also the brute-force test oracle.  (Wada
denominators of monomial images never get here: twisted reads them off the
permutation's cycles.)  numpy is imported when the engine first reads it
(`np` stands in for it until then), so a process that only expands small
matrices, such as one computing Delta_K and branched covers of small knots,
never loads it.

The multimodular engine (_det_multimodular).  With the exponents cleared,
entry (i, j) has degree at most tops[i][j], and the determinant's degree is
at most both sum_i max_j tops[i][j] and sum_j max_i tops[i][j]; the engine
evaluates at one point more than the smaller sum (a zero row or column is a
zero determinant).  Each row is scaled by one lcm
of the denominators of its coefficients (a Q(zeta_m) element is its nonzero
(index, integer numerator) pairs over one denominator, read here, and is
built again from the dense coordinates by `cyclo._normal` at the exit), so
the matrix lies over Z[zeta_m][t].  A word-size prime q = 1 (mod m) splits
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
and Gerhard, Modern Computer Algebra, ch. 5).  _newton runs both stages on
the values; run on the identity, it builds each table once per prime, grown
to the next power of two up to _TABLE_POINTS, and _interpolate is then
T[:k, :k] @ (D[:k, :k] @ ys) mod q; above _TABLE_POINTS points _newton runs
on the values.  CRT across the primes, into the symmetric
range, gives the exact integer coordinates; the row scales and the t-shift
are then undone.  GF(p) entries are lifted to
0..p-1, so their determinant is the integer one reduced mod p.  A matrix
whose elimination work side^3 * points * phi(m) is above _WORK_CAP is
refused before its cells are built.

Certification.  Let c in Z[zeta_m] be a coefficient of the scaled
determinant and iota any complex embedding.  |iota(zeta)| = 1, so
|iota(a)| <= ||a||_1 (the l1-norm of the coordinates), and expanding the
permutation sum inside prod_rows (sum of the row's ||coefficient||_1) gives
|iota(c)| <= H := prod_rows sum_{entries, exponents} ||coefficient||_1.
With {beta_j} the trace-dual basis of {zeta^j} (Tr(zeta^i beta_j) = delta_ij),
the coordinates of c are x_j = Tr(c beta_j) = sum_iota iota(c) iota(beta_j),
so |x_j| <= H * phi(m) * ||beta_j||_1 <= C_m * H with
C_m = phi(m) * max_j ||beta_j||_1.  By Euler's formula beta_j = b_j /
Phi_m'(zeta), where Phi_m(x) / (x - zeta) = sum b_j x^j (Serre, Local
Fields, III.6), and C_m is an exact rational computed once per m
(_coordinate_bound).  C_1 = 1, so over ZZ the bound is the classical prod
of row l1-norms; C_12, C_20, C_28, C_76 = 2, 4, 6, 18.  Primes
are taken until their product exceeds 2 C_m H + 1, so the symmetric CRT
residue is the coordinate itself: no heuristic stopping.  Primes lie below
2^31, so every product of two residues fits in int64; a product with a
table (V, V^-1, D or T) splits the table into 16-bit halves (_mul_mod).

Wada numerators and Delta_K come from the substitution walker's reduced
matrices (`fox.reduced_fox_matrix`), (seeds - 1) n square: on the benchmark
workloads at most 15 x 15 over ZZ, GF(p) and small cyclotomic fields
(`conjecture-sweep`) and 6 x 6 over Q(zeta_12..28) (`cyclotomic-wada`),
with more evaluation points per row than the full Fox minors they replace.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
from math import gcd, isqrt, lcm

from .cyclo import CYC, CyclotomicField, _normal, cyclotomic_polynomial, has_order
from .domains import Domain, PrimeField, QQ, TwistalexError, ZZ, is_prime
from .laurent import LaurentPoly, poly_divmod

# int64 cells per batched evaluation/elimination chunk (512 KiB): bounds the
# peak memory of the engine whatever the matrix size and number of points
_CHUNK_CELLS = 1 << 16
# the most points interpolated through the cached Newton tables (_interpolate),
# so each of a prime's four table halves (D and T, lo and hi) holds at most
# _CHUNK_CELLS cells
_TABLE_POINTS = isqrt(_CHUNK_CELLS)
# the largest side det_poly_matrix expands by cofactors: over ZZ and GF(p),
# and over QQ and Q(zeta_m), whose products cost more (timings in the module doc)
_COFACTOR_SIDE_INTEGRAL = 4
_COFACTOR_SIDE = 3
# the largest side^3 * points * phi(m) the engine takes on: its elimination
# work per prime.  Every test, script and benchmark input stays below 6.4e6;
# metacyclic p = 53 on 3_1 is 1.6e7 and takes 1.0 s
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
def _coordinate_bound(m: int) -> Fraction:
    """C_m = phi(m) * max_j ||beta_j||_1, {beta_j} trace-dual to {zeta_m^j}:
    beta_j = b_j / Phi_m'(zeta), and Phi_m'(zeta) = sum b_j zeta^j."""
    F = CYC(m)
    b, _ = poly_divmod(F, [F.coerce(c) for c in cyclotomic_polynomial(m).coeffs()],
                       [F.neg(F.zeta(1)), F.one()])
    inv = F.inv(F.dot(b, [F.zeta(j) for j in range(len(b))]))
    return F.degree * max(sum(map(abs, F.coords(F.mul(bj, inv)))) for bj in b)


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


def _newton(ys: np.ndarray, q: int, divide: bool = True, expand: bool = True) -> np.ndarray:
    """Coefficients mod q of the polys with values ys[x] at x = 0..len(ys)-1.

    Newton interpolation; ys is (points, k), one poly per column.  Each
    stage is a triangular matrix whose leading blocks do not depend on the
    number of points: divided differences D (divide) and the Newton form to
    the power basis T (expand).  Run on the identity, a stage gives its table.
    """
    k = len(ys)
    dd = ys.copy()
    if divide:
        for level in range(1, k):
            # equally spaced points: x_i - x_{i-level} = level at every i
            dd[level:] = (dd[level:] - dd[level - 1 : -1]) * pow(level, -1, q) % q
    if not expand:
        return dd
    coeffs = np.zeros_like(dd)
    basis = np.ones(1, dtype=np.int64)  # prod_{i<j}(t - i)
    for j in range(k):
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
    """_newton(ys, q) as T[:k, :k] @ (D[:k, :k] @ ys), k = len(ys), from split
    tables built once per prime and grown to the next power of two; above
    _TABLE_POINTS points _newton runs on the values themselves."""
    k = len(ys)
    if k > _TABLE_POINTS:
        return _newton(ys, q)
    tables = _newton_tables.get(q)
    if tables is None or tables.shape[-1] < k:
        eye = np.eye(1 << (k - 1).bit_length(), dtype=np.int64)
        tables = _newton_tables[q] = np.stack((_split(_newton(eye, q, expand=False)),
                                               _split(_newton(eye, q, divide=False))))
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


def _det_multimodular(rows, dom: Domain) -> LaurentPoly:
    """Exact determinant over ZZ, QQ, GF(p) or Q(zeta_m); see the module doc."""
    n = len(rows)
    if n == 0:
        return LaurentPoly.one(dom)
    cyclo = isinstance(dom, CyclotomicField)
    m = dom.m if cyclo else 1
    phi = dom.degree if cyclo else 1
    # each row's lowest exponent, then each column's lowest left after it, is
    # cleared; tops[i][j] is then entry (i, j)'s highest exponent, and the
    # determinant's degree is at most both the sum of the rows' highest
    # exponents and the sum of the columns'
    lows = [min((f.low() for f in row if not f.is_zero()), default=None) for row in rows]
    if None in lows:
        return LaurentPoly.zero(dom)  # a zero row
    col_lows = [min((row[j].low() - lo for row, lo in zip(rows, lows) if not row[j].is_zero()),
                    default=None) for j in range(n)]
    if None in col_lows:
        return LaurentPoly.zero(dom)  # a zero column
    tops = [[f.deg() - lo - c if not f.is_zero() else 0 for f, c in zip(row, col_lows)]
            for row, lo in zip(rows, lows)]
    row_tops = list(map(max, tops))
    npoints = min(sum(row_tops), sum(map(max, zip(*tops)))) + 1  # the degree bound, plus one
    work = n**3 * npoints * phi
    if work > _WORK_CAP:
        raise TwistalexError(f"determinant work side^3 * points * phi = {n}^3 * {npoints} * "
                             f"{phi} = {work} is above the cap _WORK_CAP = {_WORK_CAP}")
    cells = [[[[0] * n for _ in range(n)] for _ in range(phi)] for _ in range(max(row_tops) + 1)]
    bound, scale, widest = _coordinate_bound(m), 1, 0
    for i, (row, lo) in enumerate(zip(rows, lows)):
        # the row's (column, exponent, (pairs, den)) terms: a Q(zeta_m)
        # element's nonzero (index, numerator) pairs over its den, and a
        # rational v the one pair (0, v.numerator)
        terms = [(j, e - lo - col_lows[j], v if cyclo else (((0, v.numerator),), v.denominator))
                 for j, f in enumerate(row) for e, v in enumerate(f.coeffs(), f.low())]
        l = lcm(*(den for _, _, (_, den) in terms))
        norm = 0  # the row's l1-norm, at least each of its coordinates
        for j, e, (pairs, den) in terms:
            lift = l // den
            for k, y in pairs:
                y *= lift
                cells[e][k][i][j] = y
                norm += abs(y)
        scale *= l
        bound *= norm
        widest = max(widest, norm)
    a = np.array(cells, dtype=np.int64 if widest < 2**62 else object)
    x, mod = np.zeros((npoints, phi), dtype=object), 1
    for q in map(partial(_prime, m), count()):
        r = _coords_mod_q(a, m, q, npoints).astype(object)
        x += mod * ((r - x) * pow(mod, -1, q) % q)
        mod *= q
        if mod > 2 * bound + 1:
            break
    x[x > mod // 2] -= mod
    return LaurentPoly(dom, [_normal(xs, scale) if cyclo else dom.coerce(Fraction(xs[0], scale))
                             for xs in x.tolist()], sum(lows) + sum(col_lows))


def det_matrix(a, dom: Domain):
    """Exact determinant of a square matrix of dom elements, dispatched as
    det_poly_matrix: a small one is expanded by cofactors."""
    return det_poly_matrix([[LaurentPoly(dom, [x]) for x in row] for row in a], dom)[0]


def det_poly_matrix(rows, dom: Domain) -> LaurentPoly:
    """Exact determinant of a square matrix of LaurentPoly over dom."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    if not (dom is ZZ or dom is QQ or isinstance(dom, (PrimeField, CyclotomicField))):
        raise TypeError(f"no determinant engine for {dom.name}")
    integral = dom is ZZ or isinstance(dom, PrimeField)
    if n <= (_COFACTOR_SIDE_INTEGRAL if integral else _COFACTOR_SIDE):
        return det_cofactor(rows, dom)
    return _det_multimodular(rows, dom)
