"""Alexander module, branched cyclic cover quotients, characters, and
epimorphism searches onto D_p, G(m,p|k) and Z/n x| A_{p,n}.

The module H = H_1 of the infinite cyclic cover is presented by the
Alexander matrix (`fox.alexander_fox_matrix`, the Fox walker under the
trivial 1 x 1 image) with one meridian's column deleted.  One function,
`deleted_column`, picks that column for every caller (the module, Delta_K,
the epimorphism searches and `reps.rep_metabelian`): the first generator with
phi = 1, else phi = -1, else phi != 0.  For a presentation with all phi = 1
it is column 0, and the j-th basis vector of the module is exactly the class
of g_{j+1} g_0^{-1}.  Delta_K is the determinant of the same deleted
matrix, read off the substitution walker's much smaller reduced matrix
(`fox.alexander_reduced_matrix`).  Finite quotients H/(t^k - 1) are integer
cokernels of the companion blow-up and carry the t-action with them, which
is what characters and orbit values are read from.

The three epimorphism searches are kernels of the same matrix: meridians
sent to (1, a_j) in Z/m x| A define a homomorphism exactly when the a_j solve
the Alexander matrix at t -> T, the action of Z/m on A = F_p^d (a Fox
coloring).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product as iproduct
from math import gcd, lcm

from .cyclo import CYC, cyclotomic_polynomial
from .domains import GF, ZZ, ExactDivisionError, is_prime
from .fox import alexander_fox_matrix, alexander_reduced_matrix
from .laurent import LaurentPoly
from .matrix import identity, mat_inverse, mat_mul, nullspace, rref, transpose
from .polydet import det_poly_matrix
from .presentation import KnotPresentation, PresentationError
from .snf import AbelianGroupStructure, cokernel_structure, resultant

_ENUM_CAP = 500_000
# largest rank * k of a cover: the side of a companion blow-up, whose SNF grows
# about as n^3, and for a Seifert matrix 2g * k, bounding the digits of M^k
_BLOWUP_CAP = 2048


# ------------------------------------------------------------ module objects

@dataclass(frozen=True)
class ModulePresentation:
    """Square presentation matrix of H over Z[t^±1]."""

    matrix: tuple  # tuple of tuples of LaurentPoly over ZZ

    @property
    def rank(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class SeifertData:
    v: tuple  # 2g x 2g integer Seifert matrix, as tuple of row tuples

    def __post_init__(self):
        n = len(self.v)
        if any(len(row) != n for row in self.v):
            raise ValueError("Seifert matrix must be square")

    @property
    def genus2(self) -> int:
        return len(self.v)

    def monodromy(self):
        """M = V^-1 V^t; only available when V is unimodular over Z."""
        try:
            inv = mat_inverse(ZZ, self.v)
        except ZeroDivisionError:
            raise ValueError("Seifert matrix is singular") from None
        except ExactDivisionError:
            raise ValueError(
                "monodromy route needs a unimodular Seifert matrix; "
                "use the module presentation route instead"
            ) from None
        return [list(row) for row in mat_mul(ZZ, inv, transpose(self.v))]

    def module_presentation(self) -> ModulePresentation:
        """H is presented by tV - V^t for any Seifert matrix V."""
        n = self.genus2
        rows = tuple(
            tuple(
                LaurentPoly(ZZ, {1: self.v[i][j], 0: -self.v[j][i]})
                for j in range(n)
            )
            for i in range(n)
        )
        return ModulePresentation(rows)

    def alexander_polynomial(self) -> LaurentPoly:
        return alexander_polynomial(self.module_presentation())


def parse_seifert_file(text: str) -> SeifertData:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(tuple(int(x) for x in line.split()))
    return SeifertData(tuple(rows))


def deleted_column(pres: KnotPresentation) -> int:
    """The meridian column the Alexander module deletes: the first generator
    with phi = 1, else phi = -1, else phi != 0 (phi is onto Z, so one is)."""
    for wanted in (1, -1):
        if wanted in pres.phi:
            return pres.phi.index(wanted)
    return next(i for i, v in enumerate(pres.phi) if v)


def alexander_module(pres: KnotPresentation) -> ModulePresentation:
    """Delete a meridional generator's column from the abelianized Fox matrix.

    The cokernel presents H only when the deleted generator has phi = ±1 (the
    remaining basis vectors are then the classes g_j g_base^(-phi_j)); a
    presentation without a meridional generator has no module route here.
    """
    if 1 not in pres.phi and -1 not in pres.phi:
        raise PresentationError("module presentation needs a generator with phi = ±1")
    col = deleted_column(pres)
    return ModulePresentation(tuple(row[:col] + row[col + 1:]
                                    for row in alexander_fox_matrix(pres)))


def alexander_polynomial(src) -> LaurentPoly:
    """Delta_K normalized to lowest exponent 0 and positive lowest coefficient.

    For a presentation, the deleted column has phi = e != 0: the deleted
    determinant is Delta * (t^e - 1)/(t - 1) up to units (phi is onto Z), and
    the cyclotomic cofactor 1 + t + ... + t^(|e|-1), which is 1 for a
    meridian, is divided back out.  The determinant is the substitution
    walker's reduced matrix's (`fox.alexander_reduced_matrix`), equal to the
    deleted Alexander matrix's up to the ±t^k that normalizing removes.
    """
    if isinstance(src, KnotPresentation):
        col = deleted_column(src)
        d = det_poly_matrix(alexander_reduced_matrix(src, col)[0], ZZ)
        cofactor = LaurentPoly(ZZ, {j: 1 for j in range(abs(src.phi[col]))})
        return normalize_integer_poly(d.exact_div(cofactor))
    if isinstance(src, SeifertData):
        src = src.module_presentation()
    d = det_poly_matrix([list(r) for r in src.matrix], ZZ)
    return normalize_integer_poly(d)


def normalize_integer_poly(f: LaurentPoly) -> LaurentPoly:
    if f.is_zero():
        return f
    f = f.shift(-f.low())
    if f.c[0] < 0:
        f = -f
    return f


# --------------------------------------------------------- finite quotients

@dataclass(frozen=True)
class FiniteQuotientModule:
    """H/(t^k - 1) as an integer cokernel plus the t-action on the ambient."""

    k: int
    structure: AbelianGroupStructure
    U: tuple          # SNF transform rows (ambient -> SNF coordinates)
    diag: tuple       # all diagonal entries of the SNF (1s and 0s included)
    taction: tuple    # ambient t-action matrix
    rank: int         # generator count of the source presentation
    source: str = "module"

    @property
    def ambient_dim(self) -> int:
        return len(self.U)

    def basis_vector(self, j: int, level: int = 0):
        v = [0] * self.ambient_dim
        if self.source == "module":
            v[j * self.k + (level % self.k)] = 1
        else:
            v[j] = 1
        return v

    def t_apply(self, vec, power: int = 1):
        v = list(vec)
        for _ in range(power % self.k):
            v = [sum(r * x for r, x in zip(row, v)) for row in self.taction]
        return v

    def snf_coords(self, vec):
        return [sum(r * x for r, x in zip(row, vec)) for row in self.U]


def _companion_blowup(mp: ModulePresentation, k: int):
    """Replace t by the k x k cyclic-shift matrix in the presentation matrix.

    The ambient lattice is generator space (basis v_j tensor t^l); column
    (i, l) is the relation t^l * rho_i expressed in that basis, so the integer
    cokernel of the column span is H/(t^k - 1) with usable coordinates.
    """
    r = mp.rank
    n = r * k
    out = [[0] * n for _ in range(n)]
    for i in range(r):
        for j in range(r):
            f = mp.matrix[i][j]
            for e, v in f.c.items():
                for l in range(k):
                    # t^(l+e) v_j coefficient of the column t^l rho_i
                    out[j * k + (l + e) % k][i * k + l] += v
    return out


def branched_cover_homology(src, k: int) -> FiniteQuotientModule:
    """H/(t^k - 1) with its abelian-group structure and t-action.

    Module route: companion blow-up of the presentation matrix, integer
    cokernel via Smith normal form.  Monodromy route (SeifertData with
    unimodular V): cokernel of id - M^k with M = V^-1 V^t.  Both refuse
    rank * k > _BLOWUP_CAP (rank 2g for Seifert data) before any allocation.
    """
    if k < 1:
        raise ValueError("cover degree must be >= 1")
    if isinstance(src, KnotPresentation):
        src = alexander_module(src)
    rank = src.genus2 if isinstance(src, SeifertData) else src.rank
    if rank * k > _BLOWUP_CAP:
        raise ValueError(
            f"cover blow-up too large: rank {rank} * k {k} = {rank * k} "
            f"exceeds the cap {_BLOWUP_CAP}")
    if isinstance(src, SeifertData):
        m = src.monodromy()
        n = len(m)
        mk = identity(ZZ, n)
        for _ in range(k):
            mk = mat_mul(ZZ, mk, m)
        a = [[(1 if i == j else 0) - mk[i][j] for j in range(n)] for i in range(n)]
        structure, U, diag = cokernel_structure(a)
        return FiniteQuotientModule(
            k, structure, tuple(tuple(r) for r in U), tuple(diag),
            tuple(tuple(r) for r in m), n, source="monodromy",
        )
    blow = _companion_blowup(src, k)
    structure, U, diag = cokernel_structure(blow)
    r = src.rank
    n = r * k
    t = [[0] * n for _ in range(n)]
    for j in range(r):
        for l in range(k):
            t[j * k + (l + 1) % k][j * k + l] = 1
    return FiniteQuotientModule(
        k, structure, tuple(tuple(row) for row in U), tuple(diag),
        tuple(tuple(row) for row in t), r, source="module",
    )


def order_from_alexander(delta: LaurentPoly, k: int) -> int:
    """|H/(t^k - 1)| = |Res(Delta, t^k - 1)|; 0 signals an infinite quotient."""
    f = delta.shift(-delta.low())
    coeffs, _ = f.coeff_list()
    tk = [-1] + [0] * (k - 1) + [1]
    return abs(resultant(coeffs, tk))


# ----------------------------------------------------------------- characters

@dataclass(frozen=True)
class CharComponent:
    quotient: FiniteQuotientModule
    zeta_exponents: tuple[int, ...]  # per SNF coordinate, exponent of zeta_m
    m: int

    def exponent_on(self, vec) -> int:
        coords = self.quotient.snf_coords(vec)
        return sum(c * e for c, e in zip(coords, self.zeta_exponents)) % self.m


@dataclass(frozen=True)
class Character:
    """Character on H factoring through finite quotients H/(t^k - 1).

    A product of components; each component evaluates through its own
    quotient.  Values are exact roots of unity in CYC(order lcm).
    """

    components: tuple[CharComponent, ...]

    @property
    def modulus(self) -> int:
        return lcm(*(c.m for c in self.components)) if self.components else 1

    @property
    def period(self) -> int:
        return lcm(*(c.quotient.k for c in self.components)) if self.components else 1

    def value_basis(self, j: int, shift: int = 0):
        """chi(t^shift v_j) in CYC(modulus)."""
        m = self.modulus
        F = CYC(m)
        e = 0
        for comp in self.components:
            vec = comp.quotient.basis_vector(j)
            vec = comp.quotient.t_apply(vec, shift)
            e += (m // comp.m) * comp.exponent_on(vec)
        return F.zeta(e % m)

    def mul(self, other: "Character") -> "Character":
        return Character(self.components + other.components)

    def is_trivial(self) -> bool:
        return all(all(e % c.m == 0 for e in c.zeta_exponents) for c in self.components)

    def table(self, rank: int):
        """Values chi(t^s v_j) as a tuple of tuples; the comparison key."""
        return tuple(
            tuple(self.value_basis(j, s) for s in range(self.period)) for j in range(rank)
        )

    def orbit_size(self, rank: int) -> int:
        base = self.table(rank)
        n = self.period
        for s in range(1, n + 1):
            if n % s:
                continue
            shifted = tuple(
                tuple(self.value_basis(j, t + s) for t in range(n)) for j in range(rank)
            )
            if shifted == base:
                return s
        return n


def characters_of_quotient(q: FiniteQuotientModule, m: int):
    """All homomorphisms from the finite quotient to mu_m, trivial included."""
    if m < 1:
        raise ValueError("target order must be >= 1")
    if q.structure.free_rank:
        raise ValueError("quotient is infinite; characters to mu_m not enumerable")
    choices = []
    for d in q.diag:
        if d in (0, 1):
            choices.append((0,))
        else:
            g = gcd(m, d)
            choices.append(tuple(j * (m // g) for j in range(g)))
    out = []
    for exps in iproduct(*choices):
        out.append(Character((CharComponent(q, tuple(exps), m),)))
    return out


def monodromy_orbit_values(s: SeifertData, e, n: int, chi: Character):
    """(chi(e), chi(Me), ..., chi(M^{n-1} e)) as exact CYC values.

    chi must be a character of a quotient built from the same Seifert data by
    the monodromy route; e is an ambient integer vector.
    """
    comp = chi.components[0]
    q = comp.quotient
    if q.source != "monodromy" or q.k != n:
        raise ValueError("character does not live on the degree-n monodromy quotient")
    if len(e) != q.ambient_dim:
        raise ValueError("class vector has the wrong dimension")
    m = chi.modulus
    F = CYC(m)
    out = []
    vec = list(e)
    for _ in range(n):
        ex = 0
        for c in chi.components:
            ex += (m // c.m) * c.exponent_on(vec)
        out.append(F.zeta(ex % m))
        vec = q.t_apply(vec)
    return out


# -------------------------------------------------------------- epi searches

@dataclass(frozen=True)
class DihedralData:
    """A nontrivial p-coloring: generator i gets x*y^(colors[i]) in D_p."""

    p: int
    colors: tuple[int, ...]


def _require_wirtinger(pres: KnotPresentation):
    if not pres.is_wirtinger_like():
        raise PresentationError(
            "epimorphism search needs a Wirtinger-like presentation (all phi = 1)"
        )


def _enumerate_span(basis, p: int):
    """Every F_p-combination of the basis vectors; refused above the cap."""
    dim = len(basis)
    if p**dim > _ENUM_CAP:
        raise ValueError(
            "coloring solution space too large to enumerate: "
            f"p^dim = {p}^{dim} = {p**dim} exceeds the cap {_ENUM_CAP}")
    for combo in iproduct(range(p), repeat=dim):
        v = [0] * len(basis[0])
        for c, b in zip(combo, basis):
            if c:
                v = [(x + c * y) % p for x, y in zip(v, b)]
        yield v


def find_dihedral_epis(pres: KnotPresentation, p0: int) -> list[DihedralData]:
    """All nontrivial p0-colorings up to translation and scaling.

    D_p0 = G(2, p0 | -1), so these are the metacyclic epimorphisms with
    m = 2 and k = -1: the colors solve the Alexander matrix at t = -1 mod p0.
    """
    if p0 < 3 or p0 % 2 == 0:
        raise ValueError("p0 must be an odd prime")
    GF(p0)  # validates primality
    return [DihedralData(p0, c) for c in find_metacyclic_epis(pres, 2, p0, p0 - 1)]


def _check_prime(p0: int) -> None:
    if not is_prime(p0):
        raise ValueError(f"p must be a prime, got {p0}")


def check_primitive_root(k: int, m: int, p: int, error: type = ValueError) -> None:
    """Raise `error` unless m >= 1 and k has multiplicative order exactly m mod p."""
    if m < 1:
        raise error(f"m must be >= 1, got {m}")
    if pow(k, m, p) != 1 or any(pow(k, l, p) == 1 for l in range(1, m)):
        raise error(f"{k} is not a primitive {m}-th root of unity mod {p}")


def find_metacyclic_epis(pres: KnotPresentation, m: int, p0: int, k: int):
    """Meridian assignments g_i -> x y^(c_i) in G(m, p0 | k), up to symmetry.

    G(m, p0 | k) = Z/m x| F_p0 with the generator of Z/m acting by k, so the
    colors c_i are the F_p0-valued solutions of the Alexander matrix at t = k.
    Each class is given with c_0 = 0 and first nonzero color 1.
    """
    _check_prime(p0)
    _require_wirtinger(pres)
    check_primitive_root(k, m, p0)
    return [tuple(chain.from_iterable(sol)) for sol in _kernel_epis(pres, p0, [[k % p0]], m)]


def apn_field(n: int, p0: int):
    """A_{p0,n} = F_p0[t]/(phi_n) as (degree, companion matrix columns)."""
    if gcd(n, p0) != 1:
        raise ValueError("n and p0 must be coprime")
    phi = cyclotomic_polynomial(n)
    coeffs, _ = phi.coeff_list()
    cm = [c % p0 for c in coeffs]
    d = len(cm) - 1
    # companion matrix of phi_n mod p0: t * e_i = e_{i+1}, t*e_{d-1} = -phi tail
    comp = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        comp[i + 1][i] = 1
    for i in range(d):
        comp[i][d - 1] = (-cm[i]) % p0
    return d, comp


def _apn_mul_matrix(poly_class, comp, p0):
    """Multiplication-by-a matrix on A for a = sum poly_class[e] * t^e."""
    d = len(comp)
    # columns: a * e_j
    cols = []
    for j in range(d):
        v = [0] * d
        v[j] = 1
        acc = [0] * d
        cur = v
        for e in range(len(poly_class)):
            c = poly_class[e]
            if c:
                acc = [(x + c * y) % p0 for x, y in zip(acc, cur)]
            cur = [sum(comp[i][l] * cur[l] for l in range(d)) % p0 for i in range(d)]
        cols.append(acc)
    return [[cols[j][i] for j in range(d)] for i in range(d)]


class _UnitTable(dict):
    """a -> u*a for one unit u of A (its matrix mu), filled as elements turn up."""

    def __init__(self, mu, p0):
        super().__init__()
        self.mu, self.p0 = mu, p0

    def __missing__(self, a):
        b = self[a] = tuple(sum(x * y for x, y in zip(row, a)) % self.p0 for row in self.mu)
        return b


def _kernel_epis(pres: KnotPresentation, p0: int, comp, order: int):
    """Meridian images (1, a_j) in Z/order x| A, A = F_p0^d with t acting by comp.

    The law (j, a)(j', a') = (j + j', a + t^j a') makes them the A-valued
    solutions of the Alexander matrix at t -> comp (comp^order = 1).  The
    constants always solve it (its rows sum to 0) and are the conjugation
    orbit of a_0 = 0, so the kernel of the module matrix (column 0 deleted)
    holds one solution per class.  Each nonzero one is reported as its least
    multiple by a unit of A.
    """
    d = len(comp)
    F = GF(p0)
    zero = [[0] * d] * d
    rows = []
    for r in alexander_module(pres).matrix:
        blocks = []
        for f in r:
            cls = [0] * order
            for e, c in f.c.items():
                cls[e % order] += c
            blocks.append(zero if f.is_zero() else _apn_mul_matrix(cls, comp, p0))
        rows.extend([x for b in blocks for x in b[i]] for i in range(d))
    basis = nullspace(F, rows, d * (pres.generator_count - 1))
    if not basis:
        return []
    units = [_UnitTable(mu, p0) for u in iproduct(range(p0), repeat=d) if any(u)
             for mu in [_apn_mul_matrix(u, comp, p0)] if len(rref(F, mu, d)[1]) == d]
    least = {}  # first nonzero a_j -> the units taking it to its least multiple
    out = set()
    for v in _enumerate_span(basis, p0):
        if not any(v):
            continue
        ais = [(0,) * d, *zip(*[iter(v)] * d)]
        first = next(a for a in ais if any(a))
        if first not in least:
            low = min(u[first] for u in units)
            least[first] = [u for u in units if u[first] == low]
        out.add(min(tuple(map(u.__getitem__, ais)) for u in least[first]))
    return sorted(out)


def find_zn_apn_epis(pres: KnotPresentation, n: int, p0: int):
    """Epimorphisms onto Z/n x| A_{p0,n} with meridians mapping to (1, a_i).

    The a_i are the A_{p0,n}-valued solutions of the Alexander matrix at
    t -> t mod phi_n, given with a_0 = 0 and as least multiples by units.
    """
    _check_prime(p0)
    _require_wirtinger(pres)
    if n < 2:
        raise ValueError("n must be >= 2")
    _, comp = apn_field(n, p0)
    return _kernel_epis(pres, p0, comp, n)
