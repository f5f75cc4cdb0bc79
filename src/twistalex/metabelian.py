"""Alexander module, branched cyclic cover quotients, characters, and
epimorphism searches onto D_p, G(m,p|k) and Z/n x| A_{p,n}.

The module H = H_1 of the infinite cyclic cover is presented by the
Alexander matrix (`fox.alexander_fox_matrix`, the Fox walker under the
trivial 1 x 1 image) with one meridian's column deleted.  One function,
`deleted_column`, picks that column for every caller (the module, Delta_K,
the epimorphism searches and `reps.rep_metabelian`): the first generator with
phi = 1, else phi = -1.  A presentation with neither (a torus knot's
<a, b | a^p = b^q>) gets one by a Tietze move first (`_with_meridian`).  For
a presentation with all phi = 1 it is column 0, and the j-th basis vector of
the module is exactly the class of g_{j+1} g_0^{-1}.  Delta_K is the
determinant of the same deleted matrix, read off the substitution walker's
much smaller reduced matrix (`reduced_module`, from
`fox.alexander_reduced_matrix`).  Finite quotients H/(t^k - 1) are integer
cokernels of the companion blow-up.  Their structure comes from the blow-up
of the reduced matrix, which presents the same module; characters and orbit
values are read through the SNF transform U of the full matrix's blow-up, in
whose basis the t-action is a cyclic shift, and that U is built only when a
character is first evaluated.  The presentation's memo
(`KnotPresentation.cached`) keeps what depends on it alone, each computed
once: the meridian copy, the full module, the reduced module (which Delta
and every cover degree k read), Delta, and the walker's plans.  The memo
dies with the presentation.

The three epimorphism searches are kernels of the same matrix: meridians
sent to (1, a_j) in Z/m x| A define a homomorphism exactly when the a_j solve
the Alexander matrix at t -> T, the action of Z/m on A = F_p^d (a Fox
coloring).  That target, A = F_p[t]/(f) with T the companion matrix of f, is
one class, `Target`, for D_p and G(m,p|k) (f = t - k) and for Z/n x| A_{p,n}
(f = Phi_n).  It also gives the permutation images that `reps` composes, and
only this module reads its companion matrix.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product as iproduct
from math import gcd, lcm, prod
from operator import mul

from .cyclo import (CYC, _TRIAL_CAP, _euler_phi, cyclotomic_polynomial, has_order,
                    is_cyclotomic_irreducible_mod_p)
from .domains import (GF, ZZ, ExactDivisionError, PrimeField, RepresentationError,
                      TwistalexError, odd_prime_field)
from .fox import alexander_fox_matrix, alexander_reduced_matrix
from .laurent import LaurentPoly
from .matrix import Monomial, identity, mat_inverse, mat_mul, nullspace, rref, transpose
from .polydet import det_poly_matrix
from .presentation import KnotPresentation, PresentationError
from .snf import AbelianGroupStructure, cokernel_structure, resultant
from .words import reduce_syllables

_ENUM_CAP = 500_000
# largest order m of G(m, p|k): a Target forms m companion powers up front
_ORDER_CAP = 100_000
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
            raise TwistalexError("Seifert matrix must be square")

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
                LaurentPoly(ZZ, [-self.v[j][i], self.v[i][j]])
                for j in range(n)
            )
            for i in range(n)
        )
        return ModulePresentation(rows)

    def alexander_polynomial(self) -> LaurentPoly:
        return alexander_polynomial(self.module_presentation())


def parse_seifert_file(text: str) -> SeifertData:
    rows = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = []
        for x in line.split():
            try:
                row.append(int(x))
            except ValueError:
                raise TwistalexError(f"Seifert matrix line {number}: entry {x!r} "
                                     "is not an integer") from None
        rows.append(tuple(row))
    return SeifertData(tuple(rows))


def deleted_column(pres: KnotPresentation) -> int:
    """The meridian column the Alexander module deletes: the first generator
    with phi = 1, else the first with phi = -1."""
    return pres.phi.index(1) if 1 in pres.phi else pres.phi.index(-1)


def _with_meridian(pres: KnotPresentation) -> KnotPresentation:
    """pres itself when a generator has phi = ±1; otherwise the Tietze move
    adding one generator m and the relator m^-1 w, where w is a word in the
    generators with phi(w) = 1 (Bezout on the phi values, which are onto Z),
    so m is a meridian.  The copy is made once and kept in pres's memo."""
    if 1 in pres.phi or -1 in pres.phi:
        return pres
    return pres.cached("meridian", _add_meridian)


def _add_meridian(pres: KnotPresentation) -> KnotPresentation:
    g, c = 0, []  # sum c_i phi_i = g, the gcd of the phi values so far
    for v in pres.phi:
        h = gcd(g, v)
        if h == g:  # g divides v
            c.append(0)
            continue
        a, b = g // h, v // h  # coprime: x a + y b = 1
        x = pow(a, -1, abs(b))
        c = [x * ci for ci in c] + [(1 - x * a) // b]
        g = h
    n = pres.generator_count
    name = "m"
    while name in pres.generator_names:
        name += "'"
    relator = reduce_syllables([(n, -1)] + [(i, e) for i, e in enumerate(c)])
    return KnotPresentation(pres.generator_names + (name,), pres.relators + (relator,),
                            pres.phi + (1,))


def alexander_module(pres: KnotPresentation) -> ModulePresentation:
    """Delete a meridian's column from the abelianized Fox matrix of
    `_with_meridian(pres)`; the remaining basis vectors are the classes
    g_j g_base^(-phi_j).  Computed once per presentation (its memo)."""
    return pres.cached("alexander module", _alexander_module)


def _alexander_module(pres: KnotPresentation) -> ModulePresentation:
    pres = _with_meridian(pres)
    col = deleted_column(pres)
    return ModulePresentation(tuple(row[:col] + row[col + 1:]
                                    for row in alexander_fox_matrix(pres)))


def alexander_polynomial(src) -> LaurentPoly:
    """Delta_K normalized to lowest exponent 0 and positive lowest coefficient.

    For a presentation it is the determinant of the Alexander matrix of
    `_with_meridian(src)` with the meridian's column deleted, read off the
    substitution walker's reduced matrix (`reduced_module`), equal to the
    deleted matrix's up to the ±t^k that normalizing removes.  It is
    computed once per presentation (its memo).
    """
    if isinstance(src, KnotPresentation):
        return src.cached("alexander polynomial",
                          lambda pres: alexander_polynomial(reduced_module(pres)))
    if isinstance(src, SeifertData):
        src = src.module_presentation()
    d = det_poly_matrix([list(r) for r in src.matrix], ZZ)
    return normalize_integer_poly(d)


def reduced_module(pres: KnotPresentation) -> ModulePresentation:
    """The substitution walker's reduced Alexander matrix of
    `_with_meridian(pres)` at its deleted column (`fox.alexander_reduced_matrix`):
    its pivots are units ±t^a, so it presents H, and its determinant is Delta
    up to ±t^k.  Delta and every cover degree read it; it is built once per
    presentation (its memo)."""
    return pres.cached("reduced module", _reduced_module)


def _reduced_module(pres: KnotPresentation) -> ModulePresentation:
    pres = _with_meridian(pres)
    rows, _ = alexander_reduced_matrix(pres, deleted_column(pres))
    return ModulePresentation(tuple(map(tuple, rows)))


def normalize_integer_poly(f: LaurentPoly) -> LaurentPoly:
    f = f.shift(-f.low())
    if f[0] < 0:
        f = -f
    return f


# --------------------------------------------------------- finite quotients

@dataclass(frozen=True)
class FiniteQuotientModule:
    """H/(t^k - 1) as an integer cokernel plus the t-action on the ambient.

    Module route: the ambient is generator space tensor Z[t]/(t^k - 1), basis
    vector v_j t^l at index j k + l, and t shifts each generator's k-block
    cyclically.  Monodromy route: the ambient is Z^2g and t acts by the
    monodromy M.  U, the SNF transform of the ambient relations, is given by
    the routes that compute it anyway; for a presentation it is built from the
    companion blow-up of `alexander_module(presentation)` the first time
    `snf_coords` needs it, so structure-only use never runs that SNF.
    """

    k: int
    structure: AbelianGroupStructure
    diag: tuple       # all diagonal entries of the SNF (1s and 0s included)
    rank: int         # generator count of the module presentation, or 2g
    presentation: KnotPresentation | None = None  # module route: the lazy U's source
    monodromy: tuple | None = None                # monodromy route: M as row tuples
    _U: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def ambient_dim(self) -> int:
        return self.rank * self.k if self.monodromy is None else self.rank

    @property
    def U(self) -> tuple:
        """SNF transform rows (ambient -> SNF coordinates)."""
        if self._U is None:
            blow = _companion_blowup(alexander_module(self.presentation), self.k)
            object.__setattr__(self, "_U", tuple(map(tuple, cokernel_structure(blow)[1])))
        return self._U

    def basis_vector(self, j: int):
        v = [0] * self.ambient_dim
        v[j * self.k if self.monodromy is None else j] = 1
        return v

    def t_apply(self, vec, power: int = 1):
        k = self.k
        p = power % k
        if self.monodromy is None:  # v_j t^l -> v_j t^(l + p)
            s = k - p
            return [x for j in range(0, len(vec), k) for x in (*vec[j + s:j + k], *vec[j:j + s])]
        v = list(vec)
        for _ in range(p):
            v = [sum(r * x for r, x in zip(row, v)) for row in self.monodromy]
        return v

    def snf_coords(self, vec):
        terms = [[x * row[i] for row in self.U] for i, x in enumerate(vec) if x]
        return [sum(c) for c in zip(*terms)] if terms else [0] * len(self.U)


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
            for e, v in enumerate(f.coeffs(), f.low()):
                for l in range(k):
                    # t^(l+e) v_j coefficient of the column t^l rho_i
                    out[j * k + (l + e) % k][i * k + l] += v
    return out


def branched_cover_homology(src, k: int) -> FiniteQuotientModule:
    """H/(t^k - 1) with its abelian-group structure and t-action.

    Module route: companion blow-up of a presentation matrix, integer cokernel
    via Smith normal form.  For a KnotPresentation that matrix is the
    substitution walker's reduced one (`reduced_module`, kept in the memo): its
    pivots are units ±t^a, so it presents the same module, and the SNF of the
    full blow-up is its own with rank * k - (seeds - 1) * k more 1s in front
    (the SNF is unique).  Monodromy route (SeifertData with unimodular V):
    cokernel of id - M^k with M = V^-1 V^t; any other V takes the module
    route on tV - V^t.  Every route refuses
    rank * k > _BLOWUP_CAP (rank 2g for Seifert data, the full module's rank
    for a presentation) before any allocation.
    """
    if k < 1:
        raise TwistalexError("cover degree must be >= 1")
    if isinstance(src, KnotPresentation):
        full = _with_meridian(src)
        rank = full.generator_count - 1
    else:
        rank = src.genus2 if isinstance(src, SeifertData) else src.rank
    if rank * k > _BLOWUP_CAP:
        raise TwistalexError(
            f"cover blow-up too large: rank {rank} * k {k} = {rank * k} "
            f"exceeds the cap {_BLOWUP_CAP}")
    if isinstance(src, SeifertData):
        try:
            m = src.monodromy()
        except ValueError:  # V is not unimodular: no monodromy, but tV - V^t presents H
            src = src.module_presentation()
        else:
            n = len(m)
            mk = identity(ZZ, n)
            for _ in range(k):
                mk = mat_mul(ZZ, mk, m)
            a = [[(1 if i == j else 0) - mk[i][j] for j in range(n)] for i in range(n)]
            structure, U, diag = cokernel_structure(a)
            return FiniteQuotientModule(k, structure, tuple(diag), n,
                                        monodromy=tuple(map(tuple, m)),
                                        _U=tuple(map(tuple, U)))
    if isinstance(src, ModulePresentation):
        structure, U, diag = cokernel_structure(_companion_blowup(src, k))
        return FiniteQuotientModule(k, structure, tuple(diag), rank, _U=tuple(map(tuple, U)))
    structure, _, diag = cokernel_structure(_companion_blowup(reduced_module(src), k))
    return FiniteQuotientModule(k, structure, (1,) * (rank * k - len(diag)) + tuple(diag),
                                rank, presentation=src)


def order_from_alexander(delta: LaurentPoly, k: int) -> int:
    """|H/(t^k - 1)| = |Res(Delta, t^k - 1)|; 0 signals an infinite quotient."""
    tk = [-1] + [0] * (k - 1) + [1]
    return abs(resultant(delta.coeffs(), tk))


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

    def _value(self, vecs):
        """The product over the components of zeta_(c.m)^(c's exponent on its
        ambient vector in vecs), in CYC(modulus)."""
        m = self.modulus
        e = sum((m // c.m) * c.exponent_on(v) for c, v in zip(self.components, vecs))
        return CYC(m).zeta(e % m)

    def value_basis(self, j: int, shift: int = 0):
        """chi(t^shift v_j) in CYC(modulus)."""
        return self._value(c.quotient.t_apply(c.quotient.basis_vector(j), shift)
                           for c in self.components)

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
        """The least s with chi(t^s x) = chi(x) for all x: each component's t
        acts with order dividing its k, which divides the period, so the
        table's rows are periodic and a shift by s is a rotation."""
        base = self.table(rank)
        n = self.period
        return next(s for s in range(1, n + 1)
                    if n % s == 0 and all(row[s:] + row[:s] == row for row in base))


class _Characters(Sequence):
    """The characters of a finite quotient to mu_m, read-only and in
    itertools.product order over the SNF coordinates: one Character is
    built per index or iteration step, and the count is prod gcd(m, d)."""

    def __init__(self, q: FiniteQuotientModule, m: int):
        self._q, self._m = q, m
        # per SNF coordinate, the exponents of zeta_m a character may take
        self._choices = [tuple(j * (m // g) for j in range(g))
                         for g in (1 if d in (0, 1) else gcd(m, d) for d in q.diag)]
        self._len = prod(map(len, self._choices))

    def __len__(self) -> int:
        return self._len

    def _make(self, exps) -> Character:
        return Character((CharComponent(self._q, tuple(exps), self._m),))

    def __getitem__(self, i):
        k = i + self._len if i < 0 else i
        if not 0 <= k < self._len:
            raise IndexError("character index out of range")
        exps = []
        for c in reversed(self._choices):  # the last coordinate varies fastest
            k, r = divmod(k, len(c))
            exps.append(c[r])
        return self._make(reversed(exps))

    def __iter__(self):
        return map(self._make, iproduct(*self._choices))


def characters_of_quotient(q: FiniteQuotientModule, m: int) -> Sequence:
    """All homomorphisms from the finite quotient to mu_m, trivial included,
    as a read-only sequence that builds each Character when it is read."""
    if m < 1:
        raise TwistalexError("target order must be >= 1")
    if q.structure.free_rank:
        raise TwistalexError("quotient is infinite; characters to mu_m not enumerable")
    return _Characters(q, m)


def monodromy_orbit_values(s: SeifertData, e, n: int, chi: Character):
    """(chi(e), chi(Me), ..., chi(M^{n-1} e)) as exact CYC values.

    chi must be a character of a quotient built from the same Seifert data by
    the monodromy route; e is an ambient integer vector.
    """
    comp = chi.components[0]
    q = comp.quotient
    if q.monodromy is None or q.k != n:
        raise ValueError("character does not live on the degree-n monodromy quotient")
    if len(e) != q.ambient_dim:
        raise ValueError("class vector has the wrong dimension")
    out = []
    vec = list(e)
    for _ in range(n):
        out.append(chi._value([vec] * len(chi.components)))
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
    """An iterator over every F_p-combination of the basis vectors; a span
    above the cap is refused by the call, before anything is enumerated."""
    dim = len(basis)
    if p**dim > _ENUM_CAP:
        raise TwistalexError(
            "coloring solution space too large to enumerate: "
            f"p^dim = {p}^{dim} = {p**dim} exceeds the cap {_ENUM_CAP}")

    def span():
        for combo in iproduct(range(p), repeat=dim):
            v = [0] * len(basis[0])
            for c, b in zip(combo, basis):
                if c:
                    v = [(x + c * y) % p for x, y in zip(v, b)]
            yield v
    return span()


def find_dihedral_epis(pres: KnotPresentation, p0: int) -> list[DihedralData]:
    """All nontrivial p0-colorings up to translation and scaling.

    D_p0 = G(2, p0 | -1), so these are the metacyclic epimorphisms with
    m = 2 and k = -1: the colors solve the Alexander matrix at t = -1 mod p0.
    """
    odd_prime_field(p0)
    return [DihedralData(p0, c) for c in find_metacyclic_epis(pres, 2, p0, p0 - 1)]


def find_metacyclic_epis(pres: KnotPresentation, m: int, p0: int, k: int):
    """Meridian assignments g_i -> x y^(c_i) in G(m, p0 | k), up to symmetry.

    G(m, p0 | k) = Z/m x| F_p0 with the generator of Z/m acting by k, so the
    colors c_i are the F_p0-valued solutions of the Alexander matrix at t = k.
    Each class is given with c_0 = 0 and first nonzero color 1.
    """
    _require_wirtinger(pres)
    target = Target.metacyclic(m, p0, k)
    return [tuple(chain.from_iterable(sol)) for sol in _kernel_epis(pres, target)]


def apn_budget(n: int, p0: int) -> None:
    """Refuse A_{p0,n} when its p0^phi(n) elements exceed _ENUM_CAP.  As
    phi(n) >= sqrt(n / 2), an n above 2 bits^2 = 722 (bits = 19, the cap's
    bit length) is refused without factoring it, and no power of a large
    phi(n) is formed."""
    bits = _ENUM_CAP.bit_length()
    if n > 2 * bits**2 or p0 ** min(_euler_phi(n), bits) > _ENUM_CAP:
        raise TwistalexError(f"A_{{{p0},{n}}} has {p0}^phi({n}) elements, above the cap {_ENUM_CAP}")


def _apn_field(n: int, p0: int) -> PrimeField:
    """GF(p0) once p0 is held to the conditions of A_{p0,n}: a prime coprime to n."""
    F = GF(p0)
    if gcd(n, p0) != 1:
        raise RepresentationError("n and p must be coprime")
    return F


def apn_irreducible(n: int, p0: int) -> bool:
    """Whether Phi_n is irreducible mod p0 (held to _apn_field), so that
    A_{p0,n} is a field.  The test factors n and phi(n); an n above cyclo's
    _TRIAL_CAP is first held to apn_budget, which refuses it without
    factoring.  A smaller n is tested first, so a reducible Phi_n is named."""
    _apn_field(n, p0)
    if n > _TRIAL_CAP:
        apn_budget(n, p0)
    return is_cyclotomic_irreducible_mod_p(n, p0)


def _mat_vec(mat, v, p: int) -> tuple:
    return tuple(sum(map(mul, row, v)) % p for row in mat)


class Target:
    """Z/order x| A, A = F_p[t]/(f) with f monic, of degree d, dividing
    t^order - 1 mod p: G(m, p|k) (`metacyclic`, f = t - k; D_p = G(2, p|-1))
    or Z/n x| A_{p,n} (`apn`, f = Phi_n).  A is F_p^d in the basis 1, t, ...,
    t^(d-1); t acts by the companion matrix of f, whose powers are formed
    once, so t^j and a multiplication matrix are one product each.  The
    element list (itertools.product order) is built when first read.  Each
    constructor builds GF(p), refusing a non-prime p, before its other checks;
    `metacyclic` refuses an order above _ORDER_CAP before that.
    """

    def __init__(self, order: int, F: PrimeField, f):
        p, d = F.p, len(f) - 1
        self.order, self.F, self.p, self.d = order, F, p, d
        # t e_i = e_(i+1) and t e_(d-1) = -(f_0 e_0 + ... + f_(d-1) e_(d-1))
        self.companion = tuple(tuple(-f[i] % p if j == d - 1 else int(i == j + 1)
                                     for j in range(d)) for i in range(d))
        powers = [tuple(tuple(int(i == j) for j in range(d)) for i in range(d))]
        for _ in range(order - 1):  # the columns of t^(e+1) are t times those of t^e
            powers.append(tuple(zip(*(_mat_vec(self.companion, col, p)
                                      for col in zip(*powers[-1])))))
        self._powers = powers

    @classmethod
    def metacyclic(cls, m: int, p: int, k: int) -> "Target":
        """G(m, p|k) = Z/m x| F_p, 1 in Z/m acting by k; needs 1 <= m <=
        _ORDER_CAP and k of multiplicative order exactly m mod p, which is
        tested from the primes of m alone."""
        if m > _ORDER_CAP:
            raise RepresentationError(f"m = {m} is above the cap _ORDER_CAP = {_ORDER_CAP} "
                                      "for the order of G(m,p|k)")
        F = GF(p)
        if m < 1:
            raise RepresentationError(f"m must be >= 1, got {m}")
        if not has_order(k, m, p):
            raise RepresentationError(f"{k} is not a primitive {m}-th root of unity mod {p}")
        return cls(m, F, (-k % p, 1))

    @classmethod
    def apn(cls, n: int, p: int) -> "Target":
        """Z/n x| A_{p,n}, A_{p,n} = F_p[t]/(Phi_n), held to apn_budget."""
        F = _apn_field(n, p)
        apn_budget(n, p)
        return cls(n, F, [c % p for c in cyclotomic_polynomial(n).coeffs()])

    def t(self, v, j: int) -> tuple:
        """t^j v, j read mod the order."""
        return _mat_vec(self._powers[j % self.order], v, self.p)

    def dual(self, u) -> tuple:
        """The transpose action on additive characters: u . (t v) = dual(u) . v."""
        return _mat_vec(zip(*self.companion), u, self.p)

    def mul_matrix(self, terms) -> tuple:
        """The matrix on A of multiplication by sum c t^e over the (e, c)
        terms, e read mod the order (t^order = 1 on A)."""
        terms = [(c, self._powers[e % self.order]) for e, c in terms if c]
        return tuple(tuple(sum(c * tp[i][j] for c, tp in terms) % self.p for j in range(self.d))
                     for i in range(self.d))

    def units(self) -> list:
        """The multiplication matrices of the units of A."""
        d = self.d
        return [mu for u in iproduct(range(self.p), repeat=d) if any(u)
                for mu in [self.mul_matrix(enumerate(u))] if len(rref(self.F, mu, d)[1]) == d]

    @cached_property
    def elements(self) -> list:
        return list(iproduct(range(self.p), repeat=self.d))

    def image(self, j: int, a) -> Monomial:
        """(j, a) acting on the basis e_v, v in A: e_v -> e_(t^j v + a).  The
        index of w in the element list is w read as a base-p numeral."""
        tj, p, index = self._powers[j % self.order], self.p, [0] * len(self.elements)
        for row, y in zip(tj, a):  # one digit of every t^j v + a
            index = [i * p + (sum(map(mul, row, v)) + y) % p for i, v in zip(index, self.elements)]
        return Monomial.permutation(ZZ, tuple(index))


class _UnitTable(dict):
    """a -> u*a for one unit u of A (its matrix mu), filled as elements turn up."""

    def __init__(self, mu, p0):
        super().__init__()
        self.mu, self.p0 = mu, p0

    def __missing__(self, a):
        b = self[a] = _mat_vec(self.mu, a, self.p0)
        return b


def _kernel_epis(pres: KnotPresentation, target: Target):
    """Meridian images (1, a_j) in the target Z/order x| A.

    The law (j, a)(j', a') = (j + j', a + t^j a') makes them the A-valued
    solutions of the Alexander matrix at t -> the companion matrix.  The
    constants always solve it (its rows sum to 0) and are the conjugation
    orbit of a_0 = 0, so the kernel of the module matrix (column 0 deleted)
    holds one solution per class.  Each nonzero one is reported as its least
    multiple by a unit of A; that normalization is refused when p^dim * |units|
    exceeds _ENUM_CAP, after the span itself is held to the cap.
    """
    d, p0 = target.d, target.p
    zero = [[0] * d] * d
    rows = []
    for r in alexander_module(pres).matrix:
        blocks = [zero if f.is_zero() else target.mul_matrix(f.terms()) for f in r]
        rows.extend([x for b in blocks for x in b[i]] for i in range(d))
    basis = nullspace(target.F, rows, d * (pres.generator_count - 1))
    if not basis:
        return []
    span, units = _enumerate_span(basis, p0), target.units()
    work = p0 ** len(basis) * len(units)
    if work > _ENUM_CAP:
        raise TwistalexError(
            "unit normalization too large: p^dim * |units| = "
            f"{p0}^{len(basis)} * {len(units)} = {work} exceeds the cap {_ENUM_CAP}")
    units = [_UnitTable(mu, p0) for mu in units]
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


def find_zn_apn_epis(pres: KnotPresentation, n: int, p0: int):
    """Epimorphisms onto Z/n x| A_{p0,n} with meridians mapping to (1, a_i).

    The a_i are the A_{p0,n}-valued solutions of the Alexander matrix at
    t -> t mod phi_n, given with a_0 = 0 and as least multiples by units.
    """
    _require_wirtinger(pres)
    if n < 2:
        raise TwistalexError("n must be >= 2")
    return _kernel_epis(pres, Target.apn(n, p0))
