"""Representation constructors and combinators.

Everything built here is monomial (permutation blocks times diagonal scalings)
until a conjugation makes it dense, so word evaluation and relator checks stay
linear in the dimension.  A block image is built in one step, as
`Monomial(perm, scales)`.  Constructors attached to a presentation verify
every relator at build time; `rep_mod_p` is `convert_domain(GF(p))` under
that check.

The dihedral, metacyclic and gamma representations and the gamma summands
read Z/m x| A, its t-action and its permutation images from one
`metabelian.Target`.

Each rep caches the image of every word prefix it has evaluated, so the
relator check fills the cache that the Fox walker reads (it starts every
syllable from a relator prefix).  A conjugated rep P^-1 rho P receives its
inverse images as P^-1 rho(g)^-1 P from the base rep, so no generator is
inverted over the dense field.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

from . import words
from .cyclo import CYC, CyclotomicField
from .domains import (Domain, ExactDivisionError, GF, QQ, RepresentationError, ZZ, convert,
                      domain_join, odd_prime_field)
from .matrix import (Dense, Monomial, as_monomial, direct_sum, gen_inv, gen_mul, identity,
                     kron, mat_convert, mat_eq, mat_mul, to_dense)
from .metabelian import (Character, DihedralData, Target, apn_irreducible,
                         branched_cover_homology, characters_of_quotient,
                         deleted_column, find_zn_apn_epis)
from .polydet import det_matrix
from .presentation import KnotPresentation


class Representation:
    """Finite-dimensional exact-matrix assignment to the generators."""

    def __init__(self, dim: int, dom: Domain, images: dict, pres: KnotPresentation,
                 label: str = "", check: bool = True, inverses: dict | None = None,
                 dets: tuple | None = None):
        self.dim = dim
        self.dom = dom
        self.images = images
        self.pres = pres
        self.label = label
        self._inv_cache: dict = dict(inverses or {})
        self._dets = dets
        self._word_cache: dict = {}
        if check:
            bad = self.failing_relator()
            if bad is not None:
                raise RepresentationError(
                    f"relator does not map to the identity under {label or 'representation'}"
                )

    # ------------------------------------------------------------ evaluation
    def image_of_gen(self, g: int, e: int):
        if e >= 0:
            base = self.images[g]
        else:
            base = self._inv_cache.get(g)
            if base is None:
                base = gen_inv(self.dom, self.images[g])
                self._inv_cache[g] = base
        out = None
        for _ in range(abs(e)):
            out = base if out is None else gen_mul(self.dom, out, base)
        return out

    def image_of_word(self, w: words.Word):
        """rho(w), extending the longest prefix of w already evaluated one
        syllable at a time and caching every new prefix (images never change,
        so the cache cannot go stale).  A word P g^e whose neighbour P g^(e-1)
        is cached, e != 1, is that image times rho(g): the Fox walker asks for
        P g^e, P g^(e+1), ... inside a syllable, one product each."""
        cache = self._word_cache
        if w and w[-1][1] != 1 and w not in cache:
            g, e = w[-1]
            prev = cache.get(w[:-1] + ((g, e - 1),))
            if prev is not None:
                cache[w] = gen_mul(self.dom, prev, self.image_of_gen(g, 1))
        k = len(w)
        while k and w[:k] not in cache:
            k -= 1
        out = cache[w[:k]] if k else None
        for i in range(k, len(w)):
            img = self.image_of_gen(*w[i])
            out = img if out is None else gen_mul(self.dom, out, img)
            cache[w[:i + 1]] = out
        return Monomial.identity(self.dom, self.dim) if out is None else out

    def failing_relator(self):
        for r in self.pres.relators:
            img = self.image_of_word(r)
            if isinstance(img, Monomial):
                if not img.is_identity(self.dom):
                    return r
            elif not mat_eq(self.dom, to_dense(self.dom, img), identity(self.dom, self.dim)):
                return r
        return None

    # ------------------------------------------------------------ invariants
    def det_image_generators(self):
        """Determinants of the generator images, in generator order; they
        generate the det subgroup.  Computed once: images never change."""
        if self._dets is None:
            self._dets = tuple(img.det(self.dom) if isinstance(img, Monomial)
                               else det_matrix(img, self.dom)
                               for img in map(self.images.get, sorted(self.images)))
        return self._dets

    # ----------------------------------------------------------- combinators
    def conjugate(self, pmat: Dense) -> "Representation":
        """P^-1 rho P.  Its inverse images are P^-1 rho(g)^-1 P, from this
        rep's cached inverses, so no field inversion runs per generator, and
        its generator determinants are this rep's (det P^-1 A P = det A)."""
        dom = self.dom
        pinv = to_dense(dom, gen_inv(dom, pmat))
        pmat = to_dense(dom, pmat)

        def conj(img):
            return mat_mul(dom, mat_mul(dom, pinv, to_dense(dom, img)), pmat)

        images = {g: conj(img) for g, img in self.images.items()}
        inverses = {g: conj(self.image_of_gen(g, -1)) for g in self.images}
        return Representation(self.dim, dom, images, self.pres,
                              label=f"conj({self.label})", inverses=inverses,
                              dets=self.det_image_generators())

    def convert_domain(self, dst: Domain) -> "Representation":
        images = {}
        for g, img in self.images.items():
            if isinstance(img, Monomial):
                images[g] = img.convert(self.dom, dst)
            else:
                images[g] = mat_convert(img, self.dom, dst)
        return Representation(self.dim, dst, images, self.pres, label=self.label, check=False)


# ------------------------------------------------------- simple constructors

def rep_trivial(pres: KnotPresentation, dom: Domain = ZZ) -> Representation:
    images = {g: Monomial.identity(dom, 1) for g in range(pres.generator_count)}
    return Representation(1, dom, images, pres, label="trivial")


def rep_onedim(pres: KnotPresentation, z, dom: Domain | None = None) -> Representation:
    """Every generator maps to [z^phi(g)] (z on the meridians)."""
    if dom is None:
        dom = ZZ if isinstance(z, int) else QQ if isinstance(z, Fraction) else None
        if dom is None:
            raise TypeError("pass the coefficient domain for non-rational z")
    z = dom.coerce(z) if isinstance(z, (int, Fraction)) else z
    try:
        dom.inv(z)
    except (ExactDivisionError, ZeroDivisionError):
        raise RepresentationError(f"z = {dom.to_str(z)} is not a unit of {dom.name}") from None
    images = {g: Monomial((0,), (dom.pow(z, e),)) for g, e in enumerate(pres.phi)}
    return Representation(1, dom, images, pres, label="onedim")


# ------------------------------------------------- dihedral and metacyclic

def rep_metacyclic(pres: KnotPresentation, m: int, p: int, k: int, colors,
                   label: str = "") -> Representation:
    """The p-dimensional permutation representation of an epimorphism onto
    G(m,p|k): generator g_i -> x^e y^c, e = phi(g_i) and c = colors[i], which
    acts on Z/p by n -> k^e (n - c), the target's image of (e, -k^e c)."""
    target = Target.metacyclic(m, p, k)
    if len(colors) != pres.generator_count:
        raise RepresentationError("one color per generator required")
    images = {g: target.image(e, target.t((-c,), e))
              for g, (e, c) in enumerate(zip(pres.phi, colors))}
    return Representation(p, ZZ, images, pres,
                          label=label or f"metacyclic(m={m},p={p},k={k})")


def rep_dihedral(pres: KnotPresentation, data: DihedralData) -> Representation:
    """D_p = G(2, p | -1); generator g_i -> x y^(c_i) as a permutation of Z/p."""
    odd_prime_field(data.p)
    return rep_metacyclic(pres, 2, data.p, -1 % data.p, data.colors,
                          label=f"dihedral(p={data.p})")


# --------------------------------------------------------------- gamma reps

def rep_gamma_compose(pres: KnotPresentation, n: int, p0: int, assignment) -> Representation:
    """gamma, Z/n x| A_{p0,n} acting on the free Z-module with basis A_{p0,n},
    composed with the epimorphism sending meridian i to (1, a_i)."""
    target = Target.apn(n, p0)
    if len(assignment) != pres.generator_count:
        raise RepresentationError("one A-element per generator required")
    if any(len(a) != target.d for a in assignment):
        raise RepresentationError(f"an element of A_{{{p0},{n}}} has {target.d} coordinates")
    images = {g: target.image(pres.phi[g], assignment[g]) for g in range(pres.generator_count)}
    return Representation(len(target.elements), ZZ, images, pres, label=f"gamma(p={p0},n={n})")


class GammaSummand:
    """One block of the complex splitting of gamma: either the trivial line or
    the n-dimensional block induced from an additive character orbit."""

    def __init__(self, target: Target, u, dom: CyclotomicField):
        self.target = target
        self.u = u  # None for the trivial summand
        self.dom = dom
        self.dim = 1 if u is None else target.order

    def _chi(self, v):
        """Additive character chi_u(v) = zeta_p^(u . v)."""
        e = sum(x * y for x, y in zip(self.u, v)) % self.target.p
        return self.dom.zeta(e * (self.dom.m // self.target.p))

    def image(self, j: int, a) -> Monomial:
        if self.u is None:
            return Monomial.identity(self.dom, 1)
        n = self.target.order
        # z = 1 block: cyclic shift^j times diag(chi(t^(-i-j) a)); the i+j
        # twist is what makes this a homomorphism for the composition law
        # (j,a)(j',a') = (j+j', a + t^j a') used by the epimorphism solver
        return Monomial(tuple((i + j) % n for i in range(n)),
                        tuple(self._chi(self.target.t(a, -i - j)) for i in range(n)))


def gamma_summands(p: int, n: int):
    """gamma_0, gamma_1, ..., gamma_l over CYC(p); needs phi_n irreducible mod p."""
    if not apn_irreducible(n, p):
        raise RepresentationError(f"phi_{n} is reducible mod {p}; the Z/{n}-action "
                                  "on characters need not be free")
    target = Target.apn(n, p)
    dom = CYC(p)
    # orbits of the dual t-action on the nonzero additive characters u
    seen = set()
    reps = []
    for u in target.elements:
        if not any(u) or u in seen:
            continue
        orbit = [u]
        for _ in range(n - 1):
            orbit.append(target.dual(orbit[-1]))
        if len(set(orbit)) != n:
            raise RepresentationError("character orbit is not free")
        seen.update(orbit)
        reps.append(u)
    out = [GammaSummand(target, None, dom)]
    out.extend(GammaSummand(target, u, dom) for u in reps)
    return out


def summand_compose(pres: KnotPresentation, summand: GammaSummand, assignment) -> Representation:
    images = {
        g: summand.image(pres.phi[g], assignment[g]) for g in range(pres.generator_count)
    }
    return Representation(summand.dim, summand.dom, images, pres,
                          label=f"gamma_summand(p={summand.target.p},n={summand.target.order})")


# --------------------------------------------------------- metabelian blocks

# The h-classes of Wirtinger generators are read off from the Alexander-module
# presentation with the base meridian's column deleted; conjugation by the
# base meridian acts as multiplication by t on that module.  (Both t and t^-1
# conventions define the same representation theory; this one passes the
# relator check, which pins it.)

def default_sl_z(n: int, dom: CyclotomicField):
    """A deterministic z with z^n = (-1)^(n+1): zeta_2n for even n, 1 for odd."""
    if n % 2 == 0:
        return dom.zeta(dom.m // (2 * n))
    return dom.one()


def rep_metabelian(pres: KnotPresentation, n: int, chi: Character, z=None,
                   dom: CyclotomicField | None = None) -> Representation:
    """The block representation from a character chi of H/(t^n - 1).

    Meridian g_j maps to the z-cycle block times diag(chi(t^l h_j)) where h_j
    is the class of g_j relative to the base meridian.
    """
    if not pres.is_wirtinger_like():
        raise RepresentationError("metabelian lift needs all phi = 1")
    if n % chi.period:
        raise RepresentationError(
            f"character of period {chi.period} does not factor through H/(t^{n}-1)")
    m_chi = chi.modulus
    if dom is None:
        m_dom = lcm(m_chi, 2 * n if n % 2 == 0 else 1)
        dom = CYC(m_dom)
    if z is None:
        z = default_sl_z(n, dom)
    z = dom.coerce(z) if isinstance(z, (int, Fraction)) else z
    if dom.is_zero(z):
        raise RepresentationError("z must be nonzero")
    deleted = deleted_column(pres)
    shift_perm = tuple((i + 1) % n for i in range(n))
    images = {}
    for g in range(pres.generator_count):
        if g == deleted:
            scales = (z,) * n
        else:
            j = g - 1 if g > deleted else g
            # entry l is z chi(t^-l h); with the forward z-cycle this composes
            # by (1,h)(1,h') = (2, h + t(h'-...)+...), exactly matching
            # h_k = h_i + t(h_j - h_i) from Wirtinger relators
            vals = (chi.value_basis(j, -l) for l in range(n))
            scales = tuple(dom.mul(z, dom.embed(v, CYC(m_chi)) if dom.m != m_chi else v)
                           for v in vals)
        images[g] = Monomial(shift_perm, scales)
    return Representation(n, dom, images, pres, label=f"metabelian(n={n})")


def is_irreducible_metabelian(chi: Character, n: int, rank: int) -> bool:
    """alpha_(n,chi) is irreducible iff chi, t chi, ..., t^(n-1) chi are distinct."""
    return chi.orbit_size(rank) == n


def tensor_metabelian_identity(pres: KnotPresentation, k1: int, chi1: Character,
                               k2: int, chi2: Character) -> bool:
    """The coprime tensor identity as an exact matrix statement.

    The basis f_i = e_(i mod k1) (x) e_(i mod k2) conjugates the tensor of the
    two block representations into the k1*k2 block representation of the
    product character, entrywise.
    """
    if gcd(k1, k2) != 1:
        raise RepresentationError("tensor identity needs coprime block sizes")
    a1 = rep_metabelian(pres, k1, chi1)
    a2 = rep_metabelian(pres, k2, chi2)
    a12 = rep_tensor(a1, a2)
    dom = a12.dom
    z1 = convert(default_sl_z(k1, a1.dom), a1.dom, dom)
    z2 = convert(default_sl_z(k2, a2.dom), a2.dom, dom)
    z12 = dom.mul(z1, z2)
    chi12 = chi1.mul(chi2)
    a6 = rep_metabelian(pres, k1 * k2, chi12, z=z12, dom=dom)
    n = k1 * k2
    q = Monomial(tuple((i % k1) * k2 + (i % k2) for i in range(n)), (dom.one(),) * n)
    qinv = q.inv(dom)
    for g in range(pres.generator_count):
        lhs = qinv.mul(as_monomial(dom, a12.images[g]), dom).mul(q, dom)
        rhs = as_monomial(dom, a6.images[g])
        if lhs.perm != rhs.perm or any(
            not dom.eq(x, y) for x, y in zip(lhs.scales, rhs.scales)
        ):
            return False
    return True


# ------------------------------------------------------------- combinators

def _common_domain(a: Representation, b: Representation, what: str):
    """(dom, a', b'): both factors converted to the smallest common domain."""
    if a.pres is not b.pres:
        raise RepresentationError(f"{what} must share a presentation")
    try:
        dom = domain_join(a.dom, b.dom)
    except TypeError:
        raise RepresentationError(
            f"{what} have no common domain: {a.dom.name} and {b.dom.name}") from None
    return (dom, a if a.dom is dom else a.convert_domain(dom),
            b if b.dom is dom else b.convert_domain(dom))


def rep_tensor(a: Representation, b: Representation) -> Representation:
    dom, aa, bb = _common_domain(a, b, "tensor factors")
    images = {}
    for g in aa.images:
        x, y = aa.images[g], bb.images[g]
        if isinstance(x, Monomial) and isinstance(y, Monomial):
            images[g] = x.kron(y, dom)
        else:
            images[g] = kron(dom, to_dense(dom, x), to_dense(dom, y))
    return Representation(a.dim * b.dim, dom, images, a.pres,
                          label=f"tensor({a.label},{b.label})")


def rep_direct_sum(a: Representation, b: Representation) -> Representation:
    dom, aa, bb = _common_domain(a, b, "summands")
    images = {}
    for g in aa.images:
        x, y = aa.images[g], bb.images[g]
        if isinstance(x, Monomial) and isinstance(y, Monomial):
            images[g] = x.direct_sum(y, dom)
        else:
            images[g] = direct_sum(dom, to_dense(dom, x), to_dense(dom, y))
    return Representation(a.dim + b.dim, dom, images, a.pres,
                          label=f"sum({a.label},{b.label})")


def rep_mod_p(a: Representation, p: int) -> Representation:
    if a.dom.name != "ZZ":
        raise RepresentationError("mod-p reduction needs integer entries")
    b = a.convert_domain(GF(p))
    return Representation(b.dim, b.dom, b.images, b.pres, label=f"modp({a.label},{p})")


# ------------------------------------------------- Vandermonde triangle form

def vandermonde_basis(p: int) -> Dense:
    """Basis v_i = sum_k k^i s^k of F_p[s]/(s^p - 1), as the matrix with
    columns v_i in the s-power basis.  Convention: 0^0 = 1, which is what
    makes (k^i) a Vandermonde matrix and the triangular form below work."""
    odd_prime_field(p)
    return tuple(
        tuple(pow(k, i, p) if (k, i) != (0, 0) else 1 for i in range(p))
        for k in range(p)
    )


def dihedral_xy_on_vp(p: int):
    """x, y of D_p acting on F_p[s]/(s^p-1): x: s^k -> s^(-k), y: s^k -> s^(k+1)."""
    dom = GF(p)
    x = Monomial.permutation(dom, tuple((-k) % p for k in range(p)))
    y = Monomial.permutation(dom, tuple((k + 1) % p for k in range(p)))
    return x, y


def triangular_form(p: int):
    """Images of x and y in the v-basis: diag((-1)^i) and the unipotent
    upper-triangular matrix with entries binom(i,j)(-1)^(i-j)."""
    dom = odd_prime_field(p)
    b = vandermonde_basis(p)
    binv = gen_inv(dom, b)
    x, y = dihedral_xy_on_vp(p)
    xv = mat_mul(dom, mat_mul(dom, binv, x.to_dense(dom)), b)
    yv = mat_mul(dom, mat_mul(dom, binv, y.to_dense(dom)), b)
    return xv, yv, b


def triangular_form_expected(p: int):
    dom = GF(p)
    x = tuple(
        tuple((pow(-1, i, p) if i == j else 0) for j in range(p)) for i in range(p)
    )
    y = tuple(
        tuple(comb(j, i) * pow(-1, j - i, p) % p if i <= j else 0 for j in range(p))
        for i in range(p)
    )
    return x, y


# ------------------------------------------------------------ spec strings

# kind -> (required keys, optional keys)
_SPEC_KEYS = {
    "trivial": ((), ()),
    "onedim": ((), ("z",)),
    "dihedral": (("p", "colors"), ()),
    "metacyclic": (("m", "p", "k", "colors"), ()),
    "gamma": (("p", "n"), ("a",)),
    "metabelian": (("n", "m"), ("chi", "z")),
}


def parse_rep_spec(spec: str, pres: KnotPresentation) -> Representation:
    """Parse CLI representation spec strings.

    Grammar: trivial | onedim:z=Z | dihedral:p=P:colors=c0,c1,... |
    metacyclic:m=M:p=P:k=K:colors=... | gamma:p=P:n=N[:a=...] |
    metabelian:n=N:m=M:chi=I[:z=Z] | tensor(A,B) | sum(A,B) | modp(A,P)
    """
    spec = spec.strip()
    head, paren, body = spec.partition("(")
    if head in ("tensor", "sum", "modp") and paren and body.endswith(")"):
        parts = _split_top_level(body[:-1])
        if head == "modp":
            return rep_mod_p(parse_rep_spec(",".join(parts[:-1]), pres),
                             _int("modp", "p", parts[-1]))
        # colors, assignments and values are integers, so a top-level comma
        # starts the next spec exactly when a letter follows it
        args = []
        for part in parts:
            if args and not part[:1].isalpha():
                args[-1] += "," + part
            else:
                args.append(part)
        if len(args) != 2:
            raise RepresentationError(f"{head} takes two specs, got {len(args)} in {spec!r}")
        combine = rep_tensor if head == "tensor" else rep_direct_sum
        return combine(parse_rep_spec(args[0], pres), parse_rep_spec(args[1], pres))
    kind, *fields = spec.split(":")
    if kind not in _SPEC_KEYS:
        raise RepresentationError(f"unknown representation spec {spec!r}")
    required, optional = _SPEC_KEYS[kind]
    kv = {}
    for f in fields:
        key, _, val = f.partition("=")
        if key not in required + optional:
            raise RepresentationError(f"{kind} spec has no key {key!r}")
        kv[key] = val
    for key in required:
        if key not in kv:
            raise RepresentationError(f"{kind} spec is missing key {key!r}")
    if kind == "trivial":
        return rep_trivial(pres)
    if kind == "onedim":
        z, dom = _parse_scalar(kv.get("z", "1"))
        return rep_onedim(pres, z, dom)
    ints = {key: _int(kind, key, kv[key]) for key in ("p", "m", "k", "n", "chi") if key in kv}
    if "colors" in kv:
        colors = tuple(_int(kind, "colors", c) for c in kv["colors"].split(","))
    if kind == "dihedral":
        return rep_dihedral(pres, DihedralData(ints["p"], colors))
    if kind == "metacyclic":
        return rep_metacyclic(pres, ints["m"], ints["p"], ints["k"], colors)
    if kind == "gamma":
        p0, n = ints["p"], ints["n"]
        if "a" in kv:
            assignment = tuple(tuple(_int(kind, "a", x) for x in part.split("."))
                               for part in kv["a"].split(","))
        else:
            epis = find_zn_apn_epis(pres, n, p0)
            if not epis:
                raise RepresentationError(f"no epimorphism onto Z/{n} x| A_{{{p0},{n}}}")
            assignment = epis[0]
        return rep_gamma_compose(pres, n, p0, assignment)
    # metabelian
    if not pres.is_wirtinger_like():
        raise RepresentationError("metabelian lift needs all phi = 1")
    n, m = ints["n"], ints["m"]
    idx = ints.get("chi", 1)
    chars = characters_of_quotient(branched_cover_homology(pres, n), m)
    if not 0 <= idx < len(chars):
        raise RepresentationError(f"chi index {idx} out of range ({len(chars)} characters)")
    if "z" not in kv:
        return rep_metabelian(pres, n, chars[idx])
    dom, (z,) = parse_scalars([kv["z"]], chars[idx].modulus)
    return rep_metabelian(pres, n, chars[idx], z, dom)


def _int(kind: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise RepresentationError(
            f"{kind} spec key {key!r} is not an integer: {text!r}") from None


def _split_top_level(s: str):
    """Split at the commas outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(s):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            parts.append(s[start:i].strip())
            start = i + 1
    return parts + [s[start:].strip()]


def parse_scalars(tokens, m: int = 1):
    """Scalar tokens as elements of one field Q(zeta_M), M the lcm of m and the
    orders of the root-of-unity tokens; returns (field, values)."""
    parsed = [_parse_scalar(t) for t in tokens]
    field = CYC(lcm(m, *(d.m for _, d in parsed if isinstance(d, CyclotomicField))))
    return field, [field.embed(v, d) if isinstance(d, CyclotomicField) else field.coerce(v)
                   for v, d in parsed]


def _parse_scalar(text: str):
    """Parse scalar tokens: integers, fractions, i, z<m>^<k> roots of unity."""
    t = text.strip()
    if t == "i":
        return CYC(4).zeta(1), CYC(4)
    if t == "-i":
        return CYC(4).zeta(3), CYC(4)
    try:
        if t.startswith("z") or t.startswith("zeta"):
            body = t[4:] if t.startswith("zeta") else t[1:]
            body = body.lstrip("_")
            if "^" in body:
                mtext, _, ktext = body.partition("^")
                m, k = int(mtext), int(ktext)
            else:
                m, k = int(body), 1
            if m < 1:
                raise ValueError
        elif "/" in t:
            return Fraction(t), QQ
        else:
            return int(t), ZZ
    except ZeroDivisionError:
        raise RepresentationError(f"zero denominator in {t!r}") from None
    except ValueError:
        raise RepresentationError(f"malformed scalar {t!r}: expected an integer, a "
                                  "fraction, i or z<m>^<k>") from None
    return CYC(m).zeta(k), CYC(m)  # outside the try: a refused field names its cap


def rep_spec_of_coloring(d: DihedralData) -> str:
    return f"dihedral:p={d.p}:colors=" + ",".join(str(c) for c in d.colors)
