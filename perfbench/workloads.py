"""The benchmark's three workloads: seeded op lists, op bodies and checks.

``build(name, seed)`` is the set-up a run pays before its first timed op: it
builds presentations, representations and seeded inputs and loads the
reference outputs.  It returns the op list in seeded order.  Each op's body
calls the program through module attributes (``twisted.wada_invariant``, not
a name bound at set-up), so the tracer's patched bindings are the ones used.
Each op returns its output as text; ``Op.check`` maps that text to ``None``
when it is right or to the reason it is wrong.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd, prod
from pathlib import Path
from typing import Callable

from twistalex import conjectures, knots, metabelian, presentation, reps, twisted
from twistalex.cyclo import CYC
from twistalex.domains import GF
from twistalex.laurent import parse_poly

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("cyclotomic-wada", "conjecture-sweep", "branched-covers")

# cyclotomic-wada: rep_metabelian(n=2) over Q(zeta_12) .. Q(zeta_28)
WADA_KNOTS = ("3_1", "4_1", "5_1", "5_2", "6_1", "8_20", "granny")
CONJUGATIONS_PER_KNOT = 12

# conjecture-sweep: the targets of scripts/check_conjectures.py
APN_TARGETS = ((3, 2), (2, 3), (5, 2))      # (p0, n)
DIHEDRAL_PRIMES = (3, 5, 7)

# branched-covers: one random braid per (strands, crossings) cell; a braid
# closes to a knot only if its permutation is one cycle, whose parity fixes
# the parity of the crossing count
BRAID_CELLS = tuple((4, c) for c in range(17, 30, 2)) + tuple((5, c) for c in range(16, 31, 2))
COVER_DEGREES = (2, 3, 4, 5, 6)
# characters_of_quotient enumerates p^rank characters; a braid whose cover
# would need more is redrawn (see README, "Known slow inputs")
MAX_CHARACTERS = 2_000


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], str]
    check: Callable[[str], "str | None"]


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def build(name: str, seed: int) -> list[Op]:
    """Set-up for one workload; returns its ops in seeded order."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    make_ops = {"cyclotomic-wada": _build_wada, "conjecture-sweep": _build_sweep,
                "branched-covers": _build_covers}[name]
    ops = make_ops(rng, load_reference(name))
    rng.shuffle(ops)
    return ops


def _expect(ref: str) -> Callable[[str], "str | None"]:
    def check(out: str) -> "str | None":
        return None if out == ref else f"expected {ref[:120]!r}, got {out[:120]!r}"
    return check


# ---------------------------------------------------------- cyclotomic-wada

def metabelian_rep(pres):
    """rep_metabelian(n=2) for the first nontrivial character of H/(t^2 - 1)
    at the smallest prime dividing its exponent."""
    q = metabelian.branched_cover_homology(pres, 2)
    p = smallest_prime_factor(q.structure.exponent())
    chi = next(c for c in metabelian.characters_of_quotient(q, p) if not c.is_trivial())
    return reps.rep_metabelian(pres, 2, chi)


def _random_dense_2x2(rng: random.Random):
    """Invertible, entries in {-2, -1, 1, 2}: a matrix with a zero entry can
    be monomial, and conjugating by it skips the dense path being timed."""
    while True:
        a, b, c, d = (rng.choice((-2, -1, 1, 2)) for _ in range(4))
        if a * d - b * c:
            return ((a, b), (c, d))


def _build_wada(rng: random.Random, ref: dict) -> list[Op]:
    ops = []
    for name in WADA_KNOTS:
        pres = knots.presentation(name)
        rep = metabelian_rep(pres)
        check = _expect(ref["canonical"][name])
        for j in range(pres.generator_count):
            if pres.phi[j]:
                ops.append(Op(f"wada {name} column={j}", _wada_column(pres, rep, j), check))
        dom = rep.dom
        for _ in range(CONJUGATIONS_PER_KNOT):
            p = _random_dense_2x2(rng)
            pm = tuple(tuple(dom.coerce(x) for x in row) for row in p)
            ops.append(Op(f"wada {name} conjugation={json.dumps(p, separators=(',', ':'))}",
                          _wada_conjugated(pres, rep, pm), check))
    return ops


def _wada_column(pres, rep, column):
    return lambda: twisted.wada_invariant(pres, rep, column=column).to_text()


def _wada_conjugated(pres, rep, pm):
    return lambda: twisted.wada_invariant(pres, rep.conjugate(pm)).to_text()


# --------------------------------------------------------- conjecture-sweep

def _build_sweep(rng: random.Random, ref: dict) -> list[Op]:
    # every field and prime field the checks touch is made here, so the first
    # pass pays no lazy construction the later passes skip
    for m in (2, 3, 5, 7):
        CYC(m)
        GF(m)
    ops = []
    for fx in knots.corpus():
        name = fx.name
        pres = knots.presentation(name)
        for p0, n in APN_TARGETS:
            key = f"search apn {name} p={p0} n={n}"
            epis = [tuple(tuple(a) for a in e) for e in ref["searches"][key]]
            ops.append(Op(key, _apn_search(pres, n, p0), _expect(json.dumps(epis))))
            for i, epi in enumerate(epis):
                ckey = f"A {name} p={p0} n={n} epi={i}"
                ops.append(Op(ckey, _check("check_conjecture_A", pres, epi, n, p0, knot=name),
                              _expect(ref["reports"][ckey])))
        for p in DIHEDRAL_PRIMES:
            key = f"search dihedral {name} p={p}"
            colorings = [tuple(c) for c in ref["searches"][key]]
            ops.append(Op(key, _dihedral_search(pres, p), _expect(json.dumps(colorings))))
            for i, colors in enumerate(colorings):
                d = metabelian.DihedralData(p, colors)
                for label, fn, args in (
                        ("A'", "check_conjecture_Aprime", (2, p, -1, colors)),
                        ("B(1)", "check_conjecture_B1", (d,)),
                        ("B(2)", "check_conjecture_B2", (d,))):
                    ckey = f"{label} {name} p={p} coloring={i}"
                    ops.append(Op(ckey, _check(fn, pres, *args, knot=name),
                                  _expect(ref["reports"][ckey])))
    return ops


def _apn_search(pres, n, p0):
    return lambda: json.dumps(metabelian.find_zn_apn_epis(pres, n, p0))


def _dihedral_search(pres, p):
    return lambda: json.dumps([d.colors for d in metabelian.find_dihedral_epis(pres, p)])


def _check(fn_name, *args, **kwargs):
    return lambda: getattr(conjectures, fn_name)(*args, **kwargs).to_json()


# ---------------------------------------------------------- branched-covers

def smallest_prime_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def _character_count_bound(order: int) -> int:
    """p^(v_p(order)) for the smallest prime p of a finite order, an upper
    bound on the characters to mu_p that the op enumerates; any value above
    MAX_CHARACTERS means "too many"."""
    if order <= 1:
        return 1
    p = next((p for p in range(2, MAX_CHARACTERS + 1) if order % p == 0), None)
    if p is None:
        return MAX_CHARACTERS + 1
    out = 1
    while order % p == 0:
        order //= p
        out *= p
    return out


def random_braid(rng: random.Random, strands: int, crossings: int):
    """A seeded braid word whose closure is a knot and whose covers stay
    under MAX_CHARACTERS; returns (braid, presentation, Delta)."""
    while True:
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                        for _ in range(crossings))
        braid = presentation.BraidWord(strands, letters)
        if not braid.closure_is_knot():
            continue
        pres = presentation.braid_closure_presentation(braid)
        delta = metabelian.alexander_polynomial(pres)
        if all(_character_count_bound(metabelian.order_from_alexander(delta, k))
               <= MAX_CHARACTERS for k in COVER_DEGREES):
            return braid, pres, delta


def parse_structure(text: str) -> tuple[tuple[int, ...], int]:
    """Invariant factors and free rank from AbelianGroupStructure text."""
    if text == "trivial":
        return (), 0
    factors, free = [], 0
    for part in text.split(" + "):
        if part == "Z":
            free += 1
        else:
            factors.append(int(part.removeprefix("Z/")))
    return tuple(factors), free


def _check_cover(expected_order: int, ref: "str | None"):
    """Order against |Res(Delta, t^k - 1)| and the character count against
    prod gcd(p, d_i); corpus knots also against the committed H_1 text."""
    def check(out: str) -> "str | None":
        if ref is not None and out != ref:
            return f"expected {ref!r}, got {out!r}"
        struct, _, chars = out.partition(" | ")
        factors, free = parse_structure(struct)
        order = 0 if free else prod(factors)
        if order != expected_order:
            return f"|H_1| = {order}, resultant gives {expected_order}"
        want = "no characters"
        if not free and factors:
            p = smallest_prime_factor(factors[-1])
            want = f"p={p} characters={prod(gcd(p, d) for d in factors)}"
        return None if chars == want else f"expected {want!r}, got {chars!r}"
    return check


def _check_alexander(ref: str):
    """Exact text against the reference, plus Delta(1) = ±1 and symmetry."""
    def check(out: str) -> "str | None":
        if out != ref:
            return f"expected {ref!r}, got {out!r}"
        coeffs = _poly_coeffs(out)
        if abs(sum(coeffs)) != 1:
            return f"Delta(1) = {sum(coeffs)}"
        if coeffs != coeffs[::-1] and coeffs != [-c for c in coeffs[::-1]]:
            return "Delta is not symmetric"
        return None
    return check


def _poly_coeffs(text: str) -> list[int]:
    f = parse_poly(text)
    return [f[e] for e in range(f.low(), f.deg() + 1)]


def _cover_op(pres, k):
    def run() -> str:
        q = metabelian.branched_cover_homology(pres, k)
        s = q.structure
        if s.free_rank or s.is_trivial():
            return f"{s} | no characters"
        p = smallest_prime_factor(s.exponent())
        return f"{s} | p={p} characters={len(metabelian.characters_of_quotient(q, p))}"
    return run


def _build_covers(rng: random.Random, ref: dict) -> list[Op]:
    inputs = []
    for fx in knots.corpus():
        pres = presentation.braid_closure_presentation(presentation.parse_braid(fx.braid))
        inputs.append((fx.name, pres, knots.alexander_fixture(fx.name), True))
    for strands, crossings in BRAID_CELLS:
        braid, pres, delta = random_braid(rng, strands, crossings)
        word = " ".join(map(str, braid.letters))
        inputs.append((f"braid{strands}[{word}]", pres, delta, False))
    ops = []
    for name, pres, delta, in_corpus in inputs:
        ops.append(Op(f"alexander {name}",
                      lambda pres=pres: metabelian.alexander_polynomial(pres).to_text(),
                      _check_alexander(delta.to_text())))
        for k in COVER_DEGREES:
            order = metabelian.order_from_alexander(delta, k)
            cref = ref["covers"][f"{name} k={k}"] if in_corpus else None
            ops.append(Op(f"cover {name} k={k}", _cover_op(pres, k), _check_cover(order, cref)))
    return ops
