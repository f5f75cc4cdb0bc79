#!/usr/bin/env python3
"""Run the kept mutants of `src/twistalex` against the tier-1 suite.

    python3 scripts/mutants.py                  # every mutant
    python3 scripts/mutants.py --only one-pair-gcd --only circulant-mod
    python3 scripts/mutants.py --only dot-lcm-rescale --tests tests/test_cyclo_oracle.py

Each mutant is (file, exact old text, new text, reason): one edit of one
file under src/.  The script extracts `git archive` of the checkout (its
committed tree plus any tracked or staged edits, through `git stash create`)
into a temporary directory, then applies each mutant alone to that copy, runs
tier-1 there with `-x`, less `tests/test_mutants.py` (or only the `--tests`
paths), and restores the file.
A mutant whose run fails or times out is killed, and its first failing test
is printed; one whose run passes has survived, or is equivalent when the list
says it cannot change any result (its reason says why).  A survivor is
reported, never dropped from the list.

Exit code: 0 when no mutant survived, 1 when one did, 2 when an old text
does not occur exactly once in its file (the list is then out of date, and
nothing is run).
"""
from __future__ import annotations

import argparse
import io
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# tests/test_mutants.py checks that every old text is in src, so it fails under
# any mutant: it is left out, or it would kill every mutant that no earlier
# test file kills
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 1800  # a mutant that makes tier-1 hang this long counts as killed


class Mutant(NamedTuple):
    name: str
    file: str        # relative to src/twistalex
    old: str         # occurs exactly once in the file
    new: str
    reason: str      # what the mutant breaks, or why it cannot change a result
    equivalent: bool = False


MUTANTS = [
    # Q(zeta_m) products
    Mutant("one-pair-bound", "cyclo.py",
           "            if k < self.degree:\n",
           "            if k <= self.degree:\n",
           "a one-pair product at index phi(m) is left unreduced"),
    Mutant("one-pair-gcd", "cyclo.py",
           "                g = gcd(x, e)\n",
           "                g = 1\n",
           "a one-pair product is not in lowest terms, so equal values differ"),
    Mutant("dot-lcm-rescale", "cyclo.py",
           "                    acc[k] *= f\n",
           "                    acc[k] *= 1\n",
           "the accumulator keeps earlier products over the old denominator"),
    # monomial-aware image products
    Mutant("gen-mul-row-place", "matrix.py",
           "        for p, s, row in zip(a.perm, a.scales, b):\n",
           "        for p, s, row in zip(range(a.n), a.scales, b):\n",
           "M B puts row j of B at j instead of perm[j]"),
    Mutant("gen-mul-column-place", "matrix.py",
           "        cols = tuple(zip(b.perm, b.scales))\n",
           "        cols = tuple(zip(range(b.n), b.scales))\n",
           "A M reads column j of A instead of perm[j]"),
    # the Fox walker and its unit
    Mutant("walker-sign", "fox.py",
           "            coef = v if sign > 0 else dom.neg(v)\n",
           "            coef = v\n",
           "the walker drops the sign of each term's product"),
    Mutant("walker-unit-sign", "fox.py",
           "    c = one if plan.sign > 0 or n % 2 == 0 else dom.neg(one)\n",
           "    c = one\n",
           "the unit sgn(rows)^n sgn(cols)^n prod eps_i^n loses its sign"),
    # the cover-order oracle
    Mutant("circulant-mod", "metabelian.py",
           "        r[e % k] += c\n",
           "        r[min(e, k - 1)] += c\n",
           "Delta is not reduced mod t^k - 1 before the circulant is built"),
    # the unit normal form and the conjecture checks
    Mutant("canonical-order", "twisted.py",
           "        return k <= zero_key, k\n",
           "        return k > zero_key, k\n",
           "the canonical unit multiple puts a positive lowest coefficient first"),
    Mutant("pairing-content", "conjectures.py",
           "    content_ok = d * d == abs(content)\n",
           "    content_ok = True\n",
           "a content that is not a square is paired as if it were"),
    # the order test
    Mutant("has-order-primes", "cyclo.py",
           "pow(a, e // q, n) != 1 for q in _prime_factors(e))",
           "pow(a, e // q, n) != 1 for q in _prime_factors(e)[:1])",
           "the order test checks only the least prime of e"),
    # certified bounds (their survivors were killed by tier-1 tests)
    Mutant("engine-crt-stop", "polydet.py",
           "        if mod > 2 * bound + 1:\n",
           "        if mod > bound:\n",
           "the symmetric CRT lift mis-signs a coordinate above mod / 2"),
    Mutant("coordinate-bound-below-phi", "polydet.py",
           "    powers = accumulate(repeat(F.zeta(1), m - 1), F.mul, initial=F.one())\n",
           "    powers = accumulate(repeat(F.zeta(1), F.degree - 1), F.mul, initial=F.one())\n",
           "only the powers below phi(m), the basis itself, are scanned: every M_m reads 1"),
    # the determinant's one clearing of sparse rows
    Mutant("cleared-skips-columns", "polydet.py",
           "    rows = [[(e - lo - col_lows[j], j, v) for e, j, v in row]",
           "    rows = [[(e - lo, j, v) for e, j, v in row]",
           "term exponents skip the column clearing, which the shift still restores"),
    Mutant("degree-bound-short", "polydet.py",
           "    npoints = min(sum(row_tops), sum(col_tops)) + 1  # the degree bound, plus one\n",
           "    npoints = min(sum(row_tops), sum(col_tops))  # the degree bound, plus one\n",
           "the degree bound is one point short: the top coefficient is lost"),
    # the norm inverse in Q(zeta_m)
    Mutant("norm-inverse-conjugates", "cyclo.py",
           "        for k in range(2, m):\n",
           "        for k in range(2, m - 1):\n",
           "the norm inverse skips the conjugate sigma_(m-1), complex conjugation"),
    Mutant("hensel-target", "factorint.py",
           "    target = 2 * bound + 1\n",
           "    target = bound\n",
           "a factor coefficient above half the Hensel modulus lifts wrong"),
]


def check(mutants=MUTANTS, src: Path = ROOT / "src" / "twistalex") -> list[str]:
    """The problems of the list against src: an old text that does not occur
    exactly once, a new text equal to it, a duplicated name."""
    problems, names = [], set()
    for m in mutants:
        if m.name in names:
            problems.append(f"{m.name}: duplicated name")
        names.add(m.name)
        count = (src / m.file).read_text().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: old text occurs {count} times in {m.file}")
        if m.old == m.new:
            problems.append(f"{m.name}: new text equals old text")
    return problems


def _archive(dest: Path) -> None:
    """Extract the checkout's tracked files, with their edits, into dest."""
    stash = subprocess.run(["git", "stash", "create"], cwd=ROOT, capture_output=True,
                           text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", stash or "HEAD"], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(dest)


def run(mutant: Mutant, copy: Path, tests=()) -> tuple[str, str]:
    """(verdict, the first failing test or "") of tier-1, or of the given
    test paths, on the copy with the mutant applied."""
    path = copy / "src" / "twistalex" / mutant.file
    text = path.read_text()
    path.write_text(text.replace(mutant.old, mutant.new, 1))
    try:
        proc = subprocess.run(TIER1 + list(tests), cwd=copy, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed", f"timeout after {TIMEOUT_S} s"
    finally:
        path.write_text(text)
    if proc.returncode:
        failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
        return "killed", failed.group(1) if failed else f"exit {proc.returncode}"
    return ("equivalent" if mutant.equivalent else "survived"), ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", action="append", default=[], metavar="NAME",
                    help="run only this mutant (repeatable)")
    ap.add_argument("--tmpdir", type=Path, default=None,
                    help="directory to make the temporary copy in (default: the system's)")
    ap.add_argument("--tests", action="append", default=[], metavar="PATH",
                    help="run these test paths instead of all of tier-1 (repeatable)")
    args = ap.parse_args(argv)
    problems = check()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    unknown = set(args.only) - {m.name for m in MUTANTS}
    if unknown:
        ap.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    counts = {"killed": 0, "survived": 0, "equivalent": 0}
    with tempfile.TemporaryDirectory(prefix="mutants-", dir=args.tmpdir) as copy:
        copy = Path(copy)
        _archive(copy)
        for m in chosen:
            start = time.monotonic()
            verdict, failed = run(m, copy, args.tests)
            counts[verdict] += 1
            print(f"{verdict:10} {m.name:26} {time.monotonic() - start:6.1f} s  {m.reason}"
                  + (f"\n{'':38}first failure: {failed}" if failed else ""), flush=True)
    print(", ".join(f"{k} {v}" for k, v in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    import pipe_exit  # the scripts' directory is on sys.path when run as a script

    pipe_exit.run(main)
