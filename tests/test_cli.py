import argparse
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex import knots
from twistalex.cli import _FLAGS, _SOURCES, COMMANDS, build_parser, main
from twistalex.metabelian import alexander_polynomial, order_from_alexander
from twistalex.presentation import braid_closure_presentation, parse_braid

PAPER_BRAID = "1 -2 3 3 -2 1 -2 -3 -2 1 -2"
PAPER_REP = "dihedral:p=3:colors=2,0,2,1,1,2,0,1,0,1,2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alexander_trefoil(capsys):
    code, out, _ = run(capsys, "alexander", "--braid", "1 1 1")
    assert code == 0
    assert out.strip() == "1 - t + t^2"


def test_alexander_knot_name(capsys):
    code, out, _ = run(capsys, "alexander", "--knot", "10_164")
    assert code == 0
    assert out.strip() == "3 - 11*t + 17*t^2 - 11*t^3 + 3*t^4"


def test_twisted_paper_display(capsys):
    code, out, _ = run(capsys, "twisted", "--braid", PAPER_BRAID, "--rep", PAPER_REP)
    assert code == 0
    # the displayed product with (t-1) cancelled: degree 9, lowest coeff +3
    assert "t^9" in out


def test_twisted_json(capsys):
    code, out, _ = run(capsys, "twisted", "--braid", "1 1 1", "--rep", "trivial",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"numerator", "denominator", "column", "indeterminacy"}
    assert obj["numerator"] == "1 - t + t^2"


def test_determinism(capsys):
    a = run(capsys, "twisted", "--braid", PAPER_BRAID, "--rep", PAPER_REP, "--json")
    b = run(capsys, "twisted", "--braid", PAPER_BRAID, "--rep", PAPER_REP, "--json")
    assert a == b


def test_json_and_text_encode_same_value(capsys):
    _, text_out, _ = run(capsys, "twisted", "--braid", "1 1 1", "--rep", "trivial")
    _, json_out, _ = run(capsys, "twisted", "--braid", "1 1 1", "--rep", "trivial",
                         "--json")
    obj = json.loads(json_out)
    assert f"({obj['numerator']}) / ({obj['denominator']})" == text_out.strip()


def test_present_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "present", "--braid", "1 1 1")
    assert code == 0
    f = tmp_path / "p.txt"
    f.write_text(out)
    code2, out2, _ = run(capsys, "present", "--pres", str(f))
    assert code2 == 0 and out2 == out


def test_branched(capsys):
    code, out, _ = run(capsys, "branched", "--braid", "1 1 1", "--k", "3")
    assert code == 0 and out.strip() == "Z/2 + Z/2"


def test_branched_seifert_file(tmp_path, capsys):
    f = tmp_path / "trefoil.mat"
    f.write_text("-1 0\n-1 -1\n")
    code, out, _ = run(capsys, "branched", "--seifert", str(f), "--k", "3")
    assert code == 0 and out.strip() == "Z/2 + Z/2"


def test_branched_seifert_file_not_unimodular(tmp_path, capsys):
    # 5_2's Seifert matrix has det 2, so it has no integral monodromy: the
    # cover comes from the presentation tV - V^t and matches --knot 5_2
    f = tmp_path / "5_2.mat"
    f.write_text("-1 1\n0 -2\n")
    want = ["Z/7", "Z/5 + Z/5", "Z/3 + Z/21", "Z/11 + Z/11", "Z/5 + Z/35"]
    for k, text in zip(range(2, 7), want):
        assert run(capsys, "branched", "--seifert", str(f), "--k", str(k)) == (0, text + "\n", "")
        assert run(capsys, "branched", "--knot", "5_2", "--k", str(k)) == (0, text + "\n", "")
    f.write_text("0 1\n0 0\n")  # singular V; Delta = 1
    assert run(capsys, "branched", "--seifert", str(f), "--k", "3") == (0, "trivial\n", "")


def test_seifert_file_with_a_non_integer_entry(tmp_path, capsys):
    f = tmp_path / "bad.mat"
    f.write_text("# 5_2\n-1 1\n0 x\n")
    for cmd in (("alexander",), ("branched", "--k", "2")):
        assert run(capsys, *cmd, "--seifert", str(f)) == (
            2, "", "error: Seifert matrix line 3: entry 'x' is not an integer\n")


def test_colorings_round_trip(capsys):
    code, out, _ = run(capsys, "colorings", "--braid", PAPER_BRAID, "--p", "3")
    assert code == 0
    spec = out.strip().splitlines()[0]
    code2, out2, _ = run(capsys, "twisted", "--braid", PAPER_BRAID, "--rep", spec)
    assert code2 == 0


def test_epis_gamma(capsys):
    code, out, _ = run(capsys, "epis", "--braid", "1 1 1", "--n", "2", "--p", "3")
    assert code == 0
    assert out.strip().startswith("gamma:p=3:n=2:a=")


def test_conjecture_exit_codes(capsys):
    code, out, _ = run(capsys, "conj-b2", "--knot", "10_164", "--p", "3")
    assert code == 0
    code, out, _ = run(capsys, "conj-b1", "--knot", "10_164", "--p", "3")
    assert code == 1  # the counterexample
    code, out, err = run(capsys, "conj-b1", "--braid", "1 -2 1 -2", "--p", "3")
    assert code == 2  # figure-eight has no 3-colorings


def test_conj_a_cli(capsys):
    code, out, _ = run(capsys, "conj-a", "--knot", "3_1", "--n", "2", "--p", "3")
    assert code == 0
    assert "holds" in out


def test_wada_experiment_cli(capsys):
    code, out, _ = run(capsys, "wada-experiment", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "holds"


def test_satellite_cli(capsys):
    code, out, _ = run(
        capsys, "satellite", "--braid", "1 1 1", "--rep", "metabelian:n=2:m=3:chi=1",
        "--companion-delta", "1 - 5*t + 12*t^2 - 17*t^3 + 12*t^4 - 5*t^5 + t^6",
        "--eigenvalues", "z3^1,z3^2")
    assert code == 0
    assert out.strip() == "484 + 484*t^2"


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "twisted", "--braid", "1 1 1")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "alexander", "--braid", "1 0")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    for argv, message in (
        (("--knot", "nosuch", "--rep", "trivial"), "no fixture for knot 'nosuch'"),
        (("--knot", "3_1", "--rep", "onedim:z=2"), "not a unit of ZZ"),
        (("--knot", "3_1", "--rep", "dihedral:p=9:colors=0,1,2"), "p must be an odd prime"),
        (("--knot", "3_1", "--rep", "dihedral:p=3"), "missing key 'colors'"),
        (("--knot", "3_1", "--rep", "gamma:p=3"), "missing key 'n'"),
        (("--knot", "3_1", "--rep", "metacyclic:m=2:p=3:colors=0,1,2"), "missing key 'k'"),
        (("--knot", "3_1", "--rep", "sum(trivial,bogus)"), "'bogus'"),
        (("--knot", "3_1", "--rep", "dihedral:p=5:colors=0,1,1"), "dihedral(p=5)"),
        (("--braid", "", "--rep", "trivial"), "empty braid word"),
        (("--braid", " ", "--rep", "trivial"), "empty braid word"),
        (("--knot", "3_1", "--rep", "modp(dihedral:p=3:colors=0,1,2,3)", "--factored"),
         "--factored factors over QQ only; this invariant is over GF(3)"),
        (("--knot", "3_1", "--rep", "metabelian:n=2:m=3:chi=1", "--factored"),
         "--factored factors over QQ only; this invariant is over Q(zeta_12)"),
        (("--knot", "3_1", "--rep", "dihedral:p=x:colors=0,1,2"),
         "dihedral spec key 'p' is not an integer: 'x'"),
        (("--knot", "3_1", "--rep", "onedim:z=1/2"),
         "determinant generator 1/2 has infinite order in QQ"),
        (("--knot", "3_1", "--rep", "tensor(metabelian:n=2:m=3,modp(trivial,3))"),
         "tensor factors have no common domain: Q(zeta_12) and GF(3)"),
        (("--knot", "3_1", "--rep", "sum(modp(trivial,3),modp(trivial,5))"),
         "summands have no common domain: GF(3) and GF(5)"),
        (("--knot", "3_1", "--rep", "metacyclic:m=2:p=9:k=8:colors=0,3,6"),
         "p must be a prime, got 9"),
        (("--knot", "3_1", "--rep", "gamma:p=4:n=3:a=0.0,1.0,3.3"), "p must be a prime, got 4"),
        (("--knot", "3_1", "--rep", "metacyclic:m=2:p=1:k=0:colors=0,0,0"),
         "p must be a prime, got 1"),
        (("--knot", "3_1", "--rep", "gamma:p=3:n=3:a=0,0,0"), "n and p must be coprime"),
    ):
        code, _, err = run(capsys, "twisted", *argv)
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1
    code, out, err = run(capsys, "conj-a-prime", "--knot", "3_1")  # --m defaults to 0
    assert code == 2 and out == "" and err == "error: m must be >= 1, got 0\n"
    for argv in (("conj-a-prime", "--knot", "3_1", "--m", "2", "--p", "0", "--k", "1"),
                 ("epis", "--knot", "3_1", "--p", "0"),
                 ("epis", "--knot", "3_1", "--m", "2", "--p", "9", "--k", "8")):
        code, out, err = run(capsys, *argv)
        p = argv[argv.index("--p") + 1]
        assert code == 2 and out == "" and err == f"error: p must be a prime, got {p}\n"
    # one primality text on every route, and one more word for D_p
    for argv, text in ((("epis", "--n", "3", "--p", "4"), "a prime, got 4"),
                       (("twisted", "--rep", "metacyclic:m=2:p=9:k=8:colors=0,3,6"),
                        "a prime, got 9"),
                       (("twisted", "--rep", "gamma:p=4:n=3:a=0.0,1.0,3.3"), "a prime, got 4"),
                       (("twisted", "--rep", "modp(trivial,9)"), "a prime, got 9"),
                       (("colorings", "--p", "9"), "an odd prime, got 9"),
                       (("colorings", "--p", "2"), "an odd prime, got 2"),
                       (("twisted", "--rep", "dihedral:p=9:colors=0,3,6"), "an odd prime, got 9")):
        assert run(capsys, argv[0], "--knot", "3_1", *argv[1:]) == (
            2, "", f"error: p must be {text}\n"), argv
    code, out, err = run(capsys, "branched", "--knot", "3_1", "--k", "100000")
    assert code == 2 and out == "" and err == (
        "error: cover blow-up too large: rank 2 * k 100000 = 200000 exceeds the cap 2048\n")
    # the order of G(m,p|k) is capped before the target is built, on every
    # route (6 is a primitive root mod the prime 10000019)
    for argv in (("epis", "--knot", "3_1", "--m", "10000018", "--p", "10000019", "--k", "6"),
                 ("twisted", "--knot", "3_1",
                  "--rep", "metacyclic:m=10000018:p=10000019:k=6:colors=0,0,0")):
        assert run(capsys, *argv) == (2, "", "error: m = 10000018 is above the cap "
                                      "_ORDER_CAP = 100000 for the order of G(m,p|k)\n"), argv
    # a determinant above the engine's work budget is refused before its cells
    # are built: side^3 * points * phi(m)
    for spec, figure in (("metacyclic:m=2:p=107:k=106:colors=0,0,0", "107^3 * 215 * 1 = 263384245"),
                         ("gamma:p=11:n=3:a=0.0,0.0,0.0", "121^3 * 243 * 1 = 430489323"),
                         ("metabelian:n=40:m=3", "40^3 * 81 * 64 = 331776000"),
                         ("metabelian:n=80:m=3", "80^3 * 161 * 128 = 10551296000")):
        assert run(capsys, "twisted", "--knot", "3_1", "--rep", spec) == (
            2, "", f"error: determinant work side^3 * points * phi = {figure} is above "
                   "the cap _WORK_CAP = 100000000\n"), spec
    # so is a unit normalization above the enumeration cap (52579 | Phi_6(1000))
    assert run(capsys, "epis", "--knot", "3_1", "--m", "6", "--p", "52579", "--k", "1000") == (
        2, "", "error: unit normalization too large: p^dim * |units| = 52579^1 * 52578 "
               "= 2764498662 exceeds the cap 500000\n")
    # bytes the locale's codec cannot decode are the user's error, not a fault
    undecodable = tmp_path / "latin1.pres"
    undecodable.write_bytes(b"gens: \xe9\n")
    code, out, err = run(capsys, "present", "--pres", str(undecodable))
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1
    seifert = tmp_path / "fig8.seifert"
    seifert.write_text("1 0\n1 -1\n")
    code, out, err = run(capsys, "branched", "--seifert", str(seifert), "--k", "30000")
    assert code == 2 and out == "" and err == (
        "error: cover blow-up too large: rank 2 * k 30000 = 60000 exceeds the cap 2048\n")
    # phi not onto Z is refused when the presentation is read, by every subcommand
    pres = tmp_path / "phi2.pres"
    for text, g in (("gens: a b\nrels: a a B B\nphi: a=2 b=2\n", 2),
                    ("gens: a\nrels:\nphi: a=2\n", 2),
                    ("gens: a b\nrels: a B\nphi: a=0 b=0\n", 0)):
        pres.write_text(text)
        for argv in (("alexander",), ("twisted", "--rep", "trivial"), ("present",),
                     ("branched", "--k", "2")):
            code, out, err = run(capsys, *argv, "--pres", str(pres))
            assert code == 2 and out == "" and err == (
                f"error: phi is not onto Z: its values have gcd {g}\n"), (text, argv)
    torus = tmp_path / "torus.pres"
    torus.write_text("gens: x y\nrels: x x Y Y Y\nphi: x=3 y=2\n")
    # no generator has phi = ±1: a Tietze move adds a meridian, and the
    # covers are the trefoil's
    for k, group in ((2, "Z/3"), (3, "Z/2 + Z/2"), (5, "trivial"), (6, "Z + Z")):
        code, out, err = run(capsys, "branched", "--pres", str(torus), "--k", str(k))
        assert (code, out, err) == (0, group + "\n", ""), k
    code, out, _ = run(capsys, "alexander", "--pres", str(torus))
    assert (code, out) == (0, "1 - t + t^2\n")
    lone = tmp_path / "lone.pres"
    lone.write_text("gens: a\nrels:\nphi: a=1\n")
    code, out, err = run(capsys, "branched", "--pres", str(lone), "--k", "2")
    assert code == 0 and out == "trivial\n"
    code, out, err = run(capsys, "present", "--braid", " ")
    assert code == 2 and out == "" and err == "error: empty braid word\n"
    code, out, err = run(capsys, "satellite", "--knot", "3_1",
                         "--rep", "modp(dihedral:p=3:colors=0,1,2,3)",
                         "--companion-delta", "1 - t + t^2", "--eigenvalues", "1/3")
    assert code == 2 and out == "" and err == "error: scale factor 7/9 has no image in GF(3)\n"


def test_cyclotomic_field_above_the_degree_cap_is_refused(capsys):
    # every route to Q(zeta_m) meets the phi(m) cap before Phi_m is computed:
    # a z<m> token, the z of a metabelian spec, the eigenvalues' lcm (641 and
    # 643 are each below the cap, their lcm far above it) and an m too large
    # to factor
    for argv, m in (
        (("twisted", "--knot", "3_1", "--rep", "onedim:z=z100003"), 100003),
        (("twisted", "--knot", "3_1", "--rep", "metabelian:n=2:m=3:chi=1:z=z100003"), 100003),
        (("satellite", "--knot", "3_1", "--rep", "trivial", "--companion-delta", "1 - t + t^2",
          "--eigenvalues", "z641,z643"), 641 * 643),
        (("twisted", "--knot", "3_1", "--rep", f"onedim:z=z{10**40 + 1}"), 10**40 + 1),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == (
            f"error: Q(zeta_{m}) has degree phi({m}) above the cap PHI_CAP = 1024\n"), argv


def test_polynomial_text_above_the_span_cap_is_refused(capsys):
    # the exponent span is read off the parsed terms before a coefficient
    # list is built, so t^(10^7) is refused at once
    code, out, err = run(capsys, "satellite", "--knot", "3_1", "--rep", "trivial",
                         "--companion-delta", f"1 - t + t^{10**7}", "--eigenvalues", "1")
    assert (code, out, err) == (2, "", "error: polynomial text spans exponents 0..10000000, "
                                       "wider than the cap SPAN_CAP = 10000\n")


@pytest.mark.parametrize("argv", [
    ("conj-a", "--knot", "3_1", "--n", "1000000007", "--p", "2"),
    ("twisted", "--knot", "3_1", "--rep", "gamma:p=2:n=1000000007"),
    ("twisted", "--knot", "3_1", "--rep", "gamma:p=2:n=1000000007:a=0,1,1"),
])
def test_apn_above_the_enumeration_cap_is_refused_before_phi_n(capsys, monkeypatch, argv):
    # |A_{p,n}| = p^phi(n) is checked before Phi_n is computed, whose first
    # step would build t^n - 1 with n + 1 coefficients
    from twistalex import metabelian

    calls = []
    monkeypatch.setattr(metabelian, "cyclotomic_polynomial", calls.append)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: A_{2,1000000007} has 2^phi(1000000007) "
                                       "elements, above the cap 500000\n")
    assert calls == []


@pytest.mark.parametrize("entry", ["a=x", "a"])
def test_phi_value_that_is_no_integer_names_its_generator(tmp_path, capsys, entry):
    pres = tmp_path / "bad.pres"
    pres.write_text(f"gens: a b\nrels: a b A B\nphi: {entry} b=1\n")
    code, out, err = run(capsys, "present", "--pres", str(pres))
    assert code == 2 and out == "" and err == (
        f"error: phi for generator 'a' needs an integer value: {entry!r}\n")


def test_batch_mode(tmp_path, capsys):
    table = tmp_path / "batch.tsv"
    table.write_text("trefoil\t1 1 1\nbroken\t1 0\nfig8\t1 -2 1 -2\nblank\t \n")
    code, out, _ = run(capsys, "alexander", "--batch", str(table))
    lines = out.strip().splitlines()
    # one record per row, errors inline, batch never aborts
    assert lines[0] == "# trefoil"
    assert lines[1] == "1 - t + t^2"
    assert lines[2] == "# broken"
    assert lines[3].startswith("error")
    assert lines[4] == "# fig8"
    assert lines[5] == "1 - 3*t + t^2"
    assert lines[6:] == ["# blank", "error: empty braid word"]
    assert code == 2  # worst row status


@pytest.mark.parametrize("argv", [
    ("satellite", "--knot", "3_1", "--rep", "trivial", "--eigenvalues", "1"),
    ("satellite", "--knot", "3_1", "--rep", "trivial", "--companion-delta", "1"),
    ("wada-experiment", "--knot", "4_1"),
    ("alexander", "--braid", "1 1 1", "--knot", "4_1"),
    ("branched", "--knot", "3_1", "--rep", "trivial"),
    ("present",),
    # no prefix matching: an abbreviation is an unknown flag, never another one
    ("alexander", "--knot", "3_1", "--k", "2"),
    ("alexander", "--bra", "1 1 1"),
    ("twisted", "--knot", "3_1", "--rep", "trivial", "--fact"),
])
def test_flag_errors_print_usage(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: ") and "error: " in err and "Traceback" not in err


def test_conj_a_prime_cli(capsys):
    code, out, err = run(capsys, "conj-a-prime", "--knot", "3_1", "--m", "2", "--p", "3",
                         "--k", "2")
    assert (code, out, err) == (
        0, "[A']  metacyclic:m=2:p=3:k=2:colors=0,1,2: holds\n    F = 1 - t^2\n", "")


@pytest.mark.parametrize("argv, message", [
    (("conj-a-prime", "--knot", "4_1", "--m", "2", "--p", "3", "--k", "2"),
     "no metacyclic epimorphisms"),
    (("conj-a", "--knot", "4_1", "--n", "2", "--p", "3"),
     "no epimorphisms onto Z/2 x| A_{3,2}"),
    (("conj-b1", "--knot", "4_1", "--p", "3"), "no 3-colorings"),
    # Phi_6 is reducible mod 7, and the trefoil's Delta = Phi_6 has epimorphisms
    (("conj-a", "--knot", "3_1", "--n", "6", "--p", "7"),
     "phi_6 is reducible mod 7; the Z/6-action on characters need not be free"),
])
def test_conj_without_epimorphisms(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", "error: " + message + "\n")


def test_present_json(capsys):
    code, out, _ = run(capsys, "present", "--knot", "3_1", "--json")
    assert code == 0 and out == (
        '{"generators": ["a", "b", "c"], "phi": [1, 1, 1], '
        '"relators": ["b^-1 a^-1 c a", "a^-1 c^-1 b c"]}\n')


def test_alexander_seifert_file(tmp_path, capsys):
    f = tmp_path / "trefoil.mat"
    f.write_text("-1 0\n-1 -1\n")
    assert run(capsys, "alexander", "--seifert", str(f)) == (0, "1 - t + t^2\n", "")


def _json_reports(text):
    """The concatenated JSON objects of a --json conjecture run."""
    decoder, reports, i = json.JSONDecoder(), [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        obj, i = decoder.raw_decode(text, i)
        reports.append(obj)
    return reports


@pytest.mark.parametrize("cmd, flags", [
    ("conj-a", ("--n", "2", "--p", "3")),
    ("conj-b1", ("--p", "3")),
    ("conj-b2", ("--p", "3")),
])
def test_conj_json_verdicts_match_text(capsys, cmd, flags):
    for knot in ("3_1", "10_164"):
        code, text, _ = run(capsys, cmd, "--knot", knot, *flags)
        code_js, js, _ = run(capsys, cmd, "--knot", knot, *flags, "--json")
        assert code_js == code
        verdicts = [line.rsplit(": ", 1)[1] for line in text.splitlines()
                    if line.startswith("[")]
        reports = _json_reports(js)
        assert verdicts and [r["verdict"] for r in reports] == verdicts


def test_wada_experiment_text(capsys):
    code, out, _ = run(capsys, "wada-experiment")
    assert code == 0
    assert out.splitlines()[0] == (
        "[wada-question] satellites of the trefoil by 9_30, 11a359: holds")


@pytest.mark.parametrize("eigenvalue, expected", [
    ("z3^1", (0, "(2 - 2*z12^2) + (2 - 2*z12^2)*t^2\n", "")),
    ("z5^1", (2, "", "error: eigenvalue field does not embed into the polynomial's field\n")),
])
def test_satellite_eigenvalue_field(capsys, eigenvalue, expected):
    assert run(capsys, "satellite", "--knot", "3_1", "--rep", "metabelian:n=2:m=3:chi=1",
               "--companion-delta", "1-t+t^2", "--eigenvalues", eigenvalue) == expected


def test_epis_json_matches_text(capsys):
    for argv in (("epis", "--knot", "3_1"),
                 ("epis", "--knot", "10_164", "--m", "2", "--p", "3", "--k", "2")):
        code, text, _ = run(capsys, *argv)
        assert code == 0 and text
        code, js, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(js) == text.splitlines()


def test_each_subcommand_registers_exactly_its_flags():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(COMMANDS)
    pairs = 0
    for name, sub in subparsers.choices.items():
        flags = [a.option_strings[0][2:] for a in sub._actions
                 if not isinstance(a, argparse._HelpAction)]
        assert sorted(flags) == sorted(COMMANDS[name][1]), name
        pairs += len(flags)
    assert pairs == 82


def test_factored_over_degree_one_cyclotomic_field(capsys):
    # a character of order 2 gives a rep over Q(zeta_2), which is QQ
    argv = ("twisted", "--knot", "3_1", "--rep", "metabelian:n=3:m=2:chi=1")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "1 - t^3\n"
    code, out, _ = run(capsys, *argv, "--factored")
    assert code == 0 and out == "-1 * (-1 + t) * (1 + t + t^2) / (1)\n"


@pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
def test_twisted_enumerates_units_once(capsys, monkeypatch, flags):
    from twistalex import twisted

    calls = []
    orig = twisted.unit_subgroup

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(twisted, "unit_subgroup", counted)
    code, _, _ = run(capsys, "twisted", "--knot", "3_1", "--rep",
                     "metabelian:n=2:m=3:chi=1", *flags)
    assert code == 0 and len(calls) == 1


def test_metabelian_spec_refuses_before_any_cover(tmp_path, capsys, monkeypatch):
    # the lift needs all phi = 1, which the spec checks before it computes
    # H/(t^n - 1)
    from twistalex import reps

    calls = []
    orig = reps.branched_cover_homology

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(reps, "branched_cover_homology", counted)
    torus = tmp_path / "torus.pres"
    torus.write_text("gens: x y\nrels: x x Y Y Y\nphi: x=3 y=2\n")
    code, out, err = run(capsys, "twisted", "--pres", str(torus),
                         "--rep", "metabelian:n=2:m=3")
    assert (code, out, err) == (2, "", "error: metabelian lift needs all phi = 1\n")
    assert calls == []


def _braids(max_strands, max_letters):
    return st.integers(2, max_strands).flatmap(lambda strands: st.lists(
        st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i))),
        min_size=1, max_size=max_letters)).map(lambda letters: " ".join(map(str, letters)))


_braid_words = _braids(5, 20)


@given(_braid_words, st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_branched_fuzz(word, k):
    # links exit 2; a knot's cover has |H| = |Res(Delta, t^k - 1)|, 0 when infinite
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["branched", "--braid", word, "--k", str(k), "--json"])
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
        return
    got = json.loads(out.getvalue())
    delta = alexander_polynomial(braid_closure_presentation(parse_braid(word)))
    expected = order_from_alexander(delta, k)
    assert (0 if got["free_rank"] else prod(got["invariant_factors"])) == expected


# Every subcommand on fuzzed flags, rep specs, presentation and Seifert text
# and batch files.  The ranges stay small: the determinant engine has no work
# budget yet (ROADMAP direction 8), so a 25-dimensional gamma rep on 10_164,
# or a gamma rep tensored with a metabelian one, takes seconds per example.
_scalars = st.sampled_from(("1", "-1", "2", "1/2", "1/0", "i", "-i", "z3^2", "z0", "z6", "x", ""))
_int_list = st.lists(st.integers(-1, 7), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs)))
_base_specs = st.one_of(
    st.just("trivial"),
    st.builds("onedim:z={}".format, _scalars),
    st.builds("dihedral:p={}:colors={}".format, st.integers(-2, 7), _int_list),
    st.builds("metacyclic:m={}:p={}:k={}:colors={}".format, st.integers(-1, 4),
              st.integers(-2, 7), st.integers(-3, 8), _int_list),
    st.builds("gamma:p={}:n={}".format, st.integers(-2, 3), st.integers(-1, 3)),
    st.builds("gamma:p={}:n={}:a={}".format, st.integers(-2, 3), st.integers(-1, 3),
              st.lists(st.lists(st.integers(-1, 3), min_size=1, max_size=2).map(
                  lambda xs: ".".join(map(str, xs))), min_size=1, max_size=4).map(",".join)),
    st.builds("metabelian:n={}:m={}:chi={}".format, st.integers(-1, 3), st.integers(-1, 5),
              st.integers(-1, 3)),
    st.text("trivialmodpgamz:=(),0123456789", max_size=14),
)
_specs = st.recursive(_base_specs, lambda inner: st.one_of(
    st.builds("tensor({},{})".format, inner, inner),
    st.builds("sum({},{})".format, inner, inner),
    st.builds("modp({},{})".format, inner, st.integers(-2, 7))), max_leaves=2)
_words = st.lists(st.sampled_from(("a", "A", "b", "B", "c", "a^2", "b^-1", "x")),
                  max_size=5).map(" ".join)
_pres_texts = st.one_of(
    st.builds("gens: {}\nrels: {}; {}\nphi: a={} b={} c={}\n".format,
              st.sampled_from(("a b", "a b c", "a a", "")), _words, _words,
              *[st.integers(-1, 2)] * 3),
    st.text(max_size=40))
_seifert_texts = st.one_of(
    st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(
            lambda row: " ".join(map(str, row))), min_size=n, max_size=n)).map("\n".join),
    st.text(" -0123456789x\n", max_size=20))
_batch_texts = st.lists(st.tuples(st.sampled_from(("k", "", "#")), _braid_words | st.text(
    " -0123456789", max_size=6)), max_size=3).map(
    lambda rows: "".join(f"{name}\t{braid}\n" for name, braid in rows))
_FLAG_VALUES = {
    "knot": st.sampled_from([f.name for f in knots.corpus(7)] + ["nosuch"]),
    "braid": _braids(4, 12),
    "name": st.sampled_from(("", "K")),
    "rep": _specs,
    "p": st.integers(-2, 7),
    "n": st.integers(-1, 3),
    "m": st.integers(-1, 4),
    "k": st.integers(-3, 8),
    "column": st.integers(-1, 4),
    "companion-delta": st.sampled_from(("1 - t + t^2", "2 - 3*t + 2*t^2", "1", "0", "t^-1",
                                        "1 +* t", "")) | st.text("t^*+-0123 ", max_size=10),
    "eigenvalues": st.lists(_scalars, min_size=1, max_size=3).map(",".join),
}
_FILE_TEXTS = {"pres": _pres_texts, "seifert": _seifert_texts, "batch": _batch_texts}


@st.composite
def _invocations(draw):
    """(argv, {flag: file text}): one subcommand, one knot source, a subset of
    its other flags."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command][1]
    argv, files = [command], {}
    sources = [f for f in flags if f in _SOURCES]
    chosen = [draw(st.sampled_from(sources))] if sources else []
    for flag in chosen + [f for f in flags if f not in _SOURCES]:
        if _FLAGS[flag].get("action") == "store_true":
            if draw(st.booleans()):
                argv.append(f"--{flag}")
        elif flag in _FILE_TEXTS:
            files[flag] = draw(_FILE_TEXTS[flag])
            argv.append(f"--{flag}")
        elif flag in chosen or _FLAGS[flag].get("required") or draw(st.booleans()):
            argv += [f"--{flag}", str(draw(_FLAG_VALUES[flag]))]
    return argv, files


@given(_invocations())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz(invocation):
    # exit 0, 1 or 2 and never a traceback; 1 only where a conjecture is
    # checked; outside batch mode an exit 2 is one `error:` line
    argv, files = list(invocation[0]), invocation[1]
    with tempfile.TemporaryDirectory() as tmp:
        for flag, text in files.items():
            path = Path(tmp, flag)
            path.write_text(text)
            argv.insert(argv.index(f"--{flag}") + 1, str(path))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in out + err, argv
    if code == 1:
        assert argv[0].startswith("conj-") or argv[0] == "wada-experiment", argv
    if code == 2 and "batch" not in files:
        errors = [line for line in err.splitlines() if "error: " in line]
        assert len(errors) == 1, (argv, err)
        if not err.startswith("usage: "):
            assert (out, err) == ("", errors[0] + "\n"), argv
