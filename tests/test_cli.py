import argparse
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex.cli import COMMANDS, build_parser, main
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
    code, out, err = run(capsys, "branched", "--knot", "3_1", "--k", "100000")
    assert code == 2 and out == "" and err == (
        "error: cover blow-up too large: rank 2 * k 100000 = 200000 exceeds the cap 2048\n")
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
    torus.write_text("gens: a b\nrels: a a B B B\nphi: a=3 b=2\n")
    code, out, err = run(capsys, "branched", "--pres", str(torus), "--k", "2")
    assert code == 2 and out == "" and err == (
        "error: module presentation needs a generator with phi = ±1\n")
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
])
def test_conj_without_epimorphisms(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message + "\n")


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


_braid_words = st.integers(2, 5).flatmap(lambda strands: st.lists(
    st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i))),
    min_size=1, max_size=20)).map(lambda letters: " ".join(map(str, letters)))


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
