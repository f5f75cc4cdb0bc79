import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalex import words
from twistalex.presentation import (BraidWord, PresentationError,
                                    braid_closure_presentation, format_word,
                                    parse_braid, parse_presentation,
                                    serialize_presentation)

PAPER_BRAID = "1 -2 3 3 -2 1 -2 -3 -2 1 -2"
PAPER_RELATORS = [
    "b^-1 a^-1 e a",
    "a^-1 c f c^-1",
    "d^-1 f^-1 g f",
    "f^-1 g^-1 h g",
    "c^-1 h i h^-1",
    "h^-1 e^-1 j e",
    "e^-1 i k i^-1",
    "k^-1 g d g^-1",
    "i^-1 g b g^-1",
    "g^-1 j^-1 a j",
]


def test_parse_braid_forms():
    b = parse_braid(PAPER_BRAID)
    assert b.strands == 4 and len(b.letters) == 11
    b2 = parse_braid("s1 s2^-1 s3 s3 s2^-1 s1 s2^-1 s3^-1 s2^-1 s1 s2^-1")
    assert b2 == b
    for blank in ("", " ", "\t \n"):
        with pytest.raises(PresentationError, match="empty braid word"):
            parse_braid(blank)
    assert parse_braid("1 1 1").strands == 2


def test_parse_braid_errors():
    with pytest.raises(PresentationError):
        parse_braid("1 0 2")
    with pytest.raises(PresentationError):
        parse_braid("x y")


def test_10_164_relators_verbatim():
    pres = braid_closure_presentation(parse_braid(PAPER_BRAID))
    assert pres.generator_names == tuple("abcdefghijk")
    got = [format_word(r, pres.generator_names) for r in pres.relators]
    assert got == PAPER_RELATORS


def test_unknot_closure():
    pres = braid_closure_presentation(BraidWord(1, ()))
    assert pres.generator_count == 1
    assert pres.relators == ()


def word_phi(pres, w) -> int:
    """phi of a word: its exponent sum under the presentation's phi."""
    return words.exponent_sum(w, pres.phi)


def test_trefoil_closure():
    pres = braid_closure_presentation(parse_braid("1 1 1"))
    assert pres.generator_count == 3
    assert len(pres.relators) == 2
    assert all(word_phi(pres, r) == 0 for r in pres.relators)


def test_multicomponent_rejected():
    with pytest.raises(PresentationError):
        braid_closure_presentation(parse_braid("1 1"))  # closure is a 2-component link


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=9))
@settings(max_examples=120, deadline=None)
def test_closure_deficiency_and_phi(letters):
    b = BraidWord(4, tuple(letters))
    if not b.closure_is_knot():
        return
    pres = braid_closure_presentation(b)
    assert pres.generator_count == len(pres.relators) + 1
    assert all(word_phi(pres, r) == 0 for r in pres.relators)
    assert pres.is_wirtinger_like()


def test_parse_presentation_trefoil():
    pres = parse_presentation("gens: a b; rels: a b a B A B")
    assert pres.generator_count == 2
    assert len(pres.relators) == 1
    assert word_phi(pres, pres.relators[0]) == 0


def test_parse_presentation_verbatim_relator_list():
    text = "gens: a b c d e f g h i j k\nrels: " + ", ".join(
        ["BAea", "AcfC", "DFgf", "FGhg", "ChiH",
         "HEje", "EikI", "KgdG", "IgbG", "GJaj"]
    )
    pres = parse_presentation(text)
    braid_pres = braid_closure_presentation(parse_braid(PAPER_BRAID))
    assert pres.relators == braid_pres.relators


def test_parse_presentation_unknot():
    pres = parse_presentation("gens: a; rels:")
    assert pres.generator_count == 1 and pres.relators == ()


def test_parse_presentation_errors():
    with pytest.raises(PresentationError):
        parse_presentation("gens: a b; rels: a b")  # not phi-balanced
    with pytest.raises(PresentationError):
        parse_presentation("gens: a b; rels: a x a^-1 x^-1")  # unknown generator
    with pytest.raises(PresentationError):
        parse_presentation("gens: a b c; rels: a b A B")  # deficiency != 1


def test_round_trip_serialization():
    for text in (PAPER_BRAID, "1 1 1", "1 -2 1 -2"):
        pres = braid_closure_presentation(parse_braid(text))
        again = parse_presentation(serialize_presentation(pres))
        assert again == pres
    custom = parse_presentation("gens: a b; rels: a b a B A B; phi: a=1 b=1")
    assert parse_presentation(serialize_presentation(custom)) == custom


def test_word_phi():
    pres = braid_closure_presentation(parse_braid(PAPER_BRAID))
    assert word_phi(pres, ((0, 1),)) == 1
    assert word_phi(pres, ()) == 0
    for r in pres.relators:
        assert word_phi(pres, r) == 0


def test_word_utilities():
    w = words.word((0, 1), (1, -2), (1, 2), (0, -1))
    assert w == ()
    assert words.word((0, 2), (1, -1), (1, 1), (0, 1)) == ((0, 3),)
