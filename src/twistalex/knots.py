"""Knot fixtures: braid words for the test corpus, companion Alexander
polynomials, and the trefoil fiber Seifert matrix.

Every braid word was cross-checked by computing its Alexander polynomial
through the Fox pipeline and comparing with the published value frozen here;
rows that failed that check were not admitted.  The two companion polynomials
are shipped as data (computing 9- and 11-crossing diagrams is out of scope).
"""
from __future__ import annotations

from dataclasses import dataclass

from .domains import TwistalexError
from .laurent import LaurentPoly, parse_poly
from .metabelian import SeifertData
from .presentation import KnotPresentation, braid_closure_presentation, parse_braid


@dataclass(frozen=True)
class KnotFixture:
    name: str
    braid: str
    alexander: str  # canonical text, frozen after verification
    crossings: int


KNOT_TABLE: tuple[KnotFixture, ...] = (
    KnotFixture("3_1", "1 1 1", "1 - t + t^2", 3),
    KnotFixture("4_1", "1 -2 1 -2", "1 - 3*t + t^2", 4),
    KnotFixture("5_1", "1 1 1 1 1", "1 - t + t^2 - t^3 + t^4", 5),
    KnotFixture("5_2", "1 1 1 2 -1 2", "2 - 3*t + 2*t^2", 5),
    KnotFixture("6_1", "1 1 2 -1 -3 2 -3", "2 - 5*t + 2*t^2", 6),
    KnotFixture("6_2", "1 1 1 -2 1 -2", "1 - 3*t + 3*t^2 - 3*t^3 + t^4", 6),
    KnotFixture("6_3", "1 1 -2 1 -2 -2", "1 - 3*t + 5*t^2 - 3*t^3 + t^4", 6),
    KnotFixture("7_1", "1 1 1 1 1 1 1", "1 - t + t^2 - t^3 + t^4 - t^5 + t^6", 7),
    KnotFixture("7_2", "1 1 1 2 -1 2 3 -2 3", "3 - 5*t + 3*t^2", 7),
    KnotFixture("7_3", "1 1 1 1 1 2 -1 2", "2 - 3*t + 3*t^2 - 3*t^3 + 2*t^4", 7),
    KnotFixture("7_6", "1 1 -2 1 3 -2 3", "1 - 5*t + 7*t^2 - 5*t^3 + t^4", 7),
    KnotFixture("7_7", "1 -2 1 -2 3 -2 3", "1 - 5*t + 9*t^2 - 5*t^3 + t^4", 7),
    KnotFixture("8_5", "-1 -1 -1 2 -1 -1 -1 2",
                "1 - 3*t + 4*t^2 - 5*t^3 + 4*t^4 - 3*t^5 + t^6", 8),
    KnotFixture("8_18", "1 -2 1 -2 1 -2 1 -2",
                "1 - 5*t + 10*t^2 - 13*t^3 + 10*t^4 - 5*t^5 + t^6", 8),
    KnotFixture("8_19", "1 2 1 2 1 2 1 2", "1 - t + t^3 - t^5 + t^6", 8),
    KnotFixture("8_20", "1 1 1 -2 -1 -1 -1 -2", "1 - 2*t + 3*t^2 - 2*t^3 + t^4", 8),
    KnotFixture("8_21", "1 1 1 2 -1 -1 2 2", "1 - 4*t + 5*t^2 - 4*t^3 + t^4", 8),
    KnotFixture("granny", "1 1 1 2 2 2", "1 - 2*t + 3*t^2 - 2*t^3 + t^4", 6),
    KnotFixture("square", "1 1 1 -2 -2 -2", "1 - 2*t + 3*t^2 - 2*t^3 + t^4", 6),
    KnotFixture("9_1", "1 1 1 1 1 1 1 1 1",
                "1 - t + t^2 - t^3 + t^4 - t^5 + t^6 - t^7 + t^8", 9),
    KnotFixture("10_164", "1 -2 3 3 -2 1 -2 -3 -2 1 -2",
                "3 - 11*t + 17*t^2 - 11*t^3 + 3*t^4", 10),
)

_BY_NAME = {f.name: f for f in KNOT_TABLE}

# Alexander polynomials of the two satellite companions (shipped as data)
COMPANION_ALEXANDER = {
    "9_30": "1 - 5*t + 12*t^2 - 17*t^3 + 12*t^4 - 5*t^5 + t^6",
    "11a359": "6 - 13*t + 15*t^2 - 13*t^3 + 6*t^4",
}

# Seifert matrix of the trefoil's genus-1 fiber
TREFOIL_SEIFERT = SeifertData(((-1, 0), (-1, -1)))

# the dihedral coloring a..k -> x y^c of 10_164's generators (its
# KNOT_TABLE braid) used throughout
COLORING_10_164 = (2, 0, 2, 1, 1, 2, 0, 1, 0, 1, 2)


def fixture(name: str) -> KnotFixture:
    if name not in _BY_NAME:
        raise TwistalexError(f"no fixture for knot {name!r}")
    return _BY_NAME[name]


def presentation(name: str) -> KnotPresentation:
    return braid_closure_presentation(parse_braid(fixture(name).braid))


def alexander_fixture(name: str) -> LaurentPoly:
    if name in COMPANION_ALEXANDER:
        return parse_poly(COMPANION_ALEXANDER[name])
    return parse_poly(fixture(name).alexander)


def corpus(max_crossings: int = 99):
    return tuple(f for f in KNOT_TABLE if f.crossings <= max_crossings)
