"""Exact twisted Alexander polynomials of knots under finite metabelian,
dihedral, metacyclic and Z/n x| A_{p,n} representations."""

from .domains import GF, QQ, ZZ, TwistalexError
from .cyclo import CYC, cyclotomic_polynomial, is_cyclotomic_irreducible_mod_p
from .laurent import LaurentPoly, RationalFunction, parse_poly
from .factorint import factor_integer_poly, is_irreducible
from .snf import AbelianGroupStructure, smith_normal_form
from .polydet import det_poly_matrix
from .presentation import (BraidWord, KnotPresentation, braid_closure_presentation,
                           parse_braid, parse_presentation, serialize_presentation)
from .fox import alexander_fox_matrix, specialize_matrix
from .metabelian import (Character, DihedralData, SeifertData, alexander_module,
                         alexander_polynomial, branched_cover_homology,
                         characters_of_quotient, find_dihedral_epis,
                         find_metacyclic_epis, find_zn_apn_epis,
                         monodromy_orbit_values)
from .reps import (Representation, gamma_summands, parse_rep_spec, rep_dihedral,
                   rep_direct_sum, rep_gamma_compose, rep_metabelian,
                   rep_metacyclic, rep_mod_p, rep_onedim, rep_tensor, rep_trivial,
                   triangular_form, vandermonde_basis)
from .twisted import TwistedPolynomial, doteq_equal, satellite_twisted, wada_invariant
from .conjectures import (ConjectureReport, check_conjecture_A,
                          check_conjecture_Aprime, check_conjecture_B1,
                          check_conjecture_B2, wada_experiment)

__version__ = "0.1.0"
