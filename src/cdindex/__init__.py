"""Flag enumeration invariants of graded posets and simplicial complexes:
flag f/h-vectors, ab- and cd-indexes, local indexes, toric g/h-polynomials,
local h-polynomials, and constructive subdivision decompositions."""

from .errors import CdindexError
from .ncpoly import (AbPolynomial, CdPolynomial, UniPolynomial,
                     coefficientwise_leq, expand_cd, parse_unipoly,
                     parse_word_poly, substitute, to_cd)
from .poset import (GradedPoset, adjoin_max, boolean_poset, boundary,
                    chain_poset, dual, interior_elements, is_near_eulerian,
                    join, pyramid, semisuspension, suspension)
from .flagcd import (FlagVector, LocalIndex, ab_index, cd_index, flag_f,
                     flag_h, flag_polynomial, local_index)
from .complexes import (HVector, SimplicialComplex, StackedPolytope,
                        barycentric_subdivision, f_vector, face_poset,
                        find_shelling, flag_to_h, h_vector, is_gorenstein,
                        is_near_gorenstein, link, make_boundary_simplex,
                        make_cube3, make_polygon, make_simplex, make_stacked,
                        order_complex, reduced_betti, star, verify_shelling)
from .subdivision import (CdDecomposition, SkeletalFamily, SubdivisionMap,
                          ValidationReport, classify_flag, decompose_cd,
                          from_vertex_carriers, identity_subdivision,
                          restrict, skeletal_family,
                          validate_strong_eulerian, validate_strong_formal,
                          verify_rank_telescoping, with_adjoined_tops)
from .toric import (LocalHTable, g_poly, h_poly, local_h, morphism_f,
                    morphism_g, toric_h, verify_local_correspondence)

__version__ = "0.1.0"
