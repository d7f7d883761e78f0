"""Flag enumeration invariants of graded posets and simplicial complexes:
flag f/h-vectors, ab- and cd-indexes, local indexes, toric g/h-polynomials,
local h-polynomials, and constructive subdivision decompositions.

The package namespace is lazy (PEP 562): ``import cdindex`` loads no
submodule, and a public name imports its module on first use, so a caller
that needs the posets alone never compiles the complexes or the toric
recursions.
"""

import importlib

# each submodule, with the public names it gives the package
_EXPORTS = {
    "errors": ("CdindexError",),
    "ncpoly": ("AbPolynomial", "CdPolynomial", "UniPolynomial",
               "coefficientwise_leq", "expand_cd", "parse_unipoly",
               "parse_word_poly", "substitute", "to_cd"),
    "poset": ("GradedPoset", "adjoin_max", "boolean_poset", "boundary",
              "chain_poset", "dual", "face_poset", "interior_elements",
              "is_near_eulerian", "join", "pyramid", "semisuspension",
              "suspension"),
    "flagcd": ("FlagVector", "LocalIndex", "ab_index", "cd_index", "flag_f",
               "flag_h", "flag_polynomial", "local_index"),
    "complexes": ("HVector", "SimplicialComplex", "StackedPolytope",
                  "barycentric_subdivision", "f_vector", "find_shelling",
                  "flag_to_h", "h_vector", "is_gorenstein",
                  "is_near_gorenstein", "link", "make_boundary_simplex",
                  "make_cube3", "make_polygon", "make_simplex", "make_stacked",
                  "order_complex", "reduced_betti", "star", "verify_shelling"),
    "subdivision": ("CdDecomposition", "SkeletalFamily", "SubdivisionMap",
                    "ValidationReport", "classify_flag", "decompose_cd",
                    "from_vertex_carriers", "identity_subdivision",
                    "restrict", "skeletal_family", "validate_strong_eulerian",
                    "validate_strong_formal", "verify_rank_telescoping",
                    "with_adjoined_tops"),
    "toric": ("LocalHTable", "g_poly", "h_poly", "local_h", "morphism_f",
              "morphism_g", "toric_h", "verify_local_correspondence"),
}

# public name or submodule name -> the submodule that holds it
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module,) + names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    loaded = importlib.import_module("." + module, __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
