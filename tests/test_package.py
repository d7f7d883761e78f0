"""The package namespace is lazy: every public name resolves on first use
to the object its submodule holds, and a bare ``import cdindex`` loads no
module of the library's kernels."""
import importlib
import subprocess
import sys

import pytest

import cdindex as cd
from conftest import child_env

# the names the package has always given, by the submodule that holds them
PUBLIC = {
    "errors": ["CdindexError"],
    "ncpoly": ["AbPolynomial", "CdPolynomial", "UniPolynomial",
               "coefficientwise_leq", "expand_cd", "parse_unipoly",
               "parse_word_poly", "substitute", "to_cd"],
    "poset": ["GradedPoset", "adjoin_max", "boolean_poset", "boundary",
              "chain_poset", "dual", "face_poset", "interior_elements",
              "is_near_eulerian", "join", "pyramid", "semisuspension",
              "suspension"],
    "flagcd": ["FlagVector", "LocalIndex", "ab_index", "cd_index", "flag_f",
               "flag_h", "flag_polynomial", "local_index"],
    "complexes": ["HVector", "SimplicialComplex", "StackedPolytope",
                  "barycentric_subdivision", "f_vector", "find_shelling",
                  "flag_to_h", "h_vector", "is_gorenstein",
                  "is_near_gorenstein", "link", "make_boundary_simplex",
                  "make_cube3", "make_polygon", "make_simplex",
                  "make_stacked", "order_complex", "reduced_betti", "star",
                  "verify_shelling"],
    "subdivision": ["CdDecomposition", "SkeletalFamily", "SubdivisionMap",
                    "ValidationReport", "classify_flag", "decompose_cd",
                    "from_vertex_carriers", "identity_subdivision",
                    "restrict", "skeletal_family", "validate_strong_eulerian",
                    "validate_strong_formal", "verify_rank_telescoping",
                    "with_adjoined_tops"],
    "toric": ["LocalHTable", "g_poly", "h_poly", "local_h", "morphism_f",
              "morphism_g", "toric_h", "verify_local_correspondence"],
}


def test_every_public_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        sub = importlib.import_module("cdindex." + module)
        assert getattr(cd, module) is sub
        for name in names:
            assert getattr(cd, name) is getattr(sub, name), name


def test_complexes_binds_the_face_poset_functions_of_poset():
    # the face posets are built in poset; bench/ and the tests still reach
    # them as names of complexes
    from cdindex import complexes, poset
    assert complexes.face_poset is poset.face_poset
    assert complexes.face_id is poset.face_id


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cdindex import *", namespace)
    for module, names in PUBLIC.items():
        assert namespace[module] is importlib.import_module("cdindex."
                                                            + module)
        for name in names:
            assert namespace[name] is getattr(cd, name), name
    assert set(cd.__all__) == set(PUBLIC).union(*PUBLIC.values())


def test_dir_lists_every_public_name():
    assert set(cd.__all__) <= set(dir(cd))
    assert "__version__" in dir(cd)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cd.nope


def test_bare_import_loads_no_kernel_module():
    # a fresh interpreter: this one has imported every module already
    code = "import sys, cdindex; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), timeout=60, check=True)
    loaded = {n for n in proc.stdout.split() if n.startswith("cdindex.")}
    assert loaded <= {"cdindex.errors"}, loaded
