"""Simplicial complexes: face posets, homology, shellings, generators."""
import json
import random
from itertools import combinations

import pytest

import cdindex as cd
from cdindex.cli import run
from cdindex.complexes import _closure_of, _shelling_step_ok, face_id
from cdindex.errors import DomainError, FaceNotFound, NotPure, SearchCutoff
from cdindex.ncpoly import UniPolynomial, coefficientwise_leq
from cdindex.poset import _poset_from_obj
from conftest import (adjoin_max_by_cover_copy, betti_by_fractions,
                      betti_by_sympy, count_builds, cube3_by_cover_search,
                      facets_by_pairwise_filter, find_shelling_by_recursion,
                      face_poset_by_frozensets, isomorphic,
                      octahedron_complex, outcome, polygon_cd,
                      polygon_lattice, rp2_complex, same_build,
                      shelling_step_by_closure, square_lattice,
                      three_polytope_cd, torus_complex)


def test_face_id_escapes_separators_in_vertex_names():
    # a backslash goes before each backslash, comma and brace of a name
    assert face_id({"a,b{\\}", "c"}) == "{a\\,b\\{\\\\\\},c}"
    assert face_id({"b", "a"}) == "{a,b}" and face_id(()) == "{}"
    # the empty name is a backslash and 0, which no escape writes
    assert face_id({""}) == "{\\0}" and face_id({"\\0"}) == "{\\\\0}"
    assert face_id({"", "a"}) == "{\\0,a}"


def test_face_poset_triangle_is_b3():
    p = cd.face_poset(cd.make_simplex(2))
    assert isomorphic(p, cd.boolean_poset(3))


def test_face_poset_square_boundary():
    p = cd.face_poset(cd.make_polygon(4), with_max=True)
    assert p.is_eulerian() and p.top_rank == 3


def test_face_poset_empty_complex():
    p = cd.face_poset(cd.SimplicialComplex([]))
    assert len(p.elements) == 1


def test_face_poset_with_max_is_the_face_poset_and_adjoin_max(monkeypatch):
    # the face poset and its formal top come out of one constructor call,
    # the same poset as the adjoin_max rebuild it replaced
    complexes = [cd.SimplicialComplex([]), cd.SimplicialComplex([[]]),
                 cd.make_polygon(5), octahedron_complex(),
                 cd.SimplicialComplex([["1", "2", "3"], ["3", "4"], ["5"]])]
    for k in complexes:
        want = adjoin_max_by_cover_copy(cd.face_poset(k))
        assert same_build(want, cd.adjoin_max(cd.face_poset(k)))
        calls = count_builds(monkeypatch)
        got = cd.face_poset(k, with_max=True)
        monkeypatch.undo()
        assert calls == [1]
        assert same_build(got, want), k
        assert got.to_json() == want.to_json()


def test_make_cube3_matches_the_cover_search():
    cube, want = cd.make_cube3(), cube3_by_cover_search()
    assert same_build(cube, want)
    assert cube.to_json() == want.to_json()


def test_a_complex_input_is_one_build(monkeypatch):
    # a complex side decodes straight to face rows: one poset build and no
    # SimplicialComplex
    square = cd.make_polygon(4).to_json_obj()
    k = cd.make_boundary_simplex(3)
    oc, m = cd.barycentric_subdivision(k)
    obj = {"source": oc.to_json_obj(), "target": k.to_json_obj(),
           "carrier": dict(m.carrier)}
    complexes = []
    init = cd.SimplicialComplex.__init__
    monkeypatch.setattr(cd.SimplicialComplex, "__init__",
                        lambda self, facets: (complexes.append(facets),
                                              init(self, facets))[1])
    calls = count_builds(monkeypatch)
    p = _poset_from_obj(square)
    assert (calls, complexes) == ([1], [])
    decoded = cd.SubdivisionMap.from_json_obj(obj)
    assert (calls, complexes) == ([3], [])
    monkeypatch.undo()
    assert same_build(p, adjoin_max_by_cover_copy(
        cd.face_poset(cd.SimplicialComplex.from_json_obj(square))))
    assert decoded.to_json() == cd.with_adjoined_tops(m).to_json()


def complex_fixtures():
    """The named complexes and generated shapes, the empty ones included."""
    pool = [cd.SimplicialComplex([]), cd.SimplicialComplex([[]]),
            octahedron_complex(), rp2_complex(), torus_complex(),
            cd.order_complex(cd.boolean_poset(3)),
            cd.barycentric_subdivision(cd.make_simplex(2))[0]]
    pool += [cd.make_simplex(d) for d in range(4)]
    pool += [cd.make_boundary_simplex(d) for d in range(1, 5)]
    pool += [cd.make_polygon(n) for n in range(3, 7)]
    for k in range(1, 5):
        stacked = cd.make_stacked(3, k, seed=k)
        pool += [stacked.boundary, stacked.triangulation]
    return pool


def random_facet_lists(rng, count):
    """Facet lists with duplicates, nested sets, [] and [[]], integer names,
    the empty name and names holding the separators of face ids."""
    names = ["a,1", "b", "{c}", "d\\e", "z}", "0", "10", "2", 0, 3, 11, "",
             "\\0"]
    for _ in range(count):
        given = [rng.sample(names, rng.randint(0, 5))
                 for _ in range(rng.randint(0, 7))]
        for f in list(given):
            roll = rng.random()
            if roll < 0.3:
                given.append(list(reversed(f)))
            elif roll < 0.6:
                given.append(f[:rng.randint(0, len(f))])
        given += rng.choice(([], [[]], [[rng.choice(names)]], [["0", 0]]))
        rng.shuffle(given)
        yield given


def test_face_poset_matches_the_frozenset_oracle(rng):
    # the bitmask enumeration gives the oracle's elements in its order and
    # its covers, from a complex and from the raw vertex lists alike
    cases = [(k, k) for k in complex_fixtures()]
    cases += [(cd.SimplicialComplex(given), given)
              for given in random_facet_lists(rng, 300)]
    for k, given in cases:
        for with_max in (False, True):
            want = face_poset_by_frozensets(k, with_max)
            for got in (cd.face_poset(k, with_max),
                        cd.face_poset(given, with_max)):
                assert same_build(got, want), (given, with_max)
                assert got.to_json() == want.to_json()


MALFORMED_FACETS = [
    ({"facets": 5}, 'a complex is an object with a "facets" list of vertex '
                    'lists'),
    ({"facets": None}, 'a complex is an object with a "facets" list of '
                       'vertex lists'),
    ({"facets": [["a"], "b"]}, 'a complex is an object with a "facets" list '
                               'of vertex lists'),
    ({"facets": [[1, [2]]]}, "facet vertex [2] is not a string or an "
                             "integer"),
    ({"facets": [["a", None]]}, "facet vertex null is not a string or an "
                                "integer"),
    ({"facets": [["a"], [True]]}, "facet vertex true is not a string or an "
                                  "integer"),
]


@pytest.mark.parametrize("obj, message", MALFORMED_FACETS)
def test_malformed_facets_keep_their_messages(capsys, tmp_path, obj,
                                              message):
    # the complex reader and the face-row decoder share one check
    for decode in (cd.SimplicialComplex.from_json_obj, _poset_from_obj):
        assert outcome(decode, obj) == ("raised", DomainError, message, None)
    path = tmp_path / "bad.json"
    tetra = cd.make_boundary_simplex(3).to_json_obj()
    for argv, text in ((["compute", "--what", "cd"], obj),
                       (["verify", "--property", "gorenstein"], obj),
                       (["decompose"], {"source": obj, "target": tetra,
                                        "carrier": {}})):
        path.write_text(json.dumps(text))
        code = run(argv + ["--input", str(path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "validation error: %s\n"
                                    % message), argv


def test_facets_match_pairwise_filter(rng):
    # duplicates, nested sets, the empty set and single vertices, with
    # vertex names given as ints and as strings
    for _ in range(300):
        n = rng.randint(1, 7)
        given = [rng.sample(range(n), rng.randint(0, n))
                 for _ in range(rng.randint(0, 8))]
        for f in list(given):
            roll = rng.random()
            if roll < 0.3:
                given.append(list(reversed(f)))
            elif roll < 0.6:
                given.append(f[:rng.randint(0, len(f))])
        given += rng.choice(([], [[]], [[rng.randrange(n)]], [["0", 0]]))
        rng.shuffle(given)
        k = cd.SimplicialComplex(given)
        want = facets_by_pairwise_filter(given)
        assert k.facets == tuple(sorted(want, key=lambda f: (len(f),
                                                             sorted(f))))
        assert k.faces() == {frozenset(c) for f in want | {frozenset()}
                             for r in range(len(f) + 1)
                             for c in combinations(f, r)}
        assert k.vertices == tuple(sorted(set().union(*want)))


def test_order_complex_b3_is_hexagon():
    oc = cd.order_complex(cd.boolean_poset(3))
    assert cd.f_vector(oc) == [1, 6, 6]
    assert isomorphic(cd.face_poset(oc, with_max=True),
                            polygon_lattice(6))


def test_order_complex_of_powerset_example_is_path():
    p = cd.GradedPoset(
        ["", "1", "2", "3", "12", "23", "123"],
        [("", "1"), ("", "2"), ("", "3"), ("1", "12"), ("2", "12"),
         ("2", "23"), ("3", "23"), ("12", "123"), ("23", "123")])
    oc = cd.order_complex(p)
    # a path with four edges: 5 proper elements, 4 vertex-edge incidences
    assert cd.f_vector(oc) == [1, 5, 4]
    assert cd.reduced_betti(oc) == [0, 0]


def test_order_complex_two_element_chain_is_empty():
    oc = cd.order_complex(cd.chain_poset(1))
    assert oc.dim == -1
    assert cd.f_vector(oc) == [1]


def test_barycentric_subdivision_triangle_counts():
    oc, m = cd.barycentric_subdivision(cd.make_simplex(2))
    assert cd.f_vector(oc) == [1, 7, 12, 6]
    assert list(cd.h_vector(oc)) == [1, 4, 1, 0]
    assert cd.validate_strong_eulerian(m).ok


def test_barycentric_subdivision_edge_and_vertex():
    oc, _ = cd.barycentric_subdivision(cd.make_simplex(1))
    assert cd.f_vector(oc) == [1, 3, 2]
    ocv, _ = cd.barycentric_subdivision(cd.make_simplex(0))
    assert cd.f_vector(ocv) == [1, 1]


def test_star_and_link():
    k = cd.SimplicialComplex([["a", "b", "c"], ["b", "c", "d"], ["d", "e"]])
    st = cd.star(k, ["b"])
    assert st.facets == cd.SimplicialComplex(
        [["a", "b", "c"], ["b", "c", "d"]]).facets
    lk = cd.link(k, ["b"])
    assert lk.facets == cd.SimplicialComplex([["a", "c"], ["c", "d"]]).facets
    # star of a facet is its closure; link of the empty face is everything
    assert cd.star(k, ["d", "e"]) == cd.SimplicialComplex([["d", "e"]])
    assert cd.link(k, []) == k
    with pytest.raises(FaceNotFound):
        cd.star(k, ["a", "e"])


def test_link_dimension_drop():
    k = cd.make_boundary_simplex(3)
    lk = cd.link(k, ["0"])
    assert lk.dim == 1
    assert isomorphic(cd.face_poset(lk, with_max=True),
                            polygon_lattice(3))


def test_f_and_h_vectors():
    assert cd.f_vector(cd.make_boundary_simplex(3)) == [1, 4, 6, 4]
    for d in range(1, 5):
        h = cd.h_vector(cd.make_boundary_simplex(d))
        assert list(h) == [1] * (d + 1)
    point = cd.SimplicialComplex([["p"]])
    assert cd.h_vector(point).polynomial() == UniPolynomial.one()
    mixed = cd.SimplicialComplex([["a", "b"], ["c"]])
    with pytest.raises(NotPure):
        cd.h_vector(mixed)


def test_h_symmetry_on_sphere_fixtures():
    for k in (cd.make_boundary_simplex(2), cd.make_boundary_simplex(3),
              cd.make_polygon(7), octahedron_complex(),
              cd.make_stacked(3, 4).boundary):
        h = list(cd.h_vector(k))
        assert h == h[::-1], k


def test_flag_to_h_matches_direct():
    for p in (cd.boolean_poset(3), square_lattice(),
              cd.face_poset(octahedron_complex(), with_max=True)):
        via_flags = cd.flag_to_h(p)
        direct = cd.h_vector(cd.order_complex(p))
        assert list(via_flags) == list(direct)
    assert list(cd.flag_to_h(cd.boolean_poset(3))) == [1, 4, 1]
    assert list(cd.flag_to_h(cd.chain_poset(1))) == [1]


def test_reduced_betti():
    assert cd.reduced_betti(cd.make_boundary_simplex(3)) == [0, 0, 1]
    assert cd.reduced_betti(cd.make_simplex(2)) == [0, 0, 0]
    two_points = cd.SimplicialComplex([["a"], ["b"]])
    assert cd.reduced_betti(two_points) == [1]
    circle = cd.make_polygon(6)
    assert cd.reduced_betti(circle) == [0, 1]
    torus_like = cd.SimplicialComplex([["a", "b"], ["b", "c"], ["a", "c"],
                                       ["c", "d"], ["d", "e"], ["c", "e"]])
    assert cd.reduced_betti(torus_like) == [0, 2]


def random_complex(rng):
    """Each vertex subset of one drawn size (up to 7 vertices) is a facet
    with one drawn probability; about a quarter of the draws have homology
    above dimension 0."""
    verts = [str(v) for v in range(rng.randint(1, 7))]
    size = rng.randint(1, min(len(verts), 4))
    keep = rng.random()
    return cd.SimplicialComplex(
        [f for f in combinations(verts, size) if rng.random() < keep])


def test_reduced_betti_matches_oracles_on_random_complexes():
    rng = random.Random(2003)
    for _ in range(300):
        k = random_complex(rng)
        assert cd.reduced_betti(k) == betti_by_fractions(k) \
            == betti_by_sympy(k), k.facets


def test_reduced_betti_matches_oracles_on_named_complexes():
    # RP^2 meets a leading entry of 2 in the elimination, and its integral
    # H_1 is Z/2: a kernel that worked mod 2 would read 0, 1, 1
    for k, betti in ((rp2_complex(), [0, 0, 0]),
                     (torus_complex(), [0, 2, 1]),
                     (cd.order_complex(cd.boolean_poset(5)), [0, 0, 0, 1])):
        assert cd.reduced_betti(k) == betti_by_fractions(k) \
            == betti_by_sympy(k) == betti
    assert not cd.is_gorenstein(rp2_complex())
    assert not cd.is_gorenstein(torus_complex())


def test_homology_at_scale():
    """The order complex of B_6 has 4,683 faces, beyond the reach of dense
    elimination in a test."""
    k = cd.order_complex(cd.boolean_poset(6))
    assert cd.reduced_betti(k) == [0, 0, 0, 0, 1]
    assert cd.is_gorenstein(k)


def test_euler_poincare(eulerian_fixtures):
    rng = random.Random(7)
    pool = [cd.make_boundary_simplex(2), cd.make_boundary_simplex(3),
            cd.make_polygon(5), cd.make_simplex(2),
            octahedron_complex(), cd.make_stacked(3, 3).boundary,
            cd.SimplicialComplex([["a", "b"], ["b", "c"], ["c", "a"],
                                  ["a", "d"]])]
    for k in pool:
        f = cd.f_vector(k)
        betti = cd.reduced_betti(k)
        euler = sum((-1) ** i * f[i + 1] for i in range(len(f) - 1))
        reduced = sum((-1) ** i * b for i, b in enumerate(betti))
        assert euler - 1 == reduced, k


def test_gorenstein():
    assert cd.is_gorenstein(cd.make_boundary_simplex(2))
    assert cd.is_gorenstein(cd.make_boundary_simplex(3))
    assert cd.is_gorenstein(octahedron_complex())
    assert cd.is_gorenstein(cd.make_polygon(5))
    assert cd.is_gorenstein(cd.make_stacked(3, 3).boundary)
    two_triangles = cd.SimplicialComplex([["a", "b", "c"], ["d", "e", "f"]])
    assert not cd.is_gorenstein(two_triangles)
    assert not cd.is_gorenstein(cd.make_simplex(2))


def test_near_gorenstein():
    # a triangulated disc: fan of triangles around an interior vertex
    disc = cd.SimplicialComplex(
        [["c", "1", "2"], ["c", "2", "3"], ["c", "3", "4"], ["c", "4", "1"]])
    boundary = cd.SimplicialComplex(
        [["1", "2"], ["2", "3"], ["3", "4"], ["4", "1"]])
    assert cd.is_near_gorenstein(disc, boundary)
    assert not cd.is_near_gorenstein(disc, cd.make_polygon(3))
    solid = cd.make_simplex(2)
    assert cd.is_near_gorenstein(solid, cd.make_boundary_simplex(2))
    # a boundary of the wrong dimension, and one that is no sphere
    assert not cd.is_near_gorenstein(solid, cd.make_boundary_simplex(3))
    two_edges = cd.SimplicialComplex([["0", "1"], ["2", "3"]])
    assert not cd.is_near_gorenstein(solid, two_edges)


def test_verify_shelling_polygon_walk():
    square = cd.make_polygon(4)
    walk = [["0", "1"], ["1", "2"], ["2", "3"], ["3", "0"]]
    assert cd.verify_shelling(square, walk)
    # jumping across leaves a gap: the third edge meets nothing
    assert not cd.verify_shelling(
        square, [["0", "1"], ["2", "3"], ["1", "2"], ["3", "0"]])


def test_verify_shelling_stacked_order():
    sp = cd.make_stacked(3, 3)
    assert cd.verify_shelling(sp.triangulation, list(sp.order))


def test_verify_shelling_rejects_bad_ball_order():
    # 2-ball of three triangles in a row; starting from both ends fails
    strip = cd.SimplicialComplex(
        [["1", "2", "3"], ["2", "3", "4"], ["3", "4", "5"]])
    good = [["1", "2", "3"], ["2", "3", "4"], ["3", "4", "5"]]
    bad = [["1", "2", "3"], ["3", "4", "5"], ["2", "3", "4"]]
    assert cd.verify_shelling(strip, good)
    assert not cd.verify_shelling(strip, bad)


def test_find_shelling():
    for k in (cd.make_boundary_simplex(3), cd.make_polygon(6),
              octahedron_complex(), cd.make_stacked(3, 4).boundary):
        order = cd.find_shelling(k)
        assert order is not None
        assert cd.verify_shelling(k, order)
    two_triangles = cd.SimplicialComplex([["a", "b", "c"], ["d", "e", "f"]])
    assert cd.find_shelling(two_triangles) is None


def test_shelling_step_matches_closure_oracle(rng):
    complexes = [cd.make_stacked(3, k, seed=k).boundary for k in (1, 3, 6)]
    complexes += [cd.make_stacked(2, 5, seed=2).boundary,
                  cd.make_boundary_simplex(5), cd.make_polygon(5),
                  cd.make_polygon(8)]
    verdicts = set()
    for k in complexes:
        for _ in range(10):
            order = list(k.facets)
            rng.shuffle(order)
            cut = rng.randint(1, len(order) - 1)
            prev = {x for f in order[:cut] for x in _closure_of(f)}
            for f in order[cut:]:
                ok = _shelling_step_ok(prev, f)
                assert ok == shelling_step_by_closure(prev, f), (order, f)
                verdicts.add(ok)
    assert verdicts == {True, False}


def test_generators():
    assert cd.cd_index(cd.face_poset(cd.make_boundary_simplex(2),
                                     with_max=True)) == polygon_cd(3)
    assert isomorphic(cd.face_poset(cd.make_polygon(4), with_max=True),
                            square_lattice())
    cube = cd.make_cube3()
    assert cube.is_eulerian() and cube.is_lattice()


def test_make_stacked_bipyramid():
    sp = cd.make_stacked(3, 2)
    f = cd.f_vector(sp.boundary)
    assert f == [1, 5, 9, 6]
    assert f[1] - f[2] + f[3] == 2
    assert len(sp.order) == 2


def test_make_stacked_euler_relation():
    for k in range(1, 6):
        for seed in (0, 1, 5):
            sp = cd.make_stacked(3, k, seed=seed)
            f = cd.f_vector(sp.boundary)
            assert f[1] - f[2] + f[3] == 2, (k, seed)
            assert f[3] == 2 * k + 2


def test_stacked_cd_formula():
    simplex_d = cd.cd_index(cd.boolean_poset(4))
    simplex_d1 = cd.cd_index(cd.boolean_poset(3))
    c = cd.CdPolynomial.monomial("c")
    for k in range(1, 6):
        sp = cd.make_stacked(3, k, seed=k)
        got = cd.cd_index(cd.face_poset(sp.boundary, with_max=True))
        want = simplex_d * k - simplex_d1 * c * (k - 1)
        assert got == want, k
    assert cd.cd_index(cd.face_poset(cd.make_stacked(3, 2).boundary,
                                     with_max=True)) \
        == three_polytope_cd(5, 6)


def test_shelling_step_local_cd_increment():
    """Along a shelling, the local cd-index grows by l(intersection) * c +
    cd(boundary of intersection) * d at every step."""
    c = cd.CdPolynomial.monomial("c")
    d = cd.CdPolynomial.monomial("d")
    shellings = []
    tetra = cd.make_boundary_simplex(3)
    shellings.append((tetra, cd.find_shelling(tetra)))
    octa = octahedron_complex()
    shellings.append((octa, cd.find_shelling(octa)))
    stacked = cd.make_stacked(3, 4, seed=2).boundary
    shellings.append((stacked, cd.find_shelling(stacked)))
    pent = cd.make_polygon(5)
    shellings.append((pent, cd.find_shelling(pent)))
    for k, order in shellings:
        assert order is not None and cd.verify_shelling(k, order)
        for i in range(1, len(order) - 1):
            prev = cd.SimplicialComplex(order[:i])
            cur = cd.SimplicialComplex(order[:i + 1])
            # the intersection complex: faces of the new facet already present
            gamma = cd.SimplicialComplex(_intersection_facets(prev, order[i]))
            l_prev = cd.local_index(cd.face_poset(prev, with_max=True)).cd
            l_cur = cd.local_index(cd.face_poset(cur, with_max=True)).cd
            gpos = cd.face_poset(gamma, with_max=True)
            l_gamma = cd.local_index(gpos).cd
            bd_gamma = cd.cd_index(cd.boundary(gpos))
            increment = l_gamma * c + bd_gamma * d
            assert l_cur - l_prev == increment, (k, i)
            assert coefficientwise_leq(l_prev, l_cur)


def _intersection_facets(prev, facet):
    facet = frozenset(facet)
    faces = {f for f in prev.faces() if f <= facet and f}
    return [f for f in faces if not any(f < g for g in faces)]


def test_stacked_upper_bound_spot_checks():
    """Spheres triangulated by a shellable ball with k cells are bounded by
    the stacked polytope with the same k."""
    c = cd.CdPolynomial.monomial("c")
    simplex_d = cd.cd_index(cd.boolean_poset(4))
    simplex_d1 = cd.cd_index(cd.boolean_poset(3))

    def stacked_cd(k):
        return simplex_d * k - simplex_d1 * c * (k - 1)

    cases = []
    # bipyramid triangulated by three tetrahedra around an inner edge
    t3 = cd.SimplicialComplex([["1", "2", "3", "4"], ["1", "2", "3", "5"],
                               ["1", "2", "4", "5"]])
    cases.append((cd.SimplicialComplex(
        [["1", "3", "4"], ["2", "3", "4"], ["1", "3", "5"], ["2", "3", "5"],
         ["1", "4", "5"], ["2", "4", "5"]]), t3, 3))
    # octahedron triangulated by four tetrahedra around a diagonal
    t4 = cd.SimplicialComplex([["1", "-1", "2", "3"], ["1", "-1", "3", "-2"],
                               ["1", "-1", "-2", "-3"],
                               ["1", "-1", "-3", "2"]])
    cases.append((octahedron_complex(), t4, 4))
    for sphere, ball, k in cases:
        order = cd.find_shelling(ball)
        assert order is not None and cd.verify_shelling(ball, order)
        # the triangulation restricted to the boundary introduces no faces
        assert all(f in ball.faces() for f in sphere.faces())
        got = cd.cd_index(cd.face_poset(sphere, with_max=True))
        assert coefficientwise_leq(got, stacked_cd(k)), k


def test_complex_json_roundtrip():
    k = cd.make_stacked(3, 3).boundary
    text = k.to_json()
    assert cd.SimplicialComplex.from_json(text) == k


def test_find_shelling_cutoff_is_distinct_from_exhausted():
    from cdindex.errors import SearchCutoff
    k = cd.make_stacked(3, 5, seed=3).boundary
    with pytest.raises(SearchCutoff):
        cd.find_shelling(k, max_nodes=2)


def shelling_pool():
    """Every complex the tests search for a shelling, plus searches that
    must backtrack (two disconnected parts, a bowtie) and a non-pure
    complex."""
    strip = [["1", "2", "3"], ["2", "3", "4"], ["3", "4", "5"]]
    return [
        ("tetra", cd.make_boundary_simplex(3)),
        ("hexagon", cd.make_polygon(6)),
        ("pentagon", cd.make_polygon(5)),
        ("octahedron", octahedron_complex()),
        ("stacked34", cd.make_stacked(3, 4).boundary),
        ("stacked34s2", cd.make_stacked(3, 4, seed=2).boundary),
        ("stacked34s7", cd.make_stacked(3, 4, seed=7).boundary),
        ("stacked35s3", cd.make_stacked(3, 5, seed=3).boundary),
        ("ball3", cd.SimplicialComplex([["1", "2", "3", "4"],
                                        ["1", "2", "3", "5"],
                                        ["1", "2", "4", "5"]])),
        ("ball4", cd.SimplicialComplex([["1", "-1", "2", "3"],
                                        ["1", "-1", "3", "-2"],
                                        ["1", "-1", "-2", "-3"],
                                        ["1", "-1", "-3", "2"]])),
        ("two_triangles", cd.SimplicialComplex([["a", "b", "c"],
                                                ["d", "e", "f"]])),
        ("strip_and_triangle", cd.SimplicialComplex(strip
                                                    + [["a", "b", "c"]])),
        ("bowtie", cd.SimplicialComplex([["1", "2", "3"], ["3", "4", "5"]])),
        ("single", cd.make_simplex(2)),
        ("not_pure", cd.SimplicialComplex([["1", "2", "3"], ["3", "4"]])),
    ]


def test_find_shelling_matches_recursive_search():
    """Equal orders, None results and SearchCutoff points: at every budget
    up to the one the search needs, both searches answer alike."""
    needed = {}
    for name, k in shelling_pool():
        budget = 0
        while True:
            got = outcome(cd.find_shelling, k, budget)
            assert got == outcome(find_shelling_by_recursion, k, budget), \
                (name, budget)
            if got[0] == "value" or got[1] is not SearchCutoff:
                break
            budget += 1
        assert outcome(cd.find_shelling, k) == got, name
        needed[name] = budget
    # the strip is searched from each of its facets before it fails
    assert needed["strip_and_triangle"] == 12


def test_find_shelling_of_1202_facets(capsys, tmp_path):
    """The search depth equals the number of facets; a recursive search
    overflowed the interpreter's stack here."""
    assert run(["generate", "--shape", "stacked", "--dim", "3",
                "--k", "600"]) == 0
    path = tmp_path / "stacked600.json"
    path.write_text(capsys.readouterr().out)
    k = cd.SimplicialComplex.from_json(path.read_text())
    assert len(k.facets) == 1202
    assert run(["verify", "--property", "shelling", "--format", "json",
                "--input", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    order = [f.split(",") for f in report["shelling"].split(";")]
    assert report["ok"] and cd.verify_shelling(k, order)


def test_complex_membership_hash_and_repr():
    k = cd.SimplicialComplex([["a", "b", "c"], ["c", "d"]])
    assert k.has_face(["a", "c"]) and ["d"] in k and [] in k
    assert not k.has_face(["a", "d"]) and ["b", "d"] not in k
    assert hash(k) == hash(cd.SimplicialComplex([["d", "c"], ["c", "b", "a"]]))
    assert repr(k) == "SimplicialComplex(4 vertices, 2 facets, dim 2)"


def test_link_of_an_absent_face_raises():
    with pytest.raises(FaceNotFound) as info:
        cd.link(cd.make_polygon(4), ["0", "2"])
    assert str(info.value) == "face ['0', '2'] not in complex"


def test_flag_to_h_of_a_point_raises():
    with pytest.raises(DomainError) as info:
        cd.flag_to_h(cd.chain_poset(0))
    assert str(info.value) == "rank-0 poset has no order complex h-vector"


def test_near_gorenstein_needs_a_pure_complex():
    mixed = cd.SimplicialComplex([["a", "b", "c"], ["c", "d"]])
    with pytest.raises(NotPure) as info:
        cd.is_near_gorenstein(mixed, cd.make_polygon(3))
    assert str(info.value) == "near-Gorenstein test needs a pure complex"


@pytest.mark.parametrize("make, args, message", [
    (cd.make_simplex, (-1,), "dimension must be >= 0"),
    (cd.make_boundary_simplex, (0,), "boundary needs dimension >= 1"),
    (cd.make_polygon, (2,), "a polygon needs at least 3 vertices"),
    (cd.make_stacked, (1, 1), "stacked polytopes need dimension >= 2"),
    (cd.make_stacked, (3, 0), "need at least one simplex in the stack"),
])
def test_generators_refuse_out_of_range_sizes(make, args, message):
    with pytest.raises(DomainError) as info:
        make(*args)
    assert str(info.value) == message


def test_reduced_betti_through_a_pivot_whose_lead_is_not_one():
    # the elimination keeps a row led by 2 whose other entries are odd, so
    # a later row with the same lowest column is scaled before the pivot is
    # taken off it; two independent loops survive
    k = cd.SimplicialComplex([
        ["0", "1", "3"], ["0", "1", "6"], ["0", "3", "6"], ["0", "4", "7"],
        ["1", "2", "7"], ["1", "3", "4"], ["1", "4", "5"], ["2", "3", "7"],
        ["3", "4", "7"]])
    assert cd.reduced_betti(k) == betti_by_fractions(k) \
        == betti_by_sympy(k) == [0, 2, 0]
