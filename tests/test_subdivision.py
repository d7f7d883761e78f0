"""Subdivision maps: validation, restriction, skeletal decomposition, and
the cd-index decomposition."""
import pytest

import cdindex as cd
from cdindex.cli import run
from cdindex.errors import InvalidChain, RequiresBounds, ValidationRequired
from cdindex.ncpoly import CdPolynomial, coefficientwise_leq
from cdindex.subdivision import _basic_failures
from conftest import (decompose_rows_by_rebuild, enumerate_chains,
                      hexagon_over_triangle, outcome,
                      preimage_ids_by_definition, square_lattice,
                      telescoping_by_rebuild, tetra_subdivision)


def test_validate_strong_eulerian_fixtures(subdivision_fixtures):
    for name, m in subdivision_fixtures:
        report = cd.validate_strong_eulerian(m)
        assert report.ok, (name, report.failures[:3])


def test_validate_identity():
    m = cd.identity_subdivision(square_lattice())
    assert cd.validate_strong_eulerian(m).ok
    assert cd.validate_strong_formal(m).ok


def test_validate_rejects_rank_collapse():
    # collapse an edge of the square onto a vertex
    sq = square_lattice()
    carrier = {e: e for e in sq.elements}
    carrier["{0,1}"] = "{0}"
    m = cd.SubdivisionMap(sq, sq, carrier)
    report = cd.validate_strong_eulerian(m)
    assert not report.ok
    assert any("{0" in str(f[0]) or "order" in f[1] for f in report.failures)


def test_validate_strong_formal_fixtures(subdivision_fixtures):
    for name, m in subdivision_fixtures:
        report = cd.validate_strong_formal(m)
        assert report.ok, (name, report.failures[:3])


def test_strong_formal_catches_broken_carrier():
    m = tetra_subdivision()
    carrier = dict(m.carrier)
    # send an interior edge of the split facet to the wrong face
    carrier["{3,5}"] = "{1,2,3}"
    carrier["{1,5,3}"] = "{1,2,3}"
    carrier["{5,2,3}"] = "{1,2,3}"
    carrier["{5}"] = "{1,2,3}"
    broken = cd.SubdivisionMap(m.source, m.target, carrier)
    assert not cd.validate_strong_formal(broken).ok


def strong_formal_failures_by_loop(m):
    """The strong formal conditions summed element by element, with the
    failures in the order validate_strong_formal reports them."""
    src, tgt = m.source, m.target
    failures = list(_basic_failures(m))
    if not failures:
        failures = [(z, "carrier lowers rank") for z in src.elements
                    if src.rank(z) > tgt.rank(m(z))]
    if failures:
        return failures
    for x in tgt.elements:
        rx = tgt.rank(x)
        inside = set(preimage_ids_by_definition(m, x))
        for z in src.elements:
            if not tgt.le(m(z), x):
                continue
            ys = [y for y in src.up_set(z, strict=False) if y in inside]
            total = sum((-1) ** (rx - src.rank(y)) for y in ys)
            want = 1 if m(z) == x else 0
            if total != want:
                failures.append(((z, x), "alternating sum %d, want %d"
                                 % (total, want)))
            if not any(src.rank(y) == rx for y in ys):
                failures.append(((z, x), "no element above witnesses the "
                                         "rank of the carrier"))
    return failures


def test_strong_formal_failures_match_elementwise_sums(subdivision_fixtures):
    # move the carrier of one source element at a time to every other
    # target element; the bitmask sums must report the same failures
    reached = 0
    for name, m in subdivision_fixtures:
        for z in m.source.elements:
            for x in m.target.elements:
                carrier = dict(m.carrier)
                carrier[z] = x
                moved = cd.SubdivisionMap(m.source, m.target, carrier)
                want = strong_formal_failures_by_loop(moved)
                got = cd.validate_strong_formal(moved).failures
                assert list(got) == want, (name, z, x)
                reached += any(isinstance(f[0], tuple) for f in want)
    assert reached >= 10


def one_element_moves(m):
    """The map itself, then every map that moves the carrier of one source
    element to another target element."""
    yield m
    for z in m.source.elements:
        for x in m.target.elements:
            if x != m(z):
                yield cd.SubdivisionMap(m.source, m.target,
                                        {**m.carrier, z: x})


def test_preimage_ideal_ids_match_definition(subdivision_fixtures):
    maps = 0
    for name, m in subdivision_fixtures:
        for moved in one_element_moves(m):
            for sigma in moved.target.elements:
                assert moved.preimage_ideal_ids(sigma) == \
                    preimage_ids_by_definition(moved, sigma), (name, sigma)
            maps += 1
    assert maps > 500


def test_restrict_to_edge_is_path():
    m = tetra_subdivision()
    r = cd.restrict(m, "{1,2}")
    path = cd.face_poset(cd.SimplicialComplex([["1", "5"], ["5", "2"]]))
    assert cd.is_isomorphic(r.source, path)
    assert cd.validate_strong_eulerian(r).ok
    # restriction to a vertex is trivial; restriction to the top is the map
    rv = cd.restrict(m, "{3}")
    assert len(rv.source.elements) == 2
    rt = cd.restrict(m, m.target.max_elt)
    assert len(rt.source.elements) == len(m.source.elements)


def test_skeletal_family_tetra():
    m = tetra_subdivision()
    fam = cd.skeletal_family(m)
    assert fam.n == 4
    assert cd.is_isomorphic(fam.posets[0], m.target)
    assert cd.is_isomorphic(fam.posets[1], m.target)
    assert not cd.is_isomorphic(fam.posets[2], m.target)
    assert not cd.is_isomorphic(fam.posets[2], m.source)
    assert cd.is_isomorphic(fam.posets[3], m.source)
    assert cd.is_isomorphic(fam.posets[4], m.source)
    # level 2 has the new vertex and the split edge, nothing else new
    assert len(fam.posets[2].elements) == len(m.target.elements) + 2


def test_skeletal_family_identity():
    m = cd.identity_subdivision(square_lattice())
    fam = cd.skeletal_family(m)
    for p in fam.posets:
        assert cd.is_isomorphic(p, m.target)


def test_skeletal_family_hexagon():
    m = hexagon_over_triangle()
    fam = cd.skeletal_family(m)
    # vertices are untouched, edges triple in count at level 2
    assert cd.is_isomorphic(fam.posets[1], m.target)
    lvl2 = fam.posets[2]
    assert len(lvl2.level(2)) == 6
    assert len(lvl2.level(1)) == 6


def skeletal_covers_by_definition(m, i):
    """Elements and covers of skeletal poset i: new source elements carried
    to rank <= i and old target elements of rank > i, ordered as in the
    source, by carrier, and as in the target; a cover is a pair with no
    element in between."""
    src, tgt = m.source, m.target
    new = ["new:" + e for e in src.elements if tgt.rank(m(e)) <= i]
    old = ["old:" + e for e in tgt.elements if tgt.rank(e) > i]

    def lt(x, y):
        (kx, _, x), (ky, _, y) = x.partition(":"), y.partition(":")
        if kx == "new" and ky == "new":
            return src.lt(x, y)
        if kx == "new":
            return tgt.le(m(x), y)
        return kx == ky == "old" and tgt.lt(x, y)

    elements = new + old
    covers = {(x, y) for x in elements for y in elements
              if lt(x, y) and not any(lt(x, z) and lt(z, y)
                                      for z in elements)}
    return set(elements), covers


def test_skeletal_composition_is_carrier(subdivision_fixtures):
    for name, m in subdivision_fixtures:
        fam = cd.skeletal_family(m)
        assert fam.composed_carrier() == m.carrier, name
        for i, p in enumerate(fam.posets):
            els = p.elements
            got = (set(els), {(els[lo], els[hi]) for lo, hi in p.cover_pairs})
            assert got == skeletal_covers_by_definition(m, i), (name, i)


def test_classify_flags_example():
    fam = cd.skeletal_family(tetra_subdivision())
    assert cd.classify_flag(fam, 2, ["new:{5}", "new:{2,5}"]) == ("new", 2)
    assert cd.classify_flag(
        fam, 2, ["new:{5}", "new:{2,5}", "old:{1,2,4}"]) == ("mixed", 2)
    assert cd.classify_flag(fam, 2, ["old:{1,3,4}"]) == ("old", None)
    assert cd.classify_flag(fam, 2, ["new:{1,3}", "old:{1,3,4}"]) \
        == ("mixed", 2)
    with pytest.raises(InvalidChain):
        cd.classify_flag(fam, 2, ["old:{1,3,4}", "old:{2,3,4}"])
    with pytest.raises(InvalidChain):
        cd.classify_flag(fam, 1, ["new:{5}"])


def test_mixed_flags_switch_at_most_i(subdivision_fixtures):
    for name, m in subdivision_fixtures[:4]:
        if m.target.max_elt is None or m.source.max_elt is None:
            continue
        fam = cd.skeletal_family(m)
        for i in (1, 2):
            if i > fam.n:
                continue
            p = fam.posets[i]
            for chain in enumerate_chains(p):
                if not chain:
                    continue
                kind, switch = cd.classify_flag(fam, i, list(chain))
                if kind != "old":
                    assert switch <= i, (name, i, chain)


def test_decompose_tetra_example():
    dec = cd.decompose_cd(tetra_subdivision())
    rows = {r.sigma: r for r in dec.nonzero_rows()}
    assert set(rows) == {"{}", "{1,2}", "{1,2,3}", "{1,2,4}"}
    assert rows["{1,2}"].local_cd == CdPolynomial.monomial("d")
    assert rows["{1,2}"].upper_cd == CdPolynomial.monomial("c")
    for face in ("{1,2,3}", "{1,2,4}"):
        assert rows[face].local_cd == CdPolynomial.monomial("cd")
        assert rows[face].upper_cd == CdPolynomial.one()
    assert dec.total == CdPolynomial({"ccc": 1, "dc": 3, "cd": 4})


def test_decompose_identity():
    m = cd.identity_subdivision(square_lattice())
    dec = cd.decompose_cd(m)
    nz = dec.nonzero_rows()
    assert len(nz) == 1 and nz[0].sigma == m.target.min_elt
    assert nz[0].local_cd == CdPolynomial.one()
    assert dec.total == cd.cd_index(square_lattice())


def test_decompose_hexagon_over_triangle():
    dec = cd.decompose_cd(hexagon_over_triangle())
    assert dec.total == cd.polygon_cd(6)


def test_decompose_refuses_unvalidated():
    sq = square_lattice()
    carrier = {e: e for e in sq.elements}
    carrier["{0,1}"] = "{0}"
    broken = cd.SubdivisionMap(sq, sq, carrier)
    with pytest.raises(cd.CdindexError):
        cd.decompose_cd(broken)


def test_rank_telescoping_tetra_and_hexagon():
    for m in (tetra_subdivision(), hexagon_over_triangle()):
        fam = cd.skeletal_family(m)
        for i in range(1, fam.n + 1):
            assert cd.verify_rank_telescoping(fam, i), i


def test_rank_telescoping_detects_mutation():
    m = tetra_subdivision()
    carrier = dict(m.carrier)
    # recarry the new vertex onto a face instead of its edge
    carrier["{5}"] = "{1,2,3}"
    carrier["{1,5}"] = "{1,2,3}"
    carrier["{2,5}"] = "{1,2,3}"
    broken = cd.SubdivisionMap(m.source, m.target, carrier)
    fam = cd.SkeletalFamily(broken)
    good = cd.skeletal_family(m)
    fam.posets = good.posets
    fam.maps = good.maps
    assert not cd.verify_rank_telescoping(fam, 2)


def test_decompose_rows_match_rebuilt_faces(subdivision_fixtures):
    decomposed = 0
    for name, m in subdivision_fixtures:
        got = outcome(cd.decompose_cd, m)
        if got[0] == "raised":
            # an unbounded side is refused before any row is computed
            assert got[1] is RequiresBounds, (name, got)
            continue
        assert got[1].rows == decompose_rows_by_rebuild(m), name
        decomposed += 1
    assert decomposed >= 3


def test_decompose_names_the_missing_bound(subdivision_fixtures, capsys,
                                           tmp_path):
    maps = dict(subdivision_fixtures)
    want = {"bary_triangle": "source has no maximum",
            "half_triangle": "source has no maximum",
            "edge1": "source has no maximum",
            "edge3": "source has no maximum",
            "bary_square": "target has no maximum"}
    for name, phrase in want.items():
        with pytest.raises(RequiresBounds) as info:
            cd.decompose_cd(maps[name])
        assert phrase in str(info.value), name
        assert "with_adjoined_tops" in str(info.value), name
        path = tmp_path / (name + ".json")
        path.write_text(maps[name].to_json())
        assert run(["decompose", "--input", str(path)]) == 2
        assert phrase in capsys.readouterr().err, name
    # an antichain mapped to itself lacks both bounds, so it is not valid
    antichain = cd.identity_subdivision(cd.build_poset(["a", "b"], []))
    report = cd.validate_strong_eulerian(antichain)
    assert not report.ok
    assert report.failures == (("*", "target has no minimum"),)
    with pytest.raises(ValidationRequired, match="target has no minimum"):
        cd.decompose_cd(antichain)


def test_decompose_without_a_minimum_fails_validation():
    # a square lattice with a second bottom z under its atoms: as its own
    # target it has no minimum; carried to the square's minimum, z joins
    # the square's bottom in the capped preimage of every face, which so
    # has no minimum and is not near-Eulerian
    sq = square_lattice()
    covers = [(sq.elements[lo], sq.elements[hi]) for lo, hi in sq.cover_pairs]
    covers += [("z", a) for a in sq.atoms()]
    extra = cd.build_poset(list(sq.elements) + ["z"], covers)
    assert extra.min_elt is None and extra.is_graded
    carrier = {e: e for e in sq.elements}
    carrier["z"] = sq.min_elt
    into_square = cd.SubdivisionMap(extra, sq, carrier)
    cases = [(cd.identity_subdivision(extra), "target has no minimum"),
             (into_square, "not near-Eulerian")]
    for m, phrase in cases:
        assert not cd.validate_strong_eulerian(m).ok
        with pytest.raises(ValidationRequired, match=phrase):
            cd.decompose_cd(m)
    failed = {sigma for sigma, _ in
              cd.validate_strong_eulerian(into_square).failures}
    assert failed == set(sq.elements)


def test_telescoping_matches_rebuilt_faces(subdivision_fixtures):
    for name, m in subdivision_fixtures:
        fam = cd.skeletal_family(m)
        for i in range(1, fam.n + 1):
            got = outcome(cd.verify_rank_telescoping, fam, i)
            assert got == outcome(telescoping_by_rebuild, fam, i), (name, i)


def test_telescoping_is_false_for_invalid_maps():
    # a map that fails strong Eulerian validation gets a verdict at every
    # rank, never an exception
    sq = square_lattice()
    carrier = {e: e for e in sq.elements}
    carrier["{0,1}"] = "{0}"
    broken = cd.SubdivisionMap(sq, sq, carrier)
    assert not cd.validate_strong_eulerian(broken).ok
    fam = cd.SkeletalFamily(broken)
    good = cd.skeletal_family(cd.identity_subdivision(sq))
    fam.posets, fam.maps = good.posets, good.maps
    for i in range(1, fam.n + 1):
        assert cd.verify_rank_telescoping(fam, i) is False, i


def test_telescoping_sums_to_total_difference():
    from cdindex.flagcd import flag_polynomial
    m = tetra_subdivision()
    fam = cd.skeletal_family(m)
    total = flag_polynomial(fam.posets[fam.n]) - flag_polynomial(
        fam.posets[0])
    assert total == flag_polynomial(m.source) - flag_polynomial(m.target)


def test_restriction_squares_commute():
    """Restricting then skeletalizing agrees with skeletalizing then
    restricting, up to isomorphism of the skeletal posets."""
    m = tetra_subdivision()
    fam = cd.skeletal_family(m)
    for face in ("{1,2}", "{1,2,3}", "{1,2,4}", "{1,3,4}"):
        rfam = cd.skeletal_family(cd.restrict(m, face))
        k = m.target.rank(face)
        # faces of the restricted skeletal poset at each level match the
        # ideal of the big skeletal poset below the old face
        for i in range(k + 1):
            big = fam.posets[i]
            small = rfam.posets[i]
            ideal_ids = [e for e in big.elements
                         if _below_face(fam, e, face)]
            got = big.induced(ideal_ids)
            assert cd.is_isomorphic(small, got), (face, i)


def _below_face(fam, e, face):
    kind, _, raw = e.partition(":")
    tgt = fam.subdivision.target
    if kind == "old":
        return tgt.le(raw, face)
    return tgt.le(fam.subdivision(raw), face)


def test_monotonicity_sphere_fixtures():
    for m in (tetra_subdivision(), hexagon_over_triangle(),
              cd.identity_subdivision(square_lattice())):
        phi_hat = cd.cd_index(m.source)
        phi = cd.cd_index(m.target)
        assert coefficientwise_leq(phi, phi_hat)


def test_top_row_local_index_vanishes():
    dec = cd.decompose_cd(tetra_subdivision())
    top = [r for r in dec.rows if r.sigma == "TOP"]
    assert top and not top[0].local_cd


def test_subdivision_json_roundtrip():
    m = tetra_subdivision()
    text = m.to_json()
    again = cd.SubdivisionMap.from_json(text)
    assert again.carrier == m.carrier
    assert again.to_json() == text
    assert cd.decompose_cd(again).total == cd.decompose_cd(m).total


def test_subdivision_json_from_complexes():
    import json
    source = {"facets": [["1", "3", "4"], ["2", "3", "4"], ["1", "5", "3"],
                         ["5", "2", "3"], ["1", "5", "4"], ["5", "2", "4"]]}
    target = {"facets": [["1", "3", "4"], ["2", "3", "4"], ["1", "2", "3"],
                         ["1", "2", "4"]]}
    m0 = tetra_subdivision()
    carrier = {k: v for k, v in m0.carrier.items() if k != "TOP"}
    obj = {"source": source, "target": target, "carrier": carrier}
    m = cd.SubdivisionMap.from_json(json.dumps(obj))
    assert cd.decompose_cd(m).total == CdPolynomial(
        {"ccc": 1, "dc": 3, "cd": 4})


def test_barycentric_sphere_of_tetra_boundary():
    """Heavier fixture: the barycentric sphere over the tetrahedron
    boundary, cross-checked against the 3-polytope closed form."""
    oc, m = cd.barycentric_subdivision(cd.make_boundary_simplex(3))
    assert cd.f_vector(oc) == [1, 14, 36, 24]
    mt = cd.with_adjoined_tops(m)
    dec = cd.decompose_cd(mt)
    assert dec.total == cd.three_polytope_cd(14, 24)
    rows = {r.sigma: r for r in dec.nonzero_rows()}
    edges = [s for s in rows if rows[s].local_cd == CdPolynomial.monomial("d")]
    assert len(edges) == 6
    facet_local = CdPolynomial({"cd": 5, "dc": 1})
    facets = [s for s in rows if rows[s].local_cd == facet_local]
    assert len(facets) == 4
    fam = cd.skeletal_family(mt)
    for i in range(1, fam.n + 1):
        assert cd.verify_rank_telescoping(fam, i), i


def test_polygon_edge_split_family():
    """Splitting one edge of an n-gon at a new vertex is a subdivision of
    spheres with total cd-index of the (n+1)-gon."""
    for n in range(3, 9):
        target = cd.make_polygon(n)
        facets = [[str(i), str((i + 1) % n)] for i in range(n - 1)]
        facets += [[str(n - 1), "m"], ["m", "0"]]
        source = cd.SimplicialComplex(facets)
        carriers = {str(i): [str(i)] for i in range(n)}
        carriers["m"] = [str(n - 1), "0"]
        m = cd.with_adjoined_tops(
            cd.from_vertex_carriers(source, target, carriers))
        dec = cd.decompose_cd(m)
        assert dec.total == cd.polygon_cd(n + 1), n
        nz = {r.sigma: r.local_cd for r in dec.nonzero_rows()}
        split_edge = "{0,%d}" % (n - 1)
        assert nz[split_edge] == CdPolynomial.monomial("d"), n
        assert set(nz) == {"{}", split_edge}, n
        rep = cd.verify_local_correspondence(m)
        assert rep.ok(), n


def test_one_facet_barycentric_sphere():
    """Subdividing one facet of the tetrahedron boundary barycentrically
    forces the three neighbors to split in half; every row is pinned."""
    target = cd.make_boundary_simplex(3)
    source = cd.SimplicialComplex([
        ["0", "m01", "c"], ["m01", "1", "c"], ["1", "m12", "c"],
        ["m12", "2", "c"], ["2", "m02", "c"], ["m02", "0", "c"],
        ["0", "m01", "3"], ["m01", "1", "3"], ["1", "m12", "3"],
        ["m12", "2", "3"], ["2", "m02", "3"], ["m02", "0", "3"]])
    carriers = {v: [v] for v in "0123"}
    carriers.update({"m01": ["0", "1"], "m12": ["1", "2"],
                     "m02": ["0", "2"], "c": ["0", "1", "2"]})
    m = cd.with_adjoined_tops(
        cd.from_vertex_carriers(source, target, carriers))
    dec = cd.decompose_cd(m)
    assert dec.total == cd.three_polytope_cd(8, 12)
    rows = {r.sigma: r.local_cd for r in dec.nonzero_rows()}
    assert rows["{0,1,2}"] == CdPolynomial({"cd": 5, "dc": 1})
    for half in ("{0,1,3}", "{0,2,3}", "{1,2,3}"):
        assert rows[half] == CdPolynomial.monomial("cd")
    for edge in ("{0,1}", "{0,2}", "{1,2}"):
        assert rows[edge] == CdPolynomial.monomial("d")
    assert cd.verify_local_correspondence(m).ok()


def test_random_polygon_subdivisions_match_closed_form(rng):
    """Scatter interior points on the edges of random polygons; the
    decomposition total must be the larger polygon's cd-index."""
    for _ in range(25):
        n = rng.randint(3, 7)
        points = {i: rng.randint(0, 3) for i in range(n)}
        facets = []
        carriers = {str(i): [str(i)] for i in range(n)}
        for i in range(n):
            j = (i + 1) % n
            chain = [str(i)]
            for t in range(points[i]):
                name = "p%d_%d" % (i, t)
                carriers[name] = [str(i), str(j)]
                chain.append(name)
            chain.append(str(j))
            facets.extend([a, b] for a, b in zip(chain, chain[1:]))
        source = cd.SimplicialComplex(facets)
        m = cd.with_adjoined_tops(cd.from_vertex_carriers(
            source, cd.make_polygon(n), carriers))
        total_points = sum(points.values())
        dec = cd.decompose_cd(m)
        assert dec.total == cd.polygon_cd(n + total_points), (n, points)


def test_local_h_rows_are_local():
    """A row of the global table equals the top row of the restriction."""
    m = tetra_subdivision()
    table = cd.local_h(m)
    for face in ("{1,2}", "{1,2,3}", "{3}"):
        sub = cd.restrict(m, face)
        assert cd.local_h(sub).row(face) == table.row(face), face


def test_duality_reverses_index_words(eulerian_fixtures):
    for name, p in eulerian_fixtures[:10]:
        phi = cd.cd_index(p)
        want = CdPolynomial({w[::-1]: c for w, c in phi.terms.items()})
        assert cd.cd_index(cd.dual(p)) == want, name


def test_restrict_unknown_face():
    from cdindex.errors import FaceNotFound
    with pytest.raises(FaceNotFound):
        cd.restrict(tetra_subdivision(), "{9,9}")


def test_carrier_must_cover_source():
    from cdindex.errors import DomainError
    sq = square_lattice()
    with pytest.raises(DomainError):
        cd.SubdivisionMap(sq, sq, {"{0}": "{0}"})
