"""Subdivision maps: validation, restriction, skeletal decomposition, and
the cd-index decomposition."""
import json
import random
import subprocess
import sys

import pytest

import cdindex as cd
from cdindex.cli import run
from cdindex.errors import InvalidChain, InvalidSubdivision, RequiresBounds
from cdindex.ncpoly import CdPolynomial, coefficientwise_leq
from cdindex.subdivision import ValidationReport, _basic_failures
from conftest import (carrier_mutants, count_builds,
                      decompose_rows_by_rebuild,
                      enumerate_chains, hexagon_over_triangle, isomorphic,
                      local_h_of_built_faces, outcome, polygon_cd,
                      preimage_ideal_by_ids, preimage_ids_by_definition,
                      rank45_pool, restrict_by_ids, same_build,
                      square_lattice, telescoping_by_intervals,
                      telescoping_by_rebuild,
                      tetra_subdivision, three_atom_map, three_polytope_cd,
                      validate_strong_eulerian_by_build, atoms,
                      composed_carrier, up_set, child_env,
                      correspondence_maps, edge_with_swapped_carriers,
                      non_simplicial_maps, subdivision_pool)


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
    carrier["{1,3,5}"] = "{1,2,3}"
    carrier["{2,3,5}"] = "{1,2,3}"
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
            ys = [y for y in up_set(src, z, strict=False) if y in inside]
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
                keep = moved._preimage[moved.target.index(sigma)]
                assert moved.source._ids(keep) == \
                    preimage_ids_by_definition(moved, sigma), (name, sigma)
            maps += 1
    assert maps > 500


def test_preimage_ideal_and_restrict_match_the_id_routes(
        subdivision_fixtures):
    for name, m in subdivision_fixtures:
        for sigma in m.target.elements:
            assert same_build(m.preimage_ideal(sigma),
                              preimage_ideal_by_ids(m, sigma)), (name, sigma)
            got, want = cd.restrict(m, sigma), restrict_by_ids(m, sigma)
            assert same_build(got.source, want.source), (name, sigma)
            assert same_build(got.target, want.target), (name, sigma)
            assert got.carrier == want.carrier


def test_decoding_a_complex_form_subdivision_builds_each_side_once(
        monkeypatch):
    # each side's face poset gets its formal top in the same build
    m = tetra_subdivision()
    complexes = {}
    for side, p in (("source", m.source), ("target", m.target)):
        facets = [e.strip("{}").split(",") for e in p.elements
                  if p.covers(e, p.max_elt)]
        complexes[side] = {"facets": facets}
    obj = dict(complexes, carrier=dict(m.carrier))
    calls = count_builds(monkeypatch)
    decoded = cd.SubdivisionMap.from_json_obj(obj)
    monkeypatch.undo()
    assert calls == [2]
    assert decoded.to_json() == m.to_json()


def test_skeletal_family_refuses_an_invalid_map():
    m = tetra_subdivision()
    broken = cd.SubdivisionMap(m.source, m.target,
                               {**m.carrier, "{1,3}": "{1}"})
    assert not cd.validate_strong_eulerian(broken).ok
    with pytest.raises(InvalidSubdivision) as info:
        cd.skeletal_family(broken)
    assert str(info.value) == (
        "strong_eulerian validation failed: (('{1,3}', 'not in the image of "
        "the carrier map'), ('{3}', 'carrier not order preserving at cover "
        "({3}, {1,3})'))")


def test_restrict_to_edge_is_path():
    m = tetra_subdivision()
    r = cd.restrict(m, "{1,2}")
    path = cd.face_poset(cd.SimplicialComplex([["1", "5"], ["5", "2"]]))
    assert isomorphic(r.source, path)
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
    assert isomorphic(fam.posets[0], m.target)
    assert isomorphic(fam.posets[1], m.target)
    assert not isomorphic(fam.posets[2], m.target)
    assert not isomorphic(fam.posets[2], m.source)
    assert isomorphic(fam.posets[3], m.source)
    assert isomorphic(fam.posets[4], m.source)
    # level 2 has the new vertex and the split edge, nothing else new
    assert len(fam.posets[2].elements) == len(m.target.elements) + 2


def test_skeletal_families_compare_by_their_posets():
    # a GradedPoset compares by identity; two builds of one family hold
    # distinct posets with the same elements and covers
    m = tetra_subdivision()
    fam = cd.skeletal_family(m)
    assert fam == cd.skeletal_family(m)
    posets = list(fam.posets)
    posets[2] = posets[1]
    forged = cd.SkeletalFamily(fam.subdivision, tuple(posets), fam.maps)
    assert forged != fam
    with pytest.raises(TypeError):
        hash(fam)


def test_skeletal_family_identity():
    m = cd.identity_subdivision(square_lattice())
    fam = cd.skeletal_family(m)
    for p in fam.posets:
        assert isomorphic(p, m.target)


def test_skeletal_family_hexagon():
    m = hexagon_over_triangle()
    fam = cd.skeletal_family(m)
    # vertices are untouched, edges triple in count at level 2
    assert isomorphic(fam.posets[1], m.target)
    lvl2 = fam.posets[2]
    assert len(lvl2.level(2)) == 6
    assert len(lvl2.level(1)) == 6


def skeletal_covers_by_definition(m, i):
    """Elements and covers of skeletal poset i: new source elements carried
    to rank <= i and old target elements of rank > i, ordered as in the
    source, by carrier, and as in the target; a cover is a pair with no
    element in between."""
    src, tgt = m.source, m.target
    new = {e for e in src.elements if tgt.rank(m(e)) <= i}
    old = {e for e in tgt.elements if tgt.rank(e) > i}
    above = {"old:" + e: {"old:" + f for f in up_set(tgt, e)} for e in old}
    for e in new:
        above["new:" + e] = (
            {"new:" + f for f in up_set(src, e) if f in new}
            | {"old:" + f for f in up_set(tgt, m(e), strict=False)
               if f in old})
    covers = {(x, y) for x, ys in above.items()
              for y in ys - set().union(*(above[z] for z in ys))}
    return set(above), covers


def test_skeletal_composition_is_carrier(subdivision_fixtures):
    for name, m in list(subdivision_fixtures) + rank45_pool():
        fam = cd.skeletal_family(m)
        assert composed_carrier(fam) == m.carrier, name
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
    assert dec.total == polygon_cd(6)


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


def test_rank_telescoping_refuses_an_index_outside_1_to_n():
    from cdindex.errors import DomainError
    fam = cd.skeletal_family(tetra_subdivision())
    for i in (0, fam.n + 1):
        with pytest.raises(DomainError, match="^telescoping index %d outside "
                           "1..4$" % i):
            cd.verify_rank_telescoping(fam, i)


def test_rank_telescoping_detects_mutation():
    m = tetra_subdivision()
    carrier = dict(m.carrier)
    # recarry the new vertex onto a face instead of its edge
    carrier["{5}"] = "{1,2,3}"
    carrier["{1,5}"] = "{1,2,3}"
    carrier["{2,5}"] = "{1,2,3}"
    broken = cd.SubdivisionMap(m.source, m.target, carrier)
    good = cd.skeletal_family(m)
    fam = cd.SkeletalFamily(broken, good.posets, good.maps)
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


def test_decompose_and_local_h_build_no_poset_after_decode(monkeypatch):
    # the faces are masks on the rows of the source and the target: the
    # near-Eulerian tests, the local indexes, Phi of the upper intervals
    # [sigma, 1], h of the capped preimages and g of the intervals
    # [tau, sigma] build nothing, and neither does the asserted identity
    _, m = cd.barycentric_subdivision(cd.make_boundary_simplex(3))
    text = cd.with_adjoined_tops(m).to_json()
    results = {}
    for run_it in (cd.decompose_cd, cd.local_h):
        mt = cd.SubdivisionMap.from_json(text)
        calls = count_builds(monkeypatch)
        results[run_it] = run_it(mt)
        monkeypatch.undo()
        assert calls == [0], run_it.__name__
    assert results[cd.decompose_cd].rows == decompose_rows_by_rebuild(mt)
    assert (results[cd.local_h].rows, results[cd.local_h].total) \
        == local_h_of_built_faces(mt)


def perturbed_maps(m):
    """Every map that moves one carrier value of m to another target
    element."""
    for e in m.source.elements:
        for t in m.target.elements:
            if t != m(e):
                yield cd.SubdivisionMap(m.source, m.target,
                                        {**m.carrier, e: t})


def handmade_maps():
    """Maps that pass the basic checks and fail the near-Eulerian test of
    one capped preimage, one per message."""
    chain = cd.chain_poset(1)
    two_minima = cd.GradedPoset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    impure = cd.GradedPoset(["0", "a", "b", "c"],
                            [("0", "a"), ("a", "b"), ("0", "c")])
    three_atoms = cd.GradedPoset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"),
         ("c", "1")])
    return [
        ("two_minima", cd.SubdivisionMap(
            two_minima, chain, {"a": "c0", "b": "c0", "c": "c1"})),
        ("impure", cd.SubdivisionMap(
            impure, cd.chain_poset(2),
            {"0": "c0", "a": "c1", "b": "c2", "c": "c2"})),
        ("three_atoms", cd.identity_subdivision(three_atoms)),
        ("chain3", cd.identity_subdivision(cd.chain_poset(3)))]


def test_validation_matches_the_build_route(subdivision_fixtures):
    # the masked near-Eulerian test on the source rows against the test on
    # each built capped preimage: the same verdict and the same failures,
    # in the same order, byte for byte
    maps = list(subdivision_fixtures) + rank45_pool() + handmade_maps()
    for name in ("hexagon", "half_triangle", "edge3", "identity_square"):
        m = dict(subdivision_fixtures)[name]
        maps += [("%s moved" % name, p) for p in perturbed_maps(m)]
    messages = {}
    for name, m in maps:
        m = cd.SubdivisionMap.from_json(m.to_json())  # nothing remembered
        got = cd.validate_strong_eulerian(m)
        want = validate_strong_eulerian_by_build(m)
        assert got.ok == want.ok, name
        assert repr(got.failures) == repr(want.failures), name
        for _, why in got.failures:
            key = why.split(": ")[-1] if "near-Eulerian" in why else why[:20]
            messages[key] = messages.get(key, 0) + 1
    for why in ("semisuspension needs both bounds",
                "semisuspension needs a graded poset",
                "adjoining the missing coatom is not Eulerian",
                "preimage boundary is"):
        assert messages.get(why), why


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
    antichain = cd.identity_subdivision(cd.GradedPoset(["a", "b"], []))
    report = cd.validate_strong_eulerian(antichain)
    assert not report.ok
    assert report.failures == (("*", "target has no minimum"),)
    with pytest.raises(InvalidSubdivision, match="target has no minimum"):
        cd.decompose_cd(antichain)


def test_decompose_without_a_minimum_fails_validation():
    # a square lattice with a second bottom z under its atoms: as its own
    # target it has no minimum; carried to the square's minimum, z joins
    # the square's bottom in the capped preimage of every face, which so
    # has no minimum and is not near-Eulerian
    sq = square_lattice()
    covers = [(sq.elements[lo], sq.elements[hi]) for lo, hi in sq.cover_pairs]
    covers += [("z", a) for a in atoms(sq)]
    extra = cd.GradedPoset(list(sq.elements) + ["z"], covers)
    assert extra.min_elt is None and extra.is_graded
    carrier = {e: e for e in sq.elements}
    carrier["z"] = sq.min_elt
    into_square = cd.SubdivisionMap(extra, sq, carrier)
    cases = [(cd.identity_subdivision(extra), "target has no minimum"),
             (into_square, "not near-Eulerian")]
    for m, phrase in cases:
        assert not cd.validate_strong_eulerian(m).ok
        with pytest.raises(InvalidSubdivision, match=phrase):
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


def test_telescoping_reads_upper_intervals_off_one_sparse_dp(
        monkeypatch, subdivision_fixtures):
    # Phi([sigma, 1]) of every face off one sparse DP down from 1 over the
    # target's up-rows, under either module's name, the same verdict as
    # with every upper interval built, and nothing built
    import cdindex.flagcd as flagcd
    import cdindex.subdivision as subdivision
    maps = [m for _, m in subdivision_fixtures]
    maps.append(cd.with_adjoined_tops(
        cd.barycentric_subdivision(cd.make_boundary_simplex(3))[1]))
    verdicts, most_faces = [], 0
    for m in maps:
        fam = cd.skeletal_family(m)
        tgt = m.target
        for i in range(1, fam.n + 1):
            want = outcome(telescoping_by_intervals, fam, i)
            builds, target_dps = count_builds(monkeypatch), []

            def counted(rows, levels, *args, dp=flagcd._chain_vectors):
                # the others here are the source's, for l_sigma, and the
                # skeletal posets', for the lhs
                if rows is tgt._up:
                    target_dps.append(args)
                return dp(rows, levels, *args)

            monkeypatch.setattr(flagcd, "_chain_vectors", counted)
            monkeypatch.setattr(subdivision, "_chain_vectors", counted)
            got = outcome(cd.verify_rank_telescoping, fam, i)
            monkeypatch.undo()
            assert got == want, i
            assert builds[0] == 0
            # one sparse DP for a verdict, none when the lhs raised first
            assert target_dps == [(True,)] * (got[0] == "value"), i
            if got[0] == "value":
                most_faces = max(most_faces, len(tgt.level(i)))
            verdicts.append(got)
    assert verdicts.count(("value", True)) >= 10
    assert most_faces >= 2


def test_a_map_onto_a_non_eulerian_target_fails_the_boundary_check():
    # the triangle's face lattice onto 0 < a, b, c < e, f < 1, with e over
    # a, b and c and f over a and b: every preimage is near-Eulerian, but
    # at e, D = {0, v1, v2} is not the preimage {0, v1, v2, v3} of the
    # boundary of e, so strong Eulerian validation fails there, as strong
    # formal does at (v3, e), and the decomposition never reaches the
    # non-Eulerian target
    src = cd.GradedPoset(
        ["0", "v1", "v2", "v3", "e13", "e32", "e21", "1"],
        [("0", "v1"), ("0", "v2"), ("0", "v3"), ("v1", "e13"),
         ("v3", "e13"), ("v3", "e32"), ("v2", "e32"), ("v2", "e21"),
         ("v1", "e21"), ("e13", "1"), ("e32", "1"), ("e21", "1")])
    tgt = cd.GradedPoset(
        ["0", "a", "b", "c", "e", "f", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "e"), ("b", "e"),
         ("c", "e"), ("a", "f"), ("b", "f"), ("e", "1"), ("f", "1")])
    m = cd.SubdivisionMap(src, tgt, {
        "0": "0", "v1": "a", "v2": "b", "v3": "c", "e13": "e", "e32": "e",
        "e21": "f", "1": "1"})
    want = (("e", "preimage boundary is not the preimage of the boundary"),)
    assert cd.validate_strong_eulerian(m).failures == want
    assert validate_strong_eulerian_by_build(m).failures == want
    assert src.is_eulerian() and not tgt.interval("0", "e").is_eulerian()
    assert not tgt.interval("c", "1").is_eulerian()
    for call in (cd.decompose_cd, cd.skeletal_family,
                 cd.verify_local_correspondence):
        with pytest.raises(InvalidSubdivision,
                           match="strong_eulerian validation failed"):
            call(m)
    assert [f for f, _ in cd.validate_strong_formal(m).failures] == [
        ("v3", "e")]


def test_both_validations_agree_on_seeded_mutants():
    """One or two carriers moved, or two of one rank swapped, on every map
    of every pool: strong Eulerian and strong formal give one verdict, and
    a split names the mutant with both failure lists.

    A map that passes strong Eulerian validation has a lower Eulerian
    target and passes strong formal validation; map F shows the converse
    fails.  Proof.  Take x < y in the target and a source element s
    carried to x: every face is carried to, by ``_basic_failures``.  For a
    face z >= x, let G(z) be the sum of (-1)^rank(u) over the source
    elements u >= s carried into [0, z]; each is carried into [x, z], as
    the carrier preserves order.  Validation makes Q_z = preimage(z) +
    tau_z + T Eulerian, where rank(tau_z) = rank(z) and D_z = preimage(z) -
    carried(z) is the set below tau_z.  For z > x, s is in D_z, so [s, T]
    balanced gives G(z) = 0, and [s, tau_z] balanced gives that the u >= s
    carried to z sum to (-1)^rank(z).  For z = x, s is not in D_x, and
    [s, T] gives G(x) = (-1)^rank(x), again the sum over the u >= s carried
    to x; for x = 0, whose preimage is not checked, s is the source
    minimum, the only element of rank 0.  So the sum of (-1)^rank(z) over
    z in [x, y] is G(y) = 0: [x, y] is balanced.  The same G gives strong
    formal's alternating sums, (-1)^rank(y) G(y) = [y = x], and the single
    top rank of each Q_z, rank(z) + 1, gives its rank witnesses.
    """
    rng = random.Random(11)
    maps = dict(subdivision_pool() + correspondence_maps()
                + non_simplicial_maps())
    verdicts, split = {True: 0, False: 0}, []
    for name, m in maps.items():
        for what, obj in carrier_mutants(rng, m, 40):
            mutant = cd.SubdivisionMap.from_json_obj(obj)
            eulerian = cd.validate_strong_eulerian(mutant)
            formal = cd.validate_strong_formal(mutant)
            if eulerian.ok:
                assert formal.ok and mutant.target.is_lower_eulerian(), (
                    name, what)
            verdicts[formal.ok] += 1
            if eulerian.ok != formal.ok:
                split.append("%s, %s: strong Eulerian %r, strong formal %r"
                             % (name, what, eulerian.failures,
                                formal.failures))
    assert split == [], "\n".join(split)
    # both verdicts are reached, the passing ones by moves that keep a
    # valid map, such as swaps of two cells in one face
    assert verdicts[True] >= 50 and verdicts[False] >= 500, verdicts
    f = three_atom_map()
    assert cd.validate_strong_formal(f).ok
    assert not cd.validate_strong_eulerian(f).ok


def test_map_c_fails_both_validations_at_the_edge(capsys, tmp_path):
    # the path 0 - m1 - 1 onto the edge {0, 1} with the carriers of {1}
    # and {m1} swapped: near-Eulerian preimages everywhere, but the edge's
    # D misses the path's end {1}, and the alternating sums at ({1}, {0,1})
    # and ({m1}, {0,1}) come out swapped
    m = edge_with_swapped_carriers()
    want = (("{0,1}",
             "preimage boundary is not the preimage of the boundary"),)
    assert cd.validate_strong_eulerian(m).failures == want
    assert validate_strong_eulerian_by_build(m).failures == want
    assert cd.validate_strong_formal(m).failures == (
        (("{1}", "{0,1}"), "alternating sum 0, want 1"),
        (("{m1}", "{0,1}"), "alternating sum 1, want 0"))
    path = tmp_path / "map_c.json"
    path.write_text(m.to_json())
    for prop in ("strong-eulerian", "strong-formal"):
        assert run(["verify", "--property", prop, "--input", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(prop + ": FAIL\n"), out
    run(["verify", "--property", "strong-eulerian", "--input", str(path)])
    assert capsys.readouterr().out == (
        "strong-eulerian: FAIL\n{0,1}: preimage boundary is not the "
        "preimage of the boundary\n")


def test_validation_scans_the_source_once(monkeypatch,
                                          subdivision_fixtures):
    # every face's near-Eulerian test reads the one scan's mask
    scan, calls = cd.poset._unbalanced, [0]

    def counted(*args):
        calls[0] += 1
        return scan(*args)

    for name, m in subdivision_fixtures:
        fresh = cd.SubdivisionMap.from_json(m.to_json())
        calls[0] = 0
        monkeypatch.setattr(cd.poset, "_unbalanced", counted)
        assert cd.validate_strong_eulerian(fresh).ok, name
        monkeypatch.undo()
        assert calls[0] == 1, name


def test_telescoping_is_false_for_invalid_maps():
    # a map that fails strong Eulerian validation gets a verdict at every
    # rank, never an exception
    sq = square_lattice()
    carrier = {e: e for e in sq.elements}
    carrier["{0,1}"] = "{0}"
    broken = cd.SubdivisionMap(sq, sq, carrier)
    assert not cd.validate_strong_eulerian(broken).ok
    good = cd.skeletal_family(cd.identity_subdivision(sq))
    fam = cd.SkeletalFamily(broken, good.posets, good.maps)
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
            assert isomorphic(small, got), (face, i)


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
    assert dec.total == three_polytope_cd(14, 24)
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
        assert dec.total == polygon_cd(n + 1), n
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
    assert dec.total == three_polytope_cd(8, 12)
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
        assert dec.total == polygon_cd(n + total_points), (n, points)


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
    from cdindex.errors import DomainError
    with pytest.raises(DomainError):
        cd.restrict(tetra_subdivision(), "{9,9}")


def test_carrier_must_cover_source():
    from cdindex.errors import DomainError
    sq = square_lattice()
    with pytest.raises(DomainError):
        cd.SubdivisionMap(sq, sq, {"{0}": "{0}"})


def test_carrier_must_not_name_unknown_source_ids(capsys, tmp_path):
    from cdindex.errors import DomainError
    _, m = cd.barycentric_subdivision(cd.make_simplex(1))
    obj = m.to_json_obj()
    obj["carrier"]["NOPE"] = "{0}"
    with pytest.raises(DomainError) as info:
        cd.SubdivisionMap.from_json_obj(obj)
    assert str(info.value) == "carrier names unknown source id 'NOPE'"
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(obj))
    code = run(["verify", "--property", "strong-formal", "--input", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "validation error: carrier names unknown source id 'NOPE'\n"
    # a missing source id is still reported first, in its own words
    del obj["carrier"]["{\\{0\\}}"]
    with pytest.raises(DomainError, match="carrier missing for 1 source"):
        cd.SubdivisionMap.from_json_obj(obj)


def test_upper_intervals_come_off_one_downward_dp(monkeypatch,
                                                  subdivision_fixtures):
    # Phi([sigma, 1]) of every target element off one sparse DP down from
    # 1 over the up-rows, against the cd-index of each built interval
    import cdindex.flagcd as flagcd
    import cdindex.subdivision as subdivision
    maps = [m for _, m in subdivision_fixtures]
    maps.append(cd.with_adjoined_tops(
        cd.barycentric_subdivision(cd.make_boundary_simplex(3))[1]))
    targets = [m.target for m in maps
               if m.target.max_elt is not None and m.target.is_eulerian()]
    targets += [cd.boolean_poset(0), cd.boolean_poset(4)]
    assert len(targets) >= 5
    for tgt in targets:
        calls = [0]

        def counted(*args, dp=flagcd._chain_vectors):
            calls[0] += 1
            return dp(*args)

        monkeypatch.setattr(flagcd, "_chain_vectors", counted)
        monkeypatch.setattr(subdivision, "_chain_vectors", counted)
        upper = subdivision._upper_cds(tgt)
        monkeypatch.undo()
        assert calls == [1], tgt
        assert upper == {s: cd.cd_index(tgt.interval(s, tgt.max_elt))
                         for s in tgt.elements}


def test_call_of_an_unknown_source_id_raises():
    from cdindex.errors import DomainError
    with pytest.raises(DomainError, match="element 'nope' not in source"):
        tetra_subdivision()("nope")


def test_validation_reports_a_rank_mismatch():
    m = cd.SubdivisionMap(cd.chain_poset(3), cd.chain_poset(2),
                          {"c0": "c0", "c1": "c1", "c2": "c2", "c3": "c2"})
    report = cd.validate_strong_eulerian(m)
    assert not report.ok
    assert report.failures == (("*", "source rank 3 != target rank 2"),)


def test_report_truth_and_map_repr():
    m = tetra_subdivision()
    assert bool(cd.validate_strong_eulerian(m)) is True
    assert not ValidationReport("strong_formal", False, (("*", "why"),))
    assert repr(m) == "SubdivisionMap(%d -> %d elements)" % (
        len(m.source.elements), len(m.target.elements))


def test_vertex_carriers_must_cover_the_source_and_hit_target_faces():
    from cdindex.errors import DomainError
    edge = cd.SimplicialComplex([["0", "1"]])
    path = cd.SimplicialComplex([["0", "m"], ["m", "1"]])
    with pytest.raises(DomainError) as info:
        cd.from_vertex_carriers(path, edge, {"0": ["0"], "1": ["1"]})
    assert str(info.value) == "no carrier for source vertex 'm'"
    # keys beside a full carrier that name no source vertex, the first in
    # sorted order named
    with pytest.raises(DomainError) as info:
        cd.from_vertex_carriers(path, edge, {"0": ["0"], "1": ["1"],
                                             "m": ["0", "1"], "typo": ["0"],
                                             "2": ["1"]})
    assert str(info.value) == "carrier names unknown source vertex '2'"
    # an isolated vertex, so that one face alone has no target face
    apart = cd.SimplicialComplex([["0", "1"], ["m"]])
    with pytest.raises(DomainError) as info:
        cd.from_vertex_carriers(apart, edge,
                                {"0": ["0"], "m": ["2"], "1": ["1"]})
    assert str(info.value) == "no target face contains ['2']"


CARRIER_OUTSIDE = """
import cdindex as cd
from cdindex.errors import DomainError
edge = cd.SimplicialComplex([["0", "1"]])
path = cd.SimplicialComplex([["0", "m"], ["m", "1"]])
try:
    cd.from_vertex_carriers(path, edge, {"0": ["0"], "1": ["1"], "m": ["2"]})
except DomainError as exc:
    print(exc)
"""


def test_vertex_carriers_fail_at_one_face_under_every_hash_seed():
    # the faces are walked by size and then sorted names, so the vertex m
    # fails first, not whichever of m, {0, m} and {m, 1} the set gives
    outs = {subprocess.run([sys.executable, "-c", CARRIER_OUTSIDE],
                           capture_output=True, text=True, check=True,
                           env=dict(child_env(), PYTHONHASHSEED=str(seed)),
                           timeout=60).stdout
            for seed in range(4)}
    assert outs == {"no target face contains ['2']\n"}


def decomposition_maps():
    """The maps of the subdivision, rank 4 and 5 and correspondence pools
    with a bounded source and an Eulerian target.  The spheres among them,
    the barycentric boundaries of the 3- and 4-simplex, have their tops
    adjoined by with_adjoined_tops in the pools; the other members without
    a source maximum are balls, whose topped targets are not Eulerian."""
    maps = dict(subdivision_pool() + rank45_pool() + correspondence_maps())
    return [(name, m) for name, m in maps.items()
            if m.source.max_elt is not None and m.target.is_eulerian()]


def decomposition_faults(maps):
    """(name, theorem) for each theorem that a validated map breaks: the
    decomposition total is Phi(source), the top face has local cd-index 0
    above rank 0, and every skeletal poset is graded of full rank."""
    faults = []
    for name, m in maps:
        decomposition = cd.decompose_cd(m)
        if decomposition.total != cd.cd_index(m.source):
            faults.append((name, "total"))
        local = {row.sigma: row.local_cd for row in decomposition.rows}
        if m.source.top_rank and local[m.target.max_elt]:
            faults.append((name, "top"))
        for i, p in enumerate(cd.skeletal_family(m).posets):
            if not (p.is_graded and p.top_rank == m.target.top_rank):
                faults.append((name, "skeletal %d" % i))
    return faults


def test_validated_maps_meet_the_decomposition_theorems(monkeypatch):
    # validation is the only gate of decompose_cd and skeletal_family, so
    # the theorems behind it are checked here, on every pool map they
    # cover; a c planted on the bottom row breaks the total, and on the
    # top row, whose upper interval has cd-index 0, breaks only the top
    import cdindex.subdivision as subdivision
    maps = decomposition_maps()
    assert sorted(name for name, _ in maps) == [
        "bary_bd3", "bary_bd4", "hexagon", "identity_square", "tetra66"]
    assert decomposition_faults(maps) == []
    local_cds = subdivision._local_cds
    for face, theorem in (("min", "total"), ("max", "top")):
        def planted(m, face=face):
            local = local_cds(m)
            sigma = getattr(m.target, face + "_elt")
            local[sigma] = local[sigma] + CdPolynomial.monomial("c")
            return local

        monkeypatch.setattr(subdivision, "_local_cds", planted)
        assert decomposition_faults(maps) == [
            (name, theorem) for name, _ in maps]
