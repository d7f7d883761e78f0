"""Poset construction, predicates, and the constructive operators."""
import json

import pytest
from hypothesis import given, settings, strategies as st

import cdindex as cd
from cdindex.errors import (CycleDetected, DomainError, NotGraded,
                            NotNearEulerian, RequiresBounds)
from conftest import (adjoin_max_by_cover_copy, enumerate_chains,
                      eulerian_by_mobius, eulerian_pool,
                      is_lattice_by_both_bounds, isomorphic, mobius_table,
                      outcome, poset_fields_by_dfs,
                      proper_part_by_ids, random_eulerian,
                      random_graded_poset, random_near_eulerian,
                      random_relation, same_build, semisuspend_by_build,
                      unbalanced_by_intervals, without_max_by_ids, atoms,
                      down_set, is_lattice_by_joins, up_set,
                      fields_unlike_the_intake, rank45_pool)

EULERIAN_POOL = [p for _, p in eulerian_pool() if len(p.elements) <= 32]


def test_build_two_step_chain():
    p = cd.GradedPoset(["0", "x", "1"], [("0", "x"), ("x", "1")])
    assert p.is_graded
    assert p.top_rank == 2
    assert p.min_elt == "0" and p.max_elt == "1"


def test_build_boolean_b3():
    p = cd.boolean_poset(3)
    assert p.is_graded and p.top_rank == 3
    assert p.min_elt == "{}" and p.max_elt == "{1,2,3}"
    assert len(p.elements) == 8


def test_build_cycle_detected():
    with pytest.raises(CycleDetected):
        cd.GradedPoset(["a", "b"], [("a", "b"), ("b", "a")])


def test_non_graded_is_recorded_not_raised():
    # the pentagon N5: one maximal chain of length 2, one of length 3
    p = cd.GradedPoset(["0", "a", "b", "c", "1"],
                       [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"),
                        ("c", "1")])
    assert not p.is_graded
    with pytest.raises(NotGraded):
        p.rank("a")
    # order queries still work
    assert p.le("0", "1")


def test_implied_pair_is_not_a_cover():
    # a chain given with one pair implied by two others
    chain = cd.GradedPoset(["0", "a", "b", "1"], [("0", "a"), ("a", "b"),
                                                  ("b", "1"), ("0", "b")])
    assert chain.is_graded and chain.top_rank == 3
    assert chain.cover_pairs == ((0, 1), (1, 2), (2, 3))
    assert not chain.covers("0", "b")
    assert len(json.loads(chain.to_json())["covers"]) == 3
    # the pentagon with an implied pair stays non-graded, without the pair
    pentagon = cd.GradedPoset(["0", "a", "b", "c", "1"],
                              [("0", "a"), ("a", "b"), ("b", "1"),
                               ("0", "c"), ("c", "1"), ("0", "b")])
    assert not pentagon.is_graded and len(pentagon.cover_pairs) == 5


def test_eulerian_b3_and_square():
    assert cd.boolean_poset(3).is_eulerian()
    sq = cd.face_poset(cd.make_polygon(4), with_max=True)
    assert sq.is_eulerian()


def test_eulerian_fails_on_chain():
    assert not cd.chain_poset(3).is_eulerian()


def test_eulerian_requires_bounds():
    p = cd.GradedPoset(["a", "b"], [])
    with pytest.raises((RequiresBounds, NotGraded)):
        p.is_eulerian()


def test_lower_eulerian():
    tri = cd.face_poset(cd.make_simplex(2))
    assert tri.is_lower_eulerian()
    assert cd.boolean_poset(3).is_lower_eulerian()
    no_min = cd.GradedPoset(["a", "b", "1"], [("a", "1"), ("b", "1")])
    with pytest.raises(RequiresBounds):
        no_min.is_lower_eulerian()


def test_enumerate_chains_square():
    sq = cd.face_poset(cd.make_polygon(4), with_max=True)
    chains = list(enumerate_chains(sq))
    assert chains[0] == ()
    by_size = {}
    for c in chains:
        by_size[len(c)] = by_size.get(len(c), 0) + 1
    # 1 empty, 8 singletons, 8 vertex-edge pairs; 17 in total
    assert by_size == {0: 1, 1: 8, 2: 8}


def test_enumerate_chains_two_step_chain_and_b3():
    p = cd.GradedPoset(["0", "1"], [("0", "1")])
    assert list(enumerate_chains(p)) == [()]
    b3 = cd.boolean_poset(3)
    by_size = {}
    for c in enumerate_chains(b3):
        by_size[len(c)] = by_size.get(len(c), 0) + 1
    assert by_size == {0: 1, 1: 6, 2: 6}


def test_join_of_chains_stacks():
    p = cd.join(cd.chain_poset(2), cd.chain_poset(2))
    assert p.is_graded and p.top_rank == 3
    assert len(p.elements) == 4


def test_join_b3_b2_shape():
    j = cd.join(cd.boolean_poset(3), cd.boolean_poset(2))
    assert j.is_graded and j.top_rank == 4
    assert j.is_eulerian()
    # three coatoms of B3 * atoms of B2 all linked
    assert len(j.elements) == 7 + 3


def join_covers_by_definition(p, q):
    """Elements and covers of P * Q: P minus its maximum below Q minus its
    minimum, ids prefixed L:/R: when the two sides share one; a cover is a
    pair with no element in between."""
    left = [e for e in p.elements if e != p.max_elt]
    right = [e for e in q.elements if e != q.min_elt]
    pre = ("L:", "R:") if set(left) & set(right) else ("", "")
    side = {pre[0] + e: (0, e) for e in left}
    side.update({pre[1] + e: (1, e) for e in right})

    def lt(x, y):
        (sx, x), (sy, y) = side[x], side[y]
        if sx != sy:
            return sx < sy
        return (p if sx == 0 else q).lt(x, y)

    covers = {(x, y) for x in side for y in side
              if lt(x, y) and not any(lt(x, z) and lt(z, y) for z in side)}
    return set(side), covers


def test_suspension_is_join_with_b2(eulerian_fixtures):
    sq = cd.face_poset(cd.make_polygon(4), with_max=True)
    s = cd.suspension(sq)
    assert s.is_eulerian()
    assert s.top_rank == sq.top_rank + 1
    assert isomorphic(s, cd.join(sq, cd.boolean_poset(2)))
    b2 = cd.boolean_poset(2)
    for name, p in eulerian_fixtures:
        for q in (b2, p):
            j = cd.join(p, q)
            got = (set(j.elements), cover_names(j))
            assert got == join_covers_by_definition(p, q), name


def test_pyramid_of_boolean_is_boolean():
    for n in range(0, 4):
        assert isomorphic(cd.pyramid(cd.boolean_poset(n)),
                                cd.boolean_poset(n + 1))


def test_pyramid_of_point():
    single = cd.GradedPoset(["x"], [])
    assert isomorphic(cd.pyramid(single), cd.chain_poset(1))


def test_semisuspension_path_gives_triangle():
    path = cd.SimplicialComplex([["1", "2"], ["2", "3"]])
    p = cd.face_poset(path, with_max=True)
    q = cd.semisuspension(p)
    assert q.is_eulerian()
    tri = cd.face_poset(cd.make_polygon(3), with_max=True)
    assert isomorphic(q, tri)


def test_semisuspension_restores_removed_edge():
    path3 = cd.SimplicialComplex([["0", "1"], ["1", "2"], ["2", "3"]])
    q = cd.semisuspension(cd.face_poset(path3, with_max=True))
    sq = cd.face_poset(cd.make_polygon(4), with_max=True)
    assert isomorphic(q, sq)


def test_semisuspension_of_p1_is_suspension():
    for p in (cd.boolean_poset(2), cd.boolean_poset(3),
              cd.face_poset(cd.make_polygon(5), with_max=True)):
        left = cd.semisuspension(cd.adjoin_max(p))
        assert isomorphic(left, cd.suspension(p))


def test_semisuspension_rejects_eulerian_input():
    with pytest.raises(NotNearEulerian):
        cd.semisuspension(cd.boolean_poset(3))


def test_boundary_of_eulerian_drops_max():
    b3 = cd.boolean_poset(3)
    bd = cd.boundary(b3)
    assert len(bd.elements) == 7
    assert bd.max_elt is None


def test_boundary_of_powerset_example():
    # {0, 1, 2, 3, 12, 23, 123} under inclusion; boundary keeps {1} and {3}
    p = cd.GradedPoset(
        ["", "1", "2", "3", "12", "23", "123"],
        [("", "1"), ("", "2"), ("", "3"), ("1", "12"), ("2", "12"),
         ("2", "23"), ("3", "23"), ("12", "123"), ("23", "123")])
    bd = cd.boundary(p)
    proper = [e for e in bd.elements if e not in (bd.min_elt, bd.max_elt)]
    assert sorted(proper) == ["1", "3"]
    ints = cd.interior_elements(p)
    assert sorted(ints) == ["12", "123", "2", "23"]


def test_boundary_of_path_poset():
    path = cd.SimplicialComplex([["1", "2"], ["2", "3"]])
    bd = cd.boundary(cd.face_poset(path, with_max=True))
    assert isomorphic(bd, cd.boolean_poset(2))


def test_adjoin_max():
    b2 = cd.boolean_poset(2)
    p = cd.adjoin_max(b2)
    assert p.top_rank == 3 and p.max_elt not in b2.elements
    tri = cd.adjoin_max(cd.face_poset(cd.make_polygon(3)))
    assert tri.is_eulerian()
    # P1 of an Eulerian poset is near-Eulerian
    assert cd.is_near_eulerian(cd.adjoin_max(cd.boolean_poset(3)))


def test_adjoin_max_matches_the_cover_copy(rng):
    # adjoin_max is one _sub build from the parent's rows; the cover copy
    # it replaced is the oracle, on posets with and without bounds
    posets = [cd.GradedPoset([], []), cd.GradedPoset(["TOP"], []),
              cd.chain_poset(0), cd.boolean_poset(3), cd.make_cube3()]
    posets += [random_graded_poset(rng) for _ in range(30)]
    posets += [cd.GradedPoset(*random_relation(rng)) for _ in range(30)]
    for p in posets:
        got = cd.adjoin_max(p)
        assert same_build(got, adjoin_max_by_cover_copy(p)), p.elements
        assert got.to_json() == adjoin_max_by_cover_copy(p).to_json()
    assert cd.adjoin_max(cd.GradedPoset(["TOP"], [])).max_elt == "TOP'"


def test_without_max_and_proper_part_match_the_id_routes(rng):
    posets = [cd.chain_poset(0), cd.chain_poset(1), cd.boolean_poset(3),
              cd.make_cube3()]
    posets += [random_graded_poset(rng) for _ in range(30)]
    for p in posets:
        assert same_build(p.without_max(), without_max_by_ids(p))
        assert same_build(p.proper_part(), proper_part_by_ids(p))


def test_proper_part_of_a_point_is_empty():
    # the point's minimum and maximum are one element: toggling both bits
    # would bring it back
    point = cd.chain_poset(0)
    assert point.proper_part().elements == ()
    assert point.without_max().elements == ()


def test_missing_bounds_are_named():
    chain = cd.chain_poset(2)
    no_max = cd.GradedPoset(["0", "a", "b"], [("0", "a"), ("0", "b")])
    no_min = cd.dual(no_max)
    cases = [(lambda: cd.join(no_max, chain), "left factor needs a maximum"),
             (lambda: cd.join(chain, no_min), "right factor needs a minimum"),
             (lambda: cd.suspension(no_max), "suspension needs both bounds"),
             (lambda: cd.suspension(no_min), "suspension needs both bounds"),
             (lambda: no_max.without_max(), "poset has no maximum")]
    for call, message in cases:
        with pytest.raises(RequiresBounds, match="^%s$" % message):
            call()


def test_dual():
    b3 = cd.boolean_poset(3)
    assert isomorphic(cd.dual(b3), b3)
    cube = cd.make_cube3()
    assert isomorphic(cd.dual(cd.dual(cube)), cube)
    assert not isomorphic(cd.dual(cube), cube)


def test_lattice_ops():
    sq = cd.face_poset(cd.make_polygon(4), with_max=True)
    assert is_lattice_by_joins(sq)
    two_edges = cd.GradedPoset(
        ["0", "a", "b", "e", "f", "1"],
        [("0", "a"), ("0", "b"), ("a", "e"), ("b", "e"),
         ("a", "f"), ("b", "f"), ("e", "1"), ("f", "1")])
    assert not is_lattice_by_joins(two_edges)


def test_lattice_test_by_joins_matches_both_bounds(rng):
    # with a minimum, joins of all pairs give their meets, so is_lattice
    # checks joins only; the oracle checks joins and meets by le
    posets = [random_graded_poset(rng, max_width=3) for _ in range(120)]
    posets += [random_eulerian(rng, EULERIAN_POOL) for _ in range(10)]
    verdicts = [is_lattice_by_joins(p) for p in posets]
    assert verdicts == [is_lattice_by_both_bounds(p) for p in posets]
    assert 10 <= sum(verdicts) <= len(posets) - 10, sum(verdicts)


def test_interval_is_boolean_in_cube():
    cube = cd.make_cube3()
    vertex = "{000}"
    iv = cube.interval(vertex, cube.max_elt)
    assert isomorphic(iv, cd.boolean_poset(3))
    assert iv.rank(vertex) == 0


def test_json_roundtrip_canonical():
    cube = cd.make_cube3()
    text = cube.to_json()
    again = cd.GradedPoset.from_json(text)
    assert again.to_json() == text
    assert isomorphic(again, cube)


def test_rank_equals_maximal_chain_length(eulerian_fixtures):
    for name, p in eulerian_fixtures:
        n = p.top_rank
        for chain in p.maximal_chains():
            assert len(chain) == n - 1, name


def test_eulerian_matches_mobius_oracle_on_fixtures(eulerian_fixtures):
    for name, p in eulerian_fixtures:
        assert p.is_eulerian(), name
        assert eulerian_by_mobius(p), name
        if p.top_rank >= 2 and len(p.elements) <= 32:
            # without an atom the poset is no longer Eulerian
            broken = p.induced([e for e in p.elements if e != atoms(p)[0]])
            assert not broken.is_eulerian(), name
            assert not eulerian_by_mobius(broken), name


def first_unbalanced_length(p):
    """Length of a shortest interval whose Mobius value is not
    (-1)^length, which is a shortest unbalanced one; None if there is
    none."""
    lengths = [p.rank(b) - p.rank(a)
               for (a, b), value in mobius_table(p).items()
               if value != (-1) ** (p.rank(b) - p.rank(a))]
    return min(lengths, default=None)


def without_middle_element(rng, p):
    """p less one element strictly between its bounds: in an Eulerian p the
    length-2 intervals around it are left with one middle element."""
    middle = [e for e in p.elements if e not in (p.min_elt, p.max_elt)]
    gone = rng.choice(middle)
    return p.induced([e for e in p.elements if e != gone])


def glued_proper_parts(p, q):
    """The proper parts of p and q side by side between one new bottom and
    one new top.  Every proper interval is one of p or of q; for p and q
    Eulerian of even rank r the whole, of length r, is unbalanced, and for
    odd r it is balanced."""
    elements, covers = ["bot", "top"], []
    for tag, r in (("p", p), ("q", q)):
        name = {e: tag + e for e in r.elements}
        name[r.min_elt], name[r.max_elt] = "bot", "top"
        elements += [tag + e for e in r.elements
                     if e not in (r.min_elt, r.max_elt)]
        covers += [(name[r.elements[lo]], name[r.elements[hi]])
                   for lo, hi in r.cover_pairs]
    return cd.GradedPoset(elements, covers)


def test_eulerian_matches_mobius_oracle_randomized(rng):
    for k in range(200):
        p = random_graded_poset(rng) if k % 2 else random_eulerian(
            rng, EULERIAN_POOL)
        assert p.is_eulerian() == eulerian_by_mobius(p)
        # the ideal below a random element, by the lower Eulerian scan
        ideal = p.induced(down_set(p, rng.choice(p.elements), strict=False))
        assert ideal.is_lower_eulerian() == eulerian_by_mobius(ideal)
    # the scan reads only even-length intervals: broken posets whose first
    # unbalanced interval has length 2, and length 4 or more
    seen = {}
    for k in range(240):
        p = random_eulerian(rng, EULERIAN_POOL)
        if p.top_rank < 2 or len(p.elements) > 40:
            continue
        if k % 2:
            broken, want = without_middle_element(rng, p), 2
        else:
            broken = glued_proper_parts(p, rng.choice([p, cd.dual(p)]))
            want = None if p.top_rank % 2 else p.top_rank
        assert first_unbalanced_length(broken) == want
        assert broken.is_eulerian() == (want is None)
        seen[want] = seen.get(want, 0) + 1
    assert seen[2] >= 40 and seen[4] >= 10 and seen[None] >= 10
    assert sum(n for length, n in seen.items() if length and length >= 6) >= 3


def test_unbalanced_mask_matches_the_interval_count(rng):
    # the mask of tops, not only its verdict, on balanced, broken and
    # near-Eulerian rows and on the ideal below an element
    posets = [random_graded_poset(rng) for _ in range(40)]
    posets += [random_eulerian(rng, EULERIAN_POOL) for _ in range(20)]
    posets += [random_near_eulerian(rng) for _ in range(20)]
    posets += [without_middle_element(rng, p) for p in posets[40:60]
               if p.top_rank >= 2 and len(p.elements) <= 40]
    posets += [p.induced(down_set(p, rng.choice(p.elements), strict=False))
               for p in posets[:40]]
    nonzero = 0
    for p in posets:
        if len(p.elements) > 40:
            continue
        got = cd.poset._unbalanced(p._up, p._dn, p._ranks)
        assert got == unbalanced_by_intervals(p), p.elements
        nonzero += got != 0
    assert nonzero >= 30


def test_near_eulerian_cd_index_scans_once(monkeypatch,
                                           near_eulerian_fixtures):
    # is_eulerian keeps the scan's mask on the poset, and the near-Eulerian
    # test that follows reads it instead of scanning the rows again
    scan, calls = cd.poset._unbalanced, [0]

    def counted(*args):
        calls[0] += 1
        return scan(*args)

    posets = [cd.adjoin_max(cd.boolean_poset(3))]
    posets += [p for _, p in near_eulerian_fixtures[::3]]
    for p in posets:
        want = cd.cd_index(cd.GradedPoset.from_json(p.to_json()))
        fresh = cd.GradedPoset.from_json(p.to_json())
        calls[0] = 0
        monkeypatch.setattr(cd.poset, "_unbalanced", counted)
        assert cd.cd_index(fresh) == want
        monkeypatch.undo()
        assert calls[0] == 1, p
        assert not fresh.is_eulerian()


def test_join_associative_up_to_isomorphism(rng):
    pool = [cd.boolean_poset(2), cd.boolean_poset(3),
            cd.face_poset(cd.make_polygon(3), with_max=True),
            cd.face_poset(cd.make_polygon(4), with_max=True)]
    for _ in range(12):
        p, q, r = (rng.choice(pool) for _ in range(3))
        left = cd.join(cd.join(p, q), r)
        right = cd.join(p, cd.join(q, r))
        assert isomorphic(left, right)


def test_eulerian_closed_under_ops(rng):
    pool = [cd.boolean_poset(2), cd.boolean_poset(3),
            cd.face_poset(cd.make_polygon(5), with_max=True)]
    for _ in range(10):
        p = rng.choice(pool)
        q = rng.choice(pool)
        assert cd.join(p, q).is_eulerian()
        assert cd.suspension(p).is_eulerian()
        assert cd.pyramid(p).is_eulerian()


def test_near_eulerian_boundary_complement_law():
    # removing a coatom and semisuspending recovers the original poset
    for base in (cd.boolean_poset(3), cd.make_cube3(),
                 cd.face_poset(cd.make_polygon(5), with_max=True)):
        coatom = base.coatoms()[0]
        near = base.induced([e for e in base.elements if e != coatom])
        assert cd.is_near_eulerian(near)
        assert isomorphic(cd.semisuspension(near), base)
        # the boundary is the ideal below the restored coatom, capped
        bd = cd.boundary(near)
        expected = cd.adjoin_max(
            base.induced(down_set(base, coatom, strict=True)))
        assert isomorphic(bd, expected)


# -- differential checks of the bitmask kernels against their definitions -----


def random_poset(rng):
    """A random bounded graded poset, Eulerian about half the time."""
    if rng.random() < 0.5:
        return random_eulerian(rng, EULERIAN_POOL)
    return random_graded_poset(rng, max_levels=5)


def cover_names(p):
    return {(p.elements[lo], p.elements[hi]) for lo, hi in p.cover_pairs}


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_induced_matches_brute_force_covers(rng):
    p = random_poset(rng)
    kept = set(rng.sample(p.elements, rng.randint(0, len(p.elements))))
    q = p.induced(sorted(kept))
    assert q.elements == tuple(e for e in p.elements if e in kept)
    want = {(a, b) for a in kept for b in kept
            if p.lt(a, b) and not any(p.lt(a, c) and p.lt(c, b)
                                      for c in kept)}
    assert cover_names(q) == want


def test_interval_of_incomparable_elements_is_refused():
    p = cd.boolean_poset(2)
    with pytest.raises(DomainError, match=r"^\{1\} is not below \{2\}$"):
        p.interval("{1}", "{2}")


def test_induced_rejects_unknown_ids():
    p = cd.boolean_poset(2)
    with pytest.raises(DomainError, match="unknown element 'nope'"):
        p.induced(["{}", "nope"])


def test_covers_matches_cover_pairs(eulerian_fixtures):
    for name, p in eulerian_fixtures:
        pairs = cover_names(p)
        for a in p.elements:
            for b in p.elements:
                assert p.covers(a, b) == ((a, b) in pairs), (name, a, b)


# -- what a poset remembers: the Eulerian verdict and the semisuspension -----


def intervals_inherit_the_verdict(p):
    """Every closed interval of a poset scanned balanced carries the
    Eulerian verdict, and a fresh scan of the interval agrees."""
    for s in p.elements:
        for t in up_set(p, s, strict=False):
            q = p.interval(s, t)
            assert q._bad == 0, (s, t)
            assert cd.poset._unbalanced(q._up, q._dn, q._ranks) == 0, (s, t)


def test_intervals_inherit_the_eulerian_verdict(eulerian_fixtures):
    for name, p in eulerian_fixtures:
        fresh = cd.GradedPoset(p.elements, [(p.elements[lo], p.elements[hi])
                                            for lo, hi in p.cover_pairs])
        # no verdict before the scan, so nothing to pass on
        assert fresh.interval(fresh.min_elt, fresh.max_elt)._bad is None
        assert fresh.is_eulerian()
        intervals_inherit_the_verdict(fresh)


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_intervals_of_random_eulerian_inherit_the_verdict(rng):
    p = random_eulerian(rng, EULERIAN_POOL)
    assert p.is_eulerian()
    intervals_inherit_the_verdict(p)


def test_intervals_of_lower_eulerian_down_sets_inherit_the_verdict(
        eulerian_fixtures):
    downs = [p.without_max() for _, p in eulerian_fixtures]
    assert all(p._bad is None for p in downs)
    # a face poset without a top starts balanced: its intervals are Boolean
    faces = [cd.face_poset(cd.make_simplex(3)),
             cd.face_poset(cd.make_polygon(5))]
    assert all(p._bad == 0 for p in faces)
    for p in downs + faces:
        assert p.is_lower_eulerian()
        intervals_inherit_the_verdict(p)


def test_intervals_of_non_eulerian_posets_stay_unknown(rng):
    posets = [cd.chain_poset(3), cd.adjoin_max(cd.boolean_poset(3))]
    posets += [random_graded_poset(rng) for _ in range(20)]
    for p in posets:
        if p.is_eulerian():
            continue
        for s in p.elements:
            for t in up_set(p, s, strict=False):
                q = p.interval(s, t)
                assert q._bad is None, (s, t)
                # the interval is scanned on its own when asked
                assert q.is_eulerian() == eulerian_by_mobius(q), (s, t)


def test_induced_does_not_inherit_the_verdict():
    b3 = cd.boolean_poset(3)
    assert b3.is_eulerian()
    # B3 with one atom left out: [0, {1,2}] has three elements
    q = b3.induced([e for e in b3.elements if e != "{1}"])
    assert q._bad is None
    assert not q.is_eulerian()
    assert b3.without_max()._bad is None
    assert b3.proper_part()._bad is None


def test_semisuspend_is_kept_on_success_only(near_eulerian_fixtures):
    # what is kept is Q's Eulerian verdict; Q is built anew on every call
    for name, p in near_eulerian_fixtures:
        assert cd.poset._semisuspend(p)[0]._bad == 0, name
    no_max = cd.GradedPoset(["0", "a", "b"], [("0", "a"), ("0", "b")])
    for p in (cd.boolean_poset(3), cd.chain_poset(3), no_max):
        messages = []
        for _ in range(2):
            with pytest.raises(NotNearEulerian) as info:
                cd.poset._semisuspend(p)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def test_point_is_near_eulerian_and_two_chain_is_not():
    # the point's semisuspension is the two-chain tau < x, which is
    # Eulerian, although nothing lies below tau; the two-chain's tau would
    # be a second minimum
    point = cd.GradedPoset(["x"], [])
    assert cd.is_near_eulerian(point)
    assert cd.poset._below_coatom(point) == 0
    assert cd.interior_elements(point) == ["x"]
    q = cd.semisuspension(point)
    assert isomorphic(q, cd.chain_poset(1)) and q._bad == 0
    two = cd.chain_poset(1)
    assert not cd.is_near_eulerian(two)
    with pytest.raises(NotNearEulerian,
                       match="adjoining the missing coatom is not Eulerian"):
        cd.semisuspension(two)


def test_near_eulerian_test_on_rows_matches_the_built_semisuspension(
        near_eulerian_fixtures, rng):
    posets = [random_graded_poset(rng) for _ in range(200)]
    posets += [random_eulerian(rng) for _ in range(200)]
    posets += [random_near_eulerian(rng) for _ in range(200)]
    posets += [p for _, p in near_eulerian_fixtures]
    posets += [cd.GradedPoset(["x"], []), cd.chain_poset(1),
               cd.chain_poset(3), cd.boolean_poset(0),
               cd.GradedPoset(["0", "a", "b"], [("0", "a"), ("0", "b")]),
               cd.GradedPoset(["0", "a", "b", "c", "1"],
                              [("0", "a"), ("a", "b"), ("b", "1"),
                               ("0", "c"), ("c", "1")])]
    messages = {}
    for p in posets:
        # decode a copy, so that nothing is remembered on it
        p = cd.GradedPoset.from_json(p.to_json())
        got, want = outcome(cd.poset._below_coatom, p), outcome(
            semisuspend_by_build, p)
        assert got[0] == want[0], p.elements
        assert cd.is_near_eulerian(p) == (want[0] == "value")
        if got[0] == "raised":
            assert got == want, p.elements
            messages[got[2]] = messages.get(got[2], 0) + 1
            continue
        q, tau = want[1]
        below = set(down_set(q, tau))
        assert set(p._ids(got[1])) == below, p.elements
        assert cd.interior_elements(p) == [e for e in p.elements
                                           if e not in below]
        messages["near"] = messages.get("near", 0) + 1
    assert messages["near"] >= 200 + len(near_eulerian_fixtures)
    assert set(messages) == {"near", "semisuspension needs both bounds",
                             "semisuspension needs a graded poset",
                             "adjoining the missing coatom is not Eulerian"}


# -- the constructor's sweep and the maximal-chain walk against oracles ------


FIELDS = ("cover_pairs", "_up", "_dn", "_ranks", "is_ranked", "is_graded",
          "min_elt", "max_elt")


def test_constructor_matches_dfs_oracle_on_random_relations(rng):
    graded = 0
    for _ in range(300):
        elements, pairs = random_relation(rng)
        p = cd.GradedPoset(elements, pairs)
        want = poset_fields_by_dfs(elements, pairs)
        assert p.elements == tuple(elements)
        assert {f: getattr(p, f) for f in FIELDS} == want, (elements, pairs)
        graded += p.is_graded and len(elements) > 2
    assert graded >= 20


def test_constructor_matches_dfs_oracle_on_graded_posets(rng):
    for _ in range(40):
        q = random_graded_poset(rng, max_levels=5)
        pairs = sorted(cover_names(q))
        pairs += rng.sample(pairs, min(3, len(pairs)))
        # one pair implied by two covers: dropped, as it is no cover
        a, b = next((a, b) for a, b in pairs if b != q.max_elt)
        pairs.append((a, q.max_elt))
        elements = list(q.elements)
        rng.shuffle(elements)
        p = cd.GradedPoset(elements, pairs)
        assert {f: getattr(p, f) for f in FIELDS} \
            == poset_fields_by_dfs(elements, pairs)
        assert p.is_graded and cover_names(p) == cover_names(q)
        # given by its full strict order, it is the same poset
        order = [(a, b) for a in q.elements for b in up_set(q, a)]
        full = cd.GradedPoset(q.elements, order)
        assert (full.cover_pairs, full._up, full._dn, full._ranks) \
            == (q.cover_pairs, q._up, q._dn, q._ranks)


@pytest.mark.parametrize("elements, pairs, error, message", [
    (["a", "b"], [("a", "b"), ("b", "a")], CycleDetected,
     "cover relation contains a cycle"),
    (["a", "b", "c", "d"], [("d", "a"), ("a", "b"), ("b", "c"), ("c", "a")],
     CycleDetected, "cover relation contains a cycle"),
    (["a", "b"], [("a", "b"), ("b", "b")], CycleDetected, "cover loop at b"),
    (["a", "b"], [("a", "b"), ("a", "z")], DomainError,
     "cover (a, z) references unknown id"),
    (["a", "b", "a"], [("a", "b")], DomainError, "element ids are not unique"),
])
def test_constructor_errors(elements, pairs, error, message):
    with pytest.raises(error) as info:
        cd.GradedPoset(elements, pairs)
    assert type(info.value) is error and str(info.value) == message


def test_index_native_constructors_match_the_string_intake(
        eulerian_fixtures, rng):
    # every constructor past the intake, on the Eulerian fixtures, the
    # rank 4 and 5 maps and random relations, against a rebuild of its
    # output from id pairs
    built = [cd.boolean_poset(n) for n in range(6)]
    built += [cd.chain_poset(n) for n in range(5)]
    for _, p in eulerian_fixtures:
        built += [p.without_max(), p.proper_part(), cd.adjoin_max(p),
                  cd.dual(p), cd.pyramid(p), cd.suspension(p),
                  cd.join(p, cd.boolean_poset(2)),
                  cd.join(cd.chain_poset(1), p),
                  cd.semisuspension(cd.adjoin_max(p))]
        built += [p.interval(p.min_elt, e) for e in p.elements]
    for _, m in rank45_pool():
        src, tgt = m.source, m.target
        built += [src, tgt, cd.dual(src), cd.adjoin_max(src)]
        built += [m.preimage_ideal(s) for s in tgt.elements]
        built += [cd.restrict(m, s).target for s in tgt.elements]
        built += cd.skeletal_family(m).posets
    for _ in range(100):
        p = cd.GradedPoset(*random_relation(rng))
        built += [cd.dual(p), cd.adjoin_max(p),
                  p.induced(rng.sample(p.elements, len(p) // 2))]
        if p.is_ranked:
            built.append(cd.pyramid(p))
    for q in built:
        assert fields_unlike_the_intake(q) == [], q
    assert sum(not q.is_ranked for q in built) >= 50


def maximal_chains_by_enumeration(p):
    """The listed chains that no proper element outside them extends."""
    proper = [e for e in p.elements if e not in (p.min_elt, p.max_elt)]
    return {c for c in enumerate_chains(p)
            if not any(e not in c and all(p.lt(e, x) or p.lt(x, e) for x in c)
                       for e in proper)}


def test_maximal_chains_match_enumeration(eulerian_fixtures, rng):
    posets = [p for _, p in eulerian_fixtures]
    posets += [random_graded_poset(rng, max_levels=5) for _ in range(30)]
    posets += [cd.boolean_poset(0), cd.boolean_poset(1), cd.chain_poset(1)]
    for p in posets:
        chains = p.maximal_chains()
        assert len(chains) == len(set(chains))
        assert set(chains) == maximal_chains_by_enumeration(p)


def test_maximal_chains_past_the_recursion_limit():
    chains = cd.chain_poset(1200).maximal_chains()
    assert chains == [tuple("c%d" % i for i in range(1, 1200))]


def test_near_eulerian_test_on_a_down_set_matches_the_built_capped_poset(
        rng):
    # _below_top on a down-set of a ranked poset's rows, with a top
    # adjoined above it, against _below_coatom of the capped poset built
    # on the down-set: the same verdict, message and D
    posets = [random_graded_poset(rng) for _ in range(60)]
    posets += [random_eulerian(rng) for _ in range(40)]
    posets += [random_near_eulerian(rng) for _ in range(40)]
    # without a minimum, down-sets can have several minimal elements
    posets += [p.induced([e for e in p.elements if e != p.min_elt])
               for p in posets[:40]]
    outcomes = {}
    for p in posets:
        assert p.is_ranked
        closed = [p._dn[i] | 1 << i for i in range(len(p.elements))]
        keeps = set(closed)
        keeps.update(rng.choice(closed) | rng.choice(closed)
                     for _ in range(len(closed)))
        for keep in sorted(keeps):
            got = outcome(cd.poset._below_top, p, keep)
            hat = cd.adjoin_max(p._sub(keep))
            want = outcome(cd.poset._below_coatom, hat)
            if got[0] == "value":
                assert want[0] == "value", (p.elements, p._ids(keep))
                assert p._ids(got[1]) == hat._ids(want[1])
                key = "near"
            else:
                assert got == want, (p.elements, p._ids(keep))
                key = got[2]
            outcomes[key] = outcomes.get(key, 0) + 1
    assert set(outcomes) == {"near", "semisuspension needs both bounds",
                             "semisuspension needs a graded poset",
                             "adjoining the missing coatom is not Eulerian"}
    assert min(outcomes.values()) >= 20, outcomes


def test_poset_iteration_and_repr():
    p = cd.boolean_poset(2)
    assert list(p) == list(p.elements) and len(list(p)) == 4
    assert repr(p) == "GradedPoset(4 elements, 4 covers)"


def test_pyramid_needs_a_ranked_poset():
    # 1 covers both y, of rank 2, and z, of rank 1
    unranked = cd.GradedPoset(["0", "x", "y", "1", "z"],
                              [("0", "x"), ("x", "y"), ("y", "1"),
                               ("0", "z"), ("z", "1")])
    assert not unranked.is_ranked
    with pytest.raises(NotGraded) as info:
        cd.pyramid(unranked)
    assert str(info.value) == "pyramid needs a ranked poset"


def test_boundary_of_an_antichain_raises():
    antichain = cd.GradedPoset(["a", "b"], [])
    with pytest.raises(NotNearEulerian) as info:
        cd.boundary(antichain)
    assert str(info.value) == "semisuspension needs both bounds"


def test_negative_ranks_are_refused():
    with pytest.raises(DomainError) as info:
        cd.boolean_poset(-1)
    assert str(info.value) == "boolean rank must be >= 0"
    with pytest.raises(DomainError) as info:
        cd.chain_poset(-1)
    assert str(info.value) == "chain length must be >= 0"
