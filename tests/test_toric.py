"""Toric g/h-polynomials, local h-polynomials, and the ab -> Z[x] morphisms."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import cdindex as cd
from cdindex import flagcd, toric
from cdindex import poset as ps
from cdindex.errors import NotGraded, NotLowerEulerian, RequiresBounds
from cdindex.ncpoly import (AbPolynomial, CdPolynomial, UniPolynomial,
                            expand_cd)
from conftest import (MorphismsByCoproduct, ab_words,
                      barycentric_solid_triangle,
                      correspondence_rows_by_rebuild, count_builds,
                      derangements_by_excedance, edge_with_points,
                      eulerian_by_mobius, eulerian_polynomial,
                      f_by_letter_rules, g_by_recursion,
                      g_poly_by_psi, h_poly_by_adjoin_max,
                      h_poly_by_recursion, kappa, kappa_of,
                      local_h_by_dual_intervals, local_h_of_built_faces,
                      morphism_f_by_coproduct, outcome, polygon_cd,
                      polygon_lattice, random_graded_poset, rank45_pool,
                      square_lattice, subdivision_pool, three_polytope_cd,
                      toric_h_by_psi, toric_h_by_recursion)

ONE = UniPolynomial.one()
X = UniPolynomial.x()


def test_g_of_booleans_is_one():
    for n in range(0, 9):
        assert cd.g_poly(cd.boolean_poset(n)) == ONE, n


def test_h_of_boolean_without_top():
    for d in range(0, 8):
        p = cd.boolean_poset(d + 1).without_max()
        assert cd.h_poly(p) == UniPolynomial([1] * (d + 1)), d


def test_h_matches_classical_h_on_complexes(rng):
    # random pure complexes: toric h of the face poset vs the f-vector form
    for trial in range(20):
        dim = rng.randint(1, 3)
        verts = [str(i) for i in range(dim + rng.randint(2, 5))]
        facets = set()
        for _ in range(rng.randint(1, 6)):
            facets.add(frozenset(rng.sample(verts, dim + 1)))
        k = cd.SimplicialComplex(facets)
        faces = cd.face_poset(k)
        got = cd.h_poly(faces)
        want = cd.h_vector(k).polynomial()
        assert got == want, sorted(facets)
        assert got == h_poly_by_recursion(faces), sorted(facets)
        bounded = cd.face_poset(k, with_max=True)
        assert cd.toric_h(bounded) == toric_h_by_recursion(bounded), \
            sorted(facets)


def test_h_poly_needs_one_top_rank():
    # non-pure: with a maximum adjoined the poset is not graded
    p = cd.face_poset(cd.SimplicialComplex([["1", "2", "3"], ["3", "4"]]))
    assert p.is_lower_eulerian()
    with pytest.raises(NotGraded):
        cd.h_poly(p)


def test_h_poly_rejects_non_eulerian_ideal():
    # the face poset minus a vertex leaves edges with one vertex below
    src = barycentric_solid_triangle().source
    vertex = next(e for e in src.elements if src.rank(e) == 1)
    broken = src.induced([e for e in src.elements if e != vertex])
    assert cd.h_poly(src) == h_poly_by_recursion(src)
    with pytest.raises(NotLowerEulerian):
        cd.h_poly(broken)


def test_h_poly_reads_one_dense_dp_and_builds_nothing(
        monkeypatch, eulerian_fixtures, rng):
    # the same polynomial or error as the poset with a maximum built on
    posets = [p.without_max() for _, p in eulerian_fixtures]
    posets += [p.proper_part() for _, p in eulerian_fixtures[:6]]
    for _ in range(12):
        verts = [str(i) for i in range(rng.randint(3, 7))]
        facets = [rng.sample(verts, rng.randint(1, 3)) for _ in range(4)]
        posets.append(cd.face_poset(cd.SimplicialComplex(facets)))
    posets += [random_graded_poset(rng).without_max() for _ in range(12)]
    posets += [cd.GradedPoset([], []), cd.GradedPoset(["a", "b"], []),
               cd.GradedPoset(["0", "a", "b", "c", "1"],
                              [("0", "a"), ("a", "b"), ("b", "1"),
                               ("0", "c"), ("c", "1")])]
    kinds = set()
    for p in posets:
        want = outcome(h_poly_by_adjoin_max, cd.GradedPoset.from_json(
            p.to_json()))
        fresh = cd.GradedPoset.from_json(p.to_json())
        builds = count_builds(monkeypatch)
        got = outcome(cd.h_poly, fresh)
        monkeypatch.undo()
        assert got == want, p.elements
        assert builds[0] == 0
        kinds.add(got[0] if got[0] == "value" else got[1].__name__)
    assert kinds == {"value", "NotGraded", "NotLowerEulerian"}


def test_toric_h_small():
    assert cd.toric_h(cd.boolean_poset(3)) == UniPolynomial((1, 1, 1))
    assert cd.toric_h(square_lattice()) == UniPolynomial((1, 2, 1))
    assert cd.toric_h(cd.chain_poset(1)) == ONE
    single = cd.GradedPoset(["x"], [])
    assert cd.toric_h(single) == UniPolynomial.zero()


def test_toric_h_cube_symmetric():
    h = cd.toric_h(cd.make_cube3())
    assert h == UniPolynomial((1, 5, 5, 1))
    assert h.is_palindrome(3)


def test_toric_h_palindromic(eulerian_fixtures):
    for name, p in eulerian_fixtures:
        h = cd.toric_h(p)
        assert h.is_palindrome(p.top_rank - 1), name


def test_g_requires_eulerian():
    with pytest.raises(NotLowerEulerian):
        cd.g_poly(cd.chain_poset(3))


def test_toric_matches_psi_route_on_eulerian_fixtures(eulerian_fixtures):
    for name, p in eulerian_fixtures:
        assert cd.toric_h(p) == toric_h_by_psi(p), name
        assert cd.g_poly(p) == g_poly_by_psi(p), name


def test_toric_matches_psi_route_on_random_eulerian(rng):
    # small seeds under one to three pyramids, suspensions and duals
    seeds = [cd.boolean_poset(k) for k in (1, 2, 3)]
    seeds += [polygon_lattice(n) for n in (3, 4, 5, 6)]
    ops = (cd.pyramid, cd.suspension, cd.dual)
    for trial in range(30):
        p = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            p = rng.choice(ops)(p)
        h, g = cd.toric_h(p), cd.g_poly(p)
        assert p.is_eulerian(), trial
        assert h == toric_h_by_psi(p), trial
        assert g == g_poly_by_psi(p), trial


def test_toric_matches_psi_route_on_non_eulerian(rng):
    posets = [cd.chain_poset(3), cd.chain_poset(4),
              cd.adjoin_max(cd.face_poset(cd.make_simplex(2)))]
    while len(posets) < 23:
        p = random_graded_poset(rng)
        if not eulerian_by_mobius(p):
            posets.append(p)
    refused = ("raised", NotLowerEulerian,
               "g-polynomial needs an Eulerian poset", None)
    for i, p in enumerate(posets):
        h = cd.toric_h(p)
        assert h == toric_h_by_psi(p) == toric_h_by_recursion(p), i
        assert outcome(cd.g_poly, p) == outcome(g_poly_by_psi, p) \
            == refused, i


def test_toric_outcomes_on_degenerate_input():
    # the types and messages raised before the Eulerian branch, and the
    # values on a point and a two-element chain
    not_graded = cd.GradedPoset(  # the pentagon N5
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("b", "c"), ("a", "1"), ("c", "1")])
    unbounded = cd.GradedPoset(["a", "b", "1"], [("a", "1"), ("b", "1")])
    graded = ("raised", NotGraded, "operation needs a graded poset", None)
    bounds = ("raised", RequiresBounds,
              "operation needs both a 0 and a 1 element", None)
    cases = [(not_graded, graded, graded),
             (unbounded, bounds, bounds),
             (cd.GradedPoset(["x"], []),
              ("value", UniPolynomial.zero()), ("value", ONE)),
             (cd.chain_poset(1), ("value", ONE), ("value", ONE))]
    for p, want_h, want_g in cases:
        assert outcome(cd.toric_h, p) == outcome(toric_h_by_psi, p) \
            == want_h, p.elements
        assert outcome(cd.g_poly, p) == outcome(g_poly_by_psi, p) \
            == want_g, p.elements


def test_toric_h_then_g_poly_run_one_sparse_dp(monkeypatch):
    p = polygon_lattice(5)
    for op in (cd.pyramid, cd.suspension, cd.dual, cd.pyramid,
               cd.suspension, cd.suspension, cd.suspension, cd.suspension):
        p = op(p)
    p = ps.GradedPoset.from_json_obj(p.to_json_obj())  # nothing remembered
    assert p.top_rank == 10
    calls = {"sparse": 0, "dense": 0, "eulerian_scan": 0}
    chain_counts = flagcd._chain_counts
    scan = ps._unbalanced

    def counted_chain_counts(q, sparse=False):
        calls["sparse" if sparse else "dense"] += 1
        return chain_counts(q, sparse)

    def counted_scan(*rows):
        calls["eulerian_scan"] += 1
        return scan(*rows)

    monkeypatch.setattr(flagcd, "_chain_counts", counted_chain_counts)
    monkeypatch.setattr(ps, "_unbalanced", counted_scan)
    h, g = cd.toric_h(p), cd.g_poly(p)
    assert calls == {"sparse": 1, "dense": 0, "eulerian_scan": 1}
    monkeypatch.undo()
    assert h == toric_h_by_psi(p) and g == g_poly_by_psi(p)


def test_local_h_barycentric_triangle():
    table = cd.local_h(barycentric_solid_triangle())
    rows = dict(table.rows)
    assert rows["{}"] == ONE
    for edge in ("{0,1}", "{0,2}", "{1,2}"):
        assert rows[edge] == X
    for vertex in ("{0}", "{1}", "{2}"):
        assert rows[vertex] == UniPolynomial.zero()
    assert rows["{0,1,2}"] == X + X * X
    assert table.total == UniPolynomial((1, 4, 1))


def test_local_h_trivial_subdivision():
    m = cd.identity_subdivision(cd.boolean_poset(3))
    table = cd.local_h(m)
    for sigma, ell in table.rows:
        if sigma == m.target.min_elt:
            assert ell == ONE
        else:
            assert ell == UniPolynomial.zero(), sigma


def test_local_h_edge_with_interior_points():
    for t in range(1, 6):
        table = cd.local_h(edge_with_points(t))
        assert table.row("{0,1}") == X * t, t
        assert table.total == ONE + X * t


def test_local_h_matches_dual_interval_sum(subdivision_fixtures):
    checked = 0
    for name, m in subdivision_fixtures:
        if m.target.max_elt is None or not m.target.is_eulerian():
            continue
        table = cd.local_h(m)
        assert table.rows == local_h_by_dual_intervals(m), name
        top_ideal = m.preimage_ideal(m.target.max_elt)
        assert table.total == h_poly_by_recursion(top_ideal), name
        checked += 1
    assert checked >= 5


def test_local_h_matches_the_built_faces(subdivision_fixtures):
    # the masked DPs against h of each built capped preimage through its
    # dense Psi and g_poly of each built interval [tau, sigma]
    checked = 0
    for name, m in list(subdivision_fixtures) + rank45_pool():
        if m.target.max_elt is None or not m.target.is_eulerian():
            continue
        table = cd.local_h(m)
        assert (table.rows, table.total) == local_h_of_built_faces(m), name
        checked += 1
    assert checked >= 8


def test_local_h_of_barycentric_simplices_has_stanleys_closed_forms():
    # the local h of a face of rank r subdivided barycentrically counts the
    # derangements of r letters by excedances; h of the subdivided
    # simplex, the total, counts permutations by descents
    maps = dict(rank45_pool())
    for name, d in (("bary_simplex3", 3), ("bary_simplex4", 4)):
        table = cd.local_h(maps[name])
        for sigma, ell in table.rows:
            want = derangements_by_excedance(maps[name].target.rank(sigma))
            assert ell == want, (name, sigma)
        assert table.total == eulerian_polynomial(d + 1), name
    assert derangements_by_excedance(4) == UniPolynomial((0, 1, 7, 1))
    assert derangements_by_excedance(5) == UniPolynomial((0, 1, 21, 21, 1))
    assert eulerian_polynomial(4) == UniPolynomial((1, 11, 11, 1))
    bd4 = maps["bary_bd4"]
    for sigma, ell in cd.local_h(bd4).rows:
        if sigma != bd4.target.max_elt:
            assert ell == derangements_by_excedance(bd4.target.rank(sigma))


def test_correspondence_rows_differ_exactly_at_genuine_faces_of_rank_4_on(
        subdivision_fixtures):
    # f(l) and l agree at every face of rank 3 or less and at no genuine
    # face of rank 4 or more; the verdict reads the summed identities
    checked_totals = deep_maps = 0
    for name, m in list(subdivision_fixtures) + rank45_pool():
        tgt = m.target
        if tgt.max_elt is None or not tgt.is_eulerian():
            continue
        rep = cd.verify_local_correspondence(m)
        formal = tgt.max_elt if m.source.max_elt is not None else None
        differ = {s for s, f, ell in rep.rows if f != ell and s != formal}
        deep = {s for s in tgt.elements if tgt.rank(s) >= 4 and s != formal}
        assert differ == deep, name
        assert rep.rows_agree == (not deep), name
        assert rep.ok(), name
        if m.source.max_elt is not None:
            assert rep.top_identity is True, name
            assert rep.bottom_identity is True, name
            checked_totals += 1
        deep_maps += bool(deep)
    assert checked_totals >= 4 and deep_maps == 3
    rows = {s: (f, ell) for s, f, ell in cd.verify_local_correspondence(
        dict(rank45_pool())["bary_simplex3"]).rows}
    assert rows["{0,1,2,3}"] == (UniPolynomial((0, 1, 11, 1)),
                                 UniPolynomial((0, 1, 7, 1)))


def test_local_h_pulls_each_face_off_one_dp_down_from_it(monkeypatch):
    # l(sigma) is h less l(tau) g([tau, sigma]) over the tau < sigma with
    # l(tau) nonzero, their g off one sparse DP down from sigma; a face
    # with no such tau runs none
    maps = [(name, m) for name, m in subdivision_pool() + rank45_pool()
            if m.target.max_elt is not None and m.target.is_eulerian()]
    assert len(maps) >= 8
    for name, m in maps:
        tgt, dps = m.target, []

        def counted(rows, levels, *args, dp=flagcd._chain_vectors):
            if rows is tgt._up:
                dps.append(args)
            return dp(rows, levels, *args)

        monkeypatch.setattr(flagcd, "_chain_vectors", counted)
        monkeypatch.setattr(toric, "_chain_vectors", counted)
        rows = cd.local_h(m).rows
        monkeypatch.undo()
        assert rows == local_h_by_dual_intervals(m), name
        nonzero = {s for s, ell in rows if ell}
        pulled = [s for s, _ in rows
                  if any(t in nonzero for t in tgt.down_set(s))]
        assert dps == [(True,)] * len(pulled), name
        assert len(pulled) == len(tgt.elements) - 1, name


def test_local_h_reuses_validated_faces(monkeypatch):
    # local_h reads the capped preimages as masks on the source rows and
    # relies on the target's own Eulerian check for the intervals
    # [tau, sigma]
    _, m = cd.barycentric_subdivision(cd.make_boundary_simplex(3))
    mt = cd.with_adjoined_tops(m)
    assert cd.validate_strong_eulerian(mt).ok
    calls = {"adjoin_max": 0, "eulerian_scan": 0}
    adjoin_max, scan = ps.adjoin_max, ps._unbalanced

    def counted_adjoin_max(p):
        calls["adjoin_max"] += 1
        return adjoin_max(p)

    def counted_scan(*rows):
        calls["eulerian_scan"] += 1
        return scan(*rows)

    monkeypatch.setattr(ps, "adjoin_max", counted_adjoin_max)
    monkeypatch.setattr(ps, "_unbalanced", counted_scan)
    rows = cd.local_h(mt).rows
    assert calls["adjoin_max"] == 0
    assert calls["eulerian_scan"] <= 2  # the target and the source
    monkeypatch.undo()
    assert rows == local_h_by_dual_intervals(mt)


def test_local_h_symmetry(subdivision_fixtures):
    for name, m in subdivision_fixtures:
        if m.target.max_elt is None or not m.target.is_eulerian():
            continue
        table = cd.local_h(m)
        for sigma, ell in table.rows:
            n = m.target.rank(sigma)
            assert ell.is_palindrome(n), (name, sigma)


def test_morphism_base_cases():
    assert cd.morphism_f(AbPolynomial.one()) == ONE
    assert cd.morphism_g(AbPolynomial.one()) == ONE
    assert cd.morphism_f(AbPolynomial.monomial("a")) == X
    assert cd.morphism_f(AbPolynomial.monomial("b")) == ONE


def test_morphism_f_on_b3():
    assert cd.morphism_f(cd.ab_index(cd.boolean_poset(3))) \
        == UniPolynomial((1, 1, 1))


def test_morphism_f_square_cd_expansion():
    phi = cd.cd_index(square_lattice())
    assert cd.morphism_f(expand_cd(phi)) == cd.toric_h(square_lattice())


def test_morphism_matches_toric_on_fixtures(eulerian_fixtures):
    # toric_h and g_poly read Phi here, h_poly reads Psi; the oracle
    # recurses over lower intervals instead
    assert len(eulerian_fixtures) >= 15
    for name, p in eulerian_fixtures:
        psi = cd.ab_index(p)
        assert cd.morphism_f(psi) == cd.toric_h(p) \
            == toric_h_by_recursion(p), name
        assert cd.morphism_g(psi) == cd.g_poly(p) == g_by_recursion(p), name
        for q in (p, p.without_max()):
            assert cd.h_poly(q) == h_poly_by_recursion(q), name


def test_morphism_f_on_graded_non_eulerian():
    # the correspondence holds for any bounded graded poset
    for p in (cd.chain_poset(3), cd.chain_poset(4),
              cd.adjoin_max(cd.face_poset(cd.make_simplex(2)))):
        assert cd.morphism_f(cd.ab_index(p)) == cd.toric_h(p) \
            == toric_h_by_recursion(p)


def test_morphism_tensor_route_agrees(eulerian_fixtures):
    for name, p in eulerian_fixtures[:6]:
        psi = cd.ab_index(p)
        assert morphism_f_by_coproduct(psi) == cd.morphism_f(psi), name


def test_morphisms_match_coproduct_definition_on_words():
    oracle = MorphismsByCoproduct()
    words = [w for n in range(11) for w in ab_words(n)]
    assert len(words) == 2047
    for word in words:
        w = AbPolynomial.monomial(word)
        assert cd.morphism_f(w) == oracle.f_word(word), word
        assert cd.morphism_g(w) == oracle.g_word(word), word


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(alphabet="ab", max_size=8),
                       st.integers(-9, 9), max_size=5).map(AbPolynomial))
@example(AbPolynomial({"": -3, "a": 2, "bab": -1, "aabb": 4}))
def test_morphisms_match_coproduct_definition_on_polynomials(p):
    oracle = MorphismsByCoproduct()
    assert cd.morphism_f(p) == oracle.f(p)
    assert cd.morphism_g(p) == oracle.g(p)


def _up_to_degree(letters, top=10):
    """The longest prefix of the cd-word of letters of degree <= top."""
    word, degree = "", 0
    for letter in letters:
        degree += 1 if letter == "c" else 2
        if degree > top:
            break
        word += letter
    return word


# sampled_from shrinks toward "d", so small examples are d-heavy
CD_WORDS = st.lists(st.sampled_from("dc"), max_size=10).map(_up_to_degree)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(CD_WORDS, st.integers(-9, 9), max_size=6)
       .map(CdPolynomial), st.randoms(use_true_random=False))
@example(CdPolynomial({"ddddd": 1, "cdcdd": -2, "dcccd": 5, "": 3,
                       "c" * 10: 1, "dc": 4}), random.Random(1))
def test_cd_letter_rules_match_ab_expansion(phi, rnd):
    # the c and d rules against the a and b rules on the expansion, with
    # the shared memo emptied and the words, and which of the two routes
    # steps each first, in shuffled order
    toric._F.clear()
    toric._F[""] = ONE
    words = list(phi.terms)
    rnd.shuffle(words)
    for word in words:
        routes = [CdPolynomial.monomial(word),
                  expand_cd(CdPolynomial.monomial(word))]
        rnd.shuffle(routes)
        assert cd.morphism_f(routes[0]) == cd.morphism_f(routes[1]), word
        assert cd.morphism_g(routes[0]) == cd.morphism_g(routes[1]), word
    assert cd.morphism_f(phi) == cd.morphism_f(expand_cd(phi))
    assert cd.morphism_g(phi) == cd.morphism_g(expand_cd(phi))


def test_morphism_memo_keeps_no_prefix_longer_than_a_poset_word():
    # f and g of a 300-letter word, of its 100-letter prefix, and of the
    # word stepped on from there, against the letter rules; the memo keeps
    # f of prefixes of at most 63 letters, the longest word of a poset
    rnd = random.Random(25)
    word = "".join(rnd.choice("ab") for _ in range(300))
    for w in (word, word[:100], word + "ab"):
        assert cd.morphism_f(AbPolynomial.monomial(w)) == f_by_letter_rules(w)
        assert (cd.morphism_g(AbPolynomial.monomial(w))
                == f_by_letter_rules(w + "b"))
        assert max(map(len, toric._F)) == 63
    assert word[:63] in toric._F


def test_morphism_f_of_a_long_word_does_not_recurse():
    f = cd.morphism_f(AbPolynomial.monomial("a" * 1200))
    # the a rule keeps the leading term of (x - 1) f; g stays below it
    assert f.degree == 1200 and f[1200] == 1


def test_morphism_well_defined_on_cd_subalgebra():
    # f factors through the cd expansion of any cd-polynomial
    for poly in (polygon_cd(5), three_polytope_cd(8, 6),
                 cd.CdPolynomial({"cdc": 2, "ccccc": 1})):
        image = cd.morphism_f(expand_cd(poly))
        by_words = UniPolynomial.zero()
        for word, coeff in poly.terms.items():
            by_words = by_words + cd.morphism_f(
                expand_cd(cd.CdPolynomial.monomial(word))) * coeff
        assert image == by_words


def test_kappa_is_f_minus_coproduct_part():
    # on b-free words f collapses to kappa plus lower data; spot check deg 1
    assert kappa(AbPolynomial.monomial("a")) == X - ONE


def test_verify_local_correspondence(subdivision_fixtures):
    checked_totals = 0
    for name, m in subdivision_fixtures:
        if m.target.max_elt is None or not m.target.is_eulerian():
            continue
        report = cd.verify_local_correspondence(m)
        assert report.rows_agree, name
        assert report.ok(), name
        if m.source.max_elt is not None:
            assert report.top_identity is True, name
            assert report.bottom_identity is True, name
            checked_totals += 1
    assert checked_totals >= 3


def test_correspondence_rows_match_rebuilt_faces(subdivision_fixtures):
    for name, m in subdivision_fixtures:
        got = outcome(lambda m: cd.verify_local_correspondence(m).rows, m)
        assert got == outcome(correspondence_rows_by_rebuild, m), name


def test_correspondence_identity_subdivision():
    report = cd.verify_local_correspondence(
        cd.identity_subdivision(square_lattice()))
    nonzero = [(s, f) for s, f, ell in report.rows if f or ell]
    assert len(nonzero) == 1


def test_local_h_nonnegative_on_polytopal_fixtures(subdivision_fixtures):
    from cdindex.ncpoly import is_nonnegative
    for name, m in subdivision_fixtures:
        if m.target.max_elt is None or not m.target.is_eulerian():
            continue
        table = cd.local_h(m)
        for sigma, ell in table.rows:
            assert is_nonnegative(ell), (name, sigma)


def test_correspondence_barycentric_sphere_formal_top():
    """On a deeply subdivided topped sphere, the formal top's h-row absorbs
    the recursion balance; every genuine face row still corresponds."""
    _, m = cd.barycentric_subdivision(cd.make_boundary_simplex(3))
    mt = cd.with_adjoined_tops(m)
    rep = cd.verify_local_correspondence(mt)
    assert rep.ok()
    assert rep.top_identity is True and rep.bottom_identity is True
    x = UniPolynomial.x()
    rows = {s: (f, ell) for s, f, ell in rep.rows}
    for edge in ("{0,1}", "{2,3}"):
        assert rows[edge] == (x, x)
    assert rows["{0,1,2}"] == (x + x * x, x + x * x)
    # the formal top row: ab side is zero, h side carries the balance
    f_top, ell_top = rows["TOP"]
    assert f_top == UniPolynomial.zero()
    assert ell_top == UniPolynomial((0, 0, -4))


def test_kappa_word_powers_in_any_order():
    # (x - 1)^k whatever the order of requests; zero once a b appears
    for k in (3, 0, 5, 1, 4, 2, 5):
        assert kappa_of("a" * k) == UniPolynomial((-1, 1)) ** k, k
        assert kappa_of("a" * k + "b") == UniPolynomial.zero(), k


def test_local_h_table_row_of_an_absent_face_raises():
    table = cd.local_h(barycentric_solid_triangle())
    with pytest.raises(KeyError) as info:
        table.row("{9}")
    assert info.value.args == ("{9}",)


def test_local_h_refuses_a_strong_formal_map_onto_a_non_eulerian_target(
        capsys, tmp_path):
    from cdindex.cli import run
    # 0 < a1, a2, a3 below the two maxima p (over a1, a2) and q (over a3),
    # carried onto 0 < m1, m2, m3 < 1 with p and q to 1: every alternating
    # sum holds, but [0, 1] has three atoms
    src = cd.GradedPoset(["0", "a1", "a2", "a3", "p", "q"],
                         [("0", "a1"), ("0", "a2"), ("0", "a3"),
                          ("a1", "p"), ("a2", "p"), ("a3", "q")])
    tgt = cd.GradedPoset(["0", "m1", "m2", "m3", "1"],
                         [("0", "m1"), ("0", "m2"), ("0", "m3"),
                          ("m1", "1"), ("m2", "1"), ("m3", "1")])
    m = cd.SubdivisionMap(src, tgt, {"0": "0", "a1": "m1", "a2": "m2",
                                     "a3": "m3", "p": "1", "q": "1"})
    assert cd.validate_strong_formal(m).ok and not tgt.is_eulerian()
    with pytest.raises(NotLowerEulerian) as info:
        cd.local_h(m)
    assert str(info.value) == "local h needs an Eulerian target"
    path = tmp_path / "three_atoms.json"
    path.write_text(m.to_json())
    code = run(["localh", "--input", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "validation error: local h needs an Eulerian target\n"
