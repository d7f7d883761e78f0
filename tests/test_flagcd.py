"""Flag vectors, ab/cd-indexes, and local indexes."""
import pytest

import cdindex as cd
from cdindex.errors import NotCdExpressible, NotNearEulerian
from cdindex.flagcd import _chain_counts
from cdindex.ncpoly import (AB_B, AB_C, AbPolynomial, CdPolynomial, _peel_cd,
                            cd_words, coefficientwise_leq, expand_cd,
                            is_nonnegative, substitute)
from conftest import (ab_index_by_chains, assert_cd_residual,
                      bipyramid_lattice, boolean_cd_by_pyramid,
                      cd_index_by_old_route, flag_polynomial_by_chains,
                      is_sparse, local_index_by_ab_route, outcome,
                      polygon_lattice, random_eulerian, random_graded_poset,
                      random_near_eulerian, sparse_flag_f, square_lattice,
                      tetra_lattice, to_cd_by_reduction)


def test_flag_f_square():
    fv = cd.flag_f(square_lattice())
    assert fv[()] == 1
    assert fv[(1,)] == 4
    assert fv[(2,)] == 4
    assert fv[(1, 2)] == 8


def test_flag_h_square():
    fv = cd.flag_h(square_lattice())
    assert fv[()] == 1
    assert fv[(1,)] == 3
    assert fv[(2,)] == 3
    assert fv[(1, 2)] == 1


def test_flag_h_b3():
    fv = cd.flag_h(cd.boolean_poset(3))
    assert fv[(1, 2)] == 1  # 6 - 3 - 3 + 1


def test_inversion_identity(eulerian_fixtures):
    # alpha(S) = sum over subsets of beta
    for name, p in eulerian_fixtures[:8]:
        alpha = cd.flag_f(p)
        beta = cd.flag_h(p)
        for mask in alpha.values:
            total = 0
            sub = mask
            while True:
                total += beta[sub]
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            assert total == alpha[mask], (name, mask)


def test_flag_polynomial_square():
    assert cd.flag_polynomial(square_lattice()) == AbPolynomial(
        {"aa": 1, "ba": 4, "ab": 4, "bb": 8})
    assert cd.ab_index(square_lattice()) == AbPolynomial(
        {"aa": 1, "ba": 3, "ab": 3, "bb": 1})


def test_flag_polynomial_two_step_chain():
    p = cd.chain_poset(1)
    assert cd.flag_polynomial(p) == AbPolynomial.one()
    assert cd.ab_index(p) == AbPolynomial.one()


def test_flag_polynomial_near_gorenstein_disc():
    # fan of three triangles around a center edge endpoint
    disc = cd.SimplicialComplex(
        [["l", "b1", "t"], ["b1", "b2", "t"], ["b2", "r", "t"]])
    p = cd.face_poset(disc, with_max=True)
    want = AbPolynomial({"aaa": 1, "baa": 5, "aba": 7, "aab": 3,
                         "bba": 14, "bab": 9, "abb": 9, "bbb": 18})
    assert cd.flag_polynomial(p) == want


def test_dp_matches_chain_enumeration(eulerian_fixtures, rng):
    for name, p in eulerian_fixtures:
        if len(p.elements) > 30:
            continue
        assert cd.flag_polynomial(p) == flag_polynomial_by_chains(p), name
        assert cd.ab_index(p) == ab_index_by_chains(p), name
    for _ in range(60):
        p = random_graded_poset(rng, max_levels=5, max_width=5)
        assert cd.flag_polynomial(p) == flag_polynomial_by_chains(p)


def test_cd_index_square_b2_cube():
    assert cd.cd_index(square_lattice()) == CdPolynomial({"cc": 1, "d": 2})
    assert cd.cd_index(cd.boolean_poset(2)) == CdPolynomial.monomial("c")
    assert cd.cd_index(cd.make_cube3()) == CdPolynomial(
        {"ccc": 1, "dc": 6, "cd": 4})


def test_cd_index_rejects_non_eulerian():
    with pytest.raises(NotCdExpressible):
        cd.cd_index(cd.chain_poset(3))


def test_dehn_sommerville_symmetry(eulerian_fixtures):
    a = AbPolynomial.monomial("a")
    b = AbPolynomial.monomial("b")
    for name, p in eulerian_fixtures:
        psi = cd.ab_index(p)
        assert substitute(psi, b, a) == psi, name


def test_join_multiplicativity(eulerian_fixtures):
    small = [p for _, p in eulerian_fixtures if len(p.elements) <= 12]
    for p in small:
        for q in small:
            got = cd.cd_index(cd.join(p, q))
            assert got == cd.cd_index(p) * cd.cd_index(q)


def test_suspension_multiplies_by_c():
    c = CdPolynomial.monomial("c")
    for p in (cd.boolean_poset(3), square_lattice(),
              polygon_lattice(3)):
        assert cd.cd_index(cd.suspension(p)) == cd.cd_index(p) * c
    # the suspended triangle example: (c^2 + d) c
    assert cd.cd_index(cd.suspension(polygon_lattice(3))) == CdPolynomial(
        {"ccc": 1, "dc": 1})


def test_polygon_law():
    for n in range(3, 13):
        want = CdPolynomial({"cc": 1, "d": n - 2})
        assert cd.polygon_cd(n) == want
        assert cd.cd_index(polygon_lattice(n)) == want


def test_three_polytope_law():
    assert cd.three_polytope_cd(8, 6) == cd.cd_index(cd.make_cube3())
    assert cd.cd_index(tetra_lattice()) == CdPolynomial(
        {"ccc": 1, "dc": 2, "cd": 2})
    assert cd.three_polytope_cd(4, 4) == cd.cd_index(tetra_lattice())
    assert cd.cd_index(bipyramid_lattice()) == cd.three_polytope_cd(5, 6)
    with pytest.raises(cd.CdindexError):
        cd.polygon_cd(2)


def test_union_at_facet_pentagon():
    # gluing a square and a triangle along an edge gives the pentagon
    square = cd.cd_index(square_lattice())
    triangle = cd.cd_index(polygon_lattice(3))
    edge = cd.cd_index(cd.boolean_poset(2))
    c = CdPolynomial.monomial("c")
    glued = square + triangle - edge * c
    assert glued == cd.polygon_cd(5)
    assert glued == cd.cd_index(polygon_lattice(5))


def test_local_index_two_edge_path():
    path = cd.SimplicialComplex([["1", "2"], ["2", "3"]])
    li = cd.local_index(cd.face_poset(path, with_max=True))
    assert li.ab == AbPolynomial({"ba": 1, "ab": 1})
    assert li.cd == CdPolynomial.monomial("d")


def test_local_index_half_split_triangle():
    half = cd.SimplicialComplex([["1", "2", "4"], ["2", "3", "4"]])
    li = cd.local_index(cd.face_poset(half, with_max=True))
    assert li.cd == CdPolynomial.monomial("cd")


def test_local_index_trivial_posets():
    single = cd.build_poset(["x"], [])
    assert cd.local_index(single).cd == CdPolynomial.one()
    assert cd.local_index(cd.chain_poset(1)).cd == CdPolynomial.one()


def test_local_index_of_p1_vanishes():
    for p in (cd.boolean_poset(2), cd.boolean_poset(3), square_lattice()):
        li = cd.local_index(cd.adjoin_max(p))
        assert not li.ab and not li.cd and not li.flag


def test_local_flag_polynomial_disc():
    disc = cd.SimplicialComplex(
        [["l", "b1", "t"], ["b1", "b2", "t"], ["b2", "r", "t"]])
    li = cd.local_index(cd.face_poset(disc, with_max=True))
    assert li.flag == AbPolynomial({"aba": 2, "aab": 2, "bba": 4,
                                    "bab": 4, "abb": 4, "bbb": 8})
    assert li.ab == AbPolynomial({"aba": 2, "aab": 2, "bba": 2, "bab": 2})
    assert li.cd == CdPolynomial({"cd": 2})


def test_local_flag_is_difference_of_flag_polynomials(near_eulerian_fixtures):
    for name, p in near_eulerian_fixtures:
        want = (cd.flag_polynomial(p)
                - cd.flag_polynomial(cd.adjoin_max(cd.boundary(p))))
        assert cd.local_index(p).flag == want, name
    # local_index reaches the flag polynomial by the substitution a -> a + b
    for n in range(9):
        b_n = cd.boolean_poset(n)
        assert (substitute(cd.ab_index(b_n), AB_C, AB_B)
                == cd.flag_polynomial(b_n)), n


def test_boundary_is_the_interval_below_the_restored_coatom(
        near_eulerian_fixtures):
    # local_index and boundary read the capped boundary as [0, tau] of the
    # semisuspension; the old route capped the ideal below tau afresh
    for name, p in near_eulerian_fixtures:
        q, tau = cd.poset._semisuspend(p)
        interval = q.interval(q.min_elt, tau)
        capped = cd.adjoin_max(q.induced(q.down_set(tau, strict=True)))
        assert cd.is_isomorphic(interval, capped), name
        assert cd.ab_index(interval) == cd.ab_index(capped), name
        bd = cd.boundary(p)
        assert bd.max_elt == tau and bd.elements == interval.elements, name
        assert cd.is_isomorphic(bd, capped), name
        assert cd.cd_index(bd) == cd.cd_index(capped), name


def test_cd_index_matches_old_route(near_eulerian_fixtures,
                                    eulerian_fixtures, rng):
    # the old route semisuspended three times and rewrote the full ab-index
    # of an Eulerian poset by triangular reduction; neither-posets must
    # still raise, with the residual of the peel
    neither = [("chain3", cd.chain_poset(3))]
    neither += [("random%d" % k, random_graded_poset(rng)) for k in range(40)]
    pool = [p for _, p in eulerian_fixtures if len(p.elements) <= 32]
    eulerian = [("B%d" % n, cd.boolean_poset(n)) for n in range(1, 10)]
    eulerian += [("eulerian%d" % k, random_eulerian(rng, pool))
                 for k in range(60)]
    near = [("near%d" % k, random_near_eulerian(rng)) for k in range(60)]
    raised = 0
    for name, p in (near_eulerian_fixtures + eulerian_fixtures + eulerian
                    + near + neither):
        got, want = outcome(cd.cd_index, p), outcome(cd_index_by_old_route, p)
        assert got[:2] == want[:2], name
        if got[0] == "value":
            assert got == want, name
        else:
            assert_cd_residual(cd.ab_index(p), got[3], got[2])
            raised += 1
    assert raised >= 10
    assert all(p.is_eulerian() for _, p in eulerian)
    assert all(cd.is_near_eulerian(p) for _, p in near)


def test_local_index_matches_ab_route(near_eulerian_fixtures,
                                      subdivision_fixtures, rng):
    # the two peels of Phi(Q) - Phi([0, tau]) c against to_cd of the dense
    # Psi(Q) - Psi([0, tau]) (a + b); the capped preimages include the
    # two-chains of the minimal elements
    cases = list(near_eulerian_fixtures)
    for name, m in subdivision_fixtures:
        cases += [("%s %s" % (name, sigma), m._capped_preimage(sigma))
                  for sigma in m.target.elements]
    cases += [("random%d" % k, random_near_eulerian(rng)) for k in range(160)]
    for name, p in cases:
        got, want = cd.local_index(p), local_index_by_ab_route(p)
        assert (got.ab, got.cd, got.flag) == (want.ab, want.cd, want.flag), name
        assert cd.cd_index(p) == cd_index_by_old_route(p), name


def test_eulerian_paths_do_not_rewrite_an_ab_index(
        monkeypatch, eulerian_fixtures, near_eulerian_fixtures,
        subdivision_fixtures):
    # the sparse peels serve every Eulerian and near-Eulerian poset, so the
    # ab-to-cd rewriting runs only for posets that are neither
    def refuse(p):
        raise AssertionError("to_cd rewrote an ab-index")

    monkeypatch.setattr("cdindex.flagcd.to_cd", refuse)
    with pytest.raises(AssertionError):
        cd.cd_index(cd.chain_poset(3))
    for name, p in eulerian_fixtures:
        assert cd.cd_index(p) == cd_index_by_old_route(p), name
        # B1 is a two-chain, with local index 1; the rest are not
        # near-Eulerian
        got = outcome(cd.local_index, p)
        assert got[0] == "value" or got[1] is NotNearEulerian, name
    for name, p in near_eulerian_fixtures:
        assert cd.local_index(p).cd == local_index_by_ab_route(p).cd, name
        assert cd.cd_index(p) == cd_index_by_old_route(p), name
    decomposed = 0
    for name, m in subdivision_fixtures:
        decomposed += outcome(cd.decompose_cd, m)[0] == "value"
    assert decomposed >= 3


def test_sparse_chain_counts_are_flag_f_on_sparse_sets(eulerian_fixtures,
                                                       rng):
    posets = [p for _, p in eulerian_fixtures] + [cd.boolean_poset(8)]
    posets += [random_graded_poset(rng, max_levels=6, max_width=4)
               for _ in range(40)]
    fib = [1, 2]  # the sparse subsets of {1..n} number F(n + 2)
    for p in posets:
        n, sparse = _chain_counts(p, sparse=True)
        dense = cd.flag_f(p)
        assert n == dense.n
        want = {m: v for m, v in dense.values.items() if is_sparse(m)}
        assert sparse == want
        while len(fib) <= n:
            fib.append(fib[-1] + fib[-2])
        assert len(sparse) == fib[n]


def test_peel_inverts_sparse_flag_f(rng):
    # every cd-polynomial, realised by a poset or not, peels back to itself
    cases = 0
    for n in range(11):
        words = cd_words(n)
        for _ in range(12 if n < 8 else 3):
            phi = CdPolynomial({w: rng.randint(-9, 9) for w in words
                                if rng.random() < 0.6})
            values = sparse_flag_f(expand_cd(phi), n)
            assert _peel_cd(n, values) == phi, (n, phi)
            # the peel reads only the sparse sets without rank 1, which
            # fixes to_cd's residual
            noisy = {m: v + rng.randint(-9, 9) * (m & 1)
                     for m, v in values.items()}
            assert _peel_cd(n, noisy) == phi, (n, phi)
            cases += bool(phi)
    assert cases >= 80
    # the zero vector and a single word
    assert _peel_cd(5, sparse_flag_f(AbPolynomial.zero(), 5)) == 0
    dcd = CdPolynomial({"dcd": -3})
    assert _peel_cd(5, sparse_flag_f(expand_cd(dcd), 5)) == dcd


def test_to_cd_of_ab_index(eulerian_fixtures, rng):
    # the change of basis on real ab-indexes: Eulerian posets rewrite to
    # their cd-index, and other posets raise through both routes
    pool = [p for _, p in eulerian_fixtures if len(p.elements) <= 32]
    eulerian = [cd.boolean_poset(n) for n in range(1, 12)]
    eulerian += [random_eulerian(rng, pool) for _ in range(60)]
    for p in eulerian:
        assert cd.to_cd(cd.ab_index(p)) == cd.cd_index(p)
    other = [cd.chain_poset(3)]
    while len(other) < 41:
        p = random_graded_poset(rng)
        if not p.is_eulerian():
            other.append(p)
    for p in other:
        psi = cd.ab_index(p)
        with pytest.raises(NotCdExpressible):
            cd.to_cd(psi)
        with pytest.raises(NotCdExpressible):
            to_cd_by_reduction(psi)


def test_boolean_cd_index_matches_pyramid_rule():
    for n in range(1, 12):
        assert cd.cd_index(cd.boolean_poset(n)) == boolean_cd_by_pyramid(n), n


def test_near_eulerian_cd_index_is_nonhomogeneous():
    disc = cd.SimplicialComplex(
        [["l", "b1", "t"], ["b1", "b2", "t"], ["b2", "r", "t"]])
    p = cd.face_poset(disc, with_max=True)
    got = cd.cd_index(p)
    assert got == CdPolynomial({"cd": 2, "cc": 1, "d": 3})
    assert not got.is_homogeneous()


def test_nonnegativity_on_fixtures(eulerian_fixtures):
    for name, p in eulerian_fixtures:
        assert is_nonnegative(cd.cd_index(p)), name


def test_pyramid_lower_bounds():
    for L in (cd.boolean_poset(4), cd.make_cube3(), polygon_lattice(5)):
        assert L.is_lattice()
        phi = cd.cd_index(L)
        for x in L.elements:
            if x in (L.min_elt, L.max_elt):
                continue
            below = L.interval(L.min_elt, x)
            above = L.interval(x, L.max_elt)
            lhs = cd.cd_index(below) * cd.cd_index(cd.pyramid(above))
            rhs = cd.cd_index(cd.pyramid(below)) * cd.cd_index(above)
            assert coefficientwise_leq(lhs, phi), x
            assert coefficientwise_leq(rhs, phi), x


def test_boolean_minimum(eulerian_fixtures):
    for name, L in eulerian_fixtures:
        if L.top_rank > 5 or not L.is_lattice():
            continue
        bn = cd.cd_index(cd.boolean_poset(L.top_rank))
        assert coefficientwise_leq(bn, cd.cd_index(L)), name


def test_flag_f_rank_guard():
    from cdindex.errors import DomainError
    single = cd.build_poset(["x"], [])
    with pytest.raises(DomainError):
        cd.flag_f(single)
    assert cd.ab_index(single) == AbPolynomial.zero()


def test_flag_f_rank_too_large():
    from cdindex.errors import RankTooLarge
    with pytest.raises(RankTooLarge):
        cd.flag_f(cd.chain_poset(64))
