"""Flag vectors, ab/cd-indexes, and local indexes."""
import pytest

import cdindex as cd
from cdindex.cli import run
from cdindex.errors import NotCdExpressible, NotNearEulerian
from cdindex import flagcd
from cdindex.flagcd import _chain_counts, _chain_vectors, _masked
from cdindex.subdivision import _local_cds
from cdindex.ncpoly import (AB_B, AB_C, AbPolynomial, CdPolynomial, _peel_cd,
                            coefficientwise_leq, expand_cd, is_nonnegative,
                            substitute)
from conftest import (ab_index_by_chains, ab_index_by_flag_h,
                      antichain_sum, assert_cd_residual, bipyramid_lattice,
                      boolean_cd_by_pyramid, capped_preimage_by_build,
                      cd_index_by_old_route, cd_words, chain_vectors_by_lists,
                      flag_polynomial_by_chains, is_sparse, isomorphic,
                      local_and_boundary_by_build, local_index_by_ab_route,
                      masked_by_lists, outcome, polygon_cd,
                      polygon_lattice, random_eulerian, random_graded_poset,
                      random_near_eulerian, rank45_pool, sparse_flag_f,
                      square_lattice,
                      subdivision_pool, tetra_lattice, three_polytope_cd,
                      to_cd_by_reduction, down_set, is_homogeneous,
                      is_lattice_by_joins)


def test_flag_f_square():
    fv = cd.flag_f(square_lattice())
    assert fv[()] == 1
    assert fv[(1,)] == 4
    assert fv[(2,)] == 4
    assert fv[(1, 2)] == 8


def test_flag_vector_refuses_ranks_outside_1_to_n():
    from cdindex.errors import DomainError
    fv = cd.flag_f(square_lattice())
    for ranks in ((0,), (3,), (1, 3)):
        with pytest.raises(DomainError, match="outside 1..2$"):
            fv[ranks]


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
        assert polygon_cd(n) == want
        assert cd.cd_index(polygon_lattice(n)) == want


def test_three_polytope_law():
    assert three_polytope_cd(8, 6) == cd.cd_index(cd.make_cube3())
    assert cd.cd_index(tetra_lattice()) == CdPolynomial(
        {"ccc": 1, "dc": 2, "cd": 2})
    assert three_polytope_cd(4, 4) == cd.cd_index(tetra_lattice())
    assert cd.cd_index(bipyramid_lattice()) == three_polytope_cd(5, 6)


def test_union_at_facet_pentagon():
    # gluing a square and a triangle along an edge gives the pentagon
    square = cd.cd_index(square_lattice())
    triangle = cd.cd_index(polygon_lattice(3))
    edge = cd.cd_index(cd.boolean_poset(2))
    c = CdPolynomial.monomial("c")
    glued = square + triangle - edge * c
    assert glued == polygon_cd(5)
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
    single = cd.GradedPoset(["x"], [])
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
        capped = cd.adjoin_max(q.induced(down_set(q, tau, strict=True)))
        assert isomorphic(interval, capped), name
        assert cd.ab_index(interval) == cd.ab_index(capped), name
        bd = cd.boundary(p)
        assert bd.max_elt == tau and bd.elements == interval.elements, name
        assert isomorphic(bd, capped), name
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
        cases += [("%s %s" % (name, sigma), capped_preimage_by_build(m, sigma))
                  for sigma in m.target.elements]
    cases += [("random%d" % k, random_near_eulerian(rng)) for k in range(160)]
    for name, p in cases:
        got, want = cd.local_index(p), local_index_by_ab_route(p)
        assert (got.ab, got.cd, got.flag) == (want.ab, want.cd, want.flag), name
        assert cd.cd_index(p) == cd_index_by_old_route(p), name


def _refuse(what):
    def refuse(*args):
        raise AssertionError("%s ran" % what)
    return refuse


def test_eulerian_paths_do_not_rewrite_an_ab_index(
        monkeypatch, eulerian_fixtures, near_eulerian_fixtures,
        subdivision_fixtures):
    # the sparse peels serve every Eulerian and near-Eulerian poset, so the
    # ab-to-cd rewriting runs only for posets that are neither
    monkeypatch.setattr("cdindex.flagcd.to_cd", _refuse("to_cd"))
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


def test_masked_dp_matches_the_built_semisuspension():
    # l_P and the near-Eulerian cd-index from one sparse DP over each built
    # capped preimage, and l_P from one sparse DP over the source masked by
    # the preimage and D, against Phi(Q) - Phi([0, tau]) c of the built Q
    maps = [m for _, m in subdivision_pool() + rank45_pool()]
    for k in (3, 4):
        maps.append(cd.with_adjoined_tops(
            cd.barycentric_subdivision(cd.make_boundary_simplex(k))[1]))
    checked = 0
    for m in maps:
        assert cd.validate_strong_eulerian(m).ok
        masked = _local_cds(m)
        for sigma in m.target.elements:
            hat = capped_preimage_by_build(m, sigma)
            if len(hat.elements) == 2:
                assert cd.local_index(hat).cd == CdPolynomial.one()
                assert masked[sigma] == CdPolynomial.one()
                continue
            local, bd_cd = local_and_boundary_by_build(hat)
            assert cd.local_index(hat).cd == local == masked[sigma], sigma
            assert not hat.is_eulerian()
            assert cd.cd_index(hat) == local + bd_cd, sigma
            checked += 1
    assert checked >= 120


def test_sparse_chain_counts_are_flag_f_on_sparse_sets(eulerian_fixtures,
                                                       rng):
    posets = [p for _, p in eulerian_fixtures] + [cd.boolean_poset(8)]
    posets += [random_graded_poset(rng, max_levels=6, max_width=4)
               for _ in range(40)]
    fib = [1, 1]  # the sparse subsets of {2..n} number F(n + 1)
    for p in posets:
        n, sparse = _chain_counts(p, sparse=True)
        dense = cd.flag_f(p)
        assert n == dense.n
        want = {m: v for m, v in dense.values.items()
                if is_sparse(m) and not m & 1}
        assert sparse == want
        while len(fib) <= n:
            fib.append(fib[-1] + fib[-2])
        assert len(sparse) == fib[n]


def test_packed_dp_matches_the_list_dp(rng):
    # totals and down-set reads, sparse and dense, from the minimum and
    # from a random element, at every span up to the DP's own
    posets = [random_graded_poset(rng, max_levels=6, max_width=5)
              for _ in range(25)]
    posets += [random_eulerian(rng) for _ in range(25)]
    posets += [random_near_eulerian(rng) for _ in range(25)]
    reads = 0
    for p in posets:
        everything = (1 << len(p)) - 1
        closed = [p._dn[i] | 1 << i for i in range(len(p))]
        for low in (p._idx[p.min_elt], rng.randrange(len(p))):
            n = max(p._ranks[i] for i in p._bits(p._up[low] | 1 << low))
            n -= p._ranks[low]
            keeps = {0, everything, closed[low]}
            keeps.update(rng.choice(closed) | rng.choice(closed)
                         for _ in range(5))
            for sparse in (True, False):
                levels = p._levels[p._ranks[low]:p._ranks[low] + n + 1]
                packed = _chain_vectors(
                    p._dn, [level & p._up[low] for level in levels], sparse)
                lists = chain_vectors_by_lists(p, low, n, sparse)

                def kept(f):  # the sparse DP skips the sets with rank 1
                    return {m: v for m, v in f.items()
                            if not (sparse and m & 1)}
                assert _masked(packed, n, everything) == kept(lists[0])
                for keep in keeps:
                    for k in range(n + 1):
                        got = _masked(packed, k, keep)
                        assert got == kept(masked_by_lists(lists, k, keep))
                        reads += 1
    assert reads >= 2000


def test_packed_dp_at_the_edges_of_its_field_width():
    # on ordinal sums of antichains f_S is the product of the level sizes
    # in S; the fields are as wide as the product of (level size + 1), over
    # the levels from 2 when sparse, here at and one below a power of two,
    # and so is the largest count, the product of all sizes
    bounds, sparse_bounds, fulls = set(), set(), set()
    for sizes in [(254,), (255,), (256,), (2, 84), (3, 63), (5, 51),
                  (16, 16), (3,) * 8, (2, 4, 16, 256), (9, 254), (9, 255),
                  (7, 2, 4, 16, 256), (5,) + (3,) * 8]:
        p, n = antichain_sum(sizes), len(sizes)
        want = {}
        for mask in range(1 << n):
            want[mask] = 1
            for r in range(n):
                want[mask] *= sizes[r] if mask >> r & 1 else 1
        assert cd.flag_f(p).values == want, sizes
        assert _chain_counts(p, sparse=True) == (
            n, {m: v for m, v in want.items()
                if is_sparse(m) and not m & 1}), sizes
        bound = 1
        for size in sizes[1:]:
            bound *= size + 1
        sparse_bounds.add(bound)
        bounds.add(bound * (sizes[0] + 1))
        fulls.add(want[(1 << n) - 1])
    assert {255, 256, 2 ** 16 - 1, 2 ** 16} <= bounds
    assert {255, 256, 2 ** 16 - 1, 2 ** 16} <= sparse_bounds
    assert {255, 256} <= fulls


def test_sparse_dp_skips_level_one():
    # the peel never reads rank 1, so however wide level 1 is, the sparse
    # counts, what the peel reads off them and the field width stay put,
    # while the dense width grows with it
    reads = []
    for first in (1, 2, 3000):
        p = antichain_sum((first, 3, 5, 2))
        sparse = _chain_vectors(p._dn, p._levels[:5], True)
        dense = _chain_vectors(p._dn, p._levels[:5], False)
        counts = _chain_counts(p, sparse=True)
        reads.append((sparse[1], len(sparse[2]), counts, _peel_cd(*counts)))
        assert dense[1] == (((first + 1) * 72).bit_length() + 7) // 8
    assert reads[0] == reads[1] == reads[2]
    assert reads[0][:2] == (1, 5)  # 4 * 6 * 3 = 72 < 256; F(5) sets of {2..4}


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
        assert cd.to_cd(ab_index_by_flag_h(p)) == cd.cd_index(p)
    other = [cd.chain_poset(3)]
    while len(other) < 41:
        p = random_graded_poset(rng)
        if not p.is_eulerian():
            other.append(p)
    for p in other:
        psi = ab_index_by_flag_h(p)
        with pytest.raises(NotCdExpressible):
            cd.to_cd(psi)
        with pytest.raises(NotCdExpressible):
            to_cd_by_reduction(psi)


def test_ab_index_of_a_known_eulerian_poset_expands_phi(
        monkeypatch, eulerian_fixtures, rng):
    # once the scan has said Eulerian, ab_index reads beta over the 2^n
    # rank sets off Phi and runs no dense flag DP
    posets = [p for _, p in eulerian_fixtures if len(p.elements) <= 30]
    posets += [random_eulerian(rng) for _ in range(20)]
    want = [ab_index_by_chains(p) for p in posets]
    assert all(p.is_eulerian() for p in posets)
    monkeypatch.setattr("cdindex.flagcd.flag_f", _refuse("flag_f"))
    monkeypatch.setattr("cdindex.flagcd.flag_h", _refuse("flag_h"))
    for p, psi in zip(posets, want):
        assert cd.ab_index(p) == psi
    with pytest.raises(AssertionError):
        cd.ab_index(cd.boolean_poset(3))  # fresh: the dense route


def test_ab_index_reads_phi_over_the_rank_sets_at_rank_10(monkeypatch):
    # posets of the flag benchmark's size: polygon and cube face lattices
    # raised to rank 8-10 by pyramid, suspension and dual.  Once scanned,
    # ab_index lists beta off Phi by rank-set masks, through neither the
    # sparse ring map nor the dense flag DP
    step = {"P": cd.pyramid, "S": cd.suspension, "D": cd.dual}
    recipes = [(polygon_lattice(3), "PPPDPSSS"),
               (polygon_lattice(5), "SPDSSP"), (polygon_lattice(8), "PSDSPSS"),
               (cd.make_cube3(), "PSPDSPS"), (cd.make_cube3(), "DSPSS"),
               (cd.make_cube3(), "SSPPD")]
    cases = []
    for p, ops in recipes:
        for op in ops:
            p = step[op](p)
        want = ab_index_by_flag_h(cd.GradedPoset.from_json(p.to_json()))
        assert p.is_eulerian()
        cases.append((p, want))
    assert {p.top_rank for p, _ in cases} == {8, 9, 10}
    monkeypatch.setattr("cdindex.flagcd.expand_cd", _refuse("expand_cd"))
    monkeypatch.setattr("cdindex.flagcd.flag_h", _refuse("flag_h"))
    for p, want in cases:
        assert cd.ab_index(p) == want
        assert len(want.terms) == 1 << (p.top_rank - 1)  # beta > 0


def test_ab_index_of_a_fresh_poset_runs_no_scan(monkeypatch, capsys,
                                                tmp_path, rng):
    # a poset not yet scanned keeps the dense route and stays unscanned,
    # also as decoded by compute --what ab; the square is written first, as
    # a face poset with a top scans its intervals [s, TOP] when built
    path = tmp_path / "square.json"
    path.write_text(square_lattice().to_json())
    monkeypatch.setattr(cd.poset, "_unbalanced", _refuse("the Eulerian scan"))
    posets = [cd.boolean_poset(n) for n in range(5)] + [cd.chain_poset(3)]
    posets += [random_graded_poset(rng) for _ in range(20)]
    for p in posets:
        assert cd.ab_index(p) == ab_index_by_chains(p)
        assert p._bad is None
    assert run(["compute", "--what", "ab", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "a^2 + 3*ab + 3*ba + b^2\n"


def test_ab_index_is_the_same_before_and_after_cd_index(
        monkeypatch, eulerian_fixtures, rng):
    # random_eulerian may return a scanned pool member, so decode a copy
    pool = [p for _, p in eulerian_fixtures if len(p.elements) <= 32]
    posets = [cd.boolean_poset(n) for n in range(1, 12)]
    posets += [cd.GradedPoset.from_json(random_eulerian(rng, pool).to_json())
               for _ in range(60)]
    posets += [cd.chain_poset(0), cd.chain_poset(1)]
    dense = [cd.ab_index(p) for p in posets]
    assert all(p._bad is None for p in posets)
    for p in posets:
        cd.cd_index(p)
        assert p.is_eulerian()  # the point's cd_index runs no scan
    monkeypatch.setattr("cdindex.flagcd.flag_h", _refuse("flag_h"))
    assert [cd.ab_index(p) for p in posets] == dense
    assert dense[-2:] == [AbPolynomial.zero(), AbPolynomial.one()]


def test_upper_intervals_of_a_validated_target_expand_phi(monkeypatch):
    # verify_local_correspondence reads Psi of every [sigma, 1] of the
    # target, whose Eulerian verdict the intervals inherit
    checked = 0
    for name, m in subdivision_pool():
        tgt = m.target
        if tgt.max_elt is None or not cd.validate_strong_eulerian(m).ok:
            continue
        assert tgt.is_eulerian(), name
        uppers = [tgt.interval(s, tgt.max_elt) for s in tgt.elements]
        want = [ab_index_by_chains(q) for q in uppers]
        with monkeypatch.context() as mp:
            mp.setattr("cdindex.flagcd.flag_h", _refuse("flag_h"))
            assert [cd.ab_index(q) for q in uppers] == want, name
        checked += 1
    assert checked >= 3


def test_intervals_below_read_every_interval_off_one_dp(
        monkeypatch, eulerian_fixtures, rng):
    # Phi and Upsilon of every [t, sigma] with t <= sigma, read off one DP
    # down from sigma with the ends in any order, against the cd-index and
    # the flag polynomial of the built interval; 0 at t = sigma
    posets = [p for _, p in eulerian_fixtures if len(p.elements) <= 32]
    randoms = [random_eulerian(rng) for _ in range(40)]
    posets += [p for p in randoms if len(p.elements) <= 40][:15]
    assert len(posets) >= 25
    calls, pairs = [0], 0

    def counted(*args, dp=flagcd._chain_vectors):
        calls[0] += 1
        return dp(*args)

    for p in posets:
        for top, sigma in enumerate(p.elements):
            ends = [top, *p._bits(p._dn[top])]
            rng.shuffle(ends)
            uppers = [p.interval(p.elements[t], sigma) for t in ends]
            for dense, want in ((False, cd.cd_index),
                                (True, cd.flag_polynomial)):
                calls[0] = 0
                monkeypatch.setattr(flagcd, "_chain_vectors", counted)
                got = flagcd._intervals_below(p, top, ends, dense)
                monkeypatch.undo()
                assert calls == [1], (p.elements, sigma)
                assert got == [want(q) for q in uppers], (p.elements, sigma)
            pairs += len(ends)
    assert pairs >= 2000


def test_boolean_cd_index_matches_pyramid_rule():
    for n in range(1, 12):
        assert cd.cd_index(cd.boolean_poset(n)) == boolean_cd_by_pyramid(n), n


def test_near_eulerian_cd_index_is_nonhomogeneous():
    disc = cd.SimplicialComplex(
        [["l", "b1", "t"], ["b1", "b2", "t"], ["b2", "r", "t"]])
    p = cd.face_poset(disc, with_max=True)
    got = cd.cd_index(p)
    assert got == CdPolynomial({"cd": 2, "cc": 1, "d": 3})
    assert not is_homogeneous(got)


def test_nonnegativity_on_fixtures(eulerian_fixtures):
    for name, p in eulerian_fixtures:
        assert is_nonnegative(cd.cd_index(p)), name


def test_pyramid_lower_bounds():
    for L in (cd.boolean_poset(4), cd.make_cube3(), polygon_lattice(5)):
        assert is_lattice_by_joins(L)
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
        if L.top_rank > 5 or not is_lattice_by_joins(L):
            continue
        bn = cd.cd_index(cd.boolean_poset(L.top_rank))
        assert coefficientwise_leq(bn, cd.cd_index(L)), name


def test_flag_f_rank_guard():
    from cdindex.errors import DomainError
    single = cd.GradedPoset(["x"], [])
    with pytest.raises(DomainError):
        cd.flag_f(single)
    assert cd.ab_index(single) == AbPolynomial.zero()


def test_flag_f_rank_too_large():
    from cdindex.errors import RankTooLarge
    with pytest.raises(RankTooLarge):
        cd.flag_f(cd.chain_poset(64))
    # the sparse DP refuses proper rank 63 on n, not on the 62 levels it
    # keeps once level 1 is skipped
    chain = cd.chain_poset(64)
    with pytest.raises(RankTooLarge, match="proper rank 63 exceeds 62"):
        _chain_counts(chain, sparse=True)
    with pytest.raises(RankTooLarge, match="proper rank 63 exceeds 62"):
        _chain_vectors(chain._dn, chain._levels[:64], True)


def test_ab_of_keeps_the_words_of_the_last_rank():
    # one slot: the words of n = 12 give way to those of n = 3, and a
    # second call at n = 3 reuses the kept tuple
    big = flagcd._ab_of(12, range(1 << 12))
    assert len(flagcd._words) == 1 << 12
    small = flagcd._ab_of(3, range(8))
    words = flagcd._words
    assert words == ("aaa", "baa", "aba", "bba", "aab", "bab", "abb", "bbb")
    assert small == AbPolynomial({w: k for k, w in enumerate(words) if k})
    assert big.terms["b" * 12] == (1 << 12) - 1
    flagcd._ab_of(3, range(8))
    assert flagcd._words is words
