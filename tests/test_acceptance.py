"""Acceptance suite: one test per criterion, at exact tolerances.

Every assertion here is an exact integer/polynomial equality or a boolean
verdict; there are no numeric tolerances anywhere.  Each test prints its
own pass line (visible with pytest -s) so the suite reads as a checklist.
"""
import random

import cdindex as cd
from cdindex.ncpoly import (AbPolynomial, CdPolynomial, UniPolynomial,
                            coefficientwise_leq, expand_cd, substitute, to_cd)
from conftest import (cd_words, edge_with_points, eulerian_pool,
                      eulerian_by_mobius,
                      hexagon_over_triangle, barycentric_solid_triangle,
                      octahedron_complex, polygon_cd, polygon_lattice,
                      random_eulerian, random_graded_poset, square_lattice,
                      subdivision_pool, tetra_subdivision, is_lattice_by_joins)


def report(criterion, detail=""):
    print("PASS criterion %s%s" % (criterion, " — " + detail if detail else ""))


def test_criterion_01_square_golden():
    sq = square_lattice()
    assert cd.flag_polynomial(sq) == AbPolynomial(
        {"aa": 1, "ba": 4, "ab": 4, "bb": 8})
    assert cd.ab_index(sq) == AbPolynomial(
        {"aa": 1, "ba": 3, "ab": 3, "bb": 1})
    assert cd.cd_index(sq) == CdPolynomial({"cc": 1, "d": 2})
    report(1, "square flag polynomial, ab-index, cd-index")


def test_criterion_02_polygon_law():
    for n in range(3, 13):
        got = cd.cd_index(polygon_lattice(n))
        assert got == CdPolynomial({"cc": 1, "d": n - 2}), n
        assert got == polygon_cd(n), n
    report(2, "polygon cd-index law for n = 3..12")


def test_criterion_03_three_polytope_law():
    cube = cd.cd_index(cd.make_cube3())
    assert cube == CdPolynomial({"ccc": 1, "dc": 6, "cd": 4})
    tetra = cd.cd_index(cd.face_poset(cd.make_boundary_simplex(3),
                                      with_max=True))
    assert tetra == CdPolynomial({"ccc": 1, "dc": 2, "cd": 2})
    bipyramid = cd.cd_index(cd.face_poset(cd.make_stacked(3, 2).boundary,
                                          with_max=True))
    assert bipyramid == CdPolynomial({"ccc": 1, "dc": 3, "cd": 4})
    report(3, "cube, tetrahedron, triangular bipyramid")


def test_criterion_04_subdivision_decomposition():
    dec = cd.decompose_cd(tetra_subdivision())
    rows = {r.sigma: r for r in dec.nonzero_rows()}
    edge = rows["{1,2}"]
    assert edge.local_cd == CdPolynomial.monomial("d")
    assert edge.upper_cd == CdPolynomial.monomial("c")
    face_rows = [r for s, r in rows.items() if s in ("{1,2,3}", "{1,2,4}")]
    assert len(face_rows) == 2
    assert all(r.local_cd == CdPolynomial.monomial("cd") for r in face_rows)
    assert dec.total == CdPolynomial({"ccc": 1, "dc": 3, "cd": 4})
    report(4, "split-tetrahedron decomposition table and total")


def test_criterion_05_telescoping():
    for name, m in (("tetra", tetra_subdivision()),
                    ("hexagon over triangle", hexagon_over_triangle())):
        fam = cd.skeletal_family(m)
        for i in range(1, fam.n + 1):
            assert cd.verify_rank_telescoping(fam, i), (name, i)
    report(5, "rank telescoping at every level on both fixtures")


def test_criterion_06_local_h():
    table = cd.local_h(barycentric_solid_triangle())
    rows = dict(table.rows)
    x = UniPolynomial.x()
    assert rows["{}"] == UniPolynomial.one()
    assert all(rows["{%d}" % v] == UniPolynomial.zero() for v in range(3))
    for e in ("{0,1}", "{0,2}", "{1,2}"):
        assert rows[e] == x
    assert rows["{0,1,2}"] == x + x * x
    assert table.total == UniPolynomial((1, 4, 1))
    for t in range(1, 6):
        assert cd.local_h(edge_with_points(t)).row("{0,1}") == x * t, t
    report(6, "barycentric triangle rows and subdivided-segment family")


def test_criterion_07_toric_anchors(rng):
    one = UniPolynomial.one()
    for n in range(0, 9):
        assert cd.g_poly(cd.boolean_poset(n)) == one, n
    for d in range(0, 8):
        got = cd.h_poly(cd.boolean_poset(d + 1).without_max())
        assert got == UniPolynomial([1] * (d + 1)), d
    checked = 0
    while checked < 20:
        dim = rng.randint(1, 3)
        verts = [str(i) for i in range(dim + rng.randint(2, 5))]
        facets = {frozenset(rng.sample(verts, dim + 1))
                  for _ in range(rng.randint(1, 6))}
        k = cd.SimplicialComplex(facets)
        assert cd.h_poly(cd.face_poset(k)) == cd.h_vector(k).polynomial()
        checked += 1
    report(7, "g(B_n) = 1, geometric-series h, 20 random complexes")


def test_criterion_08_morphism():
    fixtures = eulerian_pool()
    assert len(fixtures) >= 15
    for name, p in fixtures:
        assert cd.morphism_f(cd.ab_index(p)) == cd.toric_h(p), name
    for name, m in subdivision_pool():
        if m.target.max_elt is None or not m.target.is_eulerian():
            continue
        rep = cd.verify_local_correspondence(m)
        formal = m.target.max_elt if m.source.max_elt is not None else None
        assert all(f == ell for s, f, ell in rep.rows if s != formal), name
        assert rep.ok(), name
    report(8, "f(Psi) = toric h on %d fixtures; correspondence on all maps"
           % len(fixtures))


def test_criterion_09_property_suite():
    rng = random.Random(1859)
    pool = [p for _, p in eulerian_pool() if len(p.elements) <= 30]
    a, b = AbPolynomial.monomial("a"), AbPolynomial.monomial("b")

    # a <-> b symmetry of the ab-index on Eulerian posets
    for _ in range(1000):
        p = random_eulerian(rng, pool)
        psi = cd.ab_index(p)
        assert substitute(psi, b, a) == psi

    # multiplicativity under join
    small = [p for p in pool if len(p.elements) <= 16]
    for _ in range(1000):
        p, q = rng.choice(small), rng.choice(small)
        assert cd.cd_index(cd.join(p, q)) == cd.cd_index(p) * cd.cd_index(q)

    # expand/convert roundtrips
    for _ in range(1000):
        words = cd_words(rng.randint(0, 10))
        poly = CdPolynomial({rng.choice(words): rng.randint(-9, 9)
                             for _ in range(rng.randint(1, 3))})
        assert to_cd(expand_cd(poly)) == poly

    # Fibonacci counts of cd-words
    fib = [1, 1]
    while len(fib) <= 16:
        fib.append(fib[-1] + fib[-2])
    for n in range(0, 16):
        assert len(cd_words(n)) == fib[n]

    # h and local-h palindromes; counted across fixture intervals and rows
    palindrome_cases = 0
    for p in pool:
        for lo in p.elements:
            for hi in p.elements:
                if not p.le(lo, hi):
                    continue
                iv = p.interval(lo, hi)
                h = cd.toric_h(iv)
                assert h.is_palindrome(iv.top_rank - 1), (lo, hi)
                palindrome_cases += 1
            if palindrome_cases >= 900:
                break
        if palindrome_cases >= 900:
            break
    for name, m in subdivision_pool():
        if m.target.max_elt is None or not m.target.is_eulerian():
            continue
        for sigma, ell in cd.local_h(m).rows:
            assert ell.is_palindrome(m.target.rank(sigma)), (name, sigma)
            palindrome_cases += 1
    for t in range(1, 31):
        m = edge_with_points(t)
        for sigma, ell in cd.local_h(m).rows:
            assert ell.is_palindrome(m.target.rank(sigma)), (t, sigma)
            palindrome_cases += 1
    assert palindrome_cases >= 1000

    # Eulerian test against the Mobius-function oracle
    for _ in range(1000):
        p = random_graded_poset(rng, max_levels=3, max_width=3)
        assert p.is_eulerian() == eulerian_by_mobius(p)

    report(9, "5 randomized properties, 1000 seeded cases each")


def test_criterion_10_bounds():
    # subdivision monotonicity on the Eulerian fixtures
    for name, m in subdivision_pool():
        try:
            if not (m.source.is_eulerian() and m.target.is_eulerian()):
                continue
        except cd.CdindexError:
            continue
        assert coefficientwise_leq(cd.cd_index(m.target),
                                   cd.cd_index(m.source)), name

    # boolean algebra minimizes over Gorenstein* lattices of rank <= 5
    lattices = [cd.boolean_poset(3), cd.boolean_poset(4), cd.boolean_poset(5),
                cd.make_cube3(), cd.dual(cd.make_cube3()),
                polygon_lattice(3), polygon_lattice(6),
                cd.face_poset(cd.make_stacked(3, 2).boundary, with_max=True),
                cd.pyramid(cd.make_cube3()),
                cd.face_poset(octahedron_complex(), with_max=True)]
    for L in lattices:
        assert is_lattice_by_joins(L)
        assert L.top_rank <= 5
        assert coefficientwise_leq(cd.cd_index(cd.boolean_poset(L.top_rank)),
                                   cd.cd_index(L))

    # shelling-step local increments along three shellings
    c, d = CdPolynomial.monomial("c"), CdPolynomial.monomial("d")
    spheres = [cd.make_boundary_simplex(3), octahedron_complex(),
               cd.make_stacked(3, 4, seed=7).boundary]
    for sphere in spheres:
        order = cd.find_shelling(sphere)
        assert order is not None and cd.verify_shelling(sphere, order)
        for i in range(1, len(order) - 1):
            prev = cd.SimplicialComplex(order[:i])
            cur = cd.SimplicialComplex(order[:i + 1])
            faces = {f for f in prev.faces()
                     if f and f <= frozenset(order[i])}
            gamma = cd.SimplicialComplex(
                f for f in faces if not any(f < g for g in faces))
            gpos = cd.face_poset(gamma, with_max=True)
            lhs = (cd.local_index(cd.face_poset(cur, with_max=True)).cd
                   - cd.local_index(cd.face_poset(prev, with_max=True)).cd)
            rhs = (cd.local_index(gpos).cd * c
                   + cd.cd_index(cd.boundary(gpos)) * d)
            assert lhs == rhs
            assert coefficientwise_leq(CdPolynomial.zero(), lhs)
    report(10, "monotonicity, boolean minimum, shelling increments")
