"""Shared fixtures: standard posets, subdivision maps, and test oracles."""
from __future__ import annotations

import random
from collections import defaultdict, namedtuple

import pytest
from hypothesis import settings

import cdindex as cd
from cdindex.complexes import _closure_of
from cdindex.subdivision import DecompositionRow
from cdindex.errors import NotCdExpressible, NotPure, SearchCutoff
from cdindex.ncpoly import (AB_B, AB_C, AbPolynomial, CdPolynomial,
                            UniPolynomial, coproduct, kappa, substitute,
                            tensor_collapse)

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


# -- independent oracles ------------------------------------------------------


X_MINUS_1 = UniPolynomial((-1, 1))


def mobius_table(p):
    """Mobius function on all ordered pairs, by the defining recursion."""
    els = sorted(p.elements, key=lambda e: (p.rank(e), e))
    mu = {}
    for a in els:
        mu[(a, a)] = 1
        for b in els:
            if a == b or not p.lt(a, b):
                continue
            total = 0
            for z in els:
                if p.le(a, z) and p.lt(z, b):
                    total += mu[(a, z)]
            mu[(a, b)] = -total
    return mu


def eulerian_by_mobius(p):
    """mu(s, t) = (-1)^(rank difference) on every interval."""
    mu = mobius_table(p)
    for (a, b), value in mu.items():
        if value != (-1) ** (p.rank(b) - p.rank(a)):
            return False
    return True


class ToricRecursion:
    """Toric h and g of the closed intervals of one graded poset, by the
    defining recursion over lower intervals rather than through Psi.

    h([lo, hi]) sums g([lo, s]) (x - 1)^(r - 1 - rank s) over lo <= s < hi,
    and g([lo, hi]) truncates (1 - x) h([lo, hi]) at degree (r - 1) // 2,
    where r is the rank of [lo, hi].  On Eulerian intervals this g equals
    the first differences of h up to half degree.
    """

    def __init__(self, p):
        self.p = p
        self.h_memo = {}

    def h(self, lo, hi):
        key = (lo, hi)
        if key not in self.h_memo:
            p = self.p
            r = p.rank(hi) - p.rank(lo)
            acc = UniPolynomial.zero()
            for s in p.elements:
                if p.le(lo, s) and p.lt(s, hi):
                    rel = p.rank(s) - p.rank(lo)
                    acc = acc + self.g(lo, s) * X_MINUS_1 ** (r - 1 - rel)
            self.h_memo[key] = acc
        return self.h_memo[key]

    def g(self, lo, hi):
        r = self.p.rank(hi) - self.p.rank(lo)
        if r == 0:
            return UniPolynomial.one()
        return ((1 - UniPolynomial.x()) * self.h(lo, hi)).truncate(
            (r - 1) // 2)


def toric_h_by_recursion(p):
    """Oracle for toric_h: h of a bounded graded poset minus its top."""
    return ToricRecursion(p).h(p.min_elt, p.max_elt)


def g_by_recursion(p):
    """Oracle for g_poly on a bounded Eulerian poset."""
    return ToricRecursion(p).g(p.min_elt, p.max_elt)


def h_poly_by_recursion(p):
    """Oracle for h_poly: toric h of a lower Eulerian poset, every element
    counted."""
    if not p.elements:
        return UniPolynomial.zero()
    rec = ToricRecursion(p)
    n = p.top_rank
    acc = UniPolynomial.zero()
    for s in p.elements:
        acc = acc + rec.g(p.min_elt, s) * X_MINUS_1 ** (n - p.rank(s))
    return acc.reverse(n)


def preimage_ids_by_definition(m, sigma):
    """Oracle for SubdivisionMap.preimage_ideal_ids: the source elements,
    in source order, whose carrier lies at or below sigma."""
    return [e for e in m.source.elements if m.target.le(m.carrier[e], sigma)]


def local_h_by_dual_intervals(m):
    """Oracle for local_h rows: the explicit alternating sum
    l(sigma) = sum over tau <= sigma of (-1)^(rank sigma - rank tau)
    h(preimage of [0, tau]) g(dual of [tau, sigma])."""
    src, tgt = m.source, m.target
    sigmas = sorted(tgt.elements, key=lambda s: (tgt.rank(s), s))
    h_of = {s: h_poly_by_recursion(
        src.induced(preimage_ids_by_definition(m, s))) for s in sigmas}
    rows = []
    for sigma in sigmas:
        acc = UniPolynomial.zero()
        for tau in tgt.down_set(sigma, strict=False):
            sign = (-1) ** (tgt.rank(sigma) - tgt.rank(tau))
            gdual = g_by_recursion(cd.dual(tgt.interval(tau, sigma)))
            acc = acc + h_of[tau] * gdual * sign
        rows.append((sigma, acc))
    return tuple(rows)


def enumerate_chains(p):
    """Yield every nondegenerate chain of a bounded graded poset (as an id
    tuple, in (rank, id) order), empty chain first; the bounds never appear
    in the chains."""
    p.require_bounds()
    proper = sorted((e for e in p.elements if e not in (p.min_elt, p.max_elt)),
                    key=lambda e: (p.rank(e), e))

    def extend(chain, start):
        yield tuple(chain)
        for k in range(start, len(proper)):
            if chain and not p.lt(chain[-1], proper[k]):
                continue
            chain.append(proper[k])
            yield from extend(chain, k + 1)
            chain.pop()

    yield from extend([], 0)


def flag_polynomial_by_chains(p):
    """Oracle for flag_polynomial: sum of alpha^C over listed chains."""
    p.require_bounds()
    n = p.top_rank - 1
    if n < 0:
        return AbPolynomial.zero()
    out = {}
    for chain in enumerate_chains(p):
        ranks = {p.rank(e) for e in chain}
        word = "".join("b" if r in ranks else "a" for r in range(1, n + 1))
        out[word] = out.get(word, 0) + 1
    return AbPolynomial(out)


def ab_index_by_chains(p):
    """Oracle for ab_index: sum of beta^C over listed chains, with letters
    b at chain ranks and (a-b) elsewhere."""
    p.require_bounds()
    n = p.top_rank - 1
    if n < 0:
        return AbPolynomial.zero()
    a_minus_b = AbPolynomial({"a": 1, "b": -1})
    b = AbPolynomial.monomial("b")
    out = AbPolynomial.zero()
    for chain in enumerate_chains(p):
        ranks = {p.rank(e) for e in chain}
        prod = AbPolynomial.one()
        for r in range(1, n + 1):
            prod = prod * (b if r in ranks else a_minus_b)
        out = out + prod
    return out


def kappa_of(word):
    return kappa(AbPolynomial.monomial(word))


class MorphismsByCoproduct:
    """Oracle for morphism_f and morphism_g by their coproduct definition,
    f(w) = kappa(w) + sum over i of g(w[:i]) kappa(w[i + 1:]) and
    g(w) = (1 - x) f(w) truncated at degree |w| // 2, memoized per oracle."""

    def __init__(self):
        self.f_memo = {}
        self.g_memo = {}

    def f_word(self, word):
        if word not in self.f_memo:
            out = kappa_of(word)
            for i in range(len(word)):
                out = out + self.g_word(word[:i]) * kappa_of(word[i + 1:])
            self.f_memo[word] = out
        return self.f_memo[word]

    def g_word(self, word):
        if word not in self.g_memo:
            self.g_memo[word] = ((1 - UniPolynomial.x())
                                 * self.f_word(word)).truncate(len(word) // 2)
        return self.g_memo[word]

    def f(self, p):
        return sum((self.f_word(w) * c for w, c in p.terms.items()),
                   UniPolynomial.zero())

    def g(self, p):
        return sum((self.g_word(w) * c for w, c in p.terms.items()),
                   UniPolynomial.zero())


def morphism_f_by_coproduct(p):
    """Oracle for morphism_f through the tensor machinery:
    f = kappa + (g (x) kappa) applied to the coproduct, with the prefix g's
    from the definitional recursion."""
    g_of = MorphismsByCoproduct().g_word
    return kappa(p) + tensor_collapse(coproduct(p), g_of, kappa_of)


CD_IMAGES = {"c": AbPolynomial({"a": 1, "b": 1}),
             "d": AbPolynomial({"ab": 1, "ba": 1})}


def _parse_least_word(word):
    """Parse an ab-word as the lex-least expansion of a cd-word.

    c expands lex-least to "a" and d to "ab", so reading left to right an
    "a" followed by "b" came from d and any other "a" from c.  A bare "b"
    cannot occur; returns None in that case.
    """
    out = []
    i = 0
    while i < len(word):
        if word[i] == "b":
            return None
        if i + 1 < len(word) and word[i + 1] == "b":
            out.append("d")
            i += 2
        else:
            out.append("c")
            i += 1
    return "".join(out)


def to_cd_by_reduction(p):
    """Oracle for to_cd: triangular reduction on the least surviving word,
    subtracting the map_words expansion of each parsed cd-word.  Raises
    NotCdExpressible with the residual left at the first word that parses
    as no cd-word."""
    residual = AbPolynomial(dict(p.terms))
    out = {}
    while residual.terms:
        word, coeff = residual.sorted_terms()[0]
        cd_word = _parse_least_word(word)
        if cd_word is None:
            raise NotCdExpressible(residual)
        out[cd_word] = out.get(cd_word, 0) + coeff
        image = CdPolynomial.monomial(cd_word).map_words(CD_IMAGES)
        residual = residual - image * coeff
    return CdPolynomial(out)


def is_sparse(mask):
    """No two consecutive ranks."""
    return not mask & mask >> 1


def sparse_flag_f(psi, n):
    """f_S = sum of [u_T] psi over T in S, on the sparse S of {1..n}, for
    the degree-n words of psi; by brute force over all masks."""
    out = {}
    for mask in range(1 << n):
        if is_sparse(mask):
            out[mask] = sum(c for w, c in psi.terms.items() if len(w) == n
                            and all(mask >> i & 1 for i, x in enumerate(w)
                                    if x == "b"))
    return out


def assert_cd_residual(p, residual, message):
    """The residual of a failed to_cd(p) is the one r with p - r
    cd-expressible and, in every degree n, a flag f-vector that vanishes on
    the sparse subsets of {2..n}.  There are F(n+1) of those, one per
    cd-word of degree n, and they determine a cd-polynomial; so two such r
    differ by a cd-expressible polynomial that is zero."""
    assert residual
    to_cd_by_reduction(p - residual)
    for n in {len(w) for w in residual.terms}:
        f = sparse_flag_f(residual, n)
        assert not any(v for mask, v in f.items() if not mask & 1), n
    assert message == "not expressible in c, d; residual %s" % residual


# Plain-dict reference for the polynomial kernels: a word polynomial or a
# tensor is a {key: coefficient} dict with no zero coefficient.


def dict_collect(pairs):
    """Sum (key, coefficient) pairs into a dict, dropping zero sums."""
    out = defaultdict(int)
    for key, coeff in pairs:
        out[key] += coeff
    return {key: coeff for key, coeff in out.items() if coeff != 0}


def dict_add(p, q, sign=1):
    return dict_collect([*p.items(), *((k, sign * c) for k, c in q.items())])


def dict_mul(p, q):
    """Words concatenate and coefficients multiply."""
    return dict_collect((u + v, a * b) for u, a in p.items()
                        for v, b in q.items())


def dict_map_words(p, images):
    """The algebra map sending each letter to the dict images[letter]."""
    pairs = []
    for word, coeff in p.items():
        prod = {"": 1}
        for letter in word:
            prod = dict_mul(prod, images[letter])
        pairs += [(w, c * coeff) for w, c in prod.items()]
    return dict_collect(pairs)


def dict_coproduct(p):
    """Delete one letter of each word in every place."""
    return dict_collect(((w[:i], w[i + 1:]), c) for w, c in p.items()
                        for i in range(len(w)))


def outcome(fn, *args):
    """fn(*args), or the type, message and residual of what it raised, so
    that two routes can be compared on failing inputs too."""
    try:
        return ("value", fn(*args))
    except cd.CdindexError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "residual", None))


def local_index_by_rebuild(m, sigma):
    """Oracle for the faces' local indexes that subdivision code reads off
    validation: rebuild the capped preimage of sigma from scratch."""
    ideal = m.source.induced(preimage_ids_by_definition(m, sigma))
    return cd.local_index(cd.adjoin_max(ideal))


def decompose_rows_by_rebuild(m):
    """Oracle for decompose_cd rows: rebuilt local index and a checked
    cd_index of each upper interval."""
    tgt = m.target
    return tuple(DecompositionRow(
        sigma, local_index_by_rebuild(m, sigma).cd,
        cd.cd_index(tgt.interval(sigma, tgt.max_elt)))
        for sigma in sorted(tgt.elements, key=lambda s: (tgt.rank(s), s)))


def telescoping_by_rebuild(fam, i):
    """Oracle for verify_rank_telescoping on a validated map."""
    m = fam.subdivision
    tgt = m.target
    lhs = (cd.flag_polynomial(fam.posets[i])
           - cd.flag_polynomial(fam.posets[i - 1]))
    rhs = AbPolynomial.zero()
    for sigma in tgt.level(i):
        upper = cd.flag_polynomial(tgt.interval(sigma, tgt.max_elt))
        rhs = rhs + local_index_by_rebuild(m, sigma).flag * upper
    return lhs == rhs


def correspondence_rows_by_rebuild(m):
    """Oracle for verify_local_correspondence rows: (sigma, f(rebuilt local
    ab-index), local h)."""
    return tuple((sigma, cd.morphism_f(local_index_by_rebuild(m, sigma).ab),
                  ell) for sigma, ell in cd.local_h(m).rows)


AbRouteLocalIndex = namedtuple("AbRouteLocalIndex", "source ab cd flag")


def local_index_by_ab_route(p):
    """Oracle for local_index by the dense route: the local ab-index
    Psi(Q) - Psi([0, tau]) (a + b) of the semisuspension Q and its restored
    coatom tau, rewritten by triangular reduction, and its image under
    a -> a + b."""
    p.require_graded()
    if len(p.elements) in (1, 2) and p.top_rank == len(p.elements) - 1:
        one = AbPolynomial.one()
        return AbRouteLocalIndex(p, one, CdPolynomial.one(), one)
    q, tau = cd.poset._semisuspend(p)
    ab = cd.ab_index(q) - cd.ab_index(q.interval(q.min_elt, tau)) * AB_C
    return AbRouteLocalIndex(p, ab, to_cd_by_reduction(ab),
                             substitute(ab, AB_C, AB_B))


def cd_index_by_old_route(p):
    """Oracle for cd_index: test near-Eulerian-ness, then add the rewritten
    ab-index of poset.boundary to the local cd-index of the dense route,
    each step building its own semisuspension; rewrite the ab-index of any
    other poset."""
    p.require_bounds()
    if p.top_rank == 0:
        return CdPolynomial.zero()
    if not p.is_eulerian() and cd.is_near_eulerian(p):
        return (local_index_by_ab_route(p).cd
                + to_cd_by_reduction(cd.ab_index(cd.boundary(p))))
    return to_cd_by_reduction(cd.ab_index(p))


PYRAMID_D = {"c": {"d": 2}, "d": {"cd": 1, "dc": 1}}


def boolean_cd_by_pyramid(n):
    """cd-index of B_n by the Ehrenborg-Readdy pyramid rule iterated from
    B_1 ("Coproducts and the cd-index", J. Algebraic Combin. 1998):
    Phi(Pyr P) = (c Phi + Phi c + D(Phi)) / 2, where the derivation D has
    D(c) = 2d and D(d) = cd + dc.  Plain word dicts, no flagcd."""
    if n < 1:
        raise ValueError("B_0 has no cd-index")
    phi = {"": 1}
    for _ in range(n - 1):
        out = defaultdict(int)
        for w, k in phi.items():
            out["c" + w] += k
            out[w + "c"] += k
            for i, letter in enumerate(w):
                for image, m in PYRAMID_D[letter].items():
                    out[w[:i] + image + w[i + 1:]] += k * m
        assert all(k % 2 == 0 for k in out.values())
        phi = {w: k // 2 for w, k in out.items() if k}
    return CdPolynomial(phi)


def facets_by_pairwise_filter(facets):
    """Oracle for SimplicialComplex's facets: the nonempty given sets, less
    each one strictly inside another, by pairwise subset tests."""
    norm = {frozenset(str(v) for v in f) for f in facets}
    norm.discard(frozenset())
    return {f for f in norm if not any(f < g for g in norm)}


def shelling_step_by_closure(prev_faces, facet):
    """Oracle for the shelling step test: list the faces of facet already in
    prev_faces and check that they are a nonempty union of its ridges."""
    d = len(facet) - 1
    inter = [f for f in _closure_of(facet) if f in prev_faces]
    ridges = {f for f in inter if len(f) == d}
    if not ridges:
        return False
    return all(any(f <= r for r in ridges) for f in inter if f)


def find_shelling_by_recursion(k, max_nodes=10 ** 6):
    """Oracle for find_shelling: the same backtracking search written as a
    recursion, with the same candidate order and one budget unit per node.
    Its depth is the number of facets."""
    if not k.is_pure():
        raise NotPure("shelling is defined for pure complexes")
    facets = list(k.facets)
    if len(facets) <= 1:
        return facets
    budget = [max_nodes]

    def ridge_count(f, used_faces):
        return sum(1 for v in f if (f - {v}) in used_faces)

    def backtrack(chosen, used, faces):
        if budget[0] <= 0:
            raise SearchCutoff("shelling search exceeded %d nodes" % max_nodes)
        budget[0] -= 1
        if len(chosen) == len(facets):
            return list(chosen)
        ranked = sorted(
            (f for f in facets if f not in used),
            key=lambda f: (-ridge_count(f, faces), sorted(f)))
        for f in ranked:
            if not shelling_step_by_closure(faces, f):
                continue
            added = [x for x in _closure_of(f) if x not in faces]
            chosen.append(f)
            used.add(f)
            faces.update(added)
            out = backtrack(chosen, used, faces)
            if out is not None:
                return out
            chosen.pop()
            used.remove(f)
            faces.difference_update(added)
        return None

    for first in facets:
        faces = set(_closure_of(first))
        out = backtrack([first], {first}, faces)
        if out is not None:
            return out
    return None


def poset_fields_by_dfs(elements, covers):
    """Oracle for the GradedPoset constructor on given (lower, upper) id
    pairs, which may repeat or include non-cover pairs.  The strict up row
    of each element is found by depth-first search over the pairs, the down
    rows are read off the up rows, and ranks are longest paths from the
    minimal elements, relaxed once per element.  Returns the constructor's
    fields by name."""
    idx = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    pairs = sorted({(idx[a], idx[b]) for a, b in covers})
    above = [[hi for lo, hi in pairs if lo == i] for i in range(n)]
    up = []
    for i in range(n):
        seen, todo = set(), list(above[i])
        while todo:
            j = todo.pop()
            if j not in seen:
                seen.add(j)
                todo.extend(above[j])
        up.append(sum(1 << j for j in seen))
    dn = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    ranks = [0] * n
    for _ in range(n):
        for lo, hi in pairs:
            ranks[hi] = max(ranks[hi], ranks[lo] + 1)
    ranked = all(ranks[hi] == ranks[lo] + 1 for lo, hi in pairs)
    maximal = [i for i in range(n) if not up[i]]
    minimal = [i for i in range(n) if not dn[i]]
    return {"cover_pairs": tuple(pairs), "_up": up, "_dn": dn,
            "_ranks": tuple(ranks), "is_ranked": ranked,
            "is_graded": ranked and len({ranks[i] for i in maximal}) <= 1,
            "min_elt": elements[minimal[0]] if len(minimal) == 1 else None,
            "max_elt": elements[maximal[0]] if len(maximal) == 1 else None}


def random_relation(rng, max_size=12):
    """Random acyclic (elements, pairs): pairs go up a hidden level order,
    mostly between consecutive levels, with repeated pairs and pairs
    implied by two others mixed in; elements come in shuffled order."""
    levels = [rng.randint(0, 4) for _ in range(rng.randint(0, max_size))]
    elements = ["v%d" % i for i in range(len(levels))]
    pairs = [(a, b) for a, la in zip(elements, levels)
             for b, lb in zip(elements, levels)
             if la < lb and rng.random() < (0.6 if lb == la + 1 else 0.1)]
    pairs += [(a, d) for a, b in pairs for c, d in pairs
              if b == c and rng.random() < 0.3]
    pairs += rng.sample(pairs, min(len(pairs), rng.randint(0, 3)))
    rng.shuffle(pairs)
    rng.shuffle(elements)
    return elements, pairs


def random_graded_poset(rng, max_levels=4, max_width=4):
    """Random graded poset with bounds: levels with covers between
    consecutive levels only, every element covered both ways."""
    height = rng.randint(1, max_levels)
    levels = [["r%de%d" % (r, i) for i in range(rng.randint(1, max_width))]
              for r in range(height)]
    elements = ["bot"] + [e for lvl in levels for e in lvl] + ["top"]
    covers = [("bot", e) for e in levels[0]]
    for low, high in zip(levels, levels[1:]):
        for e in high:
            picks = rng.sample(low, rng.randint(1, len(low)))
            covers.extend((x, e) for x in picks)
        for x in low:
            if not any(c[0] == x for c in covers if c[1] in high):
                covers.append((x, rng.choice(high)))
    covers += [(e, "top") for e in levels[-1]]
    return cd.build_poset(elements, covers)


# -- named fixtures ------------------------------------------------------------


def square_lattice():
    return cd.face_poset(cd.make_polygon(4), with_max=True)


def polygon_lattice(n):
    return cd.face_poset(cd.make_polygon(n), with_max=True)


def tetra_lattice():
    return cd.face_poset(cd.make_boundary_simplex(3), with_max=True)


def bipyramid_lattice():
    return cd.face_poset(cd.make_stacked(3, 2).boundary, with_max=True)


def octahedron_complex():
    """Boundary of the cross-polytope on vertex pairs 1/-1, 2/-2, 3/-3."""
    facets = []
    for s1 in ("1", "-1"):
        for s2 in ("2", "-2"):
            for s3 in ("3", "-3"):
                facets.append([s1, s2, s3])
    return cd.SimplicialComplex(facets)


def eulerian_pool():
    """Named Eulerian posets covering ranks 1 through 5."""
    pool = [("B1", cd.boolean_poset(1)),
            ("B2", cd.boolean_poset(2)),
            ("B3", cd.boolean_poset(3)),
            ("B4", cd.boolean_poset(4)),
            ("B5", cd.boolean_poset(5)),
            ("square", square_lattice()),
            ("pentagon", polygon_lattice(5)),
            ("hexagon", polygon_lattice(6)),
            ("tetrahedron", tetra_lattice()),
            ("cube", cd.make_cube3()),
            ("bipyramid", bipyramid_lattice()),
            ("octahedron", cd.face_poset(octahedron_complex(), with_max=True)),
            ("stacked33", cd.face_poset(cd.make_stacked(3, 3).boundary,
                                        with_max=True)),
            ("susp_square", cd.suspension(square_lattice())),
            ("pyr_pentagon", cd.pyramid(polygon_lattice(5))),
            ("join_B2_square", cd.join(cd.boolean_poset(2), square_lattice())),
            ("dual_cube", cd.dual(cd.make_cube3()))]
    return pool


def random_eulerian(rng, pool=None):
    """One random Eulerian poset built from pool members and closure ops."""
    if pool is None:
        pool = [cd.boolean_poset(k) for k in (1, 2, 3)]
        pool += [polygon_lattice(n) for n in (3, 4, 5, 6)]
    p = rng.choice(pool)
    op = rng.randrange(4)
    if op == 0:
        q = rng.choice(pool)
        if len(p.elements) * len(q.elements) <= 400:
            return cd.join(p, q)
        return p
    if op == 1:
        return cd.suspension(p)
    if op == 2 and len(p.elements) <= 40:
        return cd.pyramid(p)
    if op == 3:
        return cd.dual(p)
    return p


def random_near_eulerian(rng):
    """A random Eulerian poset of rank at least 2 less one random coatom.
    Each element two below the top lies under exactly two coatoms, so the
    semisuspension restores the removed one."""
    p = random_eulerian(rng)
    while p.top_rank < 2:
        p = random_eulerian(rng)
    gone = rng.choice(p.coatoms())
    return p.induced([e for e in p.elements if e != gone])


# -- subdivision fixtures --------------------------------------------------------


def tetra_subdivision():
    """Boundary of the tetrahedron with one edge split at a new vertex 5,
    the two adjacent facets halved; formal tops adjoined."""
    target = cd.SimplicialComplex(
        [["1", "3", "4"], ["2", "3", "4"], ["1", "2", "3"], ["1", "2", "4"]])
    source = cd.SimplicialComplex(
        [["1", "3", "4"], ["2", "3", "4"], ["1", "5", "3"], ["5", "2", "3"],
         ["1", "5", "4"], ["5", "2", "4"]])
    carriers = {v: [v] for v in "1234"}
    carriers["5"] = ["1", "2"]
    return cd.with_adjoined_tops(
        cd.from_vertex_carriers(source, target, carriers))


def hexagon_over_triangle():
    """Barycentric subdivision of the triangle boundary, tops adjoined."""
    _, m = cd.barycentric_subdivision(cd.make_boundary_simplex(2))
    return cd.with_adjoined_tops(m)


def edge_with_points(t):
    """A segment subdivided by t interior points."""
    verts = ["0"] + ["m%d" % i for i in range(1, t + 1)] + ["1"]
    source = cd.SimplicialComplex(
        [[a, b] for a, b in zip(verts, verts[1:])])
    target = cd.SimplicialComplex([["0", "1"]])
    carriers = {"0": ["0"], "1": ["1"]}
    carriers.update({v: ["0", "1"] for v in verts[1:-1]})
    return cd.from_vertex_carriers(source, target, carriers)


def barycentric_solid_triangle():
    _, m = cd.barycentric_subdivision(cd.make_simplex(2))
    return m


def half_split_triangle():
    """Solid triangle with one edge midpoint, split into two triangles."""
    target = cd.make_simplex(2)
    source = cd.SimplicialComplex([["0", "m", "2"], ["m", "1", "2"]])
    carriers = {"0": ["0"], "1": ["1"], "2": ["2"], "m": ["0", "1"]}
    return cd.from_vertex_carriers(source, target, carriers)


def subdivision_pool():
    """Named valid strong Eulerian subdivision fixtures."""
    return [("tetra66", tetra_subdivision()),
            ("hexagon", hexagon_over_triangle()),
            ("bary_triangle", barycentric_solid_triangle()),
            ("half_triangle", half_split_triangle()),
            ("edge1", edge_with_points(1)),
            ("edge3", edge_with_points(3)),
            ("identity_square", cd.identity_subdivision(square_lattice())),
            ("bary_square", cd.barycentric_subdivision(
                cd.SimplicialComplex([["0", "1", "2"], ["0", "2", "3"]]))[1])]


def near_eulerian_pool():
    """Named near-Eulerian posets with more than two elements: P1 of every
    Eulerian pool member, the capped preimage of every face of rank at
    least 1 in the subdivision pool, and face posets of small discs."""
    pool = [("P1 " + name, cd.adjoin_max(p)) for name, p in eulerian_pool()]
    for name, m in subdivision_pool():
        for sigma in m.target.elements:
            if m.target.rank(sigma) >= 1:
                ideal = m.source.induced(preimage_ids_by_definition(m, sigma))
                pool.append(("%s %s" % (name, sigma), cd.adjoin_max(ideal)))
    discs = [("path2", [["1", "2"], ["2", "3"]]),
             ("half_triangle", [["1", "2", "4"], ["2", "3", "4"]]),
             ("fan3", [["l", "b1", "t"], ["b1", "b2", "t"], ["b2", "r", "t"]])]
    for name, facets in discs:
        pool.append((name, cd.face_poset(cd.SimplicialComplex(facets),
                                         with_max=True)))
    return pool


@pytest.fixture(scope="session")
def eulerian_fixtures():
    return eulerian_pool()


@pytest.fixture(scope="session")
def subdivision_fixtures():
    return subdivision_pool()


@pytest.fixture(scope="session")
def near_eulerian_fixtures():
    return near_eulerian_pool()


@pytest.fixture
def rng():
    return random.Random(20160825)
