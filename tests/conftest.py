"""Shared fixtures: standard posets, subdivision maps, and test oracles."""
from __future__ import annotations

import os
import random
from collections import defaultdict, namedtuple
from fractions import Fraction
from itertools import combinations, permutations, product

import networkx as nx
import pytest
from hypothesis import settings
from networkx.algorithms.isomorphism import DiGraphMatcher

import cdindex as cd
from cdindex.complexes import _closure_of, face_id
from cdindex.subdivision import DecompositionRow, ValidationReport
from cdindex.errors import (NotCdExpressible, NotLowerEulerian,
                            NotNearEulerian, NotPure, SearchCutoff)
from cdindex.ncpoly import (AB_B, AB_C, AbPolynomial, CdPolynomial,
                            UniPolynomial, _sparse_masks, substitute)

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def child_env():
    """The environment of a child interpreter that imports this package
    from where the tests import it."""
    src = os.path.dirname(os.path.dirname(cd.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


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
    """Oracle for the preimage mask of sigma: the source elements, in source
    order, whose carrier lies at or below sigma."""
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
        for tau in down_set(tgt, sigma, strict=False):
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


def ab_index_by_flag_h(p):
    """Oracle for ab_index by the dense route on any input: the sum of
    flag_h(p)[S] u_S, which never reads Phi (ab_index expands Phi once p
    is known to be Eulerian)."""
    p.require_bounds()
    n = p.top_rank - 1
    if n < 0:
        return AbPolynomial.zero()
    beta = cd.flag_h(p)
    return AbPolynomial({"".join("b" if m >> r & 1 else "a"
                                 for r in range(n)): v
                         for m, v in beta.values.items()})


def isomorphic(p, q):
    """Isomorphism of the cover DAGs by networkx's VF2 matcher."""
    def digraph(poset):
        g = nx.DiGraph()
        g.add_nodes_from(range(len(poset.elements)))
        g.add_edges_from(poset.cover_pairs)
        return g

    return DiGraphMatcher(digraph(p), digraph(q)).is_isomorphic()


def ab_words(degree):
    """All ab-words of the given length, lex order."""
    if degree < 0:
        return []
    return list(map("".join, product("ab", repeat=degree)))


def cd_words(degree):
    """All cd-words of the given degree (c counts 1, d counts 2)."""
    if degree < 0:
        return []
    if degree == 0:
        return [""]
    if degree == 1:
        return ["c"]
    return sorted(["c" + w for w in cd_words(degree - 1)]
                  + ["d" + w for w in cd_words(degree - 2)])


def kappa_of(word):
    """kappa of one ab-word: (x - 1)^len(word), or 0 if it has a b."""
    if "b" in word:
        return UniPolynomial.zero()
    return X_MINUS_1 ** len(word)


def kappa(p):
    """The algebra map with kappa(a) = x - 1, kappa(b) = 0."""
    return sum((kappa_of(w) * c for w, c in p.terms.items()),
               UniPolynomial.zero())


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


def toric_h_by_psi(p):
    """Oracle for toric_h on Eulerian input: f of the ab-index, the route
    toric_h takes for every other bounded graded poset."""
    p.require_bounds()
    return cd.morphism_f(ab_index_by_flag_h(p))


def g_poly_by_psi(p):
    """Oracle for g_poly: g of the ab-index instead of the cd-index, with
    the same checks and the same answer on a point."""
    p.require_bounds()
    if not p.is_eulerian():
        raise NotLowerEulerian("g-polynomial needs an Eulerian poset")
    if p.top_rank == 0:
        return UniPolynomial.one()
    return cd.morphism_g(ab_index_by_flag_h(p))


def f_by_letter_rules(word):
    """Oracle for morphism_f of one long ab-word, stepped letter by letter
    with nothing kept: f(ub) = g(u) and f(ua) = (x - 1) f(u) + g(u), with
    g(u) the truncation of (1 - x) f(u) at degree |u|/2."""
    f = UniPolynomial.one()
    for i, letter in enumerate(word):
        g = (-X_MINUS_1 * f).truncate(i // 2)
        f = g if letter == "b" else X_MINUS_1 * f + g
    return f


def morphism_f_by_coproduct(p):
    """Oracle for morphism_f through the coproduct:
    f = kappa + (g (x) kappa) applied to dict_coproduct(p), with the prefix
    g's from the definitional recursion."""
    g_of = MorphismsByCoproduct().g_word
    out = kappa(p)
    for (w1, w2), coeff in dict_coproduct(p.terms).items():
        out = out + g_of(w1) * kappa_of(w2) * coeff
    return out


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


def is_homogeneous(poly):
    """All words of poly have one degree."""
    return len({poly.word_degree(w) for w in poly.terms}) <= 1


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


# Plain-dict reference for the polynomial kernels: a word polynomial, or a
# tensor of the letter-deletion coproduct, is a {key: coefficient} dict
# with no zero coefficient.


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


def telescoping_by_intervals(fam, i):
    """Oracle for verify_rank_telescoping on a validated map: the flag
    polynomial of each upper interval [sigma, 1] built and counted."""
    m = fam.subdivision
    tgt = m.target
    lhs = (cd.flag_polynomial(fam.posets[i])
           - cd.flag_polynomial(fam.posets[i - 1]))
    local = cd.subdivision._local_cds(m)
    rhs = 0
    for sigma in tgt.level(i):
        upper = cd.flag_polynomial(tgt.interval(sigma, tgt.max_elt))
        rhs = cd.flagcd.LocalIndex(local[sigma]).flag * upper + rhs
    return lhs == rhs


def h_poly_by_adjoin_max(p):
    """Oracle for h_poly: the reversed f of Psi of the poset with a
    maximum built on."""
    if not p.elements:
        return UniPolynomial.zero()
    if p.min_elt is None:
        raise NotLowerEulerian("toric h needs a poset with a minimum")
    if not p.is_lower_eulerian():
        raise NotLowerEulerian("some closed interval is not Eulerian")
    hat = cd.adjoin_max(p)
    return cd.morphism_f(cd.ab_index(hat)).reverse(hat.top_rank - 1)


def up_set(p, a, strict=True):
    """The ids above a in p, and a itself unless strict, in element order."""
    i = p.index(a)
    return p._ids(p._up[i] | (0 if strict else 1 << i))


def down_set(p, a, strict=True):
    """The ids below a in p, and a itself unless strict, in element order."""
    i = p.index(a)
    return p._ids(p._dn[i] | (0 if strict else 1 << i))


def atoms(p):
    """The elements of rank 1 of a bounded graded poset."""
    p.require_bounds()
    return p.level(1)


def is_lattice_by_joins(p):
    """Any two elements of a bounded poset have a least upper and a greatest
    lower bound.  Only joins are checked off the closure rows: with a
    minimum, the common lower bounds of two elements are a nonempty set,
    and their join is the meet."""
    p.require_bounds()
    up, dn = p._up, p._dn
    for a, b in combinations(range(len(p.elements)), 2):
        above = (up[a] | 1 << a) & (up[b] | 1 << b)
        if sum(not dn[i] & above for i in p._bits(above)) != 1:
            return False
    return True


def is_lattice_by_both_bounds(p):
    """Oracle for is_lattice_by_joins: every two elements have a least
    common upper bound and a greatest common lower bound, by ``le``."""
    for a, b in combinations(p.elements, 2):
        for le in (p.le, lambda x, y: p.le(y, x)):
            common = [c for c in p.elements if le(a, c) and le(b, c)]
            if sum(all(le(c, d) for d in common) for c in common) != 1:
                return False
    return True


def unbalanced_by_intervals(p):
    """Oracle for poset._unbalanced: the mask of the tops t of the intervals
    [s, t] of even positive length, counted element by element, with
    unequally many elements of even and odd rank."""
    bad = 0
    for s in p.elements:
        for t in up_set(p, s):
            if (p.rank(t) - p.rank(s)) % 2 == 0 and sum(
                    (-1) ** p.rank(z) for z in p.elements
                    if p.le(s, z) and p.le(z, t)):
                bad |= 1 << p.index(t)
    return bad


def antichain_sum(sizes):
    """A bottom, antichains of the given sizes and a top, each element
    covering every element of the level below: f_S is the product of the
    sizes of the ranks in S."""
    levels = [["0"]] + [["r%da%d" % (r, k) for k in range(size)]
                        for r, size in enumerate(sizes, 1)] + [["1"]]
    return cd.GradedPoset([e for level in levels for e in level],
                          [(a, b) for low, high in zip(levels, levels[1:])
                           for a in low for b in high])


def chain_vectors_by_lists(p, low, n, sparse=True):
    """Oracle for the packed chain DP: vec[S][k] counts the chains through
    exactly the ranks in S (rank r at bit r - 1, counted from low) ending
    at the k-th element of S's top rank, as sums of the previous level's
    vector over down-lists.  Returns (totals, (vec, level masks,
    positions)), where totals[S] sums vec[S]."""
    dn, ranks, bits = p._dn, p._ranks, p._bits
    levels = [[] for _ in range(n + 1)]
    for i in bits(p._up[low]):
        if ranks[i] - ranks[low] <= n:
            levels[ranks[i] - ranks[low]].append(i)
    level_mask = [sum(1 << i for i in ids) for ids in levels]
    pos = {i: k for ids in levels for k, i in enumerate(ids)}
    # below[r][s][k]: positions at level s under the k-th element of level r
    below = [{s: [[pos[j] for j in bits(dn[i] & level_mask[s])]
                  for i in levels[r]]
              for s in range(1, r - 1 if sparse else r)}
             for r in range(n + 1)]
    totals, vec = {0: 1}, {}
    for mask in (_sparse_masks(n) if sparse else range(1 << n))[1:]:
        top = mask.bit_length()  # highest selected rank
        rest = mask & ~(1 << (top - 1))
        if not rest:
            out = [1] * len(levels[top])
        else:
            prev = vec[rest]
            out = [sum([prev[j] for j in lst])
                   for lst in below[top][rest.bit_length()]]
        vec[mask] = out
        totals[mask] = sum(out)
    return totals, (vec, level_mask, pos)


def masked_by_lists(chains, n, keep):
    """Oracle for ``flagcd._masked`` on ``chain_vectors_by_lists``."""
    vec, level_mask, pos = chains[1]
    inside = [[pos[i] for i in cd.GradedPoset._bits(keep & m)]
              for m in level_mask[:n + 1]]
    return {0: 1, **{mask: sum([counts[k] for k in inside[mask.bit_length()]])
                     for mask, counts in vec.items() if not mask >> n}}


def correspondence_rows_by_rebuild(m):
    """Oracle for verify_local_correspondence rows: (sigma, f(rebuilt local
    ab-index), local h)."""
    return tuple((sigma, cd.morphism_f(local_index_by_rebuild(m, sigma).ab),
                  ell) for sigma, ell in cd.local_h(m).rows)


def semisuspend_by_build(p):
    """Oracle for the near-Eulerian test on closure rows: build the
    semisuspension Q, a coatom TAU covering the elements y with
    |[y, 1]| = 3 under the maximum, and scan Q on its own rows.  Raises the
    NotNearEulerian messages of poset._below_coatom; returns (Q, tau)."""
    if p.max_elt is None or p.min_elt is None:
        raise NotNearEulerian("semisuspension needs both bounds")
    if not p.is_graded:
        raise NotNearEulerian("semisuspension needs a graded poset")
    tau = "TAU"
    while tau in p:
        tau += "'"
    ups = {e: up_set(p, e) for e in p.elements}
    qualify = [e for e in p.elements
               if len(ups[e]) == 2 and p.max_elt in ups[e]]
    covers = [(p.elements[lo], p.elements[hi]) for lo, hi in p.cover_pairs]
    covers += [(y, tau) for y in qualify] + [(tau, p.max_elt)]
    q = cd.GradedPoset(list(p.elements) + [tau], covers)
    if not (q.is_graded and q.min_elt is not None and q.max_elt is not None
            and q.is_eulerian()):
        raise NotNearEulerian("adjoining the missing coatom is not Eulerian")
    return q, tau


def local_and_boundary_by_build(p):
    """Oracle for the masked sparse DP: (Phi(Q) - Phi([0, tau]) c,
    Phi([0, tau])) with Q and its interval [0, tau] built and peeled."""
    q, tau = semisuspend_by_build(p)
    bd_cd = cd.cd_index(q.interval(q.min_elt, tau))
    return cd.cd_index(q) - bd_cd * CdPolynomial.monomial("c"), bd_cd


AbRouteLocalIndex = namedtuple("AbRouteLocalIndex", "source ab cd flag")


def local_index_by_ab_route(p):
    """Oracle for local_index by the dense route: the local ab-index
    Psi(Q) - Psi([0, tau]) (a + b) of the built semisuspension Q and its
    restored coatom tau, rewritten by triangular reduction, and its image
    under a -> a + b."""
    p.require_graded()
    if len(p.elements) in (1, 2) and p.top_rank == len(p.elements) - 1:
        one = AbPolynomial.one()
        return AbRouteLocalIndex(p, one, CdPolynomial.one(), one)
    q, tau = semisuspend_by_build(p)
    ab = (ab_index_by_flag_h(q)
          - ab_index_by_flag_h(q.interval(q.min_elt, tau)) * AB_C)
    return AbRouteLocalIndex(p, ab, to_cd_by_reduction(ab),
                             substitute(ab, AB_C, AB_B))


def cd_index_by_old_route(p):
    """Oracle for cd_index: build the semisuspension, then add the
    rewritten ab-index of its interval [0, tau] to the local cd-index of
    the dense route; rewrite the ab-index of any other poset."""
    p.require_bounds()
    if p.top_rank == 0:
        return CdPolynomial.zero()
    semi = outcome(semisuspend_by_build, p)
    if not p.is_eulerian() and semi[0] == "value":
        q, tau = semi[1]
        return (local_index_by_ab_route(p).cd + to_cd_by_reduction(
            ab_index_by_flag_h(q.interval(q.min_elt, tau))))
    return to_cd_by_reduction(ab_index_by_flag_h(p))


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


def polygon_cd(n):
    """cd-index of the face lattice of an n-gon: c^2 + (n-2) d."""
    return CdPolynomial({"cc": 1, "d": n - 2})


def three_polytope_cd(f0, f2):
    """cd-index of a 3-polytope with f0 vertices and f2 facets:
    c^3 + (f0-2) dc + (f2-2) cd (Bayer-Klapper, "A new index for
    polytopes", Discrete Comput. Geom. 1991)."""
    return CdPolynomial({"ccc": 1, "dc": f0 - 2, "cd": f2 - 2})


def facets_by_pairwise_filter(facets):
    """Oracle for SimplicialComplex's facets: the nonempty given sets, less
    each one strictly inside another, by pairwise subset tests."""
    norm = {frozenset(str(v) for v in f) for f in facets}
    norm.discard(frozenset())
    return {f for f in norm if not any(f < g for g in norm)}


def complex_by_subfaces(facets):
    """Oracle for SimplicialComplex's facets and faces by the definition the
    constructor once ran: enumerate every strict subface of every given set;
    the given sets not among them are the facets, and the faces are the
    given sets, their subfaces and the empty face."""
    given = {frozenset(str(v) for v in f) for f in facets}
    below = {frozenset()}
    for f in given:
        for k in range(1, len(f)):
            below.update(map(frozenset, combinations(f, k)))
    return given - below, below | given


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


def boundary_matrices(k):
    """Dense reduced boundary matrices of k, as (rows, width) for each
    dimension i = 0..dim: the rows are the i-faces, the columns the
    (i-1)-faces, both sorted by their sorted vertex lists, and dropping the
    j-th vertex has sign (-1)^j.  Also returns the faces by dimension."""
    faces = {i: sorted(k.faces(i), key=sorted) for i in range(-1, k.dim + 1)}
    mats = {}
    for i in range(0, k.dim + 1):
        column = {f: j for j, f in enumerate(faces[i - 1])}
        rows = []
        for f in faces[i]:
            row = [0] * len(column)
            for j, v in enumerate(sorted(f)):
                row[column[f - {v}]] = (-1) ** j
            rows.append(row)
        mats[i] = (rows, len(column))
    return faces, mats


def rank_by_fractions(rows, width):
    """Rank of an integer matrix, by dense exact fraction elimination."""
    mat = [list(map(Fraction, row)) for row in rows if any(row)]
    rank = 0
    col = 0
    while mat and col < width:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                factor = mat[r][col] / pv
                for c in range(col, width):
                    mat[r][c] -= factor * mat[rank][c]
        rank += 1
        col += 1
    return rank


def betti_from_ranks(k, rank):
    """Reduced Betti numbers of k in dimensions 0..dim, from rank(rows,
    width) of each boundary matrix."""
    faces, mats = boundary_matrices(k)
    ranks = {i: rank(*mats[i]) for i in mats}
    return [len(faces[i]) - ranks[i] - ranks.get(i + 1, 0)
            for i in range(0, k.dim + 1)]


def betti_by_fractions(k):
    """Oracle for reduced_betti: dense elimination over the rationals."""
    return betti_from_ranks(k, rank_by_fractions)


def betti_by_sympy(k):
    """Second oracle for reduced_betti: sympy's rank of the same matrices."""
    import sympy
    return betti_from_ranks(k, lambda rows, width: sympy.Matrix(rows).rank())


def poset_fields_by_dfs(elements, covers):
    """Oracle for the GradedPoset constructor on given (lower, upper) id
    pairs, which may repeat or include non-cover pairs.  The strict up row
    of each element is found by depth-first search over the pairs, the down
    rows are read off the up rows, and ranks are longest paths from the
    minimal elements, relaxed once per element.  When some pair breaks the
    ranks, the pairs also reached by a path of two or more pairs are
    dropped and the ranks checked again.  Returns the constructor's fields
    by name."""
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
    if not ranked:
        pairs = [(lo, hi) for lo, hi in pairs
                 if not any(up[j] >> hi & 1 for j in above[lo])]
        ranked = all(ranks[hi] == ranks[lo] + 1 for lo, hi in pairs)
    maximal = [i for i in range(n) if not up[i]]
    minimal = [i for i in range(n) if not dn[i]]
    return {"cover_pairs": tuple(pairs), "_up": up, "_dn": dn,
            "_ranks": tuple(ranks), "is_ranked": ranked,
            "is_graded": ranked and len({ranks[i] for i in maximal}) <= 1,
            "min_elt": elements[minimal[0]] if len(minimal) == 1 else None,
            "max_elt": elements[maximal[0]] if len(maximal) == 1 else None}


def face_poset_by_frozensets(k, with_max=False):
    """Oracle for face_poset: the faces as frozensets sorted by (size,
    sorted names), one face_id each, a cover per face and vertex, and TOP
    above the facets (above the empty face when there is none)."""
    faces = sorted(k.faces(), key=lambda f: (len(f), sorted(f)))
    ids = {f: face_id(f) for f in faces}
    elements = [ids[f] for f in faces]
    covers = [(ids[f - {v}], ids[f]) for f in faces for v in f]
    if with_max:
        elements.append("TOP")
        covers += [(ids[f], "TOP") for f in k.facets or [frozenset()]]
    return cd.GradedPoset(elements, covers)


def adjoin_max_by_cover_copy(p):
    """Oracle for adjoin_max: the parent's cover pairs copied, and a fresh
    TOP covering each maximal element."""
    top = "TOP"
    while top in p:
        top += "'"
    covers = [(p.elements[lo], p.elements[hi]) for lo, hi in p.cover_pairs]
    covers += [(e, top) for i, e in enumerate(p.elements) if not p._up[i]]
    return cd.GradedPoset(list(p.elements) + [top], covers)


def cube3_by_cover_search():
    """Oracle for make_cube3: the faces listed axis by axis, a cover
    wherever no face lies strictly between, and TOP adjoined by the cover
    copy in a second build."""
    verts = ["%d%d%d" % v for v in product((0, 1), repeat=3)]
    faces = [frozenset()] + [frozenset([v]) for v in verts]
    for axis in range(3):
        for a, b in product((0, 1), repeat=2):
            faces.append(frozenset(v for v in verts
                                   if int(v[(axis + 1) % 3]) == a
                                   and int(v[(axis + 2) % 3]) == b))
    faces += [frozenset(v for v in verts if int(v[axis]) == a)
              for axis in range(3) for a in (0, 1)]
    ids = {f: face_id(f) for f in faces}
    covers = [(ids[f], ids[g]) for f in faces for g in faces
              if f < g and not any(f < h < g for h in faces)]
    return adjoin_max_by_cover_copy(
        cd.GradedPoset(sorted(ids.values()), covers))


def without_max_by_ids(p):
    """Oracle for without_max: the induced poset on every other id."""
    return p.induced([e for e in p.elements if e != p.max_elt])


def proper_part_by_ids(p):
    """Oracle for proper_part: the induced poset on the ids of neither
    bound."""
    return p.induced([e for e in p.elements
                      if e not in (p.min_elt, p.max_elt)])


def preimage_ideal_by_ids(m, sigma):
    """Oracle for SubdivisionMap.preimage_ideal: the source induced on the
    preimage ids by their definition."""
    return m.source.induced(preimage_ids_by_definition(m, sigma))


def composed_carrier(fam):
    """The skeletal maps of a family composed, on raw source and target
    ids: only the preimage of the minimum stays new-tagged at level 0."""
    m, out = fam.subdivision, {}
    for e in m.source.elements:
        cur = "new:" + e
        for step in reversed(fam.maps):
            cur = step[cur]
        kind, _, raw = cur.partition(":")
        out[e] = raw if kind == "old" else m.target.min_elt
    return out


def restrict_by_ids(m, face):
    """Oracle for restrict: both sides induced on id lists."""
    ideal = preimage_ideal_by_ids(m, face)
    target = m.target.induced(down_set(m.target, face, strict=False))
    return cd.SubdivisionMap(ideal, target,
                             {e: m(e) for e in ideal.elements})


def capped_preimage_by_build(m, sigma):
    """The capped preimage of sigma as a poset: the preimage ideal, built
    from the source rows, with a maximum adjoined."""
    return cd.adjoin_max(m.source._sub(m._preimage[m.target.index(sigma)]))


def basic_failures_by_le(m):
    """Oracle for subdivision._basic_failures: order preservation by
    target.le at each source cover."""
    src, tgt = m.source, m.target
    if not src.is_ranked or not tgt.is_ranked:
        yield ("*", "both posets must be ranked")
        return
    for sigma in tgt.elements:
        if not any(m(e) == sigma for e in src.elements):
            yield (sigma, "not in the image of the carrier map")
    for lo, hi in src.cover_pairs:
        a, b = src.elements[lo], src.elements[hi]
        if not tgt.le(m(a), m(b)):
            yield (a, "carrier not order preserving at cover (%s, %s)"
                   % (a, b))


def validate_strong_eulerian_by_build(m):
    """Oracle for validate_strong_eulerian: build each capped preimage and
    run the near-Eulerian test on its own rows; nothing is cached."""
    failures = list(basic_failures_by_le(m))
    src, tgt = m.source, m.target
    if not failures:
        if src.top_rank != tgt.top_rank:
            failures.append(("*", "source rank %d != target rank %d"
                             % (src.top_rank, tgt.top_rank)))
        if tgt.min_elt is None:
            failures.append(("*", "target has no minimum"))
    if not failures and tgt.max_elt is not None and src.max_elt is not None:
        for e in src.elements:
            if (m(e) == tgt.max_elt) != (e == src.max_elt):
                failures.append((e, "only the source maximum may be carried "
                                    "by the target maximum"))
    if not failures:
        for sigma in sorted(tgt.elements, key=lambda s: (tgt.rank(s), s)):
            hat = capped_preimage_by_build(m, sigma)
            rank = hat._ranks[-1] - 1  # the adjoined maximum sits on top
            if rank != tgt.rank(sigma):
                failures.append((sigma, "preimage ideal has rank %d, want %d"
                                 % (rank, tgt.rank(sigma))))
                continue
            if len(hat.elements) == 2 and hat.top_rank == 1:
                continue  # preimage of the minimum
            try:
                down = cd.poset._below_coatom(hat)
            except NotNearEulerian as exc:
                failures.append((sigma, "P1(preimage) is not near-Eulerian: %s"
                                 % exc))
                continue
            # D against the source elements carried strictly below sigma
            boundary = {e for e in src.elements
                        if tgt.le(m(e), sigma) and m(e) != sigma}
            if set(hat._ids(down)) != boundary:
                failures.append((sigma, "preimage boundary is not the "
                                 "preimage of the boundary"))
    return ValidationReport("strong_eulerian", not failures, tuple(failures))


def local_h_of_built_faces(m):
    """Oracle for local_h: h of each built capped preimage through its
    dense Psi and g_poly of each built interval [tau, sigma]."""
    tgt = m.target
    sigmas = sorted(tgt.elements, key=lambda s: (tgt.rank(s), s))
    h_of = {}
    for s in sigmas:
        hat = capped_preimage_by_build(m, s)
        h_of[s] = cd.morphism_f(ab_index_by_flag_h(hat)).reverse(
            hat.top_rank - 1)
    solved = {}
    for sigma in sigmas:
        acc = h_of[sigma]
        for tau in down_set(tgt, sigma, strict=True):
            acc = acc - solved[tau] * cd.g_poly(tgt.interval(tau, sigma))
        solved[sigma] = acc
    return tuple((s, solved[s]) for s in sigmas), h_of[tgt.max_elt]


def count_builds(monkeypatch):
    """A one-item list counting GradedPoset._build runs from here on: one
    per poset, through the string intake or not."""
    calls = [0]
    build = cd.GradedPoset._build

    def counted(*args):
        calls[0] += 1
        return build(*args)

    monkeypatch.setattr(cd.GradedPoset, "_build", counted)
    return calls


BUILD_FIELDS = ("elements", "_idx", "cover_pairs", "_up", "_dn", "_ranks",
                "_levels", "min_elt", "max_elt", "is_ranked", "is_graded")


def fields_unlike_the_intake(p):
    """The fields, memo slots aside, in which p differs from its rebuild
    through the string intake, given its cover pairs as ids in reverse
    order and the first one twice."""
    els, pairs = p.elements, p.cover_pairs[::-1] + p.cover_pairs[-1:]
    q = cd.GradedPoset(els, [(els[lo], els[hi]) for lo, hi in pairs])
    return [f for f in BUILD_FIELDS if getattr(p, f) != getattr(q, f)]


def same_build(p, q):
    """p and q have the same elements in the same order and the same cover
    pairs."""
    return (p.elements, p.cover_pairs) == (q.elements, q.cover_pairs)


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
    return cd.GradedPoset(elements, covers)


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


def rp2_complex():
    """The 6-vertex real projective plane.  Its integral H_1 is Z/2, so its
    rational reduced Betti numbers are 0, 0, 0 but 0, 1, 1 mod 2."""
    return cd.SimplicialComplex(
        [f.split() for f in ("1 2 3", "1 3 4", "1 4 5", "1 5 6", "1 2 6",
                             "2 3 5", "3 4 6", "2 4 5", "3 5 6", "2 4 6")])


def torus_complex():
    """The 9-vertex torus: the 3 x 3 grid on Z/3 x Z/3, each square cut by
    its diagonal."""
    def v(i, j):
        return "%d%d" % (i % 3, j % 3)
    facets = []
    for i in range(3):
        for j in range(3):
            facets.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            facets.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
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


def edge_with_swapped_carriers():
    """Map C: ``edge_with_points(1)`` with the carriers of {1} and {m1}
    swapped, so the path's end goes to the open edge and its middle to the
    vertex {1}.  Each preimage is near-Eulerian, but the edge's D is not
    the preimage of its boundary, and strong formal sums fail."""
    obj = edge_with_points(1).to_json_obj()
    carrier = obj["carrier"]
    carrier["{1}"], carrier["{m1}"] = carrier["{m1}"], carrier["{1}"]
    return cd.SubdivisionMap.from_json_obj(obj)


def three_atom_map():
    """Map F: 0 < a1, a2, a3 below the two maxima p (over a1, a2) and q
    (over a3), carried onto 0 < m1, m2, m3 < 1 with p and q to 1.  Every
    alternating sum holds, so it passes strong formal validation, but the
    target [0, 1] has three atoms and fails strong Eulerian validation."""
    src = cd.GradedPoset(["0", "a1", "a2", "a3", "p", "q"],
                         [("0", "a1"), ("0", "a2"), ("0", "a3"),
                          ("a1", "p"), ("a2", "p"), ("a3", "q")])
    tgt = cd.GradedPoset(["0", "m1", "m2", "m3", "1"],
                         [("0", "m1"), ("0", "m2"), ("0", "m3"),
                          ("m1", "1"), ("m2", "1"), ("m3", "1")])
    return cd.SubdivisionMap(src, tgt, {"0": "0", "a1": "m1", "a2": "m2",
                                        "a3": "m3", "p": "1", "q": "1"})


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


def rank45_pool():
    """Named valid maps with genuine faces of rank 4 and 5: the barycentric
    subdivisions of the 3- and 4-simplex (sources without a maximum) and
    of the boundary of the 4-simplex with formal tops."""
    _, bd4 = cd.barycentric_subdivision(cd.make_boundary_simplex(4))
    return [("bary_simplex3",
             cd.barycentric_subdivision(cd.make_simplex(3))[1]),
            ("bary_simplex4",
             cd.barycentric_subdivision(cd.make_simplex(4))[1]),
            ("bary_bd4", cd.with_adjoined_tops(bd4))]


def correspondence_maps():
    """The valid maps with a bounded Eulerian target: the subdivision pool
    but bary_square, the rank 4 and 5 pool and the barycentric boundary
    of the 3-simplex with formal tops."""
    _, bd3 = cd.barycentric_subdivision(cd.make_boundary_simplex(3))
    return ([(name, m) for name, m in subdivision_pool()
             if name != "bary_square"]
            + rank45_pool() + [("bary_bd3", cd.with_adjoined_tops(bd3))])


def barycentric_by_order_complex(base):
    """The barycentric subdivision of a complex, or of a graded poset with a
    minimum, through its order complex: that of the base with a maximum
    adjoined, whose face poset is the source and each face, a chain of
    cells, is carried to its cell of highest rank."""
    if isinstance(base, cd.SimplicialComplex):
        base = cd.face_poset(base)
    oc = cd.order_complex(cd.adjoin_max(base))
    carrier = {face_id(f): max(f, key=base.rank, default=base.min_elt)
               for f in oc.faces()}
    return oc, cd.SubdivisionMap(cd.face_poset(oc), base, carrier)


def barycentric_of_poset(p):
    """The barycentric subdivision of the boundary of a polytope whose face
    lattice is p, onto that boundary, tops adjoined: the target is p without
    its maximum, which need not be simplicial."""
    return cd.with_adjoined_tops(
        cd.barycentric_subdivision(p.without_max())[1])


def non_simplicial_lattices():
    """The square, the pentagon and the 3-cube, the pyramid, suspension and
    dual of the square and the pentagon, the dual of the cube (the
    octahedron), and of rank 5 the pyramid of the square pyramid and the
    suspension of the cube.  The pyramid of the cube is left out: on a
    2-core x86-64 host its map takes 1.3 s with its oracles, against 0.4 s
    for the suspension's."""
    square, pentagon = polygon_lattice(4), polygon_lattice(5)
    lattices = [("square", square), ("pentagon", pentagon),
                ("cube", cd.make_cube3()),
                ("dual cube", cd.dual(cd.make_cube3())),
                ("pyramid pyramid square", cd.pyramid(cd.pyramid(square))),
                ("suspension cube", cd.suspension(cd.make_cube3()))]
    for name, p in (("square", square), ("pentagon", pentagon)):
        lattices += [("pyramid " + name, cd.pyramid(p)),
                     ("suspension " + name, cd.suspension(p)),
                     ("dual " + name, cd.dual(p))]
    return lattices


def non_simplicial_maps():
    """barycentric_of_poset over the non_simplicial_lattices."""
    return [(name, barycentric_of_poset(p))
            for name, p in non_simplicial_lattices()]


def carrier_mutants(rng, m, count):
    """count tries at a mutant of the map m, as (what, JSON object) pairs:
    one or two carrier values set to random target ids, or the carriers of
    two source elements of one rank swapped; a try that finds no two
    elements of its rank yields nothing."""
    obj = m.to_json_obj()
    keys, targets = sorted(obj["carrier"]), sorted(m.target.elements)
    for _ in range(count):
        carrier = dict(obj["carrier"])
        kind = rng.randrange(3)
        if kind < 2:
            changed = rng.sample(keys, kind + 1)
            for e in changed:
                carrier[e] = rng.choice(targets)
            what = "set " + ", ".join("%s to %s" % (e, carrier[e])
                                      for e in changed)
        else:
            level = m.source.level(rng.randrange(m.source.top_rank + 1))
            if len(level) < 2:
                continue
            a, b = rng.sample(sorted(level), 2)
            carrier[a], carrier[b] = carrier[b], carrier[a]
            what = "swap %s and %s" % (a, b)
        yield what, dict(obj, carrier=carrier)


def local_f_by_boundary(m, sigma):
    """The row identity of the correspondence at sigma: with P the capped
    preimage, Q its semisuspension and D = [0, tau] below the restored
    coatom tau, f(l_sigma) = h(P) - (x - 1) h(D) - g(D)."""
    capped = capped_preimage_by_build(m, sigma)
    q, tau = semisuspend_by_build(capped)
    below = q.interval(q.min_elt, tau)
    return (cd.toric_h(capped) - X_MINUS_1 * cd.toric_h(below)
            - cd.g_poly(below))


def derangements_by_excedance(n):
    """Stanley (JAMS 1992): the local h-polynomial of the barycentric
    subdivision of the (n-1)-simplex counts the derangements of n letters
    by excedances, the i with w(i) > i."""
    coeffs = [0] * max(n, 1)
    for w in permutations(range(n)):
        if all(w[i] != i for i in range(n)):
            coeffs[sum(w[i] > i for i in range(n))] += 1
    return UniPolynomial(coeffs)


def eulerian_polynomial(n):
    """The h-polynomial of the barycentric subdivision of the
    (n-1)-simplex: the permutations of n letters by descents."""
    coeffs = [0] * n
    for w in permutations(range(n)):
        coeffs[sum(w[i] > w[i + 1] for i in range(n - 1))] += 1
    return UniPolynomial(coeffs)


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
