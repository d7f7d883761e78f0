"""Toric g/h-polynomials, local h-polynomials of strong formal subdivisions,
and the coproduct morphisms from ab- and cd-polynomials to Z[x].

Every toric polynomial is read off a flag index through the linear maps
f and g of Bayer and Ehrenborg: toric h of a bounded graded poset P is
f(Psi_P), and toric g of an Eulerian P is g(Psi_P), or f(Phi_P) and
g(Phi_P) off its cd-index, which toric_h and g_poly take on Eulerian
input.  The anchors g(B_n) = 1, h(B_{d+1} minus top) = 1 + x + ... + x^d,
and agreement with the classical simplicial h-vector all follow.  The
coproduct definition f = kappa + (g (x) kappa) Delta collapses, as kappa
kills every word with a b, to two letter rules: f(ub) = g(u) and
f(ua) = (x - 1) f(u) + g(u), where g(u) is (1 - x) f(u) truncated at
degree |u|/2; so g(w) = f(wb).  Extended linearly to c = a + b and
d = ab + ba they step cd-words too, and one memo of f over the prefixes
walked, of both alphabets, serves both maps.  The coproduct definition,
the Psi route and the recursions over lower intervals are test oracles;
the coproduct and kappa live in ``tests/conftest.py``.

local_h reads each face's capped preimage from the subdivision map, which
builds it once and shares it with strong Eulerian validation, and takes
its h through Psi, as a capped preimage is rarely Eulerian.  It takes
g_poly of the intervals [tau, sigma], which inherit the target's Eulerian
verdict and so are not scanned again.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NotLowerEulerian, RequiresBounds
from .flagcd import ab_index, cd_index, local_index
from .ncpoly import UniPolynomial
from . import poset as ps
from .subdivision import require_valid


def _require_lower_eulerian(p):
    if p.min_elt is None:
        raise NotLowerEulerian("toric h needs a poset with a minimum")
    if not p.is_lower_eulerian():
        raise NotLowerEulerian("some closed interval is not Eulerian")


def h_poly(p):
    """Toric h-polynomial of a lower Eulerian poset (all elements count).

    Read off the poset with a maximum adjoined, so the maximal elements
    must share one rank (NotGraded otherwise).
    """
    if not p.elements:
        return UniPolynomial.zero()
    _require_lower_eulerian(p)
    return _h_below_top(ps.adjoin_max(p))


def _h_below_top(hat):
    """Toric h of hat minus its maximum, through Psi: hat, a lower Eulerian
    poset with a maximum adjoined, is rarely Eulerian."""
    return morphism_f(ab_index(hat)).reverse(hat.top_rank - 1)


def g_poly(p):
    """Toric g-polynomial of an Eulerian poset."""
    p.require_bounds()
    if not p.is_eulerian():
        raise NotLowerEulerian("g-polynomial needs an Eulerian poset")
    if p.top_rank == 0:
        return UniPolynomial.one()  # Phi of a point is 0, its g is 1
    return morphism_g(cd_index(p))


def toric_h(p):
    """h of the poset minus its maximum; symmetric for Eulerian input.

    Defined for every graded poset with both bounds.  On Eulerian input it
    coincides with h_poly of the poset minus its top; on other input it
    need not: for the full triangle's face poset with a top adjoined it is
    x^3, while h_poly of the face poset is 1, its reversal.  Read off Phi
    when p is Eulerian, off Psi otherwise.
    """
    p.require_bounds()
    return morphism_f(cd_index(p) if p.is_eulerian() else ab_index(p))


# -- local h ------------------------------------------------------------------


@dataclass(frozen=True)
class LocalHTable:
    """Per-face local h-polynomials of a strong formal subdivision."""

    rows: tuple  # (sigma, UniPolynomial) pairs in (rank, id) order
    total: UniPolynomial

    def row(self, sigma):
        for s, poly in self.rows:
            if s == sigma:
                return poly
        raise KeyError(sigma)


def local_h(m):
    """Local h-polynomials of every target face.

    Solves the defining recursion h(preimage of [0, sigma]) = sum over
    tau <= sigma of l(tau) g([tau, sigma]) bottom-up in rank order.
    """
    require_valid(m, "strong_formal")
    src, tgt = m.source, m.target
    if tgt.max_elt is None or tgt.min_elt is None:
        raise RequiresBounds("local h needs a bounded target")
    if not tgt.is_eulerian():
        raise NotLowerEulerian("local h needs an Eulerian target")
    _require_lower_eulerian(src)
    sigmas = sorted(tgt.elements, key=lambda s: (tgt.rank(s), s))
    # each preimage ideal is a nonempty down-set of src, so it inherits
    # the minimum and lower Eulerian-ness checked above
    h_of = {}
    for s in sigmas:
        h_of[s] = _h_below_top(m._capped_preimage(s))
    solved = {}
    for sigma in sigmas:
        acc = h_of[sigma]
        for tau in tgt.down_set(sigma, strict=True):
            acc = acc - solved[tau] * g_poly(tgt.interval(tau, sigma))
        solved[sigma] = acc
    rows = tuple((s, solved[s]) for s in sigmas)
    return LocalHTable(rows=rows, total=h_of[tgt.max_elt])


# -- the ab/cd -> Z[x] morphisms ------------------------------------------------


# f of every word walked so far and of each of its prefixes
_F = {"": UniPolynomial.one()}
_X_MINUS_1 = UniPolynomial((-1, 1))
_ONE_MINUS_X = UniPolynomial((1, -1))


def _f_word(word):
    """f(word) over a, b, c and d, stepped letter by letter from its
    longest prefix in _F.  With F = f(u) and G = g(u) for the prefix u of
    degree deg (d counts 2), c = a + b gives (x - 1) F + 2G, and
    d = ab + ba gives g(uc) + (x - 1) G."""
    k = len(word)
    while (f := _F.get(word[:k])) is None:
        k -= 1
    deg = k + word.count("d", 0, k)
    for i in range(k, len(word)):
        letter = word[i]
        g = (_ONE_MINUS_X * f).truncate(deg // 2)
        if letter == "b":
            f = g
        elif letter == "a":
            f = _X_MINUS_1 * f + g
        else:
            f = _X_MINUS_1 * f + g * 2
            if letter == "d":
                deg += 1
                f = (_ONE_MINUS_X * f).truncate(deg // 2) + _X_MINUS_1 * g
        deg += 1
        _F[word[:i + 1]] = f
    return f


def morphism_f(p):
    """Linear map with f(Psi_P) = f(Phi_P) = toric h of P; p is an ab- or
    a cd-polynomial."""
    return sum((_f_word(w) * c for w, c in p.terms.items()),
               UniPolynomial.zero())


def morphism_g(p):
    """Companion map with g(Psi_P) = g(Phi_P) = toric g of P, by
    g(w) = f(wb)."""
    return sum((_f_word(w + "b") * c for w, c in p.terms.items()),
               UniPolynomial.zero())


# -- correspondence with the cd decomposition ------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    rows: tuple          # (sigma, f(local ab), local h) triples
    rows_agree: bool
    top_identity: object   # Psi(source) = sum local-ab * Psi(upper); None
    bottom_identity: object  # toric h version; None when source unbounded

    def ok(self):
        return (self.rows_agree and self.top_identity is not False
                and self.bottom_identity is not False)


def verify_local_correspondence(m):
    """Check that the ab-level decomposition maps onto the local h one.

    Row by row, f applied to the local ab-index of the capped preimage must
    reproduce the local h-polynomial.  When both posets carry a formal
    maximum (sphere-style maps), the maximum's row is reported but excluded
    from the verdict: the ab-side local index of a capped identity is zero
    while the h-side row absorbs the balance of the defining recursion, and
    the two only cancel inside the summed identities.  When the source
    poset is bounded the summed decomposition identities are checked on
    both levels too (they need an ab-index of the source, hence a maximum).
    """
    require_valid(m, "strong_eulerian")
    src, tgt = m.source, m.target
    table = local_h(m)
    formal_top = tgt.max_elt if src.max_elt is not None else None
    local_ab = {sigma: local_index(m._capped_preimage(sigma)).ab
                for sigma, _ in table.rows}
    rows = []
    agree = True
    for sigma, ell in table.rows:
        image = morphism_f(local_ab[sigma])
        rows.append((sigma, image, ell))
        if sigma != formal_top:
            agree = agree and image == ell

    top = bottom = None
    if src.max_elt is not None and src.min_elt is not None:
        psi_total = 0
        h_total = UniPolynomial.zero()
        for sigma, ell in table.rows:
            psi_upper = ab_index(tgt.interval(sigma, tgt.max_elt))
            psi_total = local_ab[sigma] * psi_upper + psi_total
            if sigma != tgt.max_elt:
                h_total = h_total + ell * morphism_f(psi_upper)
        psi_src = ab_index(src)
        top = psi_total == psi_src
        bottom = h_total == morphism_f(psi_src)  # toric h of the source
    return CorrespondenceReport(tuple(rows), agree, top, bottom)
