"""Toric g/h-polynomials, local h-polynomials of strong formal subdivisions,
and the coproduct morphisms from ab- and cd-polynomials to Z[x].

Every toric polynomial is read off a flag index through the linear maps f
and g of Bayer and Ehrenborg: toric h of a bounded graded poset P is
f(Psi_P), and toric g of an Eulerian P is g(Psi_P), or f(Phi_P) and
g(Phi_P) off its cd-index.  As kappa kills every word with a b, the
coproduct definition f = kappa + (g (x) kappa) Delta collapses to two
letter rules, f(ub) = g(u) and f(ua) = (x - 1) f(u) + g(u), with g(u) the
truncation of (1 - x) f(u) at degree |u|/2, so g(w) = f(wb); extended
linearly to c = a + b and d = ab + ba they step cd-words too, on one memo
of f over the prefixes walked.  The coproduct route, the Psi route and the
recursions over lower intervals are test oracles in ``tests/conftest.py``.
h_poly and local_h build no poset: h of a poset or of a capped preimage is
f of its Psi, read off one dense chain DP over the poset or the source
through the mask, and g of each [tau, sigma] off a DP down from sigma.
verify_local_correspondence reads Phi of the source, not Psi, off
cd_index.  Only it and local_h import the subdivision module, when they
run, so toric h and g of a poset never load it.
"""
from __future__ import annotations

from .errors import NotLowerEulerian, Record, RequiresBounds
from .flagcd import (_ab_of, _beta, _chain_vectors, _intervals_below,
                     _masked, ab_index, cd_index)
from .ncpoly import UniPolynomial


def _require_lower_eulerian(p):
    if p.min_elt is None:
        raise NotLowerEulerian("toric h needs a poset with a minimum")
    if not p.is_lower_eulerian():
        raise NotLowerEulerian("some closed interval is not Eulerian")


def h_poly(p):
    """Toric h-polynomial of a lower Eulerian poset (all elements count).

    Read as if a maximum were adjoined, so the maximal elements must share
    one rank (NotGraded otherwise).
    """
    if not p.elements:
        return UniPolynomial.zero()
    _require_lower_eulerian(p)
    p.require_graded()
    chains = _chain_vectors(p._dn, p._levels, False)
    return _h_of(chains, p.top_rank, (1 << len(p)) - 1)


def _h_of(chains, n, keep):
    """h of the down-set keep of rank n: reversed f of Psi(keep + top)."""
    beta = _beta(n, _masked(chains, n, keep))
    return morphism_f(_ab_of(n, beta.values())).reverse(n)


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


class LocalHTable(Record):
    """Per-face local h-polynomials of a strong formal subdivision."""

    __slots__ = ("rows",   # (sigma, UniPolynomial) pairs in (rank, id) order
                 "total")

    def row(self, sigma):
        for s, poly in self.rows:
            if s == sigma:
                return poly
        raise KeyError(sigma)


def local_h(m):
    """Local h-polynomials of every target face.

    Solves the defining recursion h(capped preimage of sigma) = sum over
    tau <= sigma of l(tau) g([tau, sigma]) bottom-up in rank order.  The
    g([tau, sigma]) of every tau < sigma with l(tau) nonzero come from one
    sparse DP down from sigma.  The total is h of the top face.
    """
    from .subdivision import _by_rank, require_valid
    require_valid(m, "strong_formal")
    src, tgt = m.source, m.target
    if tgt.max_elt is None or tgt.min_elt is None:
        raise RequiresBounds("local h needs a bounded target")
    if not tgt.is_eulerian():
        raise NotLowerEulerian("local h needs an Eulerian target")
    _require_lower_eulerian(src)
    # each preimage ideal is a nonempty down-set of src, so it inherits
    # the minimum and lower Eulerian-ness checked above
    chains = _chain_vectors(src._dn, src._levels, False)
    ell, rows = {}, []
    for ix in _by_rank(tgt):  # every tau below ix comes first, the top last
        h = _h_of(chains, tgt._ranks[ix], m._preimage[ix])
        taus = [t for t in tgt._bits(tgt._dn[ix]) if ell[t]]
        phis = _intervals_below(tgt, ix, taus) if taus else ()
        ell[ix] = h - sum((ell[t] * morphism_g(phi)
                           for t, phi in zip(taus, phis)), UniPolynomial.zero())
        rows.append((tgt.elements[ix], ell[ix]))
    return LocalHTable(rows=tuple(rows), total=h)


# -- the ab/cd -> Z[x] morphisms ------------------------------------------------


# f of every prefix of at most 63 letters of each word walked so far
_F = {"": UniPolynomial.one()}
_MEMO_LETTERS = 63  # the longest word of a poset: rank 62, g's trailing b
_ONE_MINUS_X = UniPolynomial((1, -1))


def _f_word(word):
    """f(word) over a, b, c and d, stepped letter by letter from its
    longest prefix in _F.  With F = f(u), H = (1 - x) F and G = g(u) the
    truncation of H at half the degree of u (d counts 2), b gives G, a
    gives (x - 1) F + G = G - H, c = a + b gives 2G - H, and d = ab + ba
    gives g(uc) - (1 - x) G."""
    k = min(len(word), _MEMO_LETTERS)
    while (f := _F.get(word[:k])) is None:
        k -= 1
    deg = k + word.count("d", 0, k)
    for i in range(k, len(word)):
        letter = word[i]
        h = _ONE_MINUS_X * f
        g = h.truncate(deg // 2)
        if letter == "b":
            f = g
        elif letter == "a":
            f = g - h
        else:
            f = g * 2 - h
            if letter == "d":
                deg += 1
                f = (_ONE_MINUS_X * f).truncate(deg // 2) - _ONE_MINUS_X * g
        deg += 1
        if i < _MEMO_LETTERS:
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


class CorrespondenceReport(Record):
    __slots__ = (
        "rows",             # (sigma, f(local cd), local h) triples
        "top_identity",     # Phi(source) = sum local-cd * Phi(upper); None
        "bottom_identity")  # toric h version; None when source unbounded

    def ok(self):
        return (self.top_identity is not False
                and self.bottom_identity is not False)


def verify_local_correspondence(m):
    """Map the cd-level decomposition onto the local h one.

    Each row gives f of the local cd-index l of the capped preimage P of
    sigma beside its local h-polynomial.  Let Q be the semisuspension of
    P and D = [0, tau] below its restored coatom: l = Phi(Q) - Phi(D) c,
    Psi(Q) = Psi(P) + Psi(D) b, and with h and g toric, f's letter rules give
        f(Phi(Q)) = f(Psi(P)) + f(Psi(D) b) = h(P) + g(D),
        f(Phi(D) c) = f(Psi(D) a + Psi(D) b) = (x - 1) h(D) + 2 g(D),
        f(l) = h(P) - (x - 1) h(D) - g(D).
    Local h, rev h(P) less l(tau) g([tau, sigma]) below, is another
    quantity (x + 7x^2 + x^3 against f(l) = x + 11x^2 + x^3 at the top face
    of the barycentric 3-simplex), so the verdict reads only the summed
    identities, for a bounded source on its Phi from cd_index: validation
    found it Eulerian (the top face's preimage is all of it, and no
    preimage holds an unbalanced interval), so Psi = expand(Phi).
    """
    from .subdivision import _local_cds, _upper_cds, require_valid
    require_valid(m, "strong_eulerian")
    tgt = m.target
    table = local_h(m)
    local = _local_cds(m)
    rows = tuple((sigma, morphism_f(local[sigma]), ell)
                 for sigma, ell in table.rows)

    top = bottom = None
    if m.source.max_elt is not None:
        source_cd = cd_index(m.source)
        upper = _upper_cds(tgt)
        phi_total = sum(local[sigma] * upper[sigma] for sigma in local)
        h_total = sum((ell * morphism_f(upper[sigma])
                       for sigma, ell in table.rows if sigma != tgt.max_elt),
                      UniPolynomial.zero())
        top = phi_total == source_cd
        bottom = h_total == morphism_f(source_cd)  # toric h of the source
    return CorrespondenceReport(rows, top, bottom)
