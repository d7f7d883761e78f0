"""Flag enumeration: flag f/h-vectors, the ab- and cd-index, and the local
indexes of near-Eulerian posets.

The flag f-vector is computed by a rank-stratified DP over down-lists read
from the cached order-closure bitmasks rather than by listing chains; chain
enumeration is the independent oracle in the tests.

The cd-index of an Eulerian poset of proper rank n is determined by its
flag f-vector on the sparse rank sets, those with no two consecutive ranks
(Bayer-Billera, Invent. Math. 1985; Stanley, "Flag f-vectors and the
cd-index", Math. Z. 1994).  The DP runs over the F(n+2) sparse subsets of
{1..n} only (89 against 2^9 = 512 at n = 9), and ``ncpoly._peel_cd`` reads
Phi off them, with integers only.  The local cd-index of a near-Eulerian
poset P, Phi(Q) - Phi([0, tau]) c for its semisuspension Q and restored
coatom tau, takes two peels of one sparse DP over P that also counts the
chains below tau, building neither Q nor [0, tau]; a local index stores
only it.  ``to_cd`` serves only the posets neither Eulerian nor
near-Eulerian.  ``cd_index`` remembers Phi on the poset (its ``_phi``
slot), where the toric g and h of an Eulerian poset read it.  ``ab_index``
of a poset already known to be Eulerian expands that Phi.  It never runs an
Eulerian scan itself: any other poset takes the dense 2^n DP, which
``flag_f``, ``flag_h`` and ``flag_polynomial`` always run.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import poset as ps
from .errors import DomainError, NotNearEulerian, RankTooLarge
from .ncpoly import (AB_B, AB_C, AbPolynomial, CdPolynomial, _peel_cd,
                     _sparse_masks, expand_cd, substitute, to_cd)


@dataclass(frozen=True)
class FlagVector:
    """Counts indexed by rank subsets of {1..n}, stored under bitmasks."""

    n: int
    values: dict

    def __getitem__(self, ranks):
        if isinstance(ranks, int):
            return self.values.get(ranks, 0)
        return self.values.get(self.mask(ranks), 0)

    def mask(self, ranks):
        m = 0
        for r in ranks:
            if not 1 <= r <= self.n:
                raise DomainError("rank %d outside 1..%d" % (r, self.n))
            m |= 1 << (r - 1)
        return m

    @staticmethod
    def ranks_of(mask):
        return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)

    def items_by_ranks(self):
        """(rank tuple, value) pairs sorted by (size, ranks)."""
        out = [(self.ranks_of(m), v) for m, v in self.values.items()]
        out.sort(key=lambda it: (len(it[0]), it[0]))
        return out

    def to_json_obj(self):
        return {"{%s}" % ",".join(str(r) for r in ranks): v
                for ranks, v in self.items_by_ranks()}


def _proper_levels(p):
    p.require_bounds()
    n = p.top_rank - 1
    if n < 0:
        raise DomainError("rank-0 poset has no flag vector")
    if n > 62:
        raise RankTooLarge("proper rank %d exceeds 62" % n)
    levels = {r: [p.index(e) for e in p.level(r)] for r in range(1, n + 1)}
    return n, levels


def _chain_counts(p, sparse=False, inner=0):
    """(n, {mask: chain count}) over every rank set of {1..n}, or over the
    sparse ones (no two consecutive ranks) when sparse is set.  Given a
    nonzero bitmask inner of elements, a third dict counts the chains in it.

    vec[mask][k] counts the chains through exactly the ranks in mask that
    end at the k-th element of its top rank; each step sums the previous
    level's vector over one down-list read once from the closure rows.
    Dropping the top rank of a sparse set leaves a sparse set, so the
    sparse walk reads only sparse masks and level pairs at least two apart.
    """
    n, levels = _proper_levels(p)
    dn, bits = p._dn, p._bits
    level_mask = {r: sum(1 << i for i in ids) for r, ids in levels.items()}
    pos = {i: k for ids in levels.values() for k, i in enumerate(ids)}
    # below[r][s][k]: positions at level s under the k-th element of level r
    below = {r: {s: [[pos[j] for j in bits(dn[i] & level_mask[s])]
                     for i in levels[r]]
                 for s in range(1, r - 1 if sparse else r)}
             for r in levels}
    if sparse:
        masks = _sparse_masks(n)
        vec = {}
    else:
        masks = range(1 << n)
        vec = [None] * (1 << n)
    values, inner_values = {0: 1}, {0: 1}
    inside = inner and {r: [pos[i] for i in bits(inner & m)]
                        for r, m in level_mask.items()}
    for mask in masks[1:]:
        top = mask.bit_length()  # highest selected rank
        rest = mask & ~(1 << (top - 1))
        if not rest:
            out = [1] * len(levels[top])
        else:
            prev = vec[rest]
            out = [sum([prev[j] for j in lst])
                   for lst in below[top][rest.bit_length()]]
        vec[mask] = out
        values[mask] = sum(out)
        if inside:
            inner_values[mask] = sum([out[k] for k in inside[top]])
    return (n, values, inner_values) if inside else (n, values)


def flag_f(p):
    """Chain counts per rank set, by DP over consecutive selected levels."""
    return FlagVector(*_chain_counts(p))


def flag_h(p):
    """Inclusion-exclusion transform of the flag f-vector."""
    fv = flag_f(p)
    beta = dict(fv.values)
    for b in range(fv.n):
        bit = 1 << b
        for mask in range(1 << fv.n):
            if mask & bit:
                beta[mask] -= beta[mask ^ bit]
    return FlagVector(fv.n, beta)


def _ab_sum(p, vector):
    """Sum of vector(p)[S] u_S; doubling spells each u_S at index S."""
    p.require_bounds()
    if p.top_rank == 0:
        return AbPolynomial.zero()
    fv = vector(p)
    words = [""]
    for _ in range(fv.n):
        words = [w + "a" for w in words] + [w + "b" for w in words]
    return AbPolynomial({words[m]: c for m, c in fv.values.items()})


def flag_polynomial(p):
    """Upsilon_P: sum of alpha(S) u_S over rank sets S."""
    return _ab_sum(p, flag_f)


def ab_index(p):
    """Psi_P: sum of beta(S) u_S over rank sets S.

    A poset already known to be Eulerian (its ``_balanced`` verdict, set by
    a scan or inherited by an interval) gives Phi expanded by c -> a + b,
    d -> ab + ba; any other runs the dense flag_h DP.  No scan runs here.
    """
    if p._balanced:
        return expand_cd(cd_index(p))
    return _ab_sum(p, flag_h)


@dataclass(frozen=True)
class LocalIndex:
    """Local cd-index of a near-Eulerian poset; ab and flag are its images
    (see ``local_index``)."""

    cd: CdPolynomial

    @property
    def ab(self):
        return expand_cd(self.cd)

    @property
    def flag(self):
        return substitute(self.ab, AB_C, AB_B)


def local_index(p):
    """Local indexes of a near-Eulerian poset.

    The local cd-index is l_P = Phi(Q) - Phi(boundary) * c, where Q is the
    semisuspension and the boundary its interval [0, tau] below the
    restored coatom.  Only l_P is stored: the local ab-index is its image
    under c -> a + b, d -> ab + ba, and the local flag polynomial
    Upsilon(P) - Upsilon(boundary with a max adjoined) that of the ab-index
    under a -> a + b.
    """
    p.require_graded()
    if len(p.elements) in (1, 2) and p.top_rank == len(p.elements) - 1:
        # a point or a two-chain, the capped preimage of a minimal element,
        # has no semisuspension; local index 1 closes the decomposition
        # identity (the bottom row counts the base cd-index once)
        return LocalIndex(cd=CdPolynomial.one())
    return LocalIndex(cd=_local_and_boundary(p)[0])


def _local_and_boundary(p):
    """(l_P, Phi([0, tau])) of a near-Eulerian p by one sparse DP over p;
    raises NotNearEulerian for any other p.  With D the elements below the
    restored coatom tau (at the coatom rank n), f^D counts the chains in D,
    which is f of [0, tau], and f_S(Q) = f_S(P) + [n in S] f^D(S - {n}) for
    the semisuspension Q.  Both peel, as Q and [0, tau] are Eulerian."""
    n, f, inner = _chain_counts(p, sparse=True, inner=ps._below_coatom(p))
    top = 1 << (n - 1)
    bd_cd = _peel_cd(n - 1, inner)
    phi_q = _peel_cd(n, {s: v + inner[s ^ top] if s & top else v
                         for s, v in f.items()})
    return phi_q - bd_cd * CdPolynomial.monomial("c"), bd_cd


def cd_index(p):
    """cd-index of an Eulerian poset, or the non-homogeneous cd-index of a
    near-Eulerian one (local part plus boundary part).

    The result is remembered on p, so toric_h and g_poly of one poset, or
    a second cd_index, run no DP again.
    """
    p.require_bounds()
    if p._phi is None:
        p._phi = _cd_index(p)
    return p._phi


def _cd_index(p):
    if p.top_rank == 0:
        return CdPolynomial.zero()
    if p.is_eulerian():
        return _peel_cd(*_chain_counts(p, sparse=True))
    try:
        local, bd_cd = _local_and_boundary(p)
    except NotNearEulerian:
        # neither; let the rewriting fail and report the residual
        return to_cd(ab_index(p))
    return local + bd_cd
