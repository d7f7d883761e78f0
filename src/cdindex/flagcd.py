"""Flag enumeration: flag f/h-vectors, the ab- and cd-index, and the local
indexes of near-Eulerian posets.

One chain DP over the ranks above an element gives each element one
integer, a field per rank set counting the chains that end there: the sum
of the integers below it, shifted up.  A chain that ends in a down-set lies
in it, so ``_masked`` reads the flag f-vector of a down-set with a top
adjoined off one sum over the mask; a fresh poset is the whole mask.  Down
from an element top over the up-rows, ``_intervals_below`` reads Phi of
every interval [t, top] off one sparse DP, through the up-row of t.
``_peel_cd`` reads the cd-index of an Eulerian poset off the sparse rank
sets without rank 1, the only ones the sparse DP visits (Bayer-Billera
1985, Stanley 1994), and the local cd-index Phi(Q) - Phi([0, tau]) c of a
near-Eulerian poset off the same counts, over all and over the elements
below tau; ``to_cd`` serves the rest.  ``cd_index`` remembers Phi, off which
``ab_index`` of a poset known to be Eulerian lists beta by rank set; any
other takes the dense 2^n DP, as ``flag_f`` does.
"""
from __future__ import annotations

from . import poset as ps
from .errors import DomainError, NotNearEulerian, RankTooLarge, Record
from .ncpoly import (AB_B, AB_C, AbPolynomial, CdPolynomial, _expand_masks,
                     _peel_cd, _sparse_masks, expand_cd, substitute, to_cd)

_words = ("",)  # the 2^n ab-words of the last n given to _ab_of


class FlagVector(Record):
    """Counts indexed by rank subsets of {1..n}, stored under bitmasks."""

    __slots__ = ("n", "values")

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


def _chain_counts(p, sparse=False):
    """(n, {mask: chain count}) over all rank sets of {1..n}, or the sparse
    ones of {2..n}, for p of proper rank n."""
    p.require_bounds()
    n = p.top_rank - 1
    if n < 0:
        raise DomainError("rank-0 poset has no flag vector")
    chains = _chain_vectors(p._dn, p._levels[:n + 1], sparse)
    return n, _masked(chains, n, (1 << len(p)) - 1)


def _chain_vectors(dn, levels, sparse=True):
    """The chain DP by the down-rows dn over levels[1..n], the elements 1..n
    ranks from a base element, packed; up-rows give the dual's DP.

    The rank sets of {1..n}, or the sparse ones of {2..n} (the peel never
    reads rank 1, so level 1 is skipped), take slots in mask order or
    ``_sparse_masks(n - 1)`` order shifted a rank, tops rising: slot(S +
    {r}) = ends[r - 1] + slot(S).  Element i at level r holds 1 plus those
    below it at levels gap..r - gap (gap 2 when sparse), shifted up
    ends[r - 1] fields: its field at slot(S) counts the chains through
    exactly S ending at i, fewer than the product of (level size + 1) over
    the kept levels, so no sum carries.  Returns (integers, bytes, masks)."""
    n, gap, bound = len(levels) - 1, 2 if sparse else 1, 1
    if n > 62:
        raise RankTooLarge("proper rank %d exceeds 62" % n)
    for level in levels[gap:]:
        bound *= level.bit_count() + 1
    width = (bound.bit_length() + 7) // 8
    ends, reach, packed = [1] * gap, [0] * gap, [0] * len(dn)
    for r in range(gap, n + 1):
        below, shift = reach[max(r - gap, 0)], 8 * width * ends[-1]
        ends.append(ends[-1] + ends[max(r - gap, 0)])
        reach.append(reach[-1] | levels[r])
        for i in ps.GradedPoset._bits(levels[r]):
            acc, rest = 1, dn[i] & below
            while rest:
                bit = rest & -rest
                acc += packed[bit.bit_length() - 1]
                rest ^= bit
            packed[i] = acc << shift
    masks = [m << 1 for m in _sparse_masks(n - 1)] if sparse else range(1 << n)
    return packed, width, masks


def _masked(chains, n, keep):
    """{S: count} over the rank sets S of {1..n} of the chains that end in
    keep, a down-set, and so lie in it: the integers summed over keep."""
    packed, width, masks = chains
    total = sum(map(packed.__getitem__, ps.GradedPoset._bits(keep)), 1)
    raw = total.to_bytes(len(masks) * width, "little")
    return {mask: int.from_bytes(raw[k * width:(k + 1) * width], "little")
            for k, mask in enumerate(masks) if not mask >> n}


def _local_cd(chains, n, keep, down):
    """(l_P, Phi([0, tau])) of the near-Eulerian P = keep + T of proper rank
    n, with D below the restored coatom tau: f^D is f of [0, tau], and
    f_S(Q) = f_S(P) + [n in S] f^D(S - {n}) for the semisuspension Q."""
    f, inner = _masked(chains, n, keep), _masked(chains, n, down)
    top = 1 << (n - 1)
    bd_cd = _peel_cd(n - 1, inner)
    phi_q = _peel_cd(n, {s: v + inner[s ^ top] if s & top else v
                         for s, v in f.items()})
    return phi_q - bd_cd * CdPolynomial.monomial("c"), bd_cd


def _intervals_below(p, top, ends):
    """Phi([t, top]) of each t in ends, [t, top] Eulerian, off one sparse
    chain DP down from top over the up-rows, each level masked by the
    down-row of top: the cd-index of the dual of [t, top], read through the
    up-row of t, each word reversed; 0 for t = top."""
    rank, below, out = p._ranks[top], p._dn[top], []
    spans = [rank - p._ranks[t] - 1 for t in ends]  # the proper ranks
    levels = p._levels[rank - max([0, *spans]):rank + 1][::-1]
    chains = _chain_vectors(p._up, [lv & below for lv in levels], True)
    for k, t in zip(spans, ends):
        dual = (_peel_cd(k, _masked(chains, k, p._up[t])) if k >= 0
                else CdPolynomial.zero())
        out.append(CdPolynomial({w[::-1]: c for w, c in dual.terms.items()}))
    return out


def flag_f(p):
    """Chain counts per rank set, by DP over consecutive selected levels."""
    return FlagVector(*_chain_counts(p))


def flag_h(p):
    """Inclusion-exclusion transform of the flag f-vector."""
    fv = flag_f(p)
    return FlagVector(fv.n, _beta(fv.n, fv.values))


def _beta(n, alpha):
    beta = dict(alpha)
    for b in range(n):
        bit = 1 << b
        for mask in range(1 << n):
            if mask & bit:
                beta[mask] -= beta[mask ^ bit]
    return beta


def _ab_sum(p, vector):
    """Sum of vector(p)[S] u_S; doubling spells each u_S at index S."""
    p.require_bounds()
    if p.top_rank == 0:
        return AbPolynomial.zero()
    return _ab_of(p.top_rank - 1, vector(p).values.values())


def _ab_of(n, values):
    """Sum of values[S] u_S over the 2^n rank sets S, listed in mask order;
    the words are spelled once per n: ``_words`` keeps the last n's."""
    global _words
    if len(_words) != 1 << n:
        words = [""]
        for _ in range(n):
            words = [w + "a" for w in words] + [w + "b" for w in words]
        _words = tuple(words)
    return AbPolynomial(dict(zip(_words, values)))


def flag_polynomial(p):
    """Upsilon_P: sum of alpha(S) u_S over rank sets S."""
    return _ab_sum(p, flag_f)


def ab_index(p):
    """Psi_P: sum of beta(S) u_S over rank sets S.

    A poset already known to be Eulerian (its ``_bad`` memo 0, set by a
    scan or inherited by an interval) expands Phi over its 2^n rank sets;
    any other runs the dense flag_h DP.  No scan runs here.
    """
    if p._bad == 0:
        phi, n = cd_index(p), p.top_rank - 1  # Psi of a point is 0
        return _ab_of(n, _expand_masks(n, phi)) if n >= 0 else AbPolynomial()
    return _ab_sum(p, flag_h)


class LocalIndex(Record):
    """Local cd-index of a near-Eulerian poset; ab and flag are its images
    (see ``local_index``)."""

    __slots__ = ("cd",)

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
    raises NotNearEulerian for any other p."""
    down, n = ps._below_coatom(p), p.top_rank - 1
    chains = _chain_vectors(p._dn, p._levels[:n + 1])
    return _local_cd(chains, n, (1 << len(p)) - 1, down)


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
