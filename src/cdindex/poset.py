"""Finite graded posets and their constructive operators.

A poset is stored as a cover DAG over opaque string ids, with the order
cached as one bitmask row per element (its strict up-set and down-set),
built in one topological sweep that also settles the ranks.  The kernels
downstream visit only the set bits of these rows and count with popcounts.
A fresh poset is one constructor call, and one derived from another is one
``_sub`` call on the parent's rows.  A down-set with a top adjoined, such as
a subdivision's capped preimage, is never built: ``_below_top`` runs the
near-Eulerian test on the parent's rows and a mask.  The sweep also
keeps one mask per rank (``_levels``), which every per-rank read uses.  Two
memo slots keep the Eulerian scan's mask of unbalanced interval tops
(``_bad``: None until scanned, 0 when Eulerian), written only here, and
the cd-index (``_phi``), written by ``flagcd.cd_index``.
Gradedness is verified eagerly but a failure is recorded, not raised:
rank-dependent operations raise it.
"""
from __future__ import annotations

import itertools
import json

from .errors import (CycleDetected, DomainError, MissingBounds, NotGraded,
                     NotNearEulerian, RequiresBounds, RequiresMin)


class _JsonText:
    """Canonical byte-stable JSON text of to_json_obj, read back by
    from_json_obj."""

    __slots__ = ()

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))


class GradedPoset(_JsonText):
    """Finite poset with cached reachability and (when possible) ranks."""

    __slots__ = ("elements", "_idx", "cover_pairs", "_up", "_dn",
                 "_ranks", "_levels", "is_ranked", "is_graded", "min_elt",
                 "max_elt", "_bad", "_phi")

    def __init__(self, elements, covers):
        elements = tuple(str(e) for e in elements)
        if len(set(elements)) != len(elements):
            raise DomainError("element ids are not unique")
        self.elements = elements
        self._idx = {e: i for i, e in enumerate(elements)}
        n = len(elements)

        pairs = set()
        for lo, hi in covers:
            lo, hi = str(lo), str(hi)
            if lo not in self._idx or hi not in self._idx:
                raise DomainError("cover (%s, %s) references unknown id" % (lo, hi))
            if lo == hi:
                raise CycleDetected("cover loop at %s" % lo)
            pairs.add((self._idx[lo], self._idx[hi]))
        pairs = tuple(sorted(pairs))

        # one topological sweep (Kahn): an element is reached once all its
        # lower covers are, so its strict down row and its rank (the longest
        # chain from a minimal element) are final and pass to its upper covers
        up_adj = [[] for _ in range(n)]
        waiting = [0] * n
        for lo, hi in pairs:
            up_adj[lo].append(hi)
            waiting[hi] += 1
        order = [i for i in range(n) if not waiting[i]]
        dn, ranks = [0] * n, [0] * n
        for i in order:
            row, rank = dn[i] | 1 << i, ranks[i] + 1
            for j in up_adj[i]:
                dn[j] |= row
                if ranks[j] < rank:
                    ranks[j] = rank
                waiting[j] -= 1
                if not waiting[j]:
                    order.append(j)
        if len(order) != n:
            raise CycleDetected("cover relation contains a cycle")
        up = [0] * n
        for i in reversed(order):
            for j in up_adj[i]:
                up[i] |= up[j] | 1 << j
        self._up, self._dn = up, dn
        # the swept ranks are the unique candidate rank function, valid
        # when every cover raises it by one
        self._ranks = tuple(ranks)
        self._levels = [0] * (max(ranks, default=-1) + 1)
        for i, r in enumerate(ranks):
            self._levels[r] |= 1 << i
        self.is_ranked = all(ranks[hi] == ranks[lo] + 1 for lo, hi in pairs)
        if not self.is_ranked:
            # a given pair with an element strictly between its ends is
            # implied, not a cover; it spans two ranks or more, so a true
            # cover list never gets here
            pairs = tuple((lo, hi) for lo, hi in pairs if not up[lo] & dn[hi])
            self.is_ranked = all(ranks[hi] == ranks[lo] + 1
                                 for lo, hi in pairs)
        self.cover_pairs = pairs
        maximal = [i for i in range(n) if not up[i]]
        minimal = [i for i in range(n) if not dn[i]]
        self.is_graded = (self.is_ranked
                          and len({ranks[i] for i in maximal}) <= 1)
        self.min_elt = elements[minimal[0]] if len(minimal) == 1 else None
        self.max_elt = elements[maximal[0]] if len(maximal) == 1 else None
        self._bad = None  # _unbalanced_tops, once scanned
        self._phi = None  # flagcd.cd_index, once computed

    # -- basic queries ---------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        return e in self._idx

    def index(self, e):
        try:
            return self._idx[e]
        except KeyError:
            raise DomainError("unknown element %r" % (e,))

    def le(self, a, b):
        """a <= b in the order closure."""
        ia, ib = self.index(a), self.index(b)
        return ia == ib or bool(self._up[ia] >> ib & 1)

    def lt(self, a, b):
        return a != b and self.le(a, b)

    def covers(self, a, b):
        """b covers a."""
        ia, ib = self.index(a), self.index(b)
        return bool(self._up[ia] >> ib & 1 and not self._up[ia] & self._dn[ib])

    def up_set(self, a, strict=True):
        """Elements above a, as ids."""
        mask = self._up[self.index(a)]
        if not strict:
            mask |= 1 << self.index(a)
        return self._ids(mask)

    def down_set(self, a, strict=True):
        mask = self._dn[self.index(a)]
        if not strict:
            mask |= 1 << self.index(a)
        return self._ids(mask)

    def _ids(self, mask):
        return [self.elements[i] for i in self._bits(mask)]

    def rank(self, e):
        self._need_ranked()
        return self._ranks[self.index(e)]

    @property
    def top_rank(self):
        """Largest rank present; -1 for an empty poset."""
        self._need_ranked()
        return len(self._levels) - 1

    def level(self, r):
        """Ids at rank r, in element order."""
        self._need_ranked()
        return self._ids(self._levels[r]) if 0 <= r < len(self._levels) else []

    def _need_ranked(self):
        if not self.is_ranked:
            raise NotGraded("poset has no consistent rank function")

    def require_graded(self):
        if not self.is_graded:
            raise NotGraded("operation needs a graded poset")

    def require_bounds(self):
        self.require_graded()
        if self.min_elt is None or self.max_elt is None:
            raise RequiresBounds("operation needs both a 0 and a 1 element")

    def atoms(self):
        self.require_bounds()
        return self.level(1)

    def coatoms(self):
        self.require_bounds()
        return self.level(self.top_rank - 1)

    # -- subposets ---------------------------------------------------------

    def induced(self, ids):
        """Induced subposet; an id not in the poset raises DomainError."""
        return self._sub(sum(1 << i for i in {self.index(e) for e in ids}))

    def _sub(self, keep, capped=False):
        """The subposet on mask keep in element order, b covering a when b is
        above a but outside the up-rows of the kept elements above a; when
        capped, a fresh maximum TOP is adjoined in the same build."""
        els, up, bits = self.elements, self._up, self._bits
        kept = [els[i] for i in bits(keep)]
        top = _fresh(set(kept), "TOP") if capped else None
        covers = []
        for a in bits(keep):
            above = up[a] & keep
            ea = els[a]
            if capped and not above:
                covers.append((ea, top))
            beyond = 0
            for c in bits(above):
                beyond |= up[c]
            covers.extend((ea, els[b]) for b in bits(above & ~beyond))
        return GradedPoset(kept + [top] if capped else kept, covers)

    def interval(self, lo, hi):
        """The closed interval [lo, hi] as a fresh poset."""
        ilo, ihi = self.index(lo), self.index(hi)
        if not (ilo == ihi or self._up[ilo] >> ihi & 1):
            raise DomainError("%s is not below %s" % (lo, hi))
        q = self._sub((self._up[ilo] | 1 << ilo) & (self._dn[ihi] | 1 << ihi))
        q._bad = 0 if self._bad == 0 else None  # only Eulerian passes on
        return q

    def proper_part(self):
        """The poset minus its bounds; their bits are cleared, not toggled,
        as a one-element poset's bounds are one element."""
        self.require_bounds()
        bounds = 1 << self._idx[self.min_elt] | 1 << self._idx[self.max_elt]
        return self._sub(((1 << len(self)) - 1) & ~bounds)

    def without_max(self):
        if self.max_elt is None:
            raise MissingBounds("poset has no maximum")
        top = 1 << self._idx[self.max_elt]
        return self._sub(((1 << len(self)) - 1) & ~top)

    # -- chains ------------------------------------------------------------

    def maximal_chains(self):
        """Inclusion-maximal chains of the proper part (graded, bounded),
        walked up the cover lists from the minimum on an explicit stack."""
        self.require_bounds()
        els, top = self.elements, self._idx[self.max_elt]
        up_adj = [[] for _ in els]
        for lo, hi in self.cover_pairs:
            up_adj[lo].append(hi)
        out = []
        stack = [(j,) for j in up_adj[self._idx[self.min_elt]] if j != top]
        while stack:
            chain = stack.pop()
            above = [j for j in up_adj[chain[-1]] if j != top]
            if above:
                stack.extend(chain + (j,) for j in above)
            else:
                out.append(tuple(els[i] for i in chain))
        return out or [()]

    # -- predicates ----------------------------------------------------------

    def is_eulerian(self):
        """Every interval [s, t] with s < t has equally many elements of odd
        and even rank."""
        self.require_graded()
        if self.min_elt is None or self.max_elt is None:
            raise RequiresBounds("Eulerian test needs both bounds")
        return self.is_lower_eulerian()

    def is_lower_eulerian(self):
        """All closed intervals are Eulerian and a minimum exists."""
        if self.min_elt is None:
            raise RequiresMin("lower Eulerian test needs a minimum")
        self._need_ranked()
        return not self._unbalanced_tops()

    def _unbalanced_tops(self):
        """The mask of the tops of the unbalanced intervals, scanned once."""
        if self._bad is None:
            self._bad = _unbalanced(self._up, self._dn, self._ranks)
        return self._bad

    def is_lattice(self):
        """Any two elements have a least upper and greatest lower bound.
        Only joins are checked: with a minimum, the common lower bounds of
        any two elements are a nonempty set, and their join is the meet."""
        self.require_bounds()
        up, dn = self._up, self._dn
        for a, b in itertools.combinations(range(len(self.elements)), 2):
            above = (up[a] | 1 << a) & (up[b] | 1 << b)
            if sum(not dn[i] & above for i in self._bits(above)) != 1:
                return False
        return True

    @staticmethod
    def _bits(mask):
        """Indexes of the set bits of mask, lowest first."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self):
        covers = sorted((self.elements[lo], self.elements[hi])
                        for lo, hi in self.cover_pairs)
        return {"elements": sorted(self.elements),
                "covers": [list(c) for c in covers]}

    @classmethod
    def from_json_obj(cls, obj):
        if not (isinstance(obj, dict) and isinstance(obj.get("elements"), list)
                and isinstance(obj.get("covers"), list)):
            raise DomainError('a poset is an object with "elements" and '
                              '"covers" lists')
        covers = obj["covers"]
        if not all(isinstance(c, list) and len(c) == 2 for c in covers):
            raise DomainError("each cover must be a [lower, upper] pair")
        _require_json_ids([obj["elements"]], "element id")
        _require_json_ids(covers, "cover end")
        return cls(obj["elements"], covers)

    def __repr__(self):
        return "GradedPoset(%d elements, %d covers)" % (
            len(self.elements), len(self.cover_pairs))


def _unbalanced(up, dn, ranks):
    """Mask of the elements t that top an interval [s, t], s < t, of the
    closure rows up and dn with unequal counts of odd and even rank; the
    rows are Eulerian when it is 0."""
    # Only intervals of even length are scanned.  Let [s, t] have odd
    # length n, and let its proper subintervals be balanced, so that
    # mu(x, y) = (-1)^(rank y - rank x) on them.  With
    # E = sum of (-1)^(rank z - rank s) over z in [s, t], mu(s, t) is
    # -(E - (-1)^n) from the bottom and -(-1)^n (E - 1) from the top;
    # equating gives E (1 - (-1)^n) = 0, so E = 0.  By induction on the
    # length, every interval is balanced once the even ones are.
    even = sum(1 << i for i, r in enumerate(ranks) if r % 2 == 0)
    closed = [row | 1 << t for t, row in enumerate(dn)]
    bad = 0
    for s, row in enumerate(up):
        tops, row = row & (even if even >> s & 1 else ~even), row | 1 << s
        while tops:
            top = tops & -tops
            mask = row & closed[top.bit_length() - 1]
            if mask.bit_count() != (mask & even).bit_count() << 1:
                bad |= top
            tops ^= top
    return bad


_JSON_ID_TYPES = frozenset((str, int))  # type(True) is bool, not int


def _require_json_ids(groups, what):
    """Ids read from JSON, given as lists of them, are strings or integers:
    str() would quietly turn null, booleans, floats, lists and objects into
    ids.  The type test runs in C, since every decoded poset pays for it."""
    ids = itertools.chain.from_iterable
    if not _JSON_ID_TYPES.issuperset(map(type, ids(groups))):
        bad = next(v for v in ids(groups) if type(v) not in _JSON_ID_TYPES)
        raise DomainError("%s %s is not a string or an integer"
                          % (what, json.dumps(bad, default=repr)))


def _poset_from_obj(obj):
    """A JSON poset, or a JSON complex as its face poset with a maximum.
    The complexes module is imported only for a complex."""
    if isinstance(obj, dict):
        if "facets" in obj:
            from . import complexes
            return complexes.face_poset(complexes._json_facets(obj),
                                        with_max=True)
        if "elements" in obj:
            return GradedPoset.from_json_obj(obj)
    raise DomainError("input is neither a poset nor a complex")


# -- fresh-id helpers -------------------------------------------------------


def _fresh(taken, base):
    name = base
    while name in taken:
        name += "'"
    return name


# -- constructive operators -------------------------------------------------


def adjoin_max(p):
    """Adjoin a new maximum above every maximal element (the P_1 operator)."""
    return p._sub((1 << len(p)) - 1, capped=True)


def join(p, q):
    """The join P * Q: remove 1 of P and 0 of Q, put Q on top of P."""
    if p.max_elt is None:
        raise MissingBounds("left factor needs a maximum")
    if q.min_elt is None:
        raise MissingBounds("right factor needs a minimum")
    p_els = [e for e in p.elements if e != p.max_elt]
    q_els = [e for e in q.elements if e != q.min_elt]
    clash = set(p_els) & set(q_els)
    p_name = (lambda e: e) if not clash else (lambda e: "L:" + e)
    q_name = (lambda e: e) if not clash else (lambda e: "R:" + e)

    covers = []
    for lo, hi in p.cover_pairs:
        a, b = p.elements[lo], p.elements[hi]
        if a != p.max_elt and b != p.max_elt:
            covers.append((p_name(a), p_name(b)))
    for lo, hi in q.cover_pairs:
        a, b = q.elements[lo], q.elements[hi]
        if a != q.min_elt and b != q.min_elt:
            covers.append((q_name(a), q_name(b)))
    # the coatoms of P: strictly below the maximum alone; dually in Q
    p_top_bit = 1 << p.index(p.max_elt)
    q_bot_bit = 1 << q.index(q.min_elt)
    p_top = [e for i, e in enumerate(p.elements) if p._up[i] == p_top_bit]
    q_bot = [e for i, e in enumerate(q.elements) if q._dn[i] == q_bot_bit]
    covers += [(p_name(a), q_name(b)) for a in p_top for b in q_bot]
    return GradedPoset([p_name(e) for e in p_els] + [q_name(e) for e in q_els],
                       covers)


def suspension(p):
    """P * B_2; adds two incomparable coatoms below a new maximum."""
    if p.max_elt is None or p.min_elt is None:
        raise MissingBounds("suspension needs both bounds")
    taken = set(p.elements)
    u = _fresh(taken, "SUSP0")
    v = _fresh(taken | {u}, "SUSP1")
    top = _fresh(taken | {u, v}, "TOP")
    b2 = GradedPoset(["0", u, v, top],
                     [("0", u), ("0", v), (u, top), (v, top)])
    return join(p, b2)


def pyramid(p):
    """Pyr(P) = P x {0,1}, ordered componentwise."""
    if not p.is_ranked:
        raise NotGraded("pyramid needs a ranked poset")
    name = lambda e, t: "%s:%s" % (t, e)
    elements = [name(e, 0) for e in p.elements] + [name(e, 1) for e in p.elements]
    covers = []
    for lo, hi in p.cover_pairs:
        a, b = p.elements[lo], p.elements[hi]
        covers.append((name(a, 0), name(b, 0)))
        covers.append((name(a, 1), name(b, 1)))
    for e in p.elements:
        covers.append((name(e, 0), name(e, 1)))
    return GradedPoset(elements, covers)


def dual(p):
    """Order-reversal of P."""
    covers = [(p.elements[hi], p.elements[lo]) for lo, hi in p.cover_pairs]
    return GradedPoset(p.elements, covers)


def _below_coatom(p):
    """Mask D of the elements below the missing coatom of p: ``_below_top``
    with p's maximum as the top and the rest kept."""
    if p.max_elt is None:
        raise NotNearEulerian("semisuspension needs both bounds")
    return _below_top(p, ((1 << len(p)) - 1) ^ 1 << p._idx[p.max_elt])


def _below_top(p, keep):
    """Mask D below the missing coatom tau of keep + T, for a down-set keep
    of p and a top T; raises NotNearEulerian unless restoring tau gives an
    Eulerian poset Q.  tau covers the y under one element of keep, so D is
    their down-closure.  Q's intervals inside keep are p's, balanced when
    keep misses p's unbalanced tops (its memo, read once D is found), so
    only [s, tau] and [s, T] are counted.  Keep 0 is the point T.
    """
    up, dn, ranks = p._up, p._dn, p._ranks
    down = minimal = 0
    tops = set()  # the ranks of keep's maximal elements
    for i in p._bits(keep):
        above = up[i] & keep
        minimal += not dn[i]
        if not above:
            tops.add(ranks[i])
        elif not above & (above - 1):
            down |= dn[i] | 1 << i
    if keep and minimal != 1:
        raise NotNearEulerian("semisuspension needs both bounds")
    if not p.is_ranked or len(tops) > 1:
        raise NotNearEulerian("semisuspension needs a graded poset")
    if not keep:
        return 0
    # T counts sign and tau -sign, so [s, T] counts T alone for s not in D
    even = sum(p._levels[::2]) & keep
    odd, rank = keep ^ even, tops.pop()
    sign, same, other = (1, even, odd) if rank % 2 else (-1, odd, even)
    surplus = lambda row: (row & even).bit_count() - (row & odd).bit_count()
    if down and not keep & p._unbalanced_tops() and all(
            surplus(up[s] & keep | 1 << s) == (0 if down >> s & 1 else -sign)
            for s in p._bits(keep & same)) and all(
            surplus(up[s] & down | 1 << s) == sign
            for s in p._bits(down & other)):
        return down
    raise NotNearEulerian("adjoining the missing coatom is not Eulerian")


def _semisuspend(p):
    """Adjoin the missing coatom above the maximal elements of D and below
    the maximum; return (Eulerian poset, coatom id)."""
    down = _below_coatom(p)
    tau = _fresh(set(p.elements), "TAU")
    els, up = p.elements, p._up
    covers = [(els[lo], els[hi]) for lo, hi in p.cover_pairs]
    covers += [(els[i], tau) for i in p._bits(down) if not up[i] & down]
    covers += [(tau, p.max_elt)]
    q = GradedPoset(list(els) + [tau], covers)
    q._bad = 0
    return q, tau


def semisuspension(p):
    """The unique Eulerian poset obtained by restoring the deleted coatom."""
    return _semisuspend(p)[0]


def is_near_eulerian(p):
    """Operational test: the semisuspension would be Eulerian."""
    try:
        _below_coatom(p)
        return True
    except NotNearEulerian:
        return False


def boundary(p):
    """Boundary poset: P minus its maximum when P is Eulerian, else the
    interval [0, tau] of the semisuspension below its restored coatom tau."""
    try:
        eulerian = p.is_eulerian()
    except (RequiresBounds, NotGraded):
        eulerian = False
    if eulerian:
        return p.without_max()
    q, tau = _semisuspend(p)
    return q.interval(q.min_elt, tau)


def interior_elements(p):
    """Elements of a near-Eulerian poset not lying in its boundary."""
    down = _below_coatom(p)
    return [e for i, e in enumerate(p.elements) if not down >> i & 1]


# -- standard small posets ----------------------------------------------------


def boolean_poset(n):
    """The boolean algebra B_n on subsets of {1..n}."""
    if n < 0:
        raise DomainError("boolean rank must be >= 0")
    subsets = []
    for mask in range(1 << n):
        name = "{%s}" % ",".join(str(i + 1) for i in range(n) if mask >> i & 1)
        subsets.append((mask, name))
    covers = []
    for mask, name in subsets:
        for i in range(n):
            if not (mask >> i & 1):
                other = mask | 1 << i
                covers.append((name, subsets[other][1]))
    # subsets list is indexed by mask already
    return GradedPoset([name for _, name in subsets], covers)


def chain_poset(n):
    """A chain with n+1 elements (rank n)."""
    if n < 0:
        raise DomainError("chain length must be >= 0")
    els = ["c%d" % i for i in range(n + 1)]
    return GradedPoset(els, list(zip(els, els[1:])))
