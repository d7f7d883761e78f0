"""Finite graded posets and their constructive operators.

A poset is stored as a cover DAG over opaque string ids, with the order
cached as one bitmask row per element (its strict up-set and down-set),
built in one topological sweep that also settles the ranks.  The kernels
downstream visit only the set bits of these rows and count with popcounts.
Every poset is one ``_build`` from its ids and each element's ascending
upper-cover index list, which sets every field.  A poset given as strings
goes through the constructor's string intake, which makes those lists;
every other constructor hands ``_build`` the lists as it makes them, and
a sub-poset of another is one ``_sub`` call on the parent's rows.  A
down-set with a top adjoined, such as a subdivision's capped preimage, is
never built: ``_below_top`` runs the near-Eulerian test on the parent's
rows and a mask.  The sweep also keeps one mask per rank (``_levels``),
which every per-rank read uses.  Face posets of complexes (a complex-form
JSON input is decoded to one) and their ids are built here too.  Two memo
slots keep the Eulerian scan's mask of unbalanced interval tops (``_bad``:
None until scanned, 0 when Eulerian; written only here, and filled as a
face poset is built, its intervals below the top being Boolean) and the
cd-index (``_phi``), written by ``flagcd.cd_index``.
Gradedness is verified eagerly but a failure is recorded, not raised:
rank-dependent operations raise it.
"""
from __future__ import annotations

import itertools
import json

from .errors import (CycleDetected, DomainError, NotGraded, NotNearEulerian,
                     RequiresBounds)


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
        """The string intake: ids and (lower, upper) id pairs, checked and
        read into each element's ascending upper-cover index list for
        _build; a repeated pair counts once."""
        elements = tuple(str(e) for e in elements)
        idx = dict(zip(elements, range(len(elements))))
        if len(idx) != len(elements):
            raise DomainError("element ids are not unique")
        up_adj = [set() for _ in elements]
        for lo, hi in covers:
            lo, hi = str(lo), str(hi)
            if lo not in idx or hi not in idx:
                raise DomainError("cover (%s, %s) references unknown id" % (lo, hi))
            if lo == hi:
                raise CycleDetected("cover loop at %s" % lo)
            up_adj[idx[lo]].add(idx[hi])
        self._build(elements, [sorted(row) for row in up_adj])

    def _build(self, elements, up_adj):
        """Set every field from the ids and, per element, the ascending
        indexes of the elements given as its upper covers; returns self."""
        n = len(elements)
        self.elements = elements = tuple(elements)
        self._idx = dict(zip(elements, range(n)))
        # one topological sweep (Kahn): an element is reached once all its
        # lower covers are, so its strict down row and its rank (the longest
        # chain from a minimal element) are final and pass to its upper covers
        waiting = [0] * n
        for row in up_adj:
            for j in row:
                waiting[j] += 1
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
        pairs = [(lo, hi) for lo, row in enumerate(up_adj) for hi in row]
        self.is_ranked = all(ranks[hi] == ranks[lo] + 1 for lo, hi in pairs)
        if not self.is_ranked:
            # a given pair with an element strictly between its ends is
            # implied, not a cover; it spans two ranks or more, so a true
            # cover list never gets here
            pairs = [(lo, hi) for lo, hi in pairs if not up[lo] & dn[hi]]
            self.is_ranked = all(ranks[hi] == ranks[lo] + 1
                                 for lo, hi in pairs)
        self.cover_pairs = tuple(pairs)
        maximal = [i for i in range(n) if not up[i]]
        minimal = [i for i in range(n) if not dn[i]]
        self.is_graded = (self.is_ranked
                          and len({ranks[i] for i in maximal}) <= 1)
        self.min_elt = elements[minimal[0]] if len(minimal) == 1 else None
        self.max_elt = elements[maximal[0]] if len(maximal) == 1 else None
        self._bad = None  # _unbalanced_tops, once scanned
        self._phi = None  # flagcd.cd_index, once computed
        return self

    def _cover_lists(self):
        """Each element's upper covers, as ascending index lists."""
        rows = [[] for _ in self.elements]
        for lo, hi in self.cover_pairs:
            rows[lo].append(hi)
        return rows

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

    def coatoms(self):
        self.require_bounds()
        return self.level(self.top_rank - 1)

    # -- subposets ---------------------------------------------------------

    def induced(self, ids):
        """Induced subposet; an id not in the poset raises DomainError."""
        return self._sub(sum(1 << i for i in {self.index(e) for e in ids}))

    def _sub(self, keep):
        """The subposet on mask keep in element order, b covering a when b is
        above a but outside the up-rows of the kept elements above a."""
        up, bits = self._up, self._bits
        kept = list(bits(keep))
        at = {a: k for k, a in enumerate(kept)}  # monotone, so rows ascend
        up_adj = []
        for a in kept:
            above = up[a] & keep
            beyond = 0
            for c in bits(above):
                beyond |= up[c]
            up_adj.append([at[b] for b in bits(above & ~beyond)])
        return _from_adj([self.elements[a] for a in kept], up_adj)

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
            raise RequiresBounds("poset has no maximum")
        top = 1 << self._idx[self.max_elt]
        return self._sub(((1 << len(self)) - 1) & ~top)

    # -- chains ------------------------------------------------------------

    def maximal_chains(self):
        """Inclusion-maximal chains of the proper part (graded, bounded),
        walked up the cover lists from the minimum on an explicit stack."""
        self.require_bounds()
        els, top = self.elements, self._idx[self.max_elt]
        up_adj = self._cover_lists()
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
            raise RequiresBounds("lower Eulerian test needs a minimum")
        self._need_ranked()
        return not self._unbalanced_tops()

    def _unbalanced_tops(self):
        """The mask of the tops of the unbalanced intervals, scanned once."""
        if self._bad is None:
            self._bad = _unbalanced(self._up, self._dn, self._ranks)
        return self._bad

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


def _unbalanced(up, dn, ranks, tops=-1):
    """Mask of the elements t in tops (all by default) that top an interval
    [s, t], s < t, of the closure rows up and dn with unequal counts of odd
    and even rank; the rows are Eulerian when the full scan gives 0."""
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
        ends = row & tops & (even if even >> s & 1 else ~even)
        row |= 1 << s
        while ends:
            top = ends & -ends
            mask = row & closed[top.bit_length() - 1]
            if mask.bit_count() != (mask & even).bit_count() << 1:
                bad |= top
            ends ^= top
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
    """A JSON poset, or a JSON complex as its face poset with a maximum,
    built here from the facet lists: no SimplicialComplex is made."""
    if isinstance(obj, dict):
        if "facets" in obj:
            return face_poset(_json_facets(obj), with_max=True)
        if "elements" in obj:
            return GradedPoset.from_json_obj(obj)
    raise DomainError("input is neither a poset nor a complex")


def _from_adj(elements, up_adj):
    """A poset from its ids and each element's ascending upper-cover index
    list: one _build, past the string intake."""
    return GradedPoset.__new__(GradedPoset)._build(elements, up_adj)


# -- face posets ------------------------------------------------------------


_ESCAPE = str.maketrans({ch: "\\" + ch for ch in "\\,{}"})


def _spell(name):
    """A vertex name as face ids write it: a backslash before each
    backslash, comma and brace, and the empty name as a backslash and 0,
    which no escape writes, so that {""} is not the empty face's {}."""
    return name.translate(_ESCAPE) if name else "\\0"


def face_id(face):
    """Canonical string id of a face: its sorted vertex names, spelled by
    _spell, in braces."""
    return "{%s}" % ",".join(map(_spell, sorted(face)))


def _json_facets(obj):
    """The facet lists of a JSON complex, checked as the decoders need."""
    facets = obj.get("facets") if isinstance(obj, dict) else None
    if not (isinstance(facets, list)
            and all(isinstance(f, list) for f in facets)):
        raise DomainError('a complex is an object with a "facets" list '
                          'of vertex lists')
    _require_json_ids(facets, "facet vertex")
    return facets


def face_poset(k, with_max=False):
    """Face poset of a complex, or of the one whose faces are the subsets
    of the given vertex lists, in (size, sorted names) order: with vertex i
    of n sorted names as the bit 1 << (n-1-i), (size, descending mask).
    The faces are the submasks of the given sets taken largest first; those
    not yet reached are the facets.  with_max adjoins TOP above the facets
    (or the empty face) in the same build; ids have braces, so it is fresh."""
    given = [{str(v) for v in f} for f in getattr(k, "facets", k)]
    bit = {v: 1 << i
           for i, v in enumerate(sorted(set().union(*given), reverse=True))}
    escaped = {b: _spell(v) for v, b in bit.items()}
    faces, facets = {0}, []
    for f in sorted({sum(map(bit.get, f)) for f in given},
                    key=int.bit_count, reverse=True):
        if f not in faces:
            facets.append(f)
            sub = f
            while sub:
                faces.add(sub)
                sub = (sub - 1) & f
    # a face is appended to its lower covers' rows as it gets its index, so
    # every row ascends
    at, elements, up_adj = {0: 0}, ["{}"], [[]]
    order = sorted(faces, key=lambda f: (f.bit_count(), -f))
    for j, f in enumerate(order[1:], 1):
        last = f & -f
        rest = f ^ last
        elements.append(elements[at[rest]][:-1] + ("," if rest else "")
                        + escaped[last] + "}")
        at[f] = j
        up_adj.append([])
        up_adj[at[rest]].append(j)
        while rest:
            low = rest & -rest
            up_adj[at[f ^ low]].append(j)
            rest ^= low
    if with_max:
        for f in facets or [0]:
            up_adj[at[f]].append(len(elements))
        elements.append("TOP")
        up_adj.append([])
    p = _from_adj(elements, up_adj)
    # The Eulerian memo, filled here: faces s < t span the Boolean interval
    # of s with any subset of t \ s added, whose sizes are as often odd as
    # even, since the sum of (-1)^|u| over subsets u of t \ s is 0.  So
    # every interval is balanced but those ending at TOP, which alone are
    # scanned; the full scan stays the tests' oracle.
    p._bad = (_unbalanced(p._up, p._dn, p._ranks, 1 << len(faces))
              if with_max else 0)
    return p


# -- fresh-id helpers -------------------------------------------------------


def _fresh(taken, base):
    name = base
    while name in taken:
        name += "'"
    return name


# -- constructive operators -------------------------------------------------


def adjoin_max(p):
    """Adjoin a new maximum above every maximal element (the P_1 operator)."""
    return _adjoin(p, (1 << len(p)) - 1, "TOP", [])[0]


def _adjoin(p, keep, base, covers):
    """p with a fresh element, named from base, above the maximal elements
    of mask keep and below the indexes covers, in one build; returns the
    poset and the new id."""
    rows = p._cover_lists()
    for i in p._bits(keep):
        if not p._up[i] & keep:
            rows[i].append(len(rows))  # the new element, the last index
    name = _fresh(set(p.elements), base)
    return _from_adj(p.elements + (name,), rows + [covers]), name


def join(p, q):
    """The join P * Q: remove 1 of P and 0 of Q, put Q on top of P."""
    if p.max_elt is None:
        raise RequiresBounds("left factor needs a maximum")
    if q.min_elt is None:
        raise RequiresBounds("right factor needs a minimum")
    top, bot = p._idx[p.max_elt], q._idx[q.min_elt]
    p_els = [e for i, e in enumerate(p.elements) if i != top]
    q_els = [e for j, e in enumerate(q.elements) if j != bot]
    if set(p_els) & set(q_els):
        p_els = ["L:" + e for e in p_els]
        q_els = ["R:" + e for e in q_els]
    # P keeps its indexes below its maximum, one less above it; Q follows,
    # likewise without its minimum
    at_q = lambda j: len(p_els) + j - (j > bot)
    # the coatoms of P: strictly below the maximum alone; dually in Q; a
    # coatom's only cover is the maximum, so its row is Q's atoms
    atoms = [at_q(j) for j, row in enumerate(q._dn) if row == 1 << bot]
    up_adj = [atoms if p._up[i] == 1 << top else
              [h - (h > top) for h in row if h != top]
              for i, row in enumerate(p._cover_lists()) if i != top]
    up_adj += [[at_q(h) for h in row]
               for j, row in enumerate(q._cover_lists()) if j != bot]
    return _from_adj(p_els + q_els, up_adj)


def suspension(p):
    """P * B_2; adds two incomparable coatoms below a new maximum."""
    if p.max_elt is None or p.min_elt is None:
        raise RequiresBounds("suspension needs both bounds")
    taken = set(p.elements)
    u = _fresh(taken, "SUSP0")
    v = _fresh(taken | {u}, "SUSP1")
    top = _fresh(taken | {u, v}, "TOP")
    return join(p, _from_adj(["0", u, v, top], [[1, 2], [3], [3], []]))


def pyramid(p):
    """Pyr(P) = P x {0,1}, ordered componentwise: element i of P is i on
    the bottom copy and i + n on the top one."""
    if not p.is_ranked:
        raise NotGraded("pyramid needs a ranked poset")
    n, rows = len(p), p._cover_lists()
    elements = (["0:%s" % e for e in p.elements]
                + ["1:%s" % e for e in p.elements])
    up_adj = [row + [i + n] for i, row in enumerate(rows)]
    up_adj += [[j + n for j in row] for row in rows]
    return _from_adj(elements, up_adj)


def dual(p):
    """Order-reversal of P."""
    rows = [[] for _ in p.elements]
    for lo, hi in p.cover_pairs:  # in lo order, so each row ascends
        rows[hi].append(lo)
    return _from_adj(p.elements, rows)


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
    q, tau = _adjoin(p, _below_coatom(p), "TAU", [p._idx[p.max_elt]])
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
    """The boolean algebra B_n on subsets of {1..n}, indexed by mask."""
    if n < 0:
        raise DomainError("boolean rank must be >= 0")
    masks = range(1 << n)
    names = ["{%s}" % ",".join(str(i + 1) for i in range(n) if mask >> i & 1)
             for mask in masks]
    return _from_adj(names, [[mask | 1 << i for i in range(n)
                              if not mask >> i & 1] for mask in masks])


def chain_poset(n):
    """A chain with n+1 elements (rank n)."""
    if n < 0:
        raise DomainError("chain length must be >= 0")
    return _from_adj(["c%d" % i for i in range(n + 1)],
                     [[i + 1] for i in range(n)] + [[]])
