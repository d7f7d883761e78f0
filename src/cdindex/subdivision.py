"""Subdivision maps between posets: validation, restriction, skeletal
decomposition, and the constructive cd-index decomposition.

A subdivision map carries each element of the source poset to the minimal
target element containing it.  decompose_cd and local_h validate the map
once per call, as their identities are theorems only for maps that pass
validation.  The constructor keeps the preimage of each face, the source
elements carried into its closed down-set, as a mask that every later
step reads.  No capped preimage (with a maximum adjoined) is built: after
one Eulerian scan of the source, validation runs each face's near-Eulerian
test on the source rows and the mask and checks that D, below the
restored coatom, is the preimage of the face's boundary; one sparse DP over the source gives every local cd-index off the two.
verify_local_correspondence and the tests check the sum against cd_index.
"""
from __future__ import annotations

from . import poset as ps
from .errors import (DomainError, InvalidChain, InvalidSubdivision,
                     NotNearEulerian, Record, RequiresBounds)
from .flagcd import _chain_vectors, _intervals_below, _local_cd, flag_polynomial
from .ncpoly import AB_B, AB_C, CdPolynomial, expand_cd, substitute


class ValidationReport(Record):
    """Outcome of a validation pass; failures name the offending elements."""

    __slots__ = ("kind", "ok", "failures")

    def __bool__(self):
        return self.ok


class SubdivisionMap(ps._JsonText):
    """Order-preserving surjection source -> target with carrier data."""

    __slots__ = ("source", "target", "carrier", "_image", "_carried",
                 "_preimage")

    def __init__(self, source, target, carrier):
        self.source = source
        self.target = target
        carrier = {str(k): str(v) for k, v in carrier.items()}
        missing = [e for e in source.elements if e not in carrier]
        if missing:
            raise DomainError("carrier missing for %d source elements, "
                              "first %r" % (len(missing), missing[0]))
        unknown = [e for e in carrier.values() if e not in target]
        if unknown:
            raise DomainError("carrier hits unknown target id %r" % unknown[0])
        if len(carrier) > len(source.elements):
            extra = next(e for e in carrier if e not in source)
            raise DomainError("carrier names unknown source id %r" % extra)
        self.carrier = {e: carrier[e] for e in source.elements}
        # _image[i]: the target index of source element i; _carried[t]: the
        # bitmask of the source elements carried to t; _preimage[t]: those
        # carried into t's closed down-set, a sum as the _carried are disjoint
        self._image = [target._idx[self.carrier[e]] for e in source.elements]
        carried = self._carried = [0] * len(target.elements)
        for i, t in enumerate(self._image):
            carried[t] |= 1 << i
        self._preimage = [sum(carried[t] for t in target._bits(row | 1 << ix))
                          for ix, row in enumerate(target._dn)]

    def __call__(self, e):
        try:
            return self.carrier[e]
        except KeyError:
            raise DomainError("element %r not in source" % (e,))

    def preimage_ideal(self, sigma):
        return self.source._sub(self._preimage[self.target.index(sigma)])

    # -- serialization ------------------------------------------------------

    def to_json_obj(self):
        return {"source": self.source.to_json_obj(),
                "target": self.target.to_json_obj(),
                "carrier": {e: self.carrier[e]
                            for e in sorted(self.carrier)}}

    @classmethod
    def from_json_obj(cls, obj):
        if not (isinstance(obj, dict) and "source" in obj and "target" in obj
                and isinstance(obj.get("carrier"), dict)):
            raise DomainError('a subdivision is an object with "source", '
                              '"target" and a "carrier" object')
        source = ps._poset_from_obj(obj["source"])
        target = ps._poset_from_obj(obj["target"])
        carrier = dict(obj["carrier"])
        ps._require_json_ids([carrier.values()], "carrier value")
        # allow the two housekeeping entries to be implicit
        for a, b in ((source.min_elt, target.min_elt),
                     (source.max_elt, target.max_elt)):
            if a is not None and b is not None and a not in carrier:
                carrier[a] = b
        return cls(source, target, carrier)

    def __repr__(self):
        return "SubdivisionMap(%d -> %d elements)" % (
            len(self.source.elements), len(self.target.elements))


def identity_subdivision(p):
    """The identity map of p, as a subdivision."""
    return SubdivisionMap(p, p, {e: e for e in p.elements})


def from_vertex_carriers(source, target, vertex_carrier):
    """Build a simplicial subdivision map from carrier faces of the vertices.

    ``vertex_carrier`` maps each vertex of the source complex to the face of
    the target complex it sits in; a face's carrier is then the union of
    its vertex carriers, the least target face containing it.  The map runs
    between the bare face posets; see with_adjoined_tops for sphere bases.
    """
    vertex_carrier = {str(v): frozenset(str(w) for w in f)
                      for v, f in vertex_carrier.items()}
    src = ps.face_poset(source, with_max=False)
    tgt = ps.face_poset(target, with_max=False)
    missing = sorted(set(source.vertices) - vertex_carrier.keys())
    if missing:
        raise DomainError("no carrier for source vertex %r" % missing[0])
    unknown = sorted(vertex_carrier.keys() - source.vertices)
    if unknown:
        raise DomainError("carrier names unknown source vertex %r"
                          % unknown[0])
    carrier = {}
    # in (size, sorted names) order, so the first failure is the same on
    # every run
    for f in sorted(source.faces(), key=lambda f: (len(f), sorted(f))):
        hull = frozenset().union(*map(vertex_carrier.get, f))
        if hull not in target:
            raise DomainError("no target face contains %s" % sorted(hull))
        carrier[ps.face_id(f)] = ps.face_id(hull)
    return SubdivisionMap(src, tgt, carrier)


def with_adjoined_tops(m):
    """Adjoin formal maxima to both sides and map top to top.

    This is the right form for subdivisions of sphere-like complexes, whose
    face posets lack a maximum; the decomposition theorems want Eulerian
    posets on both ends.
    """
    src = ps.adjoin_max(m.source)
    tgt = ps.adjoin_max(m.target)
    carrier = dict(m.carrier)
    carrier[src.max_elt] = tgt.max_elt
    return SubdivisionMap(src, tgt, carrier)


# -- validation ---------------------------------------------------------------


def validate_strong_eulerian(m):
    """Per-element check of the strong Eulerian subdivision conditions."""
    failures = list(_basic_failures(m))
    src, tgt = m.source, m.target
    if not failures:
        if src.top_rank != tgt.top_rank:
            failures.append(("*", "source rank %d != target rank %d"
                             % (src.top_rank, tgt.top_rank)))
        if tgt.min_elt is None:
            failures.append(("*", "target has no minimum"))
    if not failures and tgt.max_elt is not None and src.max_elt is not None:
        wrong = m._carried[tgt._idx[tgt.max_elt]] ^ 1 << src._idx[src.max_elt]
        failures += [(e, "only the source maximum may be carried by the "
                         "target maximum") for e in src._ids(wrong)]
    if not failures:
        for ix in _by_rank(tgt):
            sigma, keep = tgt.elements[ix], m._preimage[ix]
            rank = max(r for r, lv in enumerate(src._levels) if lv & keep)
            if rank != tgt._ranks[ix]:
                failures.append((sigma, "preimage ideal has rank %d, want %d"
                                 % (rank, tgt._ranks[ix])))
                continue
            try:  # one element, the preimage of the minimum, is skipped
                down = keep & (keep - 1) and ps._below_top(src, keep)
            except NotNearEulerian as exc:
                failures.append((sigma, "P1(preimage) is not near-Eulerian: %s"
                                 % exc))
                continue
            if down != keep & ~m._carried[ix]:
                failures.append((sigma, "preimage boundary is not the "
                                 "preimage of the boundary"))
    return ValidationReport("strong_eulerian", not failures, tuple(failures))


def _basic_failures(m):
    src, tgt = m.source, m.target
    if not src.is_ranked or not tgt.is_ranked:
        yield ("*", "both posets must be ranked")
        return
    for sigma, carried in zip(tgt.elements, m._carried):
        if not carried:
            yield (sigma, "not in the image of the carrier map")
    image = m._image
    for lo, hi in src.cover_pairs:
        if not (image[lo] == image[hi] or tgt._up[image[lo]] >> image[hi] & 1):
            a, b = src.elements[lo], src.elements[hi]
            yield (a, "carrier not order preserving at cover (%s, %s)"
                   % (a, b))


def _by_rank(p):
    """p's element indexes in (rank, id) order."""
    return sorted(range(len(p.elements)),
                  key=lambda i: (p._ranks[i], p.elements[i]))


def validate_strong_formal(m):
    """Strong surjectivity plus the alternating-sum condition.

    For every z in the source and x above its carrier, the signed count of
    elements y >= z with carrier(y) <= x must be 1 when carrier(z) = x and
    0 otherwise.
    """
    failures = list(_basic_failures(m))
    src, tgt = m.source, m.target
    if not failures:
        for z, r, t in zip(src.elements, src._ranks, m._image):
            if r > tgt._ranks[t]:
                failures.append((z, "carrier lowers rank"))
    if not failures:
        levels = src._levels
        parity = (sum(levels[0::2]), sum(levels[1::2]))
        bits, up = ps.GradedPoset._bits, src._up
        for ix, (x, rx) in enumerate(zip(tgt.elements, tgt._ranks)):
            # y counts +1 when rank y has the parity of rx, else -1
            same, other = parity[rx % 2], parity[1 - rx % 2]
            # the source elements z with carrier(z) <= x
            inside_mask = m._preimage[ix]
            for iz in bits(inside_mask):
                z = src.elements[iz]
                ys_mask = (up[iz] | 1 << iz) & inside_mask
                total = ((ys_mask & same).bit_count()
                         - (ys_mask & other).bit_count())
                strong = rx < len(levels) and ys_mask & levels[rx]
                want = m._carried[ix] >> iz & 1
                if total != want:
                    failures.append(((z, x), "alternating sum %d, want %d"
                                     % (total, want)))
                if not strong:
                    failures.append(((z, x), "no element above witnesses the "
                                             "rank of the carrier"))
    return ValidationReport("strong_formal", not failures, tuple(failures))


def require_valid(m, kind="strong_eulerian"):
    check = (validate_strong_eulerian if kind == "strong_eulerian"
             else validate_strong_formal)
    report = check(m)
    if not report.ok:
        raise InvalidSubdivision(
            "%s validation failed: %s" % (kind, report.failures[:3]))
    return report


# -- restriction ---------------------------------------------------------------


def restrict(m, face):
    """Restrict the map to the preimage of the closed interval below a face."""
    if face not in m.target:
        raise DomainError("target element %r not found" % (face,))
    ideal = m.preimage_ideal(face)
    ix = m.target.index(face)
    tgt = m.target._sub(m.target._dn[ix] | 1 << ix)
    carrier = {e: m(e) for e in ideal.elements}
    return SubdivisionMap(ideal, tgt, carrier)


# -- skeletal decomposition ------------------------------------------------------


OLD, NEW = "old", "new"


def _tag(kind, e):
    return "%s:%s" % (kind, e)


class SkeletalFamily(Record):
    """Skeletal posets Pi_i and maps phi_i of a strong Eulerian subdivision.

    posets[i] interpolates between the target (i = 0) and the source
    (i = n); element ids carry an old:/new: provenance tag.  maps[i] sends
    posets[i+1] ids to posets[i] ids.  Two families are equal when their
    posets have the same elements and covers, as a GradedPoset compares by
    identity.  The maps are dicts, so a family is unhashable.
    """

    __slots__ = ("subdivision", "posets", "maps")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented

        def shape(family):
            return [(p.elements, p.cover_pairs) for p in family.posets]

        return (self.subdivision == other.subdivision
                and shape(self) == shape(other) and self.maps == other.maps)

    __hash__ = None

    @property
    def n(self):
        return len(self.posets) - 1


def skeletal_family(m):
    """Materialize every skeletal poset and map of a validated subdivision.

    All levels are sub-posets of one poset Pi: the source tagged new: below
    the target tagged old:, each source element under the old copy of its
    carrier.  posets[i] keeps the new elements carried to rank <= i and the
    old elements of rank > i; maps[i-1] sends the new elements carried to
    rank i to their carriers and fixes the rest.
    """
    require_valid(m, "strong_eulerian")
    src, tgt = m.source, m.target
    new = [_tag(NEW, e) for e in src.elements]
    old = [_tag(OLD, e) for e in tgt.elements]
    shift = len(src)  # target element t is shift + t in Pi
    up_adj = [row + [shift + t]
              for row, t in zip(src._cover_lists(), m._image)]
    up_adj += [[shift + h for h in row] for row in tgt._cover_lists()]
    pi = ps._from_adj(new + old, up_adj)
    carried, posets, maps = 0, [], []
    for i, level in enumerate(tgt._levels):
        step = {}  # the new elements carried to rank i, to their carriers
        for t in tgt._bits(level):
            carried |= m._carried[t]
            step.update((new[s], old[t]) for s in tgt._bits(m._carried[t]))
        p = pi._sub(carried | sum(tgt._levels[i + 1:]) << shift)
        if i:
            maps.append({e: step.get(e, e) for e in p.elements})
        posets.append(p)
    return SkeletalFamily(m, tuple(posets), tuple(maps))


def classify_flag(fam, i, chain):
    """Classify a chain of posets[i] as old, new, or mixed.

    Returns (kind, switch_rank); old flags have switch rank None.  Chain
    elements are given as posets[i] ids (with their old:/new: tags).
    """
    p = fam.posets[i]
    chain = list(chain)
    for e in chain:
        if e not in p:
            raise InvalidChain("element %r not in skeletal poset %d" % (e, i))
    chain.sort(key=lambda e: p.rank(e))
    for a, b in zip(chain, chain[1:]):
        if not p.lt(a, b):
            raise InvalidChain("%r and %r are not strictly ordered" % (a, b))
    kinds = [e.partition(":")[0] for e in chain]
    if all(k == OLD for k in kinds):
        return ("old", None)
    top_new = max((j for j, k in enumerate(kinds) if k == NEW))
    raw = chain[top_new].partition(":")[2]
    switch = fam.subdivision.target.rank(fam.subdivision(raw))
    kind = "new" if all(k == NEW for k in kinds) else "mixed"
    return (kind, switch)


# -- the decomposition ---------------------------------------------------------


class DecompositionRow(Record):
    __slots__ = ("sigma", "local_cd", "upper_cd")

    def contribution(self):
        return self.local_cd * self.upper_cd


class CdDecomposition(Record):
    __slots__ = ("rows", "total")

    def nonzero_rows(self):
        return [r for r in self.rows if r.local_cd]


def decompose_cd(m):
    """Itemized cd-index decomposition over the target elements.

    Each row holds the local cd-index of the capped preimage of sigma and
    the cd-index of the upper interval [sigma, 1]; the weighted sum is the
    cd-index of the source, a theorem for the maps that pass strong
    Eulerian validation.  A source or target without a maximum raises
    RequiresBounds naming it; validation has already failed one without a
    minimum and proved a bounded source and target Eulerian.
    """
    require_valid(m, "strong_eulerian")
    src, tgt = m.source, m.target
    for side, p in (("target", tgt), ("source", src)):
        if p.max_elt is None:
            raise RequiresBounds(
                "decomposition needs Eulerian posets, but the %s has no "
                "maximum; with_adjoined_tops adjoins formal maxima to both "
                "sides of a sphere's subdivision" % side)
    # validation proves the target Eulerian: see the proof in the tests'
    # test_both_validations_agree_on_seeded_mutants
    local = _local_cds(m)
    upper = _upper_cds(tgt)
    rows = [DecompositionRow(s, local[s], upper[s]) for s in local]
    total = sum((r.contribution() for r in rows), CdPolynomial.zero())
    return CdDecomposition(tuple(rows), total)


def verify_rank_telescoping(fam, i):
    """Check one telescoping step of the flag-polynomial decomposition.

    The new chains of posets[i] relative to posets[i-1] must be counted by
    the local flag polynomials of the rank-i faces times the flag
    polynomials of their upper intervals.  A map that fails strong Eulerian
    validation falsifies the hypotheses, which is a verdict, not an error.
    """
    if not 1 <= i <= fam.n:
        raise DomainError("telescoping index %d outside 1..%d" % (i, fam.n))
    m = fam.subdivision
    if not validate_strong_eulerian(m).ok:
        return False
    lhs = flag_polynomial(fam.posets[i]) - flag_polynomial(fam.posets[i - 1])
    # the lhs raised if there is no top; validation proves the target
    # Eulerian, so Upsilon([sigma, 1]) is the image of Phi([sigma, 1])
    local, upper = _local_cds(m), _upper_cds(m.target)
    rhs = sum((local[s] * upper[s] for s in m.target.level(i)),
              CdPolynomial.zero())
    return lhs == substitute(expand_cd(rhs), AB_C, AB_B)


def _local_cds(m):
    """sigma -> l_sigma in (rank, id) order, by one sparse chain DP over the
    source read through each preimage and D, the preimage of the boundary."""
    src, tgt, out = m.source, m.target, {}
    chains = _chain_vectors(src._dn, src._levels)
    for ix in _by_rank(tgt):
        n, keep, own = tgt._ranks[ix], m._preimage[ix], m._carried[ix]
        # the capped preimage of a minimum is a two-chain, with l = 1
        out[tgt.elements[ix]] = (_local_cd(chains, n, keep, keep & ~own)[0]
                                 if n else CdPolynomial.one())
    return out


def _upper_cds(tgt):
    """sigma -> Phi([sigma, 1]) of a bounded Eulerian target, off one DP."""
    top = tgt._idx[tgt.max_elt]
    return dict(zip(tgt.elements,
                    _intervals_below(tgt, top, range(len(tgt.elements)))))
