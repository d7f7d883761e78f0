"""Subdivision maps between posets: validation, restriction, skeletal
decomposition, and the constructive cd-index decomposition.

A subdivision map carries each element of the source poset to the minimal
target element containing it.  Validation is eager and cached on the map;
the decomposition refuses to run on an unvalidated map because the
decomposition identity is only a theorem under those hypotheses.

The map keeps one bitmask per target element, of the source elements
carried to it; the preimage of a target face is the OR of these masks over
its closed down-set, and both validations, restriction and the image check
read it.  Each capped preimage (the preimage ideal with a maximum adjoined)
is built once per map: strong Eulerian validation and toric.local_h share
it.  The capped preimage keeps the semisuspension that validation built, so
the local index the decomposition, the telescoping check and the local-h
correspondence take of it does not build that again, and the intervals of
an Eulerian target inherit its verdict instead of being scanned again.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import poset as ps
from .errors import (DomainError, FaceNotFound, InvalidChain,
                     InvalidSubdivision, NotNearEulerian, RequiresBounds,
                     ValidationRequired)
from .flagcd import cd_index, flag_polynomial, local_index
from .ncpoly import CdPolynomial


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a validation pass; failures name the offending elements."""

    kind: str
    ok: bool
    failures: tuple

    def __bool__(self):
        return self.ok


class SubdivisionMap:
    """Order-preserving surjection source -> target with carrier data."""

    __slots__ = ("source", "target", "carrier", "_carried", "_cache")

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
        self.carrier = {e: carrier[e] for e in source.elements}
        # _carried[t]: bitmask of the source elements carried to target t
        self._carried = [0] * len(target.elements)
        for i, e in enumerate(source.elements):
            self._carried[target.index(self.carrier[e])] |= 1 << i
        self._cache = {}

    def __call__(self, e):
        try:
            return self.carrier[e]
        except KeyError:
            raise FaceNotFound("element %r not in source" % (e,))

    def _preimage_mask(self, ix):
        """Bitmask of the source elements carried into [0, target[ix]]."""
        tgt = self.target
        mask = 0
        for t in tgt._bits(tgt._dn[ix] | 1 << ix):
            mask |= self._carried[t]
        return mask

    def preimage_ideal_ids(self, sigma):
        """Source elements carried into the closed lower interval [0, sigma]."""
        return self.source._ids(self._preimage_mask(self.target.index(sigma)))

    def preimage_ideal(self, sigma):
        return self.source.induced(self.preimage_ideal_ids(sigma))

    def _capped_preimage(self, sigma):
        """The preimage ideal of sigma with a maximum adjoined, built once."""
        capped = self._cache.setdefault("capped", {})
        if sigma not in capped:
            capped[sigma] = ps.adjoin_max(self.preimage_ideal(sigma))
        return capped[sigma]

    # -- serialization ------------------------------------------------------

    def to_json_obj(self):
        return {"source": self.source.to_json_obj(),
                "target": self.target.to_json_obj(),
                "carrier": {e: self.carrier[e]
                            for e in sorted(self.carrier)}}

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj):
        if not (isinstance(obj, dict) and "source" in obj and "target" in obj
                and isinstance(obj.get("carrier"), dict)):
            raise DomainError('a subdivision is an object with "source", '
                              '"target" and a "carrier" object')
        source = _poset_from_obj(obj["source"])
        target = _poset_from_obj(obj["target"])
        carrier = dict(obj["carrier"])
        # allow the two housekeeping entries to be implicit
        for a, b in ((source.min_elt, target.min_elt),
                     (source.max_elt, target.max_elt)):
            if a is not None and b is not None and a not in carrier:
                carrier[a] = b
        return cls(source, target, carrier)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))

    def __repr__(self):
        return "SubdivisionMap(%d -> %d elements)" % (
            len(self.source.elements), len(self.target.elements))


def _poset_from_obj(obj):
    from .complexes import SimplicialComplex, face_poset
    if isinstance(obj, dict) and "facets" in obj:
        return face_poset(SimplicialComplex.from_json_obj(obj), with_max=True)
    return ps.GradedPoset.from_json_obj(obj)


def identity_subdivision(p):
    """The identity map of p, as a subdivision."""
    return SubdivisionMap(p, p, {e: e for e in p.elements})


def from_vertex_carriers(source, target, vertex_carrier):
    """Build a simplicial subdivision map from carrier faces of the vertices.

    ``vertex_carrier`` maps each vertex of the source complex to the face of
    the target complex it sits in; the carrier of a face is then the minimal
    target face containing the union of its vertex carriers.  The map runs
    between the bare face posets; see with_adjoined_tops for sphere bases.
    """
    from .complexes import face_id, face_poset
    vertex_carrier = {str(v): frozenset(str(w) for w in f)
                      for v, f in vertex_carrier.items()}
    src = face_poset(source, with_max=False)
    tgt = face_poset(target, with_max=False)
    carrier = {}
    faces = sorted(target.faces(), key=len)
    for f in source.faces():
        hull = set()
        for v in f:
            if v not in vertex_carrier:
                raise DomainError("no carrier for source vertex %r" % v)
            hull |= vertex_carrier[v]
        fit = next((g for g in faces if hull <= g), None)
        if fit is None:
            raise DomainError("no target face contains %s" % sorted(hull))
        carrier[face_id(f)] = face_id(fit)
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
    if "strong_eulerian" in m._cache:
        return m._cache["strong_eulerian"]
    failures = list(_basic_failures(m))
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
        for sigma in sorted(tgt.elements,
                            key=lambda s: (tgt.rank(s), s)):
            hat = m._capped_preimage(sigma)
            rank = hat._ranks[-1] - 1  # the adjoined maximum sits on top
            if rank != tgt.rank(sigma):
                failures.append((sigma, "preimage ideal has rank %d, want %d"
                                 % (rank, tgt.rank(sigma))))
                continue
            if len(hat.elements) == 2 and hat.top_rank == 1:
                continue  # preimage of the minimum
            try:
                ps._semisuspend(hat)
            except NotNearEulerian as exc:
                failures.append((sigma, "P1(preimage) is not near-Eulerian: %s"
                                 % exc))
    report = ValidationReport("strong_eulerian", not failures, tuple(failures))
    m._cache["strong_eulerian"] = report
    return report


def _basic_failures(m):
    src, tgt = m.source, m.target
    if not src.is_ranked or not tgt.is_ranked:
        yield ("*", "both posets must be ranked")
        return
    for sigma, carried in zip(tgt.elements, m._carried):
        if not carried:
            yield (sigma, "not in the image of the carrier map")
    for lo, hi in src.cover_pairs:
        a, b = src.elements[lo], src.elements[hi]
        if not tgt.le(m(a), m(b)):
            yield (a, "carrier not order preserving at cover (%s, %s)"
                   % (a, b))


def validate_strong_formal(m):
    """Strong surjectivity plus the alternating-sum condition.

    For every z in the source and x above its carrier, the signed count of
    elements y >= z with carrier(y) <= x must be 1 when carrier(z) = x and
    0 otherwise.
    """
    if "strong_formal" in m._cache:
        return m._cache["strong_formal"]
    failures = list(_basic_failures(m))
    src, tgt = m.source, m.target
    if not failures:
        for z in src.elements:
            if src.rank(z) > tgt.rank(m(z)):
                failures.append((z, "carrier lowers rank"))
    if not failures:
        # rank_mask[r]: source elements of rank r (never above the target's)
        rank_mask = [0] * (tgt.top_rank + 1)
        for i, r in enumerate(src._ranks):
            rank_mask[r] |= 1 << i
        parity = (sum(rank_mask[0::2]), sum(rank_mask[1::2]))
        bits, up = ps.GradedPoset._bits, src._up
        for ix, x in enumerate(tgt.elements):
            rx = tgt.rank(x)
            # y counts +1 when rank y has the parity of rx, else -1
            same, other = parity[rx % 2], parity[1 - rx % 2]
            # the source elements z with carrier(z) <= x
            inside_mask = m._preimage_mask(ix)
            for iz in bits(inside_mask):
                z = src.elements[iz]
                ys_mask = (up[iz] | 1 << iz) & inside_mask
                total = ((ys_mask & same).bit_count()
                         - (ys_mask & other).bit_count())
                strong = bool(ys_mask & rank_mask[rx])
                want = m._carried[ix] >> iz & 1
                if total != want:
                    failures.append(((z, x), "alternating sum %d, want %d"
                                     % (total, want)))
                if not strong:
                    failures.append(((z, x), "no element above witnesses the "
                                             "rank of the carrier"))
    report = ValidationReport("strong_formal", not failures, tuple(failures))
    m._cache["strong_formal"] = report
    return report


def require_valid(m, kind="strong_eulerian"):
    check = (validate_strong_eulerian if kind == "strong_eulerian"
             else validate_strong_formal)
    report = check(m)
    if not report.ok:
        raise ValidationRequired(
            "%s validation failed: %s" % (kind, report.failures[:3]))
    return report


# -- restriction ---------------------------------------------------------------


def restrict(m, face):
    """Restrict the map to the preimage of the closed interval below a face."""
    if face not in m.target:
        raise FaceNotFound("target element %r not found" % (face,))
    ideal = m.preimage_ideal(face)
    tgt = m.target.induced(m.target.down_set(face, strict=False))
    carrier = {e: m(e) for e in ideal.elements}
    return SubdivisionMap(ideal, tgt, carrier)


# -- skeletal decomposition ------------------------------------------------------


OLD, NEW = "old", "new"


def _tag(kind, e):
    return "%s:%s" % (kind, e)


@dataclass
class SkeletalFamily:
    """Skeletal posets Pi_i and maps phi_i of a strong Eulerian subdivision.

    posets[i] interpolates between the target (i = 0) and the source
    (i = n); element ids carry an old:/new: provenance tag.  maps[i] sends
    posets[i+1] ids to posets[i] ids.
    """

    subdivision: SubdivisionMap
    posets: list = field(default_factory=list)
    maps: list = field(default_factory=list)

    @property
    def n(self):
        return len(self.posets) - 1

    def composed_carrier(self):
        """Compose all skeletal maps, expressed on raw source/target ids."""
        out = {}
        tgt = self.subdivision.target
        for e in self.subdivision.source.elements:
            cur = _tag(NEW, e)
            for i in range(self.n - 1, -1, -1):
                cur = self.maps[i][cur]
            kind, _, raw = cur.partition(":")
            # only the preimage of the minimum may stay new-tagged at level 0
            out[e] = raw if kind == OLD else (
                tgt.min_elt if raw == e else "<stuck:%s>" % raw)
        return out


def skeletal_family(m):
    """Materialize every skeletal poset and map of a validated subdivision."""
    report = validate_strong_eulerian(m)
    if not report.ok:
        raise InvalidSubdivision("skeletal decomposition needs a valid "
                                 "strong Eulerian subdivision")
    src, tgt = m.source, m.target
    n = tgt.top_rank
    carrier_rank = {e: tgt.rank(m(e)) for e in src.elements}
    fam = SkeletalFamily(m)
    for i in range(n + 1):
        fam.posets.append(_skeletal_poset(m, i, carrier_rank))
    for i in range(n):
        fam.maps.append(_skeletal_map(m, i, carrier_rank,
                                      fam.posets[i + 1], fam.posets[i]))
    return fam


def _skeletal_poset(m, i, carrier_rank):
    src, tgt = m.source, m.target
    old = [e for e in tgt.elements if tgt.rank(e) >= i + 1]
    new = [e for e in src.elements if carrier_rank[e] <= i]
    elements = [_tag(NEW, e) for e in new] + [_tag(OLD, e) for e in old]
    # the strict order; induced keeps only its covers
    order = [(_tag(NEW, e), _tag(NEW, f)) for e in new
             for f in src.up_set(e) if carrier_rank[f] <= i]
    order += [(_tag(NEW, e), _tag(OLD, f)) for e in new for f in old
              if tgt.le(m(e), f)]
    order += [(_tag(OLD, e), _tag(OLD, f)) for e in old for f in tgt.up_set(e)]
    p = ps.GradedPoset(elements, order).induced(elements)
    if not p.is_graded or p.top_rank != tgt.top_rank:
        raise InvalidSubdivision("skeletal poset at level %d is not graded "
                                 "of full rank" % i)
    return p


def _skeletal_map(m, i, carrier_rank, upper, lower):
    out = {}
    for e in upper.elements:
        kind, _, raw = e.partition(":")
        if kind == NEW and carrier_rank[raw] == i + 1:
            out[e] = _tag(OLD, m(raw))
        else:
            out[e] = e
        if out[e] not in lower:
            raise InvalidSubdivision("skeletal map image %r missing" % out[e])
    return out


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
    if any(kinds[j] == OLD and kinds[j + 1] == NEW
           for j in range(len(kinds) - 1)):
        raise InvalidChain("old element below new element cannot happen")
    top_new = max((j for j, k in enumerate(kinds) if k == NEW))
    raw = chain[top_new].partition(":")[2]
    switch = fam.subdivision.target.rank(fam.subdivision(raw))
    kind = "new" if all(k == NEW for k in kinds) else "mixed"
    return (kind, switch)


# -- the decomposition ---------------------------------------------------------


@dataclass(frozen=True)
class DecompositionRow:
    sigma: str
    local_cd: CdPolynomial
    upper_cd: CdPolynomial

    def contribution(self):
        return self.local_cd * self.upper_cd


@dataclass(frozen=True)
class CdDecomposition:
    rows: tuple
    total: CdPolynomial

    def nonzero_rows(self):
        return [r for r in self.rows if r.local_cd]


def decompose_cd(m):
    """Itemized cd-index decomposition over the target elements.

    Each row holds the local cd-index of the capped preimage of sigma and
    the cd-index of the upper interval [sigma, 1]; the weighted sum must
    reproduce the cd-index of the source, which is asserted.  A source or
    target without a maximum raises RequiresBounds naming it; validation
    has already failed one without a minimum.
    """
    require_valid(m, "strong_eulerian")
    src, tgt = m.source, m.target
    for side, p in (("target", tgt), ("source", src)):
        if p.max_elt is None:
            raise RequiresBounds(
                "decomposition needs Eulerian posets, but the %s has no "
                "maximum; with_adjoined_tops adjoins formal maxima to both "
                "sides of a sphere's subdivision" % side)
    if not (tgt.is_eulerian() and src.is_eulerian()):
        raise InvalidSubdivision("decomposition needs Eulerian posets")
    rows = [DecompositionRow(sigma, local_index(m._capped_preimage(sigma)).cd,
                             cd_index(tgt.interval(sigma, tgt.max_elt)))
            for sigma in sorted(tgt.elements, key=lambda s: (tgt.rank(s), s))]

    top = next(r for r in rows if r.sigma == tgt.max_elt)
    if top.local_cd:
        raise InvalidSubdivision("local cd-index of the top element must "
                                 "vanish, got %s" % top.local_cd)
    total = sum((r.contribution() for r in rows), CdPolynomial.zero())
    source_cd = cd_index(src)
    if total != source_cd:
        raise InvalidSubdivision(
            "decomposition total %s differs from the source cd-index %s"
            % (total, source_cd))
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
    tgt = m.target
    lhs = flag_polynomial(fam.posets[i]) - flag_polynomial(fam.posets[i - 1])
    rhs = 0
    for sigma in tgt.level(i):
        upper = flag_polynomial(tgt.interval(sigma, tgt.max_elt))
        rhs = local_index(m._capped_preimage(sigma)).flag * upper + rhs
    return lhs == rhs
