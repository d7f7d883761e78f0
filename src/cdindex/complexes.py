"""Simplicial complexes as facet lists, faces derived on first read: order
complexes, star/link, classical f/h-vectors, rational reduced homology,
Gorenstein predicates, shelling verification, and the generators.

Face posets, their ids and the decode of a complex-form input are the
poset module's; its ``face_poset`` and ``face_id`` are bound here too.
A barycentric subdivision is the face poset of its base's chains, made
once as masks off the base's up-rows and built by the same face loop.

Homology is rational: the boundary ranks over Q come from a sparse
elimination of the +-1 boundary rows that stays in the integers.  The
Gorenstein definitions are about real homology, so torsion never matters
here and floats would only add noise.  A complex remembers its Betti
numbers, and the link of the empty face is the complex itself, so the
Gorenstein test and a later ``reduced_betti`` share one elimination.
The h-vector functions import the flag and polynomial modules when they
run, so decoding or generating a complex loads neither.
"""
from __future__ import annotations

import random
from itertools import combinations, groupby, product

from . import poset as ps
from .poset import face_id, face_poset
from .errors import DomainError, NotPure, Record, RequiresBounds, SearchCutoff


def _closure_of(*facets):
    """The faces of the given frozensets, as a new set with the empty face."""
    out = {frozenset(), *facets}
    for f in facets:
        for k in range(1, len(f)):
            out.update(map(frozenset, combinations(f, k)))
    return out


class SimplicialComplex(ps._JsonText):
    """Abstract simplicial complex given by its facet list.

    Its face set, closed downward and with the empty face, is derived when
    first read.  Vertex names are strings; faces are frozensets of them.
    """

    __slots__ = ("facets", "vertices", "_faces", "_betti")

    def __init__(self, facets):
        given = sorted({frozenset(str(v) for v in f) for f in facets},
                       key=lambda f: (len(f), sorted(f)), reverse=True)
        kept = []
        # largest first: a set is a facet unless a larger facet contains it
        for _, same in groupby(given, len):
            kept += [f for f in same
                     if f and not (kept and any(f < g for g in kept))]
        self.facets = tuple(reversed(kept))
        self.vertices = tuple(sorted({v for f in self.facets for v in f}))
        self._faces = None  # the face set, once read
        self._betti = None  # _reduced_betti_all, once computed

    @property
    def dim(self):
        """Dimension; -1 for the empty complex (only the empty face)."""
        return max((len(f) for f in self.facets), default=0) - 1

    def faces(self, dim=None):
        if self._faces is None:
            self._faces = frozenset(_closure_of(*self.facets))
        return (self._faces if dim is None
                else {f for f in self._faces if len(f) == dim + 1})

    def is_pure(self):
        return len({len(f) for f in self.facets}) <= 1

    def __contains__(self, face):
        face = frozenset(str(v) for v in face)
        return not face or any(face <= f for f in self.facets)

    def __eq__(self, other):
        return (isinstance(other, SimplicialComplex)
                and self.facets == other.facets)

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return "SimplicialComplex(%d vertices, %d facets, dim %d)" % (
            len(self.vertices), len(self.facets), self.dim)

    def to_json_obj(self):
        return {"facets": [sorted(f) for f in self.facets]}

    @classmethod
    def from_json_obj(cls, obj):
        return cls(ps._json_facets(obj))


def order_complex(p):
    """The complex of nondegenerate chains of a bounded graded poset."""
    p.require_graded()
    if p.min_elt is None or p.max_elt is None:
        raise RequiresBounds("order complex needs both bounds")
    return SimplicialComplex(p.maximal_chains())


def star(k, face):
    """Subcomplex of all faces lying in a facet that contains ``face``."""
    face = frozenset(str(v) for v in face)
    facets = [f for f in k.facets if face <= f]
    if face and not facets:
        raise DomainError("face %s not in complex" % sorted(face))
    return SimplicialComplex(facets)


def link(k, face):
    """Faces of the star that do not intersect ``face``; k itself for the
    empty face."""
    face = frozenset(str(v) for v in face)
    if not face:
        return k
    facets = [f - face for f in k.facets if face <= f]
    if not facets:
        raise DomainError("face %s not in complex" % sorted(face))
    return SimplicialComplex(facets)


def f_vector(k):
    """[f_-1, f_0, ..., f_{d}] including the empty face count."""
    return [len(k.faces(i)) for i in range(-1, k.dim + 1)]


class HVector(Record):
    """Classical h-vector of a pure (d-1)-dimensional complex."""

    __slots__ = ("d", "h")

    def polynomial(self):
        from .ncpoly import UniPolynomial
        return UniPolynomial(self.h)

    def __iter__(self):
        return iter(self.h)


def h_vector(k):
    """h-vector via sum f_{i-1} (x-1)^{d-i} = sum h_i x^{d-i}, by Horner's
    rule in x - 1 on coefficients kept lowest degree first."""
    if not k.is_pure():
        raise NotPure("h-vector needs a pure complex")
    poly = []
    for f in f_vector(k):
        poly = [a - b for a, b in zip([0] + poly, poly + [0])]
        poly[0] += f
    return HVector(k.dim + 1, tuple(reversed(poly)))


def flag_to_h(p):
    """h-vector of the order complex from the flag h-vector of the poset."""
    from .flagcd import flag_h
    p.require_bounds()
    d = p.top_rank - 1
    if d < 0:
        raise DomainError("rank-0 poset has no order complex h-vector")
    h = [0] * (d + 1)
    for mask, value in flag_h(p).values.items():
        h[mask.bit_count()] += value
    return HVector(d, tuple(h))


# -- rational homology -------------------------------------------------------


def _boundary_rank(upper, lower):
    """Rank over Q of the boundary map from the faces ``upper`` to ``lower``.

    Each boundary is a sparse row {column: +-1}.  Kept rows are keyed by
    their lowest column; a new row is reduced by row <- a*row - b*pivot,
    with a and b the pivot's and the row's entries there, until it is zero
    or starts a new kept row.  Every step is invertible over Q and the kept
    rows have distinct lowest columns, so their count is the rank, and
    every entry stays an integer.
    """
    column = {f: j for j, f in enumerate(lower)}
    kept = {}
    for f in upper:
        row = {column[f - {v}]: (-1) ** j for j, v in enumerate(sorted(f))}
        while row:
            col = min(row)
            pivot = kept.get(col)
            if pivot is None:
                # a lead of 1 lets later rows be reduced in place
                lead = row[col]
                if lead != 1 and all(v % lead == 0 for v in row.values()):
                    row = {c: v // lead for c, v in row.items()}
                kept[col] = row
                break
            a, b = pivot[col], row[col]
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                v = row.get(c, 0) - b * v
                if v:
                    row[c] = v
                else:
                    del row[c]
    return len(kept)


def _reduced_betti_all(k):
    """Reduced rational Betti numbers as a dict over dims -1..dim."""
    faces = [sorted(k.faces(i), key=sorted) for i in range(-1, k.dim + 1)]
    # ranks[i]: the rank of the boundary map from faces[i] to faces[i - 1]
    ranks = [0] + [_boundary_rank(upper, lower)
                   for lower, upper in zip(faces, faces[1:])] + [0]
    return {i - 1: len(f) - ranks[i] - ranks[i + 1]
            for i, f in enumerate(faces)}


def _betti(k):
    """_reduced_betti_all of k, computed once per complex."""
    if k._betti is None:
        k._betti = _reduced_betti_all(k)
    return k._betti


def reduced_betti(k):
    """Reduced rational Betti numbers in dimensions 0..dim."""
    return [_betti(k)[i] for i in range(k.dim + 1)]


def _is_homology_sphere(k, n):
    """k has the reduced rational homology of an n-sphere (n >= -1)."""
    return k.dim == n and all(v == (1 if i == n else 0)
                              for i, v in _betti(k).items())


def _links_ok(k, trivial):
    """Walking the faces of k by size: the link of a face in ``trivial`` is
    homology-trivial, that of any other face a homology sphere of dimension
    dim k - |face|."""
    n = k.dim
    return all(not any(_betti(link(k, f)).values()) if f in trivial
               else _is_homology_sphere(link(k, f), n - len(f))
               for f in sorted(k.faces(), key=lambda f: (len(f), sorted(f))))


def is_gorenstein(k):
    """k is a rational homology sphere, link by link."""
    if not k.is_pure():
        raise NotPure("Gorenstein test needs a pure complex")
    return _links_ok(k, ())


def is_near_gorenstein(k, bd):
    """(k, bd) is a rational homology ball with boundary bd."""
    if not k.is_pure():
        raise NotPure("near-Gorenstein test needs a pure complex")
    return (bd.dim == k.dim - 1 and is_gorenstein(bd)
            and _links_ok(k, bd.faces()))


# -- shelling ----------------------------------------------------------------


def _shelling_step_ok(prev_faces, facet):
    """The new facet must meet the old complex in a nonempty union of its
    boundary facets: exactly when its restriction face, the vertices whose
    removal leaves an old face, is not old itself (the empty face is)."""
    return frozenset(v for v in facet
                     if facet - {v} in prev_faces) not in prev_faces


def verify_shelling(k, order):
    """Check that the facet order is a shelling of the pure complex k."""
    if not k.is_pure():
        raise NotPure("shelling is defined for pure complexes")
    order = [frozenset(str(v) for v in f) for f in order]
    if sorted(order, key=sorted) != sorted(k.facets, key=sorted):
        raise DomainError("order is not a permutation of the facets")
    prev = set()  # without the empty face, so the first facet passes
    for facet in order:
        if not _shelling_step_ok(prev, facet):
            return False
        prev.update(_closure_of(facet))
    return True


def find_shelling(k, max_nodes=10 ** 6):
    """Backtracking shelling search.

    Returns a facet order, or None when the search space is exhausted.
    Raises SearchCutoff when the node budget runs out, so an aborted search
    is never mistaken for a proof that no shelling exists.  The search keeps
    its own stack, one candidate iterator per chosen facet, so its depth
    (the number of facets) is not bounded by the interpreter's recursion
    limit.
    """
    if not k.is_pure():
        raise NotPure("shelling is defined for pure complexes")
    facets = list(k.facets)
    if len(facets) <= 1:
        return facets
    budget = max_nodes
    ridges = {f: [f - {v} for v in f] for f in facets}
    names = {f: sorted(f) for f in facets}

    for first in facets:
        chosen, used, faces = [first], {first}, _closure_of(first)
        added = []   # faces new with each facet after the first
        tries = []   # candidate iterator of each node entered
        while True:
            # enter the node for the partial order `chosen`
            if budget <= 0:
                raise SearchCutoff("shelling search exceeded %d nodes"
                                   % max_nodes)
            budget -= 1
            if len(chosen) == len(facets):
                return chosen
            tries.append(iter(sorted(
                (f for f in facets if f not in used),
                key=lambda f: (-sum(r in faces for r in ridges[f]),
                               names[f]))))
            # advance to the next admissible candidate, backtracking out of
            # nodes whose candidates are spent
            while tries:
                f = next((f for f in tries[-1]
                          if _shelling_step_ok(faces, f)), None)
                if f is not None:
                    break
                tries.pop()
                if added:
                    faces.difference_update(added.pop())
                    used.remove(chosen.pop())
            else:
                break  # no order starts with `first`
            added.append(_closure_of(f) - faces)
            chosen.append(f)
            used.add(f)
            faces.update(added[-1])
    return None


# -- generators --------------------------------------------------------------


def make_simplex(d):
    """The full d-simplex on vertices 0..d."""
    if d < 0:
        raise DomainError("dimension must be >= 0")
    return SimplicialComplex([[str(i) for i in range(d + 1)]])


def make_boundary_simplex(d):
    """Boundary of the d-simplex: all proper faces."""
    if d < 1:
        raise DomainError("boundary needs dimension >= 1")
    return SimplicialComplex(combinations(map(str, range(d + 1)), d))


def make_polygon(n):
    """The n-gon as a 1-dimensional complex."""
    if n < 3:
        raise DomainError("a polygon needs at least 3 vertices")
    return SimplicialComplex([[str(i), str((i + 1) % n)] for i in range(n)])


def make_cube3():
    """Face lattice of the 3-cube (vertices are coordinate strings)."""
    verts = ["".join(v) for v in product("01", repeat=3)]
    # each nonempty proper face: a pattern over 0, 1 and *, but not ***
    faces = [frozenset(v for v in verts
                       if all(c in (x, "*") for x, c in zip(v, pat)))
             for pat in product("01*", repeat=3) if set(pat) != {"*"}]
    ids = {f: face_id(f) for f in faces + [frozenset()]}
    # the strict order, TOP above every face; the build keeps its covers
    order = [(ids[f], ids[g]) for f in ids for g in ids if f < g]
    order += [(ids[f], "TOP") for f in ids]
    return ps.GradedPoset(sorted(ids.values()) + ["TOP"], order)


class StackedPolytope(Record):
    """A combinatorial stacked polytope with its stack triangulation."""

    __slots__ = ("boundary", "triangulation", "order")


def make_stacked(d, k, seed=0):
    """Stack k d-simplices, each glued to one facet of the previous shape.

    Purely combinatorial: the next facet to stack onto is drawn from the
    facets created by the previous step (seeded choice), which keeps the
    construction deterministic while allowing different shapes per seed.
    """
    if d < 2:
        raise DomainError("stacked polytopes need dimension >= 2")
    if k < 1:
        raise DomainError("need at least one simplex in the stack")
    rng = random.Random(seed)
    base = frozenset(str(i) for i in range(d + 1))
    simplices = [base]
    sphere = {frozenset(c) for c in combinations(sorted(base), d)}
    recent = sorted(sphere, key=sorted)
    for v in map(str, range(d + 1, d + k)):
        target = recent[rng.randrange(len(recent))]
        simplices.append(target | {v})
        sphere.remove(target)
        recent = [target - {u} | {v} for u in sorted(target)]
        sphere.update(recent)
    return StackedPolytope(
        boundary=SimplicialComplex(sorted(sphere, key=sorted)),
        triangulation=SimplicialComplex(simplices),
        order=tuple(simplices))


def barycentric_subdivision(base):
    """Barycentric subdivision with its carrier map onto the base.

    The base is a complex, read as its face poset, or a graded poset with a
    minimum, whose other elements are the cells: a polytope lattice p goes
    in as p.without_max().  Vertices of the subdivision are the cells, its
    faces the chains of cells, each carried to its top and the empty chain
    to the minimum.  Returns (complex, SubdivisionMap); the map runs between
    the bare face posets.  For a sphere-style base, adjoin formal maxima
    with subdivision.with_adjoined_tops before decomposing.
    """
    from .subdivision import SubdivisionMap
    if isinstance(base, SimplicialComplex):
        base = face_poset(base)
    base.require_graded()
    if base.min_elt is None:
        raise RequiresBounds("barycentric subdivision needs a minimum")
    els, up, bits = base.elements, base._up, base._bits
    low = base._idx[base.min_elt]
    # cell cells[i] is the bit 1 << i, so that the chains, as masks, are
    # ordered and named as face_poset orders and names faces
    cells = sorted(bits(up[low]), key=els.__getitem__, reverse=True)
    bit = {c: 1 << i for i, c in enumerate(cells)}
    above = [[(bit[c], c) for c in bits(row)] for row in up]
    # each chain grows only above its top, so each is made once
    chains = [(0, low)]
    for f, t in chains:
        chains += [(f | b, c) for b, c in above[t]]
    top = dict(chains)
    sub, at = ps._face_build(top, {bit[c]: ps._spell(els[c]) for c in cells})
    carrier = {sub.elements[j]: els[top[f]] for f, j in at.items()}
    # the chains through every rank are the maximal ones
    oc = SimplicialComplex([els[cells[i]] for i in bits(f)] for f in top
                           if f.bit_count() == base.top_rank)
    return oc, SubdivisionMap(sub, base, carrier)
