"""Simplicial complexes as facet lists, faces derived on first read: order
complexes, star/link, classical f/h-vectors, rational reduced homology,
Gorenstein predicates, shelling verification, and the generators.

Face posets, their ids and the decode of a complex-form input are the
poset module's; its ``face_poset`` and ``face_id`` are bound here too.

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
        if dim is None:
            return self._faces
        return {f for f in self._faces if len(f) == dim + 1}

    def is_pure(self):
        return len({len(f) for f in self.facets}) <= 1

    def __contains__(self, face):
        return frozenset(str(v) for v in face) in self.faces()

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
    d = k.dim
    return [len(k.faces(i)) for i in range(-1, d + 1)]


class HVector(Record):
    """Classical h-vector of a pure (d-1)-dimensional complex."""

    __slots__ = ("d", "h")

    def polynomial(self):
        from .ncpoly import UniPolynomial
        return UniPolynomial(self.h)

    def __iter__(self):
        return iter(self.h)


def h_vector(k):
    """h-vector via sum f_{i-1} (x-1)^{d-i} = sum h_i x^{d-i}."""
    from .ncpoly import UniPolynomial
    if not k.is_pure():
        raise NotPure("h-vector needs a pure complex")
    d = k.dim + 1
    f = f_vector(k)
    poly = UniPolynomial.zero()
    for i in range(d + 1):
        poly = poly + UniPolynomial((-1, 1)) ** (d - i) * f[i]
    # poly = sum h_i x^{d-i}; read coefficients back off
    h = tuple(poly[d - i] for i in range(d + 1))
    return HVector(d, h)


def flag_to_h(p):
    """h-vector of the order complex from the flag h-vector of the poset."""
    from .flagcd import flag_h
    p.require_bounds()
    d = p.top_rank - 1
    if d < 0:
        raise DomainError("rank-0 poset has no order complex h-vector")
    if d == 0:
        return HVector(0, (1,))
    fh = flag_h(p)
    h = [0] * (d + 1)
    for mask, value in fh.values.items():
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
    d = k.dim
    faces_by_dim = {i: sorted(k.faces(i), key=sorted)
                    for i in range(-1, d + 1)}
    ranks = {i: _boundary_rank(faces_by_dim[i], faces_by_dim[i - 1])
             for i in range(0, d + 1)}
    ranks[d + 1] = 0
    betti = {}
    for i in range(-1, d + 1):
        dim_ci = len(faces_by_dim.get(i, []))
        betti[i] = dim_ci - ranks.get(i, 0) - ranks.get(i + 1, 0)
    return betti


def _betti(k):
    """_reduced_betti_all of k, computed once per complex."""
    if k._betti is None:
        k._betti = _reduced_betti_all(k)
    return k._betti


def reduced_betti(k):
    """Reduced rational Betti numbers in dimensions 0..dim."""
    betti = _betti(k)
    return [betti[i] for i in range(0, k.dim + 1)]


def _is_homology_sphere(k, n):
    """k has the reduced rational homology of an n-sphere (n >= -1)."""
    if k.dim != n:
        return False
    betti = _betti(k)
    return all(v == (1 if i == n else 0) for i, v in betti.items())


def _is_homology_trivial(k):
    betti = _betti(k)
    return all(v == 0 for v in betti.values())


def _links_ok(k, trivial):
    """Walking the faces of k by size: the link of a face in ``trivial`` is
    homology-trivial, that of any other face a homology sphere of dimension
    dim k - |face|."""
    n = k.dim
    return all(_is_homology_trivial(link(k, f)) if f in trivial
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
    if bd.dim != k.dim - 1 or not is_gorenstein(bd):
        return False
    return _links_ok(k, bd.faces())


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
    if not order:
        return True
    prev = _closure_of(order[0])
    for facet in order[1:]:
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
    verts = [str(i) for i in range(d + 1)]
    return SimplicialComplex(list(combinations(verts, d)))


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
    next_vertex = d + 1
    for _ in range(k - 1):
        target = recent[rng.randrange(len(recent))]
        v = str(next_vertex)
        next_vertex += 1
        new_simplex = target | {v}
        simplices.append(new_simplex)
        sphere.remove(target)
        created = [frozenset(t | {v})
                   for t in (target - {u} for u in sorted(target))]
        sphere.update(created)
        recent = created
    return StackedPolytope(
        boundary=SimplicialComplex(sorted(sphere, key=sorted)),
        triangulation=SimplicialComplex(simplices),
        order=tuple(simplices))


def barycentric_subdivision(k):
    """Barycentric subdivision with its carrier map onto the base complex.

    Vertices of the subdivision are the nonempty faces of k; the carrier of
    a chain is its maximal element.  Returns (complex, SubdivisionMap); the
    map runs between the bare face posets.  For a sphere-style base, adjoin
    formal maxima with subdivision.with_adjoined_tops before decomposing.
    """
    from .subdivision import SubdivisionMap
    base = face_poset(k, with_max=False)
    oc = order_complex(ps.adjoin_max(base))
    sub = face_poset(oc, with_max=False)
    carrier = {face_id(f): max(f, key=base.rank, default=base.min_elt)
               for f in oc.faces()}
    return oc, SubdivisionMap(sub, base, carrier)
