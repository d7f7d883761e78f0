"""The four benchmark workloads: seeded inputs, one request, and its check.

A workload draws one *cycle* of requests from its seed.  The timed loop
repeats the cycle until the run's time is up.  Every request starts from
decoded JSON, so it pays for poset or subdivision construction and
validation the way a command-line user does.  Its output is reduced to
canonical bytes whose digest must equal the one pinned in ``golden.json``.

The catalogues below are finite and do not depend on the library, so
``golden.json`` covers every input any seed can draw.  The seed picks only
among variants of equal size and nearly equal cost (stacked polytope
shapes, the order of elements, covers, facets and requests), so that a
cycle costs the same from seed to seed and runs with different seeds can
be compared.
"""
from __future__ import annotations

import hashlib
import json
import os
import random

WHY = {
    "flag": "flag DP, to_cd and one is_eulerian do almost all the work; "
            "no toric and almost no induced; peak RSS tracks the 2^n DP tables",
    "toric": "same posets as flag but a disjoint hot layer (toric g/h "
             "recursions and UniPolynomial arithmetic); a flag-DP change "
             "should leave it flat",
    "subdiv": "many small posets: induced sub-posets, Eulerian re-checks, "
              "local indexes and validation of subdivisions, where mask "
              "views and canonical-form memos act",
    "cli": "one interpreter per request: start-up, import, JSON decode, "
           "output, exit codes and complexes homology are measured only here",
}

# The tail percentile of each workload: about the highest with at least
# ten samples beyond it in the three cycles every run sends (see
# run.min_cycles).  It is fixed, so that a faster library does not change
# which percentile is reported, and it falls inside one request slot of the
# cycle (the 27th of 30, the 10th of 13, the 14th of 17, by cost) rather
# than on the edge between two.
TAIL_PERCENTILE = {"flag": 88, "toric": 88, "subdiv": 73, "cli": 80}

# -- shared helpers -----------------------------------------------------------


def canon(obj):
    """Canonical JSON bytes of a decoded-JSON value."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(data):
    return hashlib.sha256(data).hexdigest()[:32]


def cli_digest(code, stdout):
    return digest(b"%d\n" % code + stdout)


def shuffled(obj, rng):
    """The same poset, complex or subdivision with its lists reordered."""
    if "carrier" in obj:
        items = list(obj["carrier"].items())
        rng.shuffle(items)
        return {"source": shuffled(obj["source"], rng),
                "target": shuffled(obj["target"], rng),
                "carrier": dict(items)}
    if "facets" in obj:
        facets = [rng.sample(f, len(f)) for f in obj["facets"]]
        rng.shuffle(facets)
        return {"facets": facets}
    elements = list(obj["elements"])
    covers = list(obj["covers"])
    rng.shuffle(elements)
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}


def encode_decode(obj):
    """Round-trip through JSON text, as a file on disk would."""
    return json.loads(json.dumps(obj))


# -- the poset family of flag and toric -----------------------------------------

FLAG_RANK = 10      # every flag/toric poset has rank 10 (proper rank 9)
CLI_RANK = 8        # the mid-sized posets of the cli workload
MAX_ELEMENTS = 700
STACKED_SEEDS = 8   # make_stacked shapes a flag/toric seed may draw
SHAPE_SEEDS = 4     # the same for subdiv and cli, whose outputs name faces


def base_size(fam, arg):
    """Elements of the base face lattice, bounds included."""
    if fam == "polygon":
        return 2 * arg + 2
    if fam == "cube":
        return 28
    if fam == "stacked":            # f0 + f1 + f2 + 2 = (k+3)+(3k+3)+(2k+2)+2
        return 6 * arg + 10
    return 2 ** arg                 # boolean algebra B_n


def base_rank(fam, arg):
    return arg if fam == "boolean" else (3 if fam == "polygon" else 4)


def recipe_size(recipe):
    fam, arg, ops = recipe
    n = base_size(fam, arg)
    for op in ops:
        n = 2 * n if op == "P" else n + 2 if op == "S" else n
    return n


def recipe_id(recipe):
    fam, arg, ops = recipe
    return "%s%s:%s" % (fam, arg if fam != "cube" else "", ops)


def make_recipes(rank, count, catalog_seed, max_pyramids=4):
    """Base face lattice plus pyramid (P), suspension (S) and dual (D)
    steps up to the given rank; fixed by catalog_seed, not by the run seed."""
    rng = random.Random(catalog_seed)
    bases = ([("polygon", n) for n in range(3, 9)] + [("cube", 0)]
             + [("stacked", k) for k in range(2, 7)]
             + [("boolean", n) for n in (2, 3, 4)])
    out, seen = [], set()
    while len(out) < count:
        fam, arg = bases[rng.randrange(len(bases))]
        steps = rank - base_rank(fam, arg)
        pyramids = rng.randint(1, max_pyramids)
        if pyramids > steps:
            continue
        ops = ["P"] * pyramids + ["S"] * (steps - pyramids)
        rng.shuffle(ops)
        if rng.random() < 0.5:
            ops.insert(rng.randint(0, len(ops)), "D")
        recipe = (fam, arg, "".join(ops))
        if recipe_size(recipe) > MAX_ELEMENTS or recipe_id(recipe) in seen:
            continue
        seen.add(recipe_id(recipe))
        out.append(recipe)
    return out


FLAG_RECIPES = make_recipes(FLAG_RANK, 30, catalog_seed=2016)
CLI_RECIPES = make_recipes(CLI_RANK, 6, catalog_seed=1604, max_pyramids=3)


def build_recipe(lib, recipe, stacked_seed=0):
    ps, cx = lib.poset, lib.complexes
    fam, arg, ops = recipe
    if fam == "polygon":
        p = cx.face_poset(cx.make_polygon(arg), with_max=True)
    elif fam == "cube":
        p = cx.make_cube3()
    elif fam == "stacked":
        p = cx.face_poset(cx.make_stacked(3, arg, seed=stacked_seed).boundary,
                          with_max=True)
    else:
        p = ps.boolean_poset(arg)
    step = {"P": ps.pyramid, "S": ps.suspension, "D": ps.dual}
    for op in ops:
        p = step[op](p)
    return p


def poset_payload(lib, recipe, rng):
    seed = rng.randrange(STACKED_SEEDS) if recipe[0] == "stacked" else 0
    return shuffled(build_recipe(lib, recipe, seed).to_json_obj(), rng)


# -- requests -----------------------------------------------------------------


class Request:
    """One request: a golden key, an operation and its input."""

    __slots__ = ("key", "op", "payload", "argv", "expect_code")

    def __init__(self, key, op, payload=None, argv=None, expect_code=0):
        self.key = key
        self.op = op
        self.payload = payload
        self.argv = argv
        self.expect_code = expect_code


def run_flag(lib, obj):
    p = lib.poset.GradedPoset.from_json_obj(obj)
    return lib.flagcd.cd_index(p), lib.flagcd.ab_index(p)


def out_flag(result):
    cd, ab = result
    return {"cd": cd.to_json_obj(), "ab": ab.to_json_obj()}


def run_toric(lib, obj):
    p = lib.poset.GradedPoset.from_json_obj(obj)
    return lib.toric.toric_h(p), lib.toric.g_poly(p)


def out_toric(result):
    h, g = result
    return {"h": h.to_json_obj(), "g": g.to_json_obj()}


def run_decompose(lib, obj):
    return lib.subdivision.decompose_cd(
        lib.subdivision.SubdivisionMap.from_json_obj(obj))


def out_decompose(dec):
    return {"rows": [[r.sigma, r.local_cd.to_json_obj(),
                      r.upper_cd.to_json_obj()] for r in dec.rows],
            "total": dec.total.to_json_obj()}


def run_localh(lib, obj):
    return lib.toric.local_h(lib.subdivision.SubdivisionMap.from_json_obj(obj))


def out_localh(table):
    return {"rows": [[s, h.to_json_obj()] for s, h in table.rows],
            "total": table.total.to_json_obj()}


OPS = {"flag": (run_flag, out_flag), "toric": (run_toric, out_toric),
       "decompose": (run_decompose, out_decompose),
       "localh": (run_localh, out_localh)}


def execute(lib, req):
    """Run one library request; return its result object."""
    return OPS[req.op][0](lib, req.payload)


def request_digest(req, result):
    return digest(canon(OPS[req.op][1](result)))


# -- subdiv ---------------------------------------------------------------------


def sphere_subdivision(lib, k):
    """Barycentric subdivision of a sphere complex, in complex form; both
    sides get their formal maximum when decoded."""
    oc, m = lib.complexes.barycentric_subdivision(k)
    return {"source": oc.to_json_obj(), "target": k.to_json_obj(),
            "carrier": dict(m.carrier)}


def sphere_complex(lib, shape, arg, seed=0):
    cx = lib.complexes
    if shape == "polygon":
        return cx.make_polygon(arg)
    if shape == "bd":
        return cx.make_boundary_simplex(arg)
    return cx.make_stacked(3, arg, seed=seed).boundary


def simplex_subdivision(lib, d):
    """Barycentric subdivision of the d-simplex, as poset-form JSON."""
    _, m = lib.complexes.barycentric_subdivision(lib.complexes.make_simplex(d))
    return m.to_json_obj()


# one slot per request of a cycle: (op, shape, size); the seed picks the
# shape of the stacked polytopes.  The count of slots is odd, so that the
# median request falls inside one slot rather than between two.
SUBDIV_SLOTS = (
    [("decompose", "polygon", 8),
     ("decompose", "bd", 3), ("decompose", "bd", 4)]
    + [("decompose", "stacked", k) for k in range(2, 9)]
    + [("localh", "simplex", d) for d in (2, 3, 4)])


def subdiv_variants():
    """Every (op, shape, size, shape seed) the subdiv workload can draw."""
    return [(op, shape, arg, s) for op, shape, arg in SUBDIV_SLOTS
            for s in (range(SHAPE_SEEDS) if shape == "stacked" else (0,))]


def subdiv_key(op, shape, arg, seed):
    tail = "s%d" % seed if shape == "stacked" else ""
    return "subdiv/%s:%s%d%s" % (op, shape, arg, tail)


def subdiv_payload(lib, op, shape, arg, seed):
    if op == "localh":
        return simplex_subdivision(lib, arg)
    return sphere_subdivision(lib, sphere_complex(lib, shape, arg, seed))


# -- cli ----------------------------------------------------------------------

MORPHISM_POLYS = ("aabab + 3*bbaba", "a^3 + 2*ab^2 - ba",
                  "3*aab - 2*bab + bba", "abba + baab - 4*aaaa")


def _cli_poset(lib, recipe):
    return build_recipe(lib, recipe).to_json_obj()


def _cli_non_eulerian(lib, recipe):
    ps = lib.poset
    return ps.join(build_recipe(lib, recipe), ps.chain_poset(2)).to_json_obj()


def _cli_stacked(lib, arg):
    k, s = arg
    return lib.complexes.make_stacked(3, k, seed=s).boundary.to_json_obj()


def _cli_stacked4(lib, arg):
    k, s = arg
    return lib.complexes.make_stacked(4, k, seed=s).boundary.to_json_obj()


def _cli_sphere(lib, arg):
    k, s = arg
    return sphere_subdivision(lib, lib.complexes.make_stacked(3, k, seed=s)
                              .boundary)


def _cli_simplex(lib, d):
    return simplex_subdivision(lib, d)


_RIDS = tuple(recipe_id(r) for r in CLI_RECIPES)
_SEEDS = tuple(range(SHAPE_SEEDS))

# name -> (argv before --input, input maker or None, variants, exit code);
# the variants of a slot differ in shape or order, not in size.  The count
# of slots is odd, so that the median request falls inside one slot.
CLI_SLOTS = {
    "flagf": (["compute", "--what", "flagf"], _cli_poset, _RIDS[0:1], 0),
    "cd": (["compute", "--what", "cd"], _cli_poset, _RIDS[1:2], 0),
    "cd-complex": (["compute", "--what", "cd", "--format", "json"],
                   _cli_stacked, tuple((7, s) for s in _SEEDS), 0),
    "eulerian-ok": (["verify", "--property", "eulerian"], _cli_poset,
                    _RIDS[2:3], 0),
    "eulerian-fail": (["verify", "--property", "eulerian"], _cli_non_eulerian,
                      _RIDS[3:4], 2),
    "gorenstein": (["verify", "--property", "gorenstein"], _cli_stacked4,
                   tuple((3, s) for s in _SEEDS), 0),
    "strong-formal": (["verify", "--property", "strong-formal"],
                      _cli_simplex, (3,), 0),
    "strong-eulerian": (["verify", "--property", "strong-eulerian"],
                        _cli_sphere, tuple((4, s) for s in _SEEDS), 0),
    "toric-h": (["toric", "--what", "h", "--format", "json"], _cli_poset,
                _RIDS[4:5], 0),
    "toric-g": (["toric", "--what", "g", "--format", "json"], _cli_poset,
                _RIDS[1:2], 0),
    "localh": (["localh", "--format", "json"], _cli_simplex, (3,), 0),
    "decompose": (["decompose"], _cli_sphere, tuple((4, s) for s in _SEEDS),
                  0),
    "morphism-f": (["morphism", "--what", "f", "--format", "json"],
                   _cli_poset, _RIDS[5:6], 0),
    "morphism-g": (["morphism", "--what", "g", "--format", "json"], None,
                   MORPHISM_POLYS, 0),
    "generate-stacked": (["generate", "--shape", "stacked"], None,
                         tuple((3, 8, s) for s in _SEEDS), 0),
    "generate-barycentric": (["generate", "--shape", "barycentric"], None,
                             (3,), 0),
    "generate-boolean": (["generate", "--shape", "boolean"], None, (6,), 0),
}


def cli_key(slot, variant):
    if isinstance(variant, tuple):
        variant = "-".join(map(str, variant))
    return "cli/%s:%s" % (slot, variant)


def cli_variant_argv(slot, variant):
    """Arguments that select a variant without an input file."""
    if slot == "morphism-g":
        return ["--poly", variant]
    if slot == "generate-stacked":
        d, k, s = variant
        return ["--dim", str(d), "--k", str(k), "--seed", str(s)]
    if slot == "generate-barycentric":
        return ["--dim", str(variant)]
    if slot == "generate-boolean":
        return ["--n", str(variant)]
    return []


def cli_input(lib, slot, variant):
    maker = CLI_SLOTS[slot][1]
    if maker is None:
        return None
    if maker in (_cli_poset, _cli_non_eulerian):
        variant = next(r for r in CLI_RECIPES if recipe_id(r) == variant)
    return maker(lib, variant)


def cli_request(lib, slot, variant, rng, workdir, serial):
    argv = list(CLI_SLOTS[slot][0]) + cli_variant_argv(slot, variant)
    obj = cli_input(lib, slot, variant)
    if obj is not None:
        path = os.path.join(workdir, "in%03d.json" % serial)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(shuffled(obj, rng), fh)
        argv += ["--input", path]
    return Request(cli_key(slot, variant), "cli", argv=argv,
                   expect_code=CLI_SLOTS[slot][3])


# -- drawing a cycle ---------------------------------------------------------------


def draw_cycle(name, lib, seed, workdir=None):
    """The seeded list of requests one cycle of the workload sends."""
    rng = random.Random("%s/%d" % (name, seed))
    if name in ("flag", "toric"):
        reqs = [Request("%s/%s" % (name, recipe_id(r)), name,
                        encode_decode(poset_payload(lib, r, rng)))
                for r in FLAG_RECIPES]
    elif name == "subdiv":
        reqs = []
        for op, shape, arg in SUBDIV_SLOTS:
            s = rng.randrange(SHAPE_SEEDS) if shape == "stacked" else 0
            payload = shuffled(subdiv_payload(lib, op, shape, arg, s), rng)
            reqs.append(Request(subdiv_key(op, shape, arg, s), op,
                                encode_decode(payload)))
    else:
        reqs = [cli_request(lib, slot, rng.choice(spec[2]), rng, workdir, i)
                for i, (slot, spec) in enumerate(sorted(CLI_SLOTS.items()))]
    rng.shuffle(reqs)
    return reqs


def input_summary(name, cycle):
    """Sizes of the inputs of one cycle, for the run's report."""
    mix = {}
    for r in cycle:
        kind = r.key.split(":")[0].split("/", 1)[1] if name == "cli" else r.op
        mix[kind] = mix.get(kind, 0) + 1
    out = {"requests_per_cycle": len(cycle), "mix": mix}
    if name in ("flag", "toric"):
        sizes = sorted(len(r.payload["elements"]) for r in cycle)
        out.update(rank=FLAG_RANK, elements_min=sizes[0],
                   elements_median=sizes[len(sizes) // 2],
                   elements_max=sizes[-1])
    elif name == "subdiv":
        out["source_target_elements"] = sorted(
            (_count(r.payload["source"]), _count(r.payload["target"]))
            for r in cycle)
    else:
        out["cli_poset_rank"] = CLI_RANK
    return out


def _count(obj):
    if "elements" in obj:
        return len(obj["elements"])
    faces = set()
    for f in obj["facets"]:
        f = sorted(f)
        for mask in range(1, 1 << len(f)):
            faces.add(tuple(v for i, v in enumerate(f) if mask >> i & 1))
    return len(faces) + 2           # the empty face and the formal maximum
