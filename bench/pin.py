"""Pin, or check, the golden outputs of every request any seed can draw.

    python3 bench/pin.py            # compare the code in src/ with golden.json
    python3 bench/pin.py --write    # rewrite golden.json from the code in src/

Each input is computed twice or more, with its element, cover and facet
lists in different orders (and, for the flag/toric posets over stacked
polytopes, from every stacked shape a seed can draw); all must give the same
digest.  Each output is also compared with an answer from ``oracles.py``
where one exists.  Any disagreement is printed and makes the exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import re
import subprocess
import sys
import tempfile

import oracles
import run
import workloads as wl


class Pinner:
    def __init__(self, lib):
        self.lib = lib
        self.digests = {}
        self.problems = []
        self.checked = 0        # outputs compared with an oracle

    def record(self, key, digests):
        if len(set(digests)) != 1:
            self.problems.append("%s: output depends on input order or "
                                 "stacked shape: %s" % (key, sorted(set(digests))))
        self.digests[key] = digests[0]

    def expect(self, key, got, want):
        self.checked += 1
        if got != want:
            self.problems.append("%s: %r, independent answer %r"
                                 % (key, got, want))


def _ints(obj):
    return {w: int(c) for w, c in obj.items()}


def pin_posets(p):
    lib = p.lib
    rng = random.Random(0)
    for recipe in wl.FLAG_RECIPES:
        seeds = (range(wl.STACKED_SEEDS) if recipe[0] == "stacked"
                 else (0, 0))
        payloads = [wl.encode_decode(wl.shuffled(
            wl.build_recipe(lib, recipe, s).to_json_obj(), rng)) for s in seeds]
        cd = oracles.recipe_cd(recipe)
        ab = oracles.expand(cd)
        h, g = oracles.morphisms(ab)
        for name in ("flag", "toric"):
            key = "%s/%s" % (name, wl.recipe_id(recipe))
            outs = []
            for obj in payloads:
                req = wl.Request(key, name, obj)
                outs.append(wl.OPS[name][1](wl.execute(lib, req)))
            p.record(key, [wl.digest(wl.canon(o)) for o in outs])
            if name == "flag":
                p.expect(key + " cd", _ints(outs[0]["cd"]), cd)
                p.expect(key + " ab", _ints(outs[0]["ab"]), ab)
            else:
                p.expect(key + " h", outs[0]["h"], h)
                p.expect(key + " g", outs[0]["g"], g)


def _faces_of(sigma):
    return 0 if sigma == "{}" else sigma.count(",") + 1


def _check_localh(p, key, rows, total, d):
    """rows: [(sigma, coefficient list)] of the barycentric d-simplex."""
    eulerian, _ = oracles.excedance_polynomials(d + 1)
    p.expect(key + " total", total, eulerian)
    for sigma, h in rows:
        p.expect("%s row %s" % (key, sigma), h,
                 oracles.excedance_polynomials(_faces_of(sigma))[1])


def _sphere_law(shape, arg):
    """cd-index of the barycentric subdivision of a 1- or 2-sphere."""
    if shape == "polygon":
        return {"cc": 1, "d": 2 * arg - 2}
    if shape == "bd" and arg == 3:
        return oracles.three_polytope(14, 24)
    if shape == "stacked":          # f0 + f1 + f2 vertices, 6 f2 triangles
        return oracles.three_polytope(6 * arg + 8, 12 * arg + 12)
    return None


def pin_subdiv(p):
    lib = p.lib
    rng = random.Random(1)
    for op, shape, arg, seed in wl.subdiv_variants():
        key = wl.subdiv_key(op, shape, arg, seed)
        base = wl.subdiv_payload(lib, op, shape, arg, seed)
        outs = []
        for _ in range(2):
            req = wl.Request(key, op, wl.encode_decode(wl.shuffled(base, rng)))
            outs.append(wl.OPS[op][1](wl.execute(lib, req)))
        p.record(key, [wl.digest(wl.canon(o)) for o in outs])
        if op == "localh":
            _check_localh(p, key, outs[0]["rows"], outs[0]["total"], arg)
        elif _sphere_law(shape, arg) is not None:
            p.expect(key + " total", _ints(outs[0]["total"]),
                     _sphere_law(shape, arg))


_TERM = re.compile(r"\s*([+-])?\s*(?:(\d+)\*)?([ab^0-9]+)")


def parse_ab(text):
    """'3*aab - 2*bab + a^3' -> {word: coefficient}."""
    out = {}
    for sign, coeff, body in _TERM.findall(text):
        word = re.sub(r"([ab])\^(\d+)", lambda m: m.group(1) * int(m.group(2)),
                      body)
        value = int(coeff or 1) * (-1 if sign == "-" else 1)
        out[word] = out.get(word, 0) + value
    return out


def _cli_oracle(p, slot, variant, key, code, text):
    argv = wl.CLI_SLOTS[slot][0]
    as_json = "json" in argv or slot.startswith("generate")
    obj = json.loads(text) if as_json else None
    recipe = next((r for r in wl.CLI_RECIPES if wl.recipe_id(r) == variant),
                  None)
    psi = oracles.expand(oracles.recipe_cd(recipe)) if recipe else None
    if slot == "cd-complex":
        k = variant[0]
        p.expect(key, _ints(obj["cd"]), oracles.three_polytope(k + 3, 2 * k + 2))
    elif slot in ("toric-h", "morphism-f"):
        got = obj["h"] if slot == "toric-h" else obj["result"]
        p.expect(key, got, oracles.morphisms(psi)[0])
    elif slot == "toric-g":
        p.expect(key, obj["g"], oracles.morphisms(psi)[1])
    elif slot == "morphism-g":
        p.expect(key, obj["result"], oracles.morphisms(parse_ab(variant))[1])
    elif slot == "localh":
        _check_localh(p, key, [(r["sigma"], r["local_h"]) for r in obj["rows"]],
                      obj["total"], variant)
    elif slot in ("eulerian-ok", "gorenstein", "strong-formal",
                  "strong-eulerian"):
        prop = "eulerian" if slot == "eulerian-ok" else slot
        p.expect(key, (code, text), (0, "%s: ok\n" % prop))
    elif slot == "eulerian-fail":
        p.expect(key, (code, text.splitlines()[0]), (2, "eulerian: FAIL"))
    elif slot == "generate-boolean":
        p.expect(key, len(obj["elements"]), 2 ** variant)
    elif slot == "generate-stacked":
        d, k, _ = variant
        p.expect(key, len(obj["facets"]), d + 1 + (k - 1) * (d - 1))
    elif slot == "generate-barycentric":
        p.expect(key, len(obj["source"]["elements"]),
                 2 * oracles.fubini(variant + 1))


def pin_cli(p):
    lib = p.lib
    rng = random.Random(2)
    env = run.cli_env()
    with tempfile.TemporaryDirectory(dir=os.path.join(run.ROOT,
                                                      ".bench_tmp")) as tmp:
        for slot, spec in sorted(wl.CLI_SLOTS.items()):
            for variant in spec[2]:
                key = wl.cli_key(slot, variant)
                digests = []
                for serial in range(2):
                    req = wl.cli_request(lib, slot, variant, rng, tmp, serial)
                    code, out = run.run_cli_child(req, env)
                    digests.append(wl.cli_digest(code, out))
                    if code != spec[3]:
                        p.problems.append("%s: exit code %d" % (key, code))
                p.record(key, digests)
                _cli_oracle(p, slot, variant, key, code, out.decode())


def git_head():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=run.ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(run.ROOT, ".bench_tmp"), exist_ok=True)
    p = Pinner(run.import_fresh())
    pin_posets(p)
    pin_subdiv(p)
    pin_cli(p)
    print("%d outputs pinned, %d compared with independent answers"
          % (len(p.digests), p.checked))
    if args.write:
        with open(run.GOLDEN, "w", encoding="utf-8") as fh:
            json.dump({"pinned_at": git_head(), "digests": p.digests}, fh,
                      indent=0, sort_keys=True)
            fh.write("\n")
    else:
        golden = run.load_golden()
        for key in sorted(set(golden) | set(p.digests)):
            if golden.get(key) != p.digests.get(key):
                p.problems.append("%s: golden %s, now %s"
                                  % (key, golden.get(key), p.digests.get(key)))
    for line in p.problems:
        print("problem: " + line)
    return 1 if p.problems else 0


if __name__ == "__main__":
    sys.exit(main())
