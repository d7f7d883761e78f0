"""Seeded fuzzing of the command line with well-formed JSON that breaks the
library's assumptions: every subcommand, in text and JSON, must answer
with a documented exit code (0, 1, 2 or 64) and let no exception escape."""
import json
import random
import sys

import pytest

import cdindex as cd
from cdindex.cli import run

COMMANDS = ([["compute", "--what", w]
             for w in ("flagf", "flagh", "ab", "upsilon", "cd", "local")]
            + [["verify", "--property", p]
               for p in ("graded", "eulerian", "lower-eulerian", "gorenstein",
                         "shelling", "strong-eulerian", "strong-formal")]
            + [["decompose"], ["localh"]]
            + [["toric", "--what", w] for w in ("g", "h")]
            + [["morphism", "--what", w] for w in ("f", "g")])

EXIT_CODES = {0, 1, 2, 64}


def an_id(rng, pool):
    """An id from pool, now and then as a bare integer, which names no
    element."""
    e = rng.choice(pool)
    return int(e[1:]) if rng.random() < 0.2 else e


def random_relation(rng):
    """Elements and pairs with loops, cycles, duplicate ids, unknown ends
    and implied pairs mixed in."""
    pool = ["v%d" % i for i in range(rng.randint(1, 7))]
    elements = list(pool)
    if rng.random() < 0.15:
        elements.append(rng.choice(pool))
    pairs = [[an_id(rng, pool), an_id(rng, pool)]
             for _ in range(rng.randint(0, 10))]
    if rng.random() < 0.15:
        pairs.append([rng.choice(pool), "unknown"])
    return {"elements": elements, "covers": pairs}


def layered_poset(rng):
    """Levels joined by covers between neighbours, with or without a
    bottom and a top, now and then with an implied pair."""
    levels = [["l%de%d" % (r, i) for i in range(rng.randint(1, 3))]
              for r in range(rng.randint(1, 4))]
    if rng.random() < 0.7:
        levels.insert(0, ["bot"])
    if rng.random() < 0.7:
        levels.append(["top"])
    covers = [[a, b] for low, high in zip(levels, levels[1:])
              for a in low for b in high if rng.random() < 0.75]
    if len(levels) > 2 and rng.random() < 0.3:
        covers.append([rng.choice(levels[0]), rng.choice(levels[2])])
    return {"elements": [e for level in levels for e in level],
            "covers": covers}


def random_complex(rng):
    """Facets on a few vertices, some empty and some repeated."""
    vertices = [str(i) for i in range(rng.randint(1, 5))]
    facets = [rng.sample(vertices, rng.randint(0, min(3, len(vertices))))
              for _ in range(rng.randint(0, 4))]
    if facets and rng.random() < 0.3:
        facets.append(list(rng.choice(facets)))
    return {"facets": facets}


def ids_of(side):
    """The element ids of a poset side, or of a complex side's face poset
    with its maximum; none when the side does not decode."""
    if "elements" in side:
        return side["elements"]
    try:
        k = cd.SimplicialComplex.from_json_obj(side)
    except cd.CdindexError:
        return []
    return list(cd.face_poset(k, with_max=True).elements)


def random_subdivision(rng):
    """A barycentric subdivision, or two random sides, whose carrier may
    name ids unknown on either side."""
    if rng.random() < 0.5:
        base = cd.make_simplex(rng.randint(0, 2))
        obj = cd.barycentric_subdivision(base)[1].to_json_obj()
    else:
        source, target = (rng.choice((layered_poset, random_complex))(rng)
                          for _ in range(2))
        targets = ids_of(target) or ["x"]
        obj = {"source": source, "target": target,
               "carrier": {s: rng.choice(targets) for s in ids_of(source)}}
    carrier = obj["carrier"]
    if rng.random() < 0.3:
        carrier["NOPE"] = rng.choice(sorted(carrier.values()) or ["x"])
    if carrier and rng.random() < 0.3:
        carrier[rng.choice(sorted(carrier))] = "NOPE"
    if carrier and rng.random() < 0.2:
        del carrier[rng.choice(sorted(carrier))]
    return obj


def bug_inputs():
    """A carrier entry for an id the source lacks, and a chain given with
    an implied pair."""
    obj = cd.barycentric_subdivision(cd.make_simplex(1))[1].to_json_obj()
    obj["carrier"]["NOPE"] = "{0}"
    chain = {"elements": ["0", "a", "b", "1"],
             "covers": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "b"]]}
    return [obj, chain]


def test_cli_exit_codes_under_fuzzed_input(capsys, tmp_path):
    rng = random.Random(19)
    makers = (random_relation, layered_poset, random_complex,
              random_subdivision)
    inputs = bug_inputs() + [rng.choice(makers)(rng) for _ in range(40)]
    path = tmp_path / "input.json"
    codes = set()
    for obj in inputs:
        path.write_text(json.dumps(obj))
        for command in COMMANDS:
            for fmt in ("text", "json"):
                argv = command + ["--input", str(path), "--format", fmt]
                code = run(argv)
                capsys.readouterr()
                assert code in EXIT_CODES, (argv, obj)
                codes.add(code)
    assert codes == {0, 2}


NINES = "9" * 5000
# integers of more digits than the interpreter converts (3.10.7 and 3.11 on)
DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")


def test_hostile_json_is_an_input_error(capsys, tmp_path):
    # nesting past the recursion limit and an over-long integer id are
    # answered as input errors, exit 1, by every command in both formats
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    long_id = tmp_path / "long_id.json"
    long_id.write_text('{"elements": [%s], "covers": []}' % NINES)
    for path, want in ((deep, 1), (long_id, 1 if DIGIT_LIMIT else None)):
        for command in COMMANDS:
            for fmt in ("text", "json"):
                code = run(command + ["--input", str(path), "--format", fmt])
                err = capsys.readouterr().err
                assert code in EXIT_CODES, (command, path)
                if want is not None:
                    assert code == want, (command, path)
                    assert err.startswith("input error: "), err[:80]


@pytest.mark.parametrize("poly", [NINES + "*ab", "a^" + NINES,
                                  "a^99999999999999999999",
                                  "a^4611686018427387904"],
                         ids=["long_coefficient", "long_exponent",
                              "exponent_past_any_word",
                              "exponent_past_any_memory"])
def test_an_integer_out_of_range_in_poly_is_a_bad_term(capsys, poly):
    # a coefficient or exponent the interpreter cannot read, or an exponent
    # no word can spell or no memory hold, exits 2 like every other bad term
    for fmt in ("text", "json"):
        code = run(["morphism", "--what", "f", "--poly", poly,
                    "--format", fmt])
        err = capsys.readouterr().err
        assert code in EXIT_CODES
        if DIGIT_LIMIT or "^" in poly:
            assert code == 2
            assert err.startswith("validation error: integer out of range")
