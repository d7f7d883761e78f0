"""Command-line interface: dispatch, formats, exit codes, determinism."""
import io
import json
import subprocess
import sys

import pytest

import cdindex as cd
from cdindex.cli import run
from conftest import (child_env, polygon_cd, square_lattice,
                      tetra_subdivision)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(square_lattice().to_json())
    return str(path)


@pytest.fixture
def tetra_file(tmp_path):
    path = tmp_path / "tetra_subdivision.json"
    path.write_text(tetra_subdivision().to_json())
    return str(path)


def test_compute_cd_square(capsys, square_file):
    code, out, _ = invoke(capsys, "compute", "--what", "cd",
                          "--input", square_file)
    assert code == 0
    assert out == "c^2 + 2*d\n"


def test_compute_flagf_json(capsys, square_file):
    code, out, _ = invoke(capsys, "compute", "--what", "flagf",
                          "--input", square_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["flag_f"]["{1,2}"] == 8


def test_compute_accepts_complex_input(capsys, tmp_path):
    path = tmp_path / "polygon.json"
    path.write_text(cd.make_polygon(6).to_json())
    code, out, _ = invoke(capsys, "compute", "--what", "cd",
                          "--input", str(path))
    assert code == 0
    assert out.strip() == "c^2 + 4*d"


def test_compute_local(capsys, tmp_path):
    path = tmp_path / "path2.json"
    path.write_text(cd.face_poset(
        cd.SimplicialComplex([["1", "2"], ["2", "3"]]),
        with_max=True).to_json())
    code, out, _ = invoke(capsys, "compute", "--what", "local",
                          "--input", str(path))
    assert code == 0
    assert "cd: d" in out


def test_verify_eulerian_pass_fail(capsys, square_file, tmp_path):
    code, out, _ = invoke(capsys, "verify", "--property", "eulerian",
                          "--input", square_file)
    assert code == 0 and "ok" in out
    chain = tmp_path / "chain3.json"
    chain.write_text(cd.chain_poset(3).to_json())
    code, out, _ = invoke(capsys, "verify", "--property", "eulerian",
                          "--input", str(chain))
    assert code == 2
    assert "FAIL" in out


def test_verify_gorenstein(capsys, tmp_path):
    path = tmp_path / "octa.json"
    path.write_text(cd.make_boundary_simplex(3).to_json())
    code, out, _ = invoke(capsys, "verify", "--property", "gorenstein",
                          "--input", str(path))
    assert code == 0


def test_verify_shelling_with_order(capsys, tmp_path):
    path = tmp_path / "square_complex.json"
    path.write_text(cd.make_polygon(4).to_json())
    code, _, _ = invoke(capsys, "verify", "--property", "shelling",
                        "--input", str(path),
                        "--order", "0,1;1,2;2,3;0,3")
    assert code == 0
    code, _, _ = invoke(capsys, "verify", "--property", "shelling",
                        "--input", str(path),
                        "--order", "0,1;2,3;1,2;0,3")
    assert code == 2


def test_verify_shelling_with_empty_order(capsys, tmp_path):
    # an empty --order is the empty facet order, not a request to search
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"facets": [["a", "b"], ["b", "c"]]}))
    code, out, err = invoke(capsys, "verify", "--property", "shelling",
                            "--input", str(path), "--order", "")
    assert code == 2
    assert out == ""
    assert "order is not a permutation of the facets" in err
    path.write_text(json.dumps({"facets": []}))
    code, out, _ = invoke(capsys, "verify", "--property", "shelling",
                          "--input", str(path), "--order", "")
    assert code == 0
    assert out == "shelling: ok\n"


def test_verify_strong_eulerian(capsys, tetra_file):
    code, out, _ = invoke(capsys, "verify", "--property", "strong-eulerian",
                          "--input", tetra_file)
    assert code == 0


def test_decompose_tetra(capsys, tetra_file):
    code, out, _ = invoke(capsys, "decompose", "--input", tetra_file)
    assert code == 0
    assert "total: c^3 + 4*cd + 3*dc" in out
    lines = [l for l in out.splitlines() if l.startswith("{1,2}")]
    assert lines == ["{1,2}  d  c"]


def test_decompose_json_rows(capsys, tetra_file):
    code, out, _ = invoke(capsys, "decompose", "--input", tetra_file,
                          "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == {"ccc": "1", "cd": "4", "dc": "3"}
    assert len(data["rows"]) == 4


def test_toric_commands(capsys, square_file):
    code, out, _ = invoke(capsys, "toric", "--what", "h",
                          "--input", square_file)
    assert code == 0 and out.strip() == "1 + 2*x + x^2"
    code, out, _ = invoke(capsys, "toric", "--what", "g",
                          "--input", square_file)
    assert code == 0 and out.strip() == "1 + x"


def test_localh_pipe(capsys, tmp_path):
    _, m = cd.barycentric_subdivision(cd.make_simplex(2))
    path = tmp_path / "bary.json"
    path.write_text(m.to_json())
    code, out, _ = invoke(capsys, "localh", "--input", str(path))
    assert code == 0
    assert "total: 1 + 4*x + x^2" in out


def test_morphism_from_text(capsys):
    code, out, _ = invoke(capsys, "morphism", "--what", "f",
                          "--poly", "aa + 3*ab + 3*ba + bb")
    assert code == 0
    assert out.strip() == "1 + 2*x + x^2"
    code, out, err = invoke(capsys, "morphism", "--what", "f", "--poly", "a+")
    assert (code, out) == (2, "") and "cannot parse term" in err


def test_morphism_from_poset(capsys, square_file):
    code, out, _ = invoke(capsys, "morphism", "--what", "g",
                          "--input", square_file)
    assert code == 0 and out.strip() == "1 + x"


def test_generate_roundtrip(capsys):
    code, out, _ = invoke(capsys, "generate", "--shape", "stacked",
                          "--dim", "3", "--k", "2")
    assert code == 0
    k = cd.SimplicialComplex.from_json_obj(json.loads(out))
    assert cd.f_vector(k) == [1, 5, 9, 6]
    code, out, _ = invoke(capsys, "generate", "--shape", "boolean", "--n", "3")
    p = cd.GradedPoset.from_json_obj(json.loads(out))
    assert p.is_eulerian()


def test_generate_writes_json_only(capsys):
    argv = ("generate", "--shape", "polygon", "--n", "4")
    plain = invoke(capsys, *argv)
    assert plain[0] == 0 and json.loads(plain[1])["facets"]
    assert invoke(capsys, *argv, "--format", "json") == plain
    code, out, err = invoke(capsys, *argv, "--format", "text")
    assert (code, out) == (64, "")
    assert "invalid choice: 'text'" in err


def test_generate_barycentric_feeds_localh(capsys, tmp_path):
    code, out, _ = invoke(capsys, "generate", "--shape", "barycentric",
                          "--dim", "2")
    assert code == 0
    path = tmp_path / "bary.json"
    path.write_text(out)
    code, out, _ = invoke(capsys, "localh", "--input", str(path))
    assert code == 0
    assert "total: 1 + 4*x + x^2" in out


def test_a_failed_write_is_an_output_error(capsys, monkeypatch):
    # the reader of stdout went away: exit 1, the I/O code, and one line
    # that names output, as _read_input reports every failure to read
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = run(["generate", "--shape", "polygon", "--n", "4"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == ["output error: [Errno 32] Broken pipe"]


def test_exit_codes(capsys, tmp_path, square_file):
    # 1: missing file
    code, _, err = invoke(capsys, "compute", "--what", "cd",
                          "--input", str(tmp_path / "missing.json"))
    assert code == 1
    # 1: unparseable json
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = invoke(capsys, "compute", "--what", "cd",
                        "--input", str(bad))
    assert code == 1
    # 1: bytes that are not UTF-8
    bad.write_bytes(b"\xff\xfe{}")
    code, _, _ = invoke(capsys, "compute", "--what", "cd",
                        "--input", str(bad))
    assert code == 1
    # 2: cd of a non-Eulerian poset
    chain = tmp_path / "chain.json"
    chain.write_text(cd.chain_poset(3).to_json())
    code, _, err = invoke(capsys, "compute", "--what", "cd",
                          "--input", str(chain))
    assert code == 2
    # 64: usage errors
    code, _, _ = invoke(capsys, "compute", "--what", "nonsense",
                        "--input", square_file)
    assert code == 64
    # argparse refuses a bad choice before dispatch, with the usage line
    for command, flag in (("verify", "--property"), ("generate", "--shape")):
        code, out, err = invoke(capsys, command, flag, "nonsense",
                                "--input", square_file)
        assert (code, out) == (64, "")
        assert err.startswith("usage: cdindex %s [-h] %s" % (command, flag))
        assert ("\nerror: argument %s: invalid choice: 'nonsense'" % flag
                in err)
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 64
    code, _, _ = invoke(capsys, "localh", "--jobs", "2",
                        "--input", square_file)
    assert code == 64


@pytest.mark.parametrize("command, text", [
    ("compute", "5"),
    ("compute", '{"elements": ["a"]}'),
    ("compute", '{"facets": 5}'),
    ("compute", '{"elements": ["a", "b"], "covers": [["a"]]}'),
    ("decompose", '{"source": {}, "target": {}, "carrier": []}'),
    ("compute", '{"elements": [null, true], "covers": [[null, true]]}'),
    ("compute", '{"facets": [[1, [2]]]}'),
])
def test_malformed_input_shape_exits_2(command, text):
    # a real process, so an uncaught exception would show as a traceback
    argv = [sys.executable, "-m", "cdindex.cli", command]
    if command == "compute":
        argv += ["--what", "cd"]
    proc = subprocess.run(argv, input=text, capture_output=True, text=True,
                          env=child_env(), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


WRONG_IDS = [("null", None), ("true", True), ("false", False),
             ("1.5", 1.5), ('["1"]', ["1"]), ('{"a": 1}', {"a": 1})]


@pytest.mark.parametrize("spelled, bad", WRONG_IDS,
                         ids=[spelled for spelled, _ in WRONG_IDS])
def test_json_ids_must_be_strings_or_integers(capsys, tmp_path, spelled, bad):
    # str() turned these into ids like "None", "True" and "[2]" and exited 0
    inputs = [
        ("element id", {"elements": ["0", bad, "1"], "covers": []}),
        ("cover end", {"elements": ["0", "1"], "covers": [["0", bad]]}),
        ("cover end", {"elements": ["0", "1"], "covers": [[bad, "1"]]}),
        ("facet vertex", {"facets": [[1, bad]]}),
    ]
    for what, obj in inputs:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = invoke(capsys, "compute", "--what", "cd",
                                "--input", str(path))
        assert (code, out) == (2, ""), obj
        assert "%s %s is not a string or an integer" % (what, spelled) in err
    tetra = tetra_subdivision().to_json_obj()
    tetra["carrier"][next(iter(tetra["carrier"]))] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tetra))
    code, out, err = invoke(capsys, "decompose", "--input", str(path))
    assert (code, out) == (2, "")
    assert "carrier value %s is not a string or an integer" % spelled in err


def test_json_integer_ids_still_decode(capsys, tmp_path):
    b2 = {"elements": [0, 1, "2", 3],
          "covers": [[0, 1], [0, "2"], [1, 3], ["2", 3]]}
    for obj, want in ((b2, "c\n"),
                      ({"facets": [[1, 2], [2, 3], [3, 1]]}, "c^2 + d\n")):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(obj))
        assert invoke(capsys, "compute", "--what", "cd",
                      "--input", str(path)) == (0, want, "")


NON_PURE = '{"facets": [["a", "b", "c"], ["c", "d"]]}'
INPUT_ERRORS = [
    (["compute", "--what", "cd"], "[]", "input must be a JSON object"),
    (["compute", "--what", "cd"], '{"elements": 1, "covers": []}',
     'a poset is an object with "elements" and "covers" lists'),
    (["compute", "--what", "cd"], '{"elements": ["a", "b"], "covers": [[1]]}',
     "each cover must be a [lower, upper] pair"),
    (["decompose"], '{"carrier": {}}', 'a subdivision is an object with '
     '"source", "target" and a "carrier" object'),
    (["verify", "--property", "shelling"], NON_PURE,
     "shelling is defined for pure complexes"),
    (["verify", "--property", "shelling", "--order", "a,b,c;c,d"], NON_PURE,
     "shelling is defined for pure complexes"),
    (["verify", "--property", "gorenstein"], NON_PURE,
     "Gorenstein test needs a pure complex"),
]


@pytest.mark.parametrize("argv, text, message", INPUT_ERRORS)
def test_input_errors_exit_2_with_their_message(capsys, tmp_path, argv, text,
                                                message):
    path = tmp_path / "in.json"
    path.write_text(text)
    assert invoke(capsys, *argv, "--input", str(path)) == (
        2, "", "validation error: %s\n" % message)


def test_verify_shelling_of_the_bowtie_finds_none(capsys, tmp_path):
    # two triangles sharing a vertex: pure, but no order is a shelling
    path = tmp_path / "bowtie.json"
    path.write_text(json.dumps({"facets": [["a", "b", "c"], ["c", "d", "e"]]}))
    assert invoke(capsys, "verify", "--property", "shelling",
                  "--input", str(path)) == (
        2, "shelling: FAIL\nno shelling exists\n", "")


@pytest.mark.parametrize("shape, make", [
    ("simplex", lambda: cd.make_simplex(2)),
    ("boundary", lambda: cd.make_boundary_simplex(2)),
    ("cube", cd.make_cube3),
])
def test_generate_fixed_shapes(capsys, shape, make):
    code, out, err = invoke(capsys, "generate", "--shape", shape)
    assert (code, err) == (0, "")
    assert json.loads(out) == make().to_json_obj()


def test_a_vertex_named_by_the_empty_string(capsys, tmp_path):
    # its face {""} is spelled {\0}, apart from the empty face {}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"facets": [["", "a"], ["a", "b"],
                                           ["b", ""]]}))
    assert invoke(capsys, "compute", "--what", "cd",
                  "--input", str(path)) == (0, "c^2 + d\n", "")
    k = cd.SimplicialComplex.from_json(path.read_text())
    oc, m = cd.barycentric_subdivision(k)
    assert len(oc.faces()) == 13 and "{\\0}" in m.target
    assert cd.decompose_cd(cd.with_adjoined_tops(m)).total == polygon_cd(6)


def test_decompose_of_a_point(capsys, tmp_path):
    # the top is the minimum: its local index is 1, and Phi of a point is 0
    point = {"elements": ["x"], "covers": []}
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"source": point, "target": point,
                                "carrier": {"x": "x"}}))
    assert invoke(capsys, "decompose", "--input", str(path)) == (
        0, "sigma  local_cd  upper_cd\nx  1  0\ntotal: 0\n", "")
    code, out, err = invoke(capsys, "decompose", "--input", str(path),
                            "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["rows"] == [{"local_cd": {"": "1"}, "sigma": "x",
                             "upper_cd": {}}]
    assert data["total"] == {}
    assert invoke(capsys, "localh", "--input", str(path)) == (
        0, "sigma  local_h\nx  1\ntotal: 1\n", "")


def test_report_determinism(capsys, tetra_file, square_file):
    outputs = set()
    for _ in range(2):
        _, out, _ = invoke(capsys, "decompose", "--input", tetra_file,
                           "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for _ in range(2):
        _, out, _ = invoke(capsys, "compute", "--what", "flagh",
                           "--input", square_file, "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


def test_verify_gorenstein_reports_betti(capsys, tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(cd.make_boundary_simplex(3).to_json())
    code, out, _ = invoke(capsys, "verify", "--property", "gorenstein",
                          "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == [0, 0, 1]


def test_verify_gorenstein_eliminates_the_complex_once(capsys, tmp_path,
                                                     monkeypatch):
    # is_gorenstein meets the whole complex as the link of the empty face;
    # the reported Betti numbers reuse that elimination
    from cdindex import complexes as cx
    k = cd.make_boundary_simplex(3)
    path = tmp_path / "sphere.json"
    path.write_text(k.to_json())
    seen = []
    betti_all = cx._reduced_betti_all

    def counted(c):
        seen.append(c.facets)
        return betti_all(c)

    monkeypatch.setattr(cx, "_reduced_betti_all", counted)
    code, out, _ = invoke(capsys, "verify", "--property", "gorenstein",
                          "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["betti"] == [0, 0, 1]
    assert seen.count(k.facets) == 1
    assert len(seen) == len(k.faces())  # one elimination per link


def test_compute_upsilon(capsys, square_file):
    code, out, _ = invoke(capsys, "compute", "--what", "upsilon",
                          "--input", square_file)
    assert code == 0
    assert out.strip() == "a^2 + 4*ab + 4*ba + 8*b^2"


def test_verify_strong_formal(capsys, tetra_file):
    code, _, _ = invoke(capsys, "verify", "--property", "strong-formal",
                        "--input", tetra_file)
    assert code == 0


def test_generate_barycentric_of_given_base(capsys, tmp_path):
    base = tmp_path / "pentagon.json"
    base.write_text(cd.make_polygon(5).to_json())
    code, out, _ = invoke(capsys, "generate", "--shape", "barycentric",
                          "--input", str(base))
    assert code == 0
    m = cd.SubdivisionMap.from_json(out)
    dec = cd.decompose_cd(cd.with_adjoined_tops(m))
    assert dec.total == polygon_cd(10)


def test_verify_graded(capsys, tmp_path):
    # the pentagon N5 is not graded; 0 < b < a < 1, given with the implied
    # pair (0, a), is a chain, which is graded
    pentagon = {"elements": ["0", "a", "b", "c", "1"],
                "covers": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"],
                           ["c", "1"]]}
    chain = {"elements": ["0", "a", "b", "1"],
             "covers": [["0", "a"], ["a", "1"], ["0", "b"], ["b", "a"]]}
    path = tmp_path / "poset.json"
    for obj, want in ((pentagon, (2, "graded: FAIL\nrank function "
                                     "inconsistent\n")),
                      (chain, (0, "graded: ok\n"))):
        path.write_text(json.dumps(obj))
        code, out, _ = invoke(capsys, "verify", "--property", "graded",
                              "--input", str(path))
        assert (code, out) == want, obj


# (argv, exit code, modules the request must not load)
KERNELS = ("ncpoly", "flagcd", "complexes", "subdivision", "toric")
LOAD_SETS = [
    (["compute", "--what", "cd", "--input", "square.json"], 0,
     ("complexes", "subdivision", "toric")),
    (["verify", "--property", "eulerian", "--input", "square.json"], 0,
     KERNELS),
    (["toric", "--what", "h", "--input", "square.json"], 0,
     ("subdivision", "complexes")),
    (["morphism", "--what", "g", "--poly", "a^2 + 3*ab + 3*ba + b^2"], 0,
     ("subdivision", "complexes")),
    (["generate", "--shape", "boolean", "--n", "3"], 0, KERNELS),
    (["localh", "--input", "tetra.json"], 0, ("complexes",)),
    # the poset module decodes a complex to its face poset
    (["compute", "--input", "sphere.json", "--what", "cd"], 0,
     ("complexes", "subdivision", "toric")),
    (["decompose", "--input", "bary.json"], 0, ("complexes", "toric")),
    (["bogus"], 64, KERNELS + ("poset",)),
]


@pytest.mark.parametrize("argv, want, unloaded", LOAD_SETS,
                         ids=[" ".join(c[0][:3]) for c in LOAD_SETS])
def test_a_request_loads_only_the_modules_it_runs(tmp_path, argv, want,
                                                   unloaded):
    (tmp_path / "square.json").write_text(square_lattice().to_json())
    (tmp_path / "tetra.json").write_text(tetra_subdivision().to_json())
    k = cd.make_boundary_simplex(3)
    oc, m = cd.barycentric_subdivision(k)
    (tmp_path / "sphere.json").write_text(k.to_json())
    (tmp_path / "bary.json").write_text(json.dumps(
        {"source": oc.to_json_obj(), "target": k.to_json_obj(),
         "carrier": m.carrier}))
    script = ("import sys\n"
              "from cdindex import cli\n"
              "code = cli.run(sys.argv[1:])\n"
              "print(code, *sorted(sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script] + argv,
                          capture_output=True, text=True, cwd=tmp_path,
                          env=child_env(), timeout=60)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    assert int(code) == want, proc.stderr
    assert not {"cdindex." + m for m in unloaded} & set(loaded)
