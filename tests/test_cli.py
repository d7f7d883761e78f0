"""Command-line interface: dispatch, formats, exit codes, determinism."""
import json
import os
import subprocess
import sys

import pytest

import cdindex as cd
from cdindex.cli import run
from conftest import square_lattice, tetra_subdivision


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


def test_generate_barycentric_feeds_localh(capsys, tmp_path):
    code, out, _ = invoke(capsys, "generate", "--shape", "barycentric",
                          "--dim", "2")
    assert code == 0
    path = tmp_path / "bary.json"
    path.write_text(out)
    code, out, _ = invoke(capsys, "localh", "--input", str(path))
    assert code == 0
    assert "total: 1 + 4*x + x^2" in out


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
])
def test_malformed_input_shape_exits_2(command, text):
    # a real process, so an uncaught exception would show as a traceback
    src = os.path.dirname(os.path.dirname(cd.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    argv = [sys.executable, "-m", "cdindex.cli", command]
    if command == "compute":
        argv += ["--what", "cd"]
    proc = subprocess.run(argv, input=text, capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


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
    assert dec.total == cd.polygon_cd(10)


def test_verify_graded(capsys, tmp_path):
    path = tmp_path / "notgraded.json"
    path.write_text(cd.build_poset(
        ["0", "a", "b", "1"],
        [("0", "a"), ("a", "1"), ("0", "b"), ("b", "a")]).to_json())
    code, out, _ = invoke(capsys, "verify", "--property", "graded",
                          "--input", str(path))
    assert code == 2 and "FAIL" in out
