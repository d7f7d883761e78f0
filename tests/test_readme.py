"""The README's examples run as printed: the library tour and the shell
examples, in process, with the outputs the README shows."""
import io
import shlex
import sys
from pathlib import Path

from cdindex.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"

# (README line, the last line it prints)
SHELL = [
    ("cdindex generate --shape polygon --n 4 > square.json", None),
    ("cdindex compute --what cd --input square.json          # c^2 + 2*d",
     "c^2 + 2*d"),
    ("cdindex generate --shape stacked --dim 3 --k 2 | cdindex compute "
     "--what cd\n                                                       "
     "# c^3 + 4*cd + 3*dc", "c^3 + 4*cd + 3*dc"),
    ("cdindex generate --shape barycentric --dim 2 | cdindex localh",
     "total: 1 + 4*x + x^2"),
    ('cdindex verify --property shelling --input square.json '
     '--order "0,1;1,2;2,3;0,3"', "shelling: ok"),
]


def fenced_block(text, heading, lang):
    """The first fenced block of language lang after the heading."""
    start = text.index("```%s\n" % lang, text.index(heading)) + len(lang) + 4
    return text[start:text.index("```", start)]


def test_library_tour_prints_what_the_readme_says():
    tour = fenced_block(README.read_text(encoding="utf-8"),
                        "## Library tour", "python")
    namespace, shown = {}, []
    for line in tour.splitlines():
        code, _, comment = line.partition("#")
        if comment and code.strip():
            value = eval(code, namespace)
            assert str(value) in comment, line
            shown.append(str(value))
        else:
            exec(code, namespace)
    assert shown == ["c^2 + 2*d", "1 + 2*x + x^2", "1 + 4*x + x^2",
                     "c^2 + 4*d"]


def shell(line, capsys, monkeypatch):
    """Run one README shell line, whose stages are cdindex commands joined
    by |, with an optional > redirection; return what it prints."""
    text = ""
    for stage in line.split(" | "):
        argv, target = shlex.split(stage, comments=True), None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[-1]
        assert argv[0] == "cdindex", line
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run(argv[1:]) == 0, line
        text = capsys.readouterr().out
    if target is not None:
        Path(target).write_text(text, encoding="utf-8")
        return None
    return text


def test_shell_examples_print_what_the_readme_says(capsys, monkeypatch,
                                                    tmp_path):
    readme = README.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line, want in SHELL:
        assert line in readme, line
        out = shell(line, capsys, monkeypatch)
        assert (out if want is None else out.splitlines()[-1]) == want, line
