"""README's command-line session and library example run as written, and
print what their comments say."""

import re
import shlex
from pathlib import Path

from gfgcover import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def code_block(heading, lang):
    section = README.split("\n## " + heading + "\n", 1)[1]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


def commands(block):
    """(argv, output file or None, expected stdout or None) per command.

    A command's expected output is its trailing comment, or the quoted text
    in the comment line just above it."""
    block = block.replace("\\\n", " ")
    above = ""
    for line in block.splitlines():
        line = line.strip()
        if line.startswith("#"):
            above = line
            continue
        if not line:
            continue
        command, _, comment = line.partition("#")
        quoted = re.search(r'"([^"]+)"', above)
        expected = comment.strip() or (quoted.group(1) if quoted else None)
        argv = shlex.split(command)
        out = None
        if ">" in argv:
            out = argv[argv.index(">") + 1]
            argv = argv[: argv.index(">")]
        assert argv[0] == "gfgcover"
        yield argv[1:], out, expected
        above = ""


def test_command_line_session(tmp_path, monkeypatch, capsys):
    (tmp_path / "fixtures").symlink_to(ROOT / "fixtures")
    monkeypatch.chdir(tmp_path)
    checked = []
    for argv, out, expected in commands(code_block("Command line", "sh")):
        code = cli.main(argv)
        stdout = capsys.readouterr().out
        assert code == 0, argv
        if out is not None:
            (tmp_path / out).write_text(stdout, encoding="utf-8")
        if expected is not None:
            assert stdout == expected + "\n", argv
            checked.append(expected)
    assert checked == ["Z ⊕ Z/2", "Z^11 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2"]


def test_library_example(capsys):
    block = code_block("Library example", "python")
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert expected == ["Z^2 ⊕ Z/2 ⊕ Z/2", "Z^4 ⊕ Z/2"]
    assert printed[: len(expected)] == expected
    assert printed[len(expected)].startswith("step,")
