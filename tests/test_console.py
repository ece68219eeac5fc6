"""The command line as a user runs it: each row of ``CONSOLE`` starts
``python -m gfgcover.cli`` in a fresh interpreter and pins its exit code,
stdout and stderr.

The rows hold what only a whole run shows: one census under three
spellings of its flag, the exact node counts of three searches (each
pinned at N, which passes, and at N - 1, which runs out of budget), tower
reports that end in a failed step, the field path of a PyYAML-read error,
and a vertex named ``yes``, which the direct YAML subset cannot write or
read, taken through the document pipeline.
"""

import hashlib
import re
from pathlib import Path

import pytest
from _helpers import run_cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SEEDED = str(FIXTURES / "seeded_torsion.yaml")
GENUS2 = str(FIXTURES / "genus2.yaml")
TABLE = "[[1,2,0],[0,1,2]]"


def shown(out: str) -> str:
    """stdout as a row pins it: whole up to ten lines, else its line
    count, SHA-256 and last line."""
    lines = out.splitlines()
    if len(lines) <= 10:
        return out
    return "%d lines, sha256 %s, last line %r" % (
        len(lines), hashlib.sha256(out.encode("utf-8")).hexdigest(), lines[-1],
    )


SEEDED_CENSUS_5 = (
    "89 lines, sha256 6392de06dbd4e633a8b289f52dc6112e0612c365e800b347503f8667dee73b45,"
    " last line '5,-5,Z^6'"
)
GENUS2_CENSUS_3 = (
    "99 lines, sha256 5445cec61465125ff643ab642f234947378a079ef3a0478de334fc55dc8fc6f0,"
    " last line '3,-6,Z^8'"
)
SEEDED_CENSUS_3 = (
    "13 lines, sha256 ba421f3209b9b4990fb27953f17faa178e36e0504f6a9d261adb25dde796d23a,"
    " last line '3,-3,Z^4'"
)
ELEVATIONS = (
    "edge,degree,least,rep,local\n"
    "~p0,1,0,2,1\n"
    "~p0,1,1,1 2 -1,3\n"
    "~p0,1,2,-1 2 1,4\n"
    "~p1,1,0,-2 1 1 1,-1 2\n"
    "~p1,1,1,1 -2 1 1,-3 2\n"
    "~p1,1,2,-1 -2 1 1 1 1,-4 2\n"
)

# argv -> (exit code, shown stdout, stderr).  A <name> in argv or stderr
# stands for the path of that document of the ``documents`` fixture.
CONSOLE = {
    # A plain argv is read directly, an abbreviated flag and --flag=value
    # go to argparse; all three print the same census.
    ("enumerate-covers", SEEDED, "--max-index", "3"): (0, SEEDED_CENSUS_3, ""),
    ("enumerate-covers", SEEDED, "--max-index=3"): (0, SEEDED_CENSUS_3, ""),
    ("enumerate-covers", SEEDED, "--max", "3"): (0, SEEDED_CENSUS_3, ""),
    # The index-5 census of seeded_torsion takes exactly 523 nodes.
    ("enumerate-covers", SEEDED, "--max-index", "5"): (0, SEEDED_CENSUS_5, ""),
    ("enumerate-covers", SEEDED, "--max-index", "5", "--budget", "523"): (0, SEEDED_CENSUS_5, ""),
    ("enumerate-covers", SEEDED, "--max-index", "5", "--budget", "522"): (
        2, "", "error: search budget exceeded (522 nodes)\n"
    ),
    # The index-3 census of genus2 takes exactly 517 nodes; its lift
    # choices are screened by the free-free pair's degree signature.
    ("enumerate-covers", GENUS2, "--max-index", "3", "--budget", "517"): (0, GENUS2_CENSUS_3, ""),
    ("enumerate-covers", GENUS2, "--max-index", "3", "--budget", "516"): (
        2, "", "error: search budget exceeded (516 nodes)\n"
    ),
    # The p = 5 piece search on seeded_torsion misses after exactly 153 nodes.
    ("torsion-piece", SEEDED, "--prime", "5", "--max-index", "4"): (
        2, "", "no torsion piece within index 4\n"
    ),
    ("torsion-piece", SEEDED, "--prime", "5", "--max-index", "4", "--budget", "153"): (
        2, "", "no torsion piece within index 4\n"
    ),
    ("torsion-piece", SEEDED, "--prime", "5", "--max-index", "4", "--budget", "152"): (
        2, "", "error: search budget exceeded (152 nodes)\n"
    ),
    ("tower", SEEDED, "--steps", "1", "--primes", "2", "--budget", "200000"): (
        0,
        "step,prime,degree,e_2,ratio_2,status\n"
        "0,,1,0,0/1,base\n"
        "1,2,8,1,1/8,ok\n",
        "",
    ),
    # At p = 3 the one chain length the step builds fails the ledger.
    ("tower", SEEDED, "--steps", "1", "--primes", "3"): (
        2,
        "step,prime,degree,e_3,ratio_3,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 3: ratio 0 below bound 1/8\n",
        "",
    ),
    # Step 2 runs on the assembled step-1 cover and stops at the copy count.
    ("tower", SEEDED, "--steps", "2", "--primes", "2,2"): (
        2,
        "step,prime,degree,e_2,e_2,ratio_2,ratio_2,status\n"
        "0,,1,0,0,0/1,0/1,base\n"
        "1,2,8,1,1,1/8,1/8,ok\n"
        "2,,,,,,,failed:assembly:no copy count keeps enough of the previous cover\n",
        "",
    ),
    # Step 2 at p = 5 tests its lifts until the budget runs out.
    ("tower", SEEDED, "--steps", "2", "--primes", "2,5", "--budget", "20000"): (
        2,
        "step,prime,degree,e_2,e_5,ratio_2,ratio_5,status\n"
        "0,,1,0,0,0/1,0/1,base\n"
        "1,2,8,1,,1/8,,ok\n"
        "2,,,,,,,failed:budget:search budget exceeded (20000 nodes)\n",
        "",
    ),
    ("complete", "<chain>", "--bound", "-1"): (
        1, "", "error: --bound: bound must be at least 0, got -1\n"
    ),
    # The first ref of the chain is edges[0].fwd.
    ("h1", "<bool-chain>"): (
        1, "", "error: <bool-chain>.morphism.edges[0].fwd.least: expected int, got bool\n"
    ),
    # The document and --table both go to PyYAML's safe loader, and the
    # cover is the unrenamed fixture's.
    ("elevations", "<yes-gog>", "--vertex", "yes", "--table", TABLE): (0, ELEVATIONS, ""),
    ("elevations", SEEDED, "--vertex", "v", "--table", TABLE): (0, ELEVATIONS, ""),
    ("validate", "<yes-cover>"): (0, "ok\n", ""),
    ("h1", "<yes-cover>"): (0, "Z^8 ⊕ Z/2 ⊕ Z/2\n", ""),
}


def written(folder: Path, name: str, *argv: str) -> str:
    """Run a command that must succeed silently; save its stdout as
    folder/name.yaml and return the path."""
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, ""), argv
    path = folder / (name + ".yaml")
    path.write_text(out, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    folder = tmp_path_factory.mktemp("console")
    piece = written(folder, "piece", "torsion-piece", SEEDED, "--prime", "2", "--max-index", "4")
    chain = written(folder, "chain", "chain", piece, "--copies", "2")
    text = Path(chain).read_text(encoding="utf-8")
    # A YAML true leaves the direct subset, so PyYAML reads the file.
    text = text.replace("least: 0", "least: true", 1)
    assert text.count("least: true") == 1
    bool_chain = folder / "bool-chain.yaml"
    bool_chain.write_text(text, encoding="utf-8")
    # "yes" is not a bare name, so PyYAML writes and reads every document
    # made from this one.
    text = Path(SEEDED).read_text(encoding="utf-8")
    text = text.replace("name: v,", 'name: "yes",').replace("to: v,", 'to: "yes",')
    text = re.sub(r"(?m)^base_vertex: v$", 'base_vertex: "yes"', text)
    assert text.count('"yes"') == 4
    yes = folder / "yes.yaml"
    yes.write_text(text, encoding="utf-8")
    yes_piece = written(
        folder, "yes-piece", "torsion-piece", str(yes), "--prime", "2", "--max-index", "4"
    )
    assert "name: 'yes'" in Path(yes_piece).read_text(encoding="utf-8")
    yes_chain = written(folder, "yes-chain", "chain", yes_piece, "--copies", "2")
    return {
        "<chain>": chain,
        "<bool-chain>": str(bool_chain),
        "<yes-gog>": str(yes),
        "<yes-cover>": written(folder, "yes-cover", "complete", yes_chain, "--bound", "24"),
    }


@pytest.mark.parametrize(
    "argv", list(CONSOLE),
    ids=[" ".join(Path(word).name for word in argv) for argv in CONSOLE],
)
def test_console_run(argv, documents):
    code, out, err = run_cli(*(documents.get(word, word) for word in argv))
    expected_code, expected_out, expected_err = CONSOLE[argv]
    for name, path in documents.items():
        expected_err = expected_err.replace(name, path)
    assert (code, shown(out), err) == (expected_code, expected_out, expected_err)
