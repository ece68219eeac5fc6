import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from gfgcover import cli
from gfgcover.covers import find_torsion_piece, identity_cover, isomorphic
from gfgcover.gog import GraphOfGroups

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HNN_F1 = str(FIXTURES / "hnn_f1.yaml")
GENUS2 = str(FIXTURES / "genus2.yaml")
SEEDED = str(FIXTURES / "seeded_torsion.yaml")


def tower_config(tmp_path, **fields):
    """Write a one-step tower-config over the seeded fixture, with overrides."""
    doc = {
        "format_version": 1,
        "kind": "tower-config",
        "steps": 1,
        "primes": [2],
        "base": cli.gog_to_payload(load_gog(SEEDED)),
        **fields,
    }
    path = tmp_path / "tower.yaml"
    path.write_text(cli.save_document(doc), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_gog(path):
    return cli.parse_document(cli.load_document(path), path)


@pytest.fixture(scope="module")
def piece_file(tmp_path_factory):
    g = load_gog(SEEDED)
    piece = find_torsion_piece(g, 2, 4)
    path = tmp_path_factory.mktemp("docs") / "piece.yaml"
    path.write_text(cli.save_document(cli.document_for_piece(piece)), encoding="utf-8")
    return str(path)


class TestDocuments:
    @pytest.mark.parametrize("path", [HNN_F1, GENUS2, SEEDED])
    def test_gog_round_trip(self, path):
        g = load_gog(path)
        saved = cli.save_document(cli.document_for_gog(g))
        original = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        assert yaml.safe_load(saved) == original

    def test_morphism_round_trip(self):
        m = identity_cover(load_gog(SEEDED))
        doc = cli.document_for_morphism(m)
        text = cli.save_document(doc)
        back = cli.parse_document(yaml.safe_load(text), "mem")
        assert back.vertex_map == m.vertex_map
        assert back.pair_spec == m.pair_spec
        assert back.total.base_vertex == m.total.base_vertex
        assert isomorphic(back, m)
        assert cli.save_document(cli.document_for_morphism(back)) == text

    def test_piece_round_trip(self, piece_file):
        piece = cli.parse_document(cli.load_document(piece_file), piece_file)
        assert (piece.prime, piece.c1, piece.c2) == (2, "c@0.1", "c@0.2")
        assert (piece.certificate.betti, piece.certificate.divisors) == (2, (2, 2))
        again = cli.save_document(cli.document_for_piece(piece))
        assert again == Path(piece_file).read_text(encoding="utf-8")

    def test_unknown_format_version(self, tmp_path):
        doc = yaml.safe_load(Path(HNN_F1).read_text(encoding="utf-8"))
        doc["format_version"] = 99
        bad = tmp_path / "bad.yaml"
        bad.write_text(cli.save_document(doc), encoding="utf-8")
        with pytest.raises(cli.SchemaError, match="format_version"):
            cli.load_document(str(bad))

    def test_unknown_kind(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("format_version: 1\nkind: graph\n", encoding="utf-8")
        with pytest.raises(cli.SchemaError, match="unknown kind"):
            cli.load_document(str(bad))

    def test_missing_involution_partner_names_edge(self):
        data = {
            "format_version": 1,
            "kind": "gog",
            "vertices": [{"name": "v", "kind": "free", "rank": 1}],
            "base_vertex": "v",
            "edges": [{"name": "p", "to": "v", "word": [1]}],
        }
        with pytest.raises(cli.SchemaError, match=r"'p' has no involution partner '~p'"):
            cli.parse_document(data, "doc")

    def test_error_paths_name_the_field(self):
        data = yaml.safe_load(Path(SEEDED).read_text(encoding="utf-8"))
        data["edges"][0]["word"] = [0]
        with pytest.raises(cli.SchemaError, match=r"doc\.edges\[0\]\.word\[0\]"):
            cli.parse_document(data, "doc")
        data = yaml.safe_load(Path(SEEDED).read_text(encoding="utf-8"))
        data["vertices"][0]["kind"] = "solvable"
        with pytest.raises(cli.SchemaError, match=r"vertices\[0\]\.kind"):
            cli.parse_document(data, "doc")

    def test_piece_document_rejects_wide_boundary(self, piece_file):
        data = cli.load_document(piece_file)
        data["c1"] = "c@1"
        with pytest.raises(cli.SchemaError, match="exactly one incident edge"):
            cli.parse_document(data, "doc")

    def test_piece_document_rejects_composite_prime(self, piece_file):
        data = cli.load_document(piece_file)
        data["prime"] = 6
        with pytest.raises(cli.SchemaError, match="prime"):
            cli.parse_document(data, "doc")

    @pytest.mark.parametrize("path", [HNN_F1, GENUS2, SEEDED, "piece"])
    def test_libyaml_matches_pure_python(self, path, piece_file):
        path = piece_file if path == "piece" else path
        text = Path(path).read_text(encoding="utf-8")
        doc = cli.load_document(path)
        assert doc == yaml.safe_load(text)
        assert cli.save_document(doc) == yaml.safe_dump(
            doc, sort_keys=False, default_flow_style=None
        )

    def test_malformed_yaml(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("format_version: 1\nkind: [gog\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1 and out == "" and err.startswith("error: %s: " % bad)
        code, out, err = run(capsys, "elevations", SEEDED, "--vertex", "v", "--table", "[[0")
        assert code == 1 and out == "" and err.startswith("error: --table: ")


class TestCommands:
    def test_validate_gog(self, capsys):
        code, out, _ = run(capsys, "validate", HNN_F1)
        assert code == 0 and out == "ok\n"

    def test_validate_identity_cover(self, capsys, tmp_path):
        doc = cli.document_for_morphism(identity_cover(load_gog(SEEDED)))
        path = tmp_path / "identity.yaml"
        path.write_text(cli.save_document(doc), encoding="utf-8")
        assert run(capsys, "validate", str(path)) == (0, "ok\n", "")

    def test_h1_fixtures(self, capsys):
        assert run(capsys, "h1", HNN_F1) == (0, "Z ⊕ Z/2\n", "")
        assert run(capsys, "h1", GENUS2) == (0, "Z^4\n", "")

    def test_h1_piece_document(self, capsys, piece_file):
        assert run(capsys, "h1", piece_file) == (0, "Z^4 ⊕ Z/2\n", "")

    def test_enumerate_covers_csv(self, capsys):
        code, out, _ = run(capsys, "enumerate-covers", HNN_F1, "--max-index", "2")
        assert code == 0
        assert out == (
            "degree,chi,h1\n"
            "1,0,Z ⊕ Z/2\n"
            "2,0,Z ⊕ Z/8\n"
            "2,0,Z ⊕ Z/2\n"
        )

    def test_elevations_csv(self, capsys):
        code, out, _ = run(
            capsys, "elevations", SEEDED,
            "--vertex", "v", "--table", "[[1,2,0],[0,1,2]]",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "edge,degree,least,rep,local"
        assert lines[1] == "~p0,1,0,2,1"
        assert len(lines) == 7
        cells = [line.split(",") for line in lines[1:]]
        assert [c[0] for c in cells] == ["~p0"] * 3 + ["~p1"] * 3
        assert all(c[1] == "1" for c in cells)
        assert [c[2] for c in cells] == ["0", "1", "2"] * 2

    def test_elevations_rejects_cyclic_vertex(self, capsys):
        code, _, err = run(capsys, "elevations", SEEDED, "--vertex", "c", "--table", "[[0]]")
        assert code == 1 and "not a free vertex" in err

    def test_elevations_rejects_bad_table(self, capsys):
        code, _, err = run(capsys, "elevations", SEEDED, "--vertex", "v", "--table", "[[0,1]]")
        assert code == 1 and "--table" in err
        code, _, err = run(capsys, "elevations", SEEDED, "--vertex", "v",
                           "--table", "[[1,0],[true,0]]")
        assert code == 1 and err.startswith("error: --table[1][0]: expected int, got bool")

    def test_torsion_piece_emits_document(self, capsys, tmp_path):
        code, out, _ = run(capsys, "torsion-piece", SEEDED, "--prime", "2", "--max-index", "4")
        assert code == 0
        doc = yaml.safe_load(out)
        assert doc["kind"] == "torsion-piece" and doc["prime"] == 2
        path = tmp_path / "piece.yaml"
        path.write_text(out, encoding="utf-8")
        assert run(capsys, "validate", str(path))[0] == 0

    def test_torsion_piece_not_found_exits_2(self, capsys):
        code, out, err = run(capsys, "torsion-piece", GENUS2, "--prime", "2", "--max-index", "2")
        assert code == 2 and out == "" and "no torsion piece" in err

    def test_chain_complete_pipeline(self, capsys, tmp_path, piece_file):
        code, out, _ = run(capsys, "chain", piece_file, "--copies", "2")
        assert code == 0
        chain_path = tmp_path / "chain.yaml"
        chain_path.write_text(out, encoding="utf-8")

        code, out, _ = run(capsys, "validate", str(chain_path))
        assert code == 0 and out == "precover with 2 hanging slots\nok\n"
        assert run(capsys, "h1", str(chain_path)) == (0, "Z^7 ⊕ Z/2 ⊕ Z/2\n", "")

        code, out, _ = run(capsys, "complete", str(chain_path), "--bound", "24")
        assert code == 0
        cover_path = tmp_path / "cover.yaml"
        cover_path.write_text(out, encoding="utf-8")
        assert run(capsys, "validate", str(cover_path)) == (0, "ok\n", "")
        _, out, _ = run(capsys, "h1", str(cover_path))
        assert out.count("Z/2") == 2

    def test_complete_not_found_exits_2(self, capsys, tmp_path, piece_file):
        code, out, err = run(capsys, "chain", piece_file, "--copies", "2")
        chain_path = tmp_path / "chain.yaml"
        chain_path.write_text(out, encoding="utf-8")
        code, out, err = run(capsys, "complete", str(chain_path), "--bound", "0")
        assert code == 2 and out == "" and "no completion" in err

    def test_tower_csv(self, capsys):
        code, out, _ = run(capsys, "tower", SEEDED, "--steps", "1", "--primes", "2")
        assert code == 0
        assert out == (
            "step,prime,degree,e_2,ratio_2,status\n"
            "0,,1,0,0/1,base\n"
            "1,2,8,1,1/8,ok\n"
        )

    def test_tower_failure_exits_2(self, capsys):
        code, out, _ = run(
            capsys, "tower", GENUS2, "--steps", "1", "--primes", "2",
            "--bounds", "max_cover_index=2,max_piece_index=2",
        )
        assert code == 2
        assert out.splitlines()[-1].startswith("1,,,")

    def test_tower_config_document(self, capsys, tmp_path):
        g = load_gog(SEEDED)
        doc = {
            "format_version": 1,
            "kind": "tower-config",
            "steps": 1,
            "primes": [2],
            "base": cli.gog_to_payload(g),
        }
        path = tmp_path / "tower.yaml"
        path.write_text(cli.save_document(doc), encoding="utf-8")
        code, out, _ = run(capsys, "tower", str(path))
        _, flagged, _ = run(capsys, "tower", SEEDED, "--steps", "1", "--primes", "2")
        assert code == 0 and out == flagged

    @pytest.mark.parametrize("field, value, where", [
        ("bounds", {"max_cover_index": "4"}, ".bounds.max_cover_index"),
        ("primes", ["2"], ".primes[0]"),
    ])
    def test_tower_config_rejects_non_integers(self, capsys, tmp_path, field, value, where):
        path = tower_config(tmp_path, **{field: value})
        code, out, err = run(capsys, "tower", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: %s%s: expected int" % (path, where))

    @pytest.mark.parametrize("field, value, where", [
        ("steps", True, ".steps"),
        ("bounds", {"max_cover_index": True}, ".bounds.max_cover_index"),
    ])
    def test_tower_config_rejects_booleans(self, capsys, tmp_path, field, value, where):
        path = tower_config(tmp_path, **{field: value})
        code, out, err = run(capsys, "tower", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: %s%s: expected int, got bool" % (path, where))

    def test_boolean_word_letter_rejected(self, capsys, tmp_path):
        data = yaml.safe_load(Path(SEEDED).read_text(encoding="utf-8"))
        data["edges"][1]["word"] = [True]
        path = tmp_path / "gog.yaml"
        path.write_text(cli.save_document(data), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: %s.edges[1].word[0]: expected int, got bool" % path)

    def test_tower_needs_parameters(self, capsys):
        code, _, err = run(capsys, "tower", SEEDED)
        assert code == 1 and "--steps" in err

    def test_bad_bounds_flag(self, capsys):
        code, _, err = run(capsys, "tower", SEEDED, "--steps", "1", "--primes", "2",
                           "--bounds", "max_tower=3")
        assert code == 1 and "--bounds" in err
        code, _, err = run(capsys, "tower", SEEDED, "--steps", "1", "--primes", "2",
                           "--bounds", "max_cover_index=four")
        assert code == 1 and err.startswith("error: --bounds.max_cover_index: expected int")

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "h1", "no-such-file.yaml")
        assert code == 1 and err.startswith("error:")

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_VAR, "5")
        code, _, err = run(capsys, "enumerate-covers", SEEDED, "--max-index", "3")
        assert code == 2 and "budget" in err
        code, out, _ = run(capsys, "enumerate-covers", SEEDED, "--max-index", "1",
                           "--cap", "100000")
        assert code == 0 and out.splitlines()[1].startswith("1,")

    def test_bad_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_VAR, "lots")
        code, _, err = run(capsys, "enumerate-covers", SEEDED, "--max-index", "1")
        assert code == 1 and cli.BUDGET_VAR in err

    @pytest.mark.parametrize("argv", [
        ("torsion-piece", SEEDED, "--max-index", "2", "--prime"),
        ("tower", SEEDED, "--steps", "1", "--primes"),
    ])
    @pytest.mark.parametrize("prime, reason", [
        (10 ** 400 + 1, "below 2**64"), (3215031751, "not prime"),
    ])
    def test_prime_checked_before_search(self, capsys, argv, prime, reason):
        code, out, err = run(capsys, *argv, str(prime))
        assert code == 1 and out == ""
        assert err.startswith("error:") and reason in err and err.count("\n") == 1

    def test_deterministic_bytes(self, capsys):
        argv = ["torsion-piece", SEEDED, "--prime", "2", "--max-index", "4"]
        first = run(capsys, *argv)
        assert first[0] == 0
        assert run(capsys, *argv) == first


class TestConsoleScript:
    def test_subprocess_exit_codes(self, tmp_path):
        # The child imports the package the tests imported, with or without
        # PYTHONPATH set by the caller.
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        ok = subprocess.run(
            [sys.executable, "-m", "gfgcover.cli", "h1", HNN_F1],
            capture_output=True, text=True, env=env,
        )
        assert ok.returncode == 0 and ok.stdout == "Z ⊕ Z/2\n"
        bad = tmp_path / "bad.yaml"
        bad.write_text("format_version: 2\nkind: gog\n", encoding="utf-8")
        rejected = subprocess.run(
            [sys.executable, "-m", "gfgcover.cli", "validate", str(bad)],
            capture_output=True, text=True, env=env,
        )
        assert rejected.returncode == 1 and "format_version" in rejected.stderr
