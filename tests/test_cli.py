import argparse
import contextlib
import io
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from _helpers import document_for_gog, identity_cover, run_cli

from gfgcover import cli, covers, gog
from gfgcover.covers import find_torsion_piece, isomorphic
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
        saved = cli.save_document(document_for_gog(g))
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

    def test_piece_document_rejects_equal_boundaries(self, piece_file, tmp_path, capsys):
        data = cli.load_document(piece_file)
        data["c2"] = data["c1"]
        with pytest.raises(cli.SchemaError, match=r"^doc\.c2: must differ from c1"):
            cli.parse_document(data, "doc")
        bad = tmp_path / "same.yaml"
        bad.write_text(cli.save_document(data), encoding="utf-8")
        code, out, err = run(capsys, "chain", str(bad), "--copies", "3")
        assert (code, out) == (1, "")
        assert err == "error: %s.c2: must differ from c1 (both are 'c@0.1')\n" % bad

    def test_chain_rejects_a_doubled_pair_at_every_copy_count(self, piece_file, tmp_path, capsys):
        """A pair away from c1, given twice, is an elevation realized twice:
        one copy names the piece's own lift, more copies copy 1's."""
        data = cli.load_document(piece_file)
        edges = data["morphism"]["edges"]
        pair = next(e for e in edges if data["c1"] not in (e["fwd"]["vertex"], e["bwd"]["vertex"]))
        edges.append({**pair, "name": pair["name"] + "x"})
        bad = tmp_path / "doubled.yaml"
        bad.write_text(cli.save_document(data), encoding="utf-8")
        for copies, lift in (("1", "c@1"), ("2", "c@1#1")):
            code, out, err = run(capsys, "chain", str(bad), "--copies", copies)
            assert (code, out) == (1, "")
            assert err.startswith("error: elevation ElevationRef(vertex=%r, " % lift)
            assert "realized by 2 edges" in err

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

    def test_malformed_yaml_marks_name_the_file(self, tmp_path, capsys):
        # The direct reader refuses the text; PyYAML's marks name the file,
        # not the string it was read into.
        bad = tmp_path / "bad.yaml"
        bad.write_text("format_version: 1\nkind: [gog\n", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1 and out == ""
        assert 'in "%s", line 2, column 7' % bad in err


class TestCommands:
    def test_validate_gog(self, capsys):
        code, out, _ = run(capsys, "validate", HNN_F1)
        assert code == 0 and out == "ok\n"

    @pytest.mark.parametrize("path", [HNN_F1, GENUS2, SEEDED], ids=["hnn_f1", "genus2", "seeded"])
    def test_validate_walks_a_fixture_once(self, capsys, monkeypatch, path):
        calls = []
        real = gog.validate

        def counted(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(gog, "validate", counted)
        # A second walk would go through a name cli binds itself, if any.
        monkeypatch.setattr(cli, "validate", counted, raising=False)
        assert run(capsys, "validate", path) == (0, "ok\n", "")
        assert len(calls) == 1

    @pytest.mark.parametrize("path", [HNN_F1, GENUS2, SEEDED], ids=["hnn_f1", "genus2", "seeded"])
    def test_enumerate_covers_validates_each_printed_cover_once(self, capsys, monkeypatch, path):
        """Beyond the census's own check of each cover it builds, the
        command walks every cover it prints with ``validate_cover`` once."""
        calls = []
        real = covers.validate_cover

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(covers, "validate_cover", counted)
        monkeypatch.setattr(cli, "validate_cover", counted)
        list(covers.enumerate_covers(load_gog(path), 3))
        census = len(calls)
        calls.clear()
        code, out, _ = run(capsys, "enumerate-covers", path, "--max-index", "3")
        printed = out.count("\n") - 1
        assert code == 0 and printed > 0
        assert len(calls) - census == printed

    def test_validate_refuses_an_invalid_gog_on_reading_it(self, capsys, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            Path(SEEDED).read_text(encoding="utf-8").replace(
                "{name: c, kind: cyclic}", "{name: c, kind: cyclic, rank: 2}"
            ),
            encoding="utf-8",
        )
        assert run(capsys, "validate", str(path)) == (
            1, "", "error: %s: cyclic vertex 'c' must have rank 1\n" % path
        )

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

    def test_only_validate_computes_a_piece_certificate(self, capsys, monkeypatch, piece_file):
        calls = []
        real = covers.h1_mod_cyclic

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(covers, "h1_mod_cyclic", counted)
        code, out, _ = run(capsys, "chain", piece_file, "--copies", "2")
        assert code == 0 and out.startswith("format_version: 1\nkind: morphism\n")
        assert calls == []
        assert run(capsys, "validate", piece_file) == (0, "ok\n", "")
        assert len(calls) == 1

    def test_a_piece_without_its_torsion_fails_validate(self, capsys, tmp_path, piece_file):
        path = tmp_path / "p3.yaml"
        path.write_text(
            Path(piece_file).read_text(encoding="utf-8").replace("prime: 2\n", "prime: 3\n"),
            encoding="utf-8",
        )
        assert run(capsys, "validate", str(path)) == (1, "certificate has no 3-torsion\n", "")

    def test_a_disconnected_piece_is_refused(self, capsys, tmp_path, piece_file):
        # A lift of v with the index-1 table, every elevation hanging.
        text = Path(piece_file).read_text(encoding="utf-8").replace(
            "  - {name: c@0.1, over: c, index: 1}\n",
            "  - {name: c@0.1, over: c, index: 1}\n"
            "  - name: v@9\n    over: v\n    table:\n    - [0]\n    - [0]\n",
        )
        path = tmp_path / "split.yaml"
        path.write_text(text, encoding="utf-8")
        error = "error: homology of a disconnected graph of groups is per component\n"
        for argv in (["validate"], ["h1"], ["chain", "--copies", "2"], ["complete", "--bound", "24"]):
            assert run(capsys, argv[0], str(path), *argv[1:]) == (1, "", error)

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

    @pytest.mark.parametrize("field, value", [
        ("max_cover_index", -3),
        ("max_cover_index", 0),
        ("max_piece_index", 0),
        ("complete_bound", -1),
        ("max_word_length", -2),
    ])
    def test_bounds_out_of_range(self, capsys, tmp_path, field, value):
        code, out, err = run(capsys, "tower", SEEDED, "--steps", "1", "--primes", "2",
                             "--bounds", "%s=%d" % (field, value))
        assert code == 1 and out == ""
        assert err.startswith("error: --bounds.%s: %s must be at least" % (field, field))
        assert len(err.splitlines()) == 1
        path = tower_config(tmp_path, bounds={field: value})
        code, out, err = run(capsys, "tower", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: %s.bounds.%s: %s must be at least" % (path, field, field))
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv, error", [
        (["enumerate-covers", SEEDED, "--max-index", "-2"],
         "--max-index: max_index must be at least 1, got -2"),
        (["enumerate-covers", SEEDED, "--max-index", "0"],
         "--max-index: max_index must be at least 1, got 0"),
        (["torsion-piece", SEEDED, "--prime", "2", "--max-index", "0"],
         "--max-index: max_index must be at least 1, got 0"),
        (["complete", "piece", "--bound", "-1"], "--bound: bound must be at least 0, got -1"),
    ])
    def test_search_bound_flags_out_of_range(self, capsys, monkeypatch, piece_file, argv, error):
        for search in ("enumerate_covers", "find_torsion_piece", "complete"):
            monkeypatch.setattr(cli, search, None)  # calling it would raise TypeError
        argv = [piece_file if a == "piece" else a for a in argv]
        assert run(capsys, *argv) == (1, "", "error: %s\n" % error)

    @pytest.mark.parametrize("command, flags", [
        ("enumerate-covers", ["--max-index", "3"]),
        ("torsion-piece", ["--prime", "2", "--max-index", "3"]),
        ("tower", ["--steps", "1", "--primes", "2"]),
    ])
    @pytest.mark.parametrize("vertices, edges, reason", [
        ("  - {name: c, kind: cyclic}\n", "[]\n",
         "cyclic vertex 'c' has no edges (give it as a free vertex of rank 1)"),
        ("  - {name: c, kind: cyclic}\n  - {name: d, kind: cyclic}\n",
         "\n  - {name: p, to: d, word: [1]}\n  - {name: '~p', to: c, word: [1]}\n",
         "pair 'p' joins two cyclic vertices"),
    ], ids=["edgeless-cyclic-vertex", "cyclic-pair"])
    def test_unsupported_base_rejected(
        self, capsys, monkeypatch, tmp_path, command, flags, vertices, edges, reason
    ):
        """Both bases are valid gogs with H_1 = Z, but the engine creates
        cyclic lifts only at open ends of free lifts, so no search can
        cover them: each search command fails before searching."""
        path = tmp_path / "base.yaml"
        path.write_text(
            "format_version: 1\nkind: gog\nvertices:\n%sbase_vertex: c\nedges: %s"
            % (vertices, edges),
            encoding="utf-8",
        )
        assert run(capsys, "h1", str(path)) == (0, "Z\n", "")
        monkeypatch.setattr(covers, "_lift_choices", None)  # a search would raise TypeError
        assert run(capsys, command, str(path), *flags) == (
            1, "", "error: unsupported base: %s\n" % reason
        )

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "h1", "no-such-file.yaml")
        assert code == 1 and err.startswith("error:")

    def test_undecodable_file_named(self, capsys, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"\xff\xfe")
        assert run(capsys, "h1", str(path)) == (
            1, "", "error: %s: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n" % path
        )

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_VAR, "5")
        code, _, err = run(capsys, "enumerate-covers", SEEDED, "--max-index", "3")
        assert code == 2 and "budget" in err
        code, out, _ = run(capsys, "enumerate-covers", SEEDED, "--max-index", "1",
                           "--budget", "100000")
        assert code == 0 and out.splitlines()[1].startswith("1,")

    def test_bad_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.BUDGET_VAR, "lots")
        code, _, err = run(capsys, "enumerate-covers", SEEDED, "--max-index", "1")
        assert code == 1 and cli.BUDGET_VAR in err

    def test_tower_budget_precedence(self, capsys, monkeypatch, tmp_path):
        # --budget, else the document's budget, else GFGCOVER_BUDGET, else
        # DEFAULT_BUDGET.
        def status(path, *flags):
            code, out, _ = run(capsys, "tower", str(path), *flags)
            return code, out.splitlines()[-1].split(",")[-1]

        spent = "failed:budget:search budget exceeded (%d nodes)"
        monkeypatch.setenv(cli.BUDGET_VAR, "5")
        roomy = tower_config(tmp_path, budget=200000)
        assert status(roomy) == (0, "ok")
        assert status(roomy, "--budget", "6") == (2, spent % 6)
        plain = tower_config(tmp_path)
        assert status(plain) == (2, spent % 5)
        monkeypatch.delenv(cli.BUDGET_VAR)
        assert status(plain) == (0, "ok")

    @pytest.mark.parametrize("source", ["--budget", cli.BUDGET_VAR, ".budget"])
    @pytest.mark.parametrize("cap", [0, -5])
    def test_budget_below_one_rejected(self, capsys, monkeypatch, tmp_path, source, cap):
        path = tower_config(tmp_path, **({"budget": cap} if source == ".budget" else {}))
        argv = ["tower", str(path)]
        if source == "--budget":
            argv += ["--budget", str(cap)]
        elif source == cli.BUDGET_VAR:
            monkeypatch.setenv(cli.BUDGET_VAR, str(cap))
        where = str(path) + source if source == ".budget" else source
        assert run(capsys, *argv) == (
            1, "", "error: %s: node budget must be at least 1, got %d\n" % (where, cap)
        )

    @pytest.mark.parametrize("command, flags", [
        ("enumerate-covers", ["--max-index", "1"]),
        ("torsion-piece", ["--prime", "2", "--max-index", "1"]),
        ("complete", ["--bound", "0"]),
        ("tower", ["--steps", "1", "--primes", "2"]),
    ])
    def test_one_budget_flag(self, capsys, piece_file, command, flags):
        argv = [command, piece_file if command == "complete" else SEEDED] + flags
        assert run(capsys, *argv, "--budget", "0") == (
            1, "", "error: --budget: node budget must be at least 1, got 0\n"
        )
        assert run(capsys, *argv, "--budget", "200000")[0] in (0, 2)
        with pytest.raises(SystemExit):
            run(capsys, *argv, "--cap", "200000")

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


@pytest.fixture(scope="module")
def kind_files(tmp_path_factory, piece_file):
    """One document of each kind, all over the seeded fixture."""
    folder = tmp_path_factory.mktemp("kinds")
    morphism = folder / "identity.yaml"
    morphism.write_text(
        cli.save_document(cli.document_for_morphism(identity_cover(load_gog(SEEDED)))),
        encoding="utf-8",
    )
    return {
        "gog": SEEDED,
        "tower-config": str(tower_config(folder)),
        "morphism": str(morphism),
        "torsion-piece": piece_file,
    }


# subcommand -> (flags after the document, the kind its error names)
ONE_KIND = {
    "elevations": (["--vertex", "v", "--table", "[[1,2,0],[0,1,2]]"], "gog"),
    "enumerate-covers": (["--max-index", "2"], "gog"),
    "torsion-piece": (["--prime", "2", "--max-index", "4"], "gog"),
    "tower": (["--steps", "1", "--primes", "2"], "gog or tower-config"),
    "chain": (["--copies", "2"], "torsion-piece"),
    "complete": (["--bound", "24"], "morphism"),
}


class TestDocumentKinds:
    @pytest.mark.parametrize("command, kind", [
        (command, kind) for command, (_, reads) in ONE_KIND.items()
        for kind in ("gog", "tower-config", "morphism", "torsion-piece")
        if kind not in {
            "gog": ("gog", "tower-config"),
            "gog or tower-config": ("gog", "tower-config"),
            "torsion-piece": ("torsion-piece",),
            "morphism": ("morphism", "torsion-piece"),
        }[reads]
    ])
    def test_wrong_kind_rejected(self, capsys, monkeypatch, kind_files, command, kind):
        for search in ("enumerate_covers", "find_torsion_piece", "chain", "complete", "build_tower"):
            monkeypatch.setattr(cli, search, None)  # calling it would raise TypeError
        flags, reads = ONE_KIND[command]
        path = kind_files[kind]
        assert run(capsys, command, path, *flags) == (
            1, "", "error: %s: %s needs a %s document\n" % (path, command, reads)
        )

    @pytest.mark.parametrize("command", ["elevations", "enumerate-covers", "torsion-piece", "tower"])
    def test_tower_config_stands_for_its_base(self, capsys, kind_files, command):
        flags = ONE_KIND[command][0]
        code, out, err = run(capsys, command, kind_files["tower-config"], *flags)
        assert code == 0 and out and err == ""
        assert run(capsys, command, SEEDED, *flags) == (code, out, err)

    @pytest.mark.parametrize("command", ["h1", "complete"])
    def test_piece_read_as_its_morphism(self, capsys, tmp_path, kind_files, command):
        piece = kind_files["torsion-piece"]
        morphism = tmp_path / "morphism.yaml"
        morphism.write_text(
            cli.save_document(cli.document_for_morphism(
                cli.parse_document(cli.load_document(piece), piece).morphism)),
            encoding="utf-8",
        )
        flags = ONE_KIND[command][0] if command in ONE_KIND else []
        code, out, err = run(capsys, command, piece, *flags)
        assert code == 0 and out and err == ""
        assert run(capsys, command, str(morphism), *flags) == (code, out, err)


# One well-formed argv tail per subcommand.
SUBCOMMAND_ARGS = {
    "validate": ["f.yaml"],
    "h1": ["f.yaml"],
    "elevations": ["f.yaml", "--vertex", "u", "--table", "[[0]]"],
    "enumerate-covers": ["f.yaml", "--max-index", "3", "--budget", "9"],
    "torsion-piece": ["f.yaml", "--prime", "2", "--max-index", "3"],
    "chain": ["f.yaml", "--copies", "2"],
    "complete": ["f.yaml", "--bound", "1"],
    "tower": ["f.yaml", "--steps", "1", "--primes", "2,3", "--bounds", "x=1", "--budget", "9"],
}


FLAGS = sorted({flag for entry in cli._SUBCOMMANDS.values() for flag, _ in entry[3]})
# Flag values: good and bad ints, signed, spaced, negative and empty ones,
# lists, tables, bounds and names.
VALUES = [
    "2", "0", "-1", "+2", " 3", "3 ", "1_0", "", "x", "2,3", "-2,3", "[[0]]",
    "max_cover_index=2", "f.yaml", "99999999999999999999",
]
PATHS = ["f.yaml", "g.yaml", "-f.yaml", "-", ""]


def parse_outcome(argv):
    """The full parser's namespace on argv as a dict, or its exit code, with
    what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _not_read(path):
    raise cli.SchemaError("%s: not read" % path)


def main_outcome(argv, direct):
    """cli.main's exit code and output on argv, with no document read (so no
    search runs); with direct False every argv goes to argparse, the
    reference."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(mock.patch.object(cli, "load_document", _not_read))
        if not direct:
            stack.enter_context(mock.patch.object(cli, "_plain_args", lambda argv: None))
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_parses_like_argparse(argv):
    direct = cli._plain_args(argv)
    if direct is not None:
        assert parse_outcome(argv) == (vars(direct), "", ""), argv
    assert main_outcome(argv, True) == main_outcome(argv, False), argv
    return direct


@st.composite
def plain_shaped_argvs(draw):
    """A subcommand, one path and the subcommand's own flags in any order,
    each with a value, its required flags more often than not; a value or
    the path may still take the argv to argparse."""
    name = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    arguments = cli._SUBCOMMANDS[name][3]
    value = st.one_of(st.sampled_from(["1", "2", "3"]), st.sampled_from(VALUES))
    chunks = [(draw(st.sampled_from(PATHS)),)]
    chunks += [(f, draw(value)) for f, kw in arguments if kw.get("required") and draw(st.integers(0, 3)) < 3]
    if arguments:
        chunks += draw(st.lists(st.tuples(st.sampled_from([f for f, _ in arguments]), value), max_size=3))
    return [name] + [word for c in draw(st.permutations(chunks)) for word in c]


@st.composite
def argvs(draw):
    """A subcommand (or not) followed by words in any order: whole flags of
    any subcommand and their abbreviations, each with or without a value,
    ``--flag=value``, ``--``, help, unknown flags and paths."""
    name = draw(st.sampled_from(sorted(cli._SUBCOMMANDS) + ["bogus", "--help", "-h"]))
    flag = st.one_of(
        st.sampled_from(FLAGS),
        st.builds(lambda f, n: f[:n], st.sampled_from(FLAGS), st.integers(3, 8)),
    )
    value = st.sampled_from(VALUES)
    chunk = st.one_of(
        st.tuples(flag, value),
        st.builds(lambda f, v: (f + "=" + v,), flag, value),
        st.tuples(st.sampled_from(["--", "-h", "--help", "--bogus"])),
        st.tuples(flag),
        st.tuples(st.sampled_from(PATHS)),
    )
    return [name] + [word for c in draw(st.lists(chunk, max_size=5)) for word in c]


class TestParser:
    @pytest.mark.parametrize("name", sorted(SUBCOMMAND_ARGS))
    def test_one_subcommand_parser_parses_like_the_full_one(self, name):
        # main reads a plain argv from the one subcommand's _SUBCOMMANDS
        # entry; on these argvs it gives the full parser's namespace, output
        # and exit code.
        assert set(SUBCOMMAND_ARGS) == set(cli._SUBCOMMANDS)
        args = SUBCOMMAND_ARGS[name]
        argvs = [
            [name, *args], [name, "--help"], [name], [name, *args, "--bogus"],
            [name, *args, "extra"], [name, "f.yaml", "--budget", "x"], [name, *args[:-1]],
        ]
        for argv in argvs:
            check_parses_like_argparse(argv)
        assert cli._plain_args([name, *args]).fn is cli._SUBCOMMANDS[name][0]

    @settings(max_examples=400, deadline=None)
    @given(argv=st.one_of(plain_shaped_argvs(), argvs()))
    def test_direct_path_parses_like_argparse(self, argv):
        check_parses_like_argparse(argv)

    @pytest.mark.parametrize("argv", [
        ["tower", "f.yaml", "--steps", "1", "--primes", "2", "--steps", "3"],
        ["torsion-piece", "--max-index", "3", "f.yaml", "--prime", "2"],
        ["elevations", "f.yaml", "--table", "[[0]]", "--vertex", ""],
        ["chain", "f.yaml", "--copies", " +2 "],
        ["complete", "", "--bound", "1"],
    ], ids=["repeated-flag", "path-between-flags", "empty-value", "spaced-int", "empty-path"])
    def test_plain_argv_read_directly(self, argv):
        assert check_parses_like_argparse(argv) is not None

    @pytest.mark.parametrize("argv", [
        ["enumerate-covers", "f.yaml", "--max", "3"],
        ["enumerate-covers", "f.yaml", "--max-index=3"],
        ["enumerate-covers", "f.yaml", "--max-index", "-3"],
        ["enumerate-covers", "--", "f.yaml", "--max-index", "3"],
        ["enumerate-covers", "-f.yaml", "--max-index", "3"],
        ["enumerate-covers", "f.yaml", "--max-index", "3", "-h"],
        ["enumerate-covers", "f.yaml", "--max-index"],
        ["enumerate-covers", "f.yaml", "--max-index", "three"],
        ["tower", "f.yaml", "--primes", "2", "--primes", "a"],
        ["h1", "f.yaml", "g.yaml"],
        ["h1"],
        [],
    ])
    def test_other_argvs_left_to_argparse(self, argv):
        assert check_parses_like_argparse(argv) is None

    def test_plain_argvs_build_no_parser(self, capsys, monkeypatch, piece_file, tmp_path):
        piece = cli.parse_document(cli.load_document(piece_file), piece_file)
        chained = tmp_path / "chain.yaml"
        chained.write_text(cli.save_document(cli.document_for_morphism(covers.chain(piece, 2))), encoding="utf-8")

        def refuse(*args, **kwargs):
            raise AssertionError("an argparse parser was built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        argvs = [
            ["validate", SEEDED],
            ["h1", HNN_F1],
            ["elevations", SEEDED, "--vertex", "v", "--table", "[[1,2,0],[0,1,2]]"],
            ["enumerate-covers", HNN_F1, "--max-index", "2"],
            ["torsion-piece", SEEDED, "--prime", "2", "--max-index", "4", "--budget", "200000"],
            ["chain", piece_file, "--copies", "2"],
            ["complete", str(chained), "--bound", "24"],
            ["tower", SEEDED, "--steps", "1", "--primes", "2", "--bounds", "max_cover_index=4"],
        ]
        assert sorted(argv[0] for argv in argvs) == sorted(cli._SUBCOMMANDS)
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out, argv

    @pytest.mark.parametrize("argv", [
        ["tower", SEEDED, "--steps", "1", "--primes", "a"],
        ["enumerate-covers", SEEDED],
        ["h1", SEEDED, "--bogus"],
        ["bogus", SEEDED],
    ], ids=["bad-value", "missing-flag", "unknown-flag", "unknown-subcommand"])
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == ""
        assert captured.err.startswith("usage: gfgcover")

    @pytest.mark.parametrize("argv", [["--help"], ["tower", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: gfgcover")


class TestConsoleScript:
    def test_subprocess_exit_codes(self, tmp_path):
        assert run_cli("h1", HNN_F1) == (0, "Z ⊕ Z/2\n", "")
        bad = tmp_path / "bad.yaml"
        bad.write_text("format_version: 2\nkind: gog\n", encoding="utf-8")
        code, out, err = run_cli("validate", str(bad))
        assert (code, out) == (1, "") and "format_version" in err
