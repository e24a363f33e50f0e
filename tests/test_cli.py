import argparse
import json
import math
import os
import stat
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from coarsedim import __version__, metric_core
from coarsedim.cli import Workspace, build_parser, main
from coarsedim.group_spaces import free_products, groups, hyperbolic
from coarsedim.metric_core import grid_space, path_space, space_to_json


def write_space(tmp_path, name, space):
    path = tmp_path / name
    path.write_text(json.dumps(space_to_json(space)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpace:
    def test_build_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code, _, _ = run(capsys, "space", "build", "grid", "8", "8", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 64

    def test_build_grid_matrix_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(metric_core, "MATRIX_CAP", 16)
        out = tmp_path / "grid.json"
        code, printed, err = run(capsys, "space", "build", "grid", "5", "5", "-o", str(out))
        assert code == 3
        assert "matrix exceeds cap 16" in err and printed == ""
        assert not out.exists()

    def test_check_good(self, tmp_path, capsys):
        f = write_space(tmp_path, "p.json", path_space(10))
        code, out, _ = run(capsys, "space", "check", "--file", f)
        assert code == 0
        assert json.loads(out.strip())["ok"]

    def test_check_asymmetric_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "matrix", "n": 2, "matrix": [[0, 1], [2, 0]]}))
        code, out, _ = run(capsys, "space", "check", "--file", str(bad))
        assert code == 2

    @pytest.mark.parametrize("doc", [
        {"kind": "graph", "n": 3, "edges": [[0, 1.5], [1, 2]]},
        {"kind": "graph", "n": 3.5, "edges": [[0, 1], [1, 2]]},
    ], ids=["fractional-vertex", "fractional-n"])
    def test_check_non_integral_graph_exit_2(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "space", "check", "--file", str(bad))
        assert code == 2
        assert out.startswith("FAIL:") and "is not a whole number" in out

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_check_non_finite_matrix_exit_2(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "matrix", "n": 2, "matrix": [[0, %s], [%s, 0]]}' % (value, value))
        code, out, _ = run(capsys, "space", "check", "--file", str(bad))
        assert code == 2
        assert out.startswith("FAIL:") and "violates finite axiom" in out

    @pytest.mark.parametrize("edges, message", [
        ('[[0, 1, 1.0], [1, 2, "2"]]', "needs a finite positive real weight"),
        ("[[0, 1, 1.0], [1, 2, NaN]]", "needs a finite positive real weight"),
        ("[[0, 1, 1.0], [1, 2, Infinity]]", "needs a finite positive real weight"),
        ("[[0, 1, 1e17], [1, 2, 1]]", "vanishes in path sums"),
    ], ids=["string", "nan", "infinity", "vanishing"])
    def test_check_bad_weight_exit_2(self, tmp_path, capsys, edges, message):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "graph", "n": 3, "edges": %s}' % edges)
        code, out, _ = run(capsys, "space", "check", "--file", str(bad))
        assert code == 2
        assert out.startswith("FAIL:") and message in out

    @pytest.mark.parametrize("edges, message", [
        ("[5, [1, 2]]", "edge 5 is not a list of 2 or 3 items"),
        ("[[0, 1, 1, 7], [1, 2]]", "edge [0, 1, 1, 7] is not a list of 2 or 3 items"),
        ("[[0, 1, true], [1, 2]]", "edge (0, 1, True) needs a finite positive real weight"),
    ], ids=["not-a-list", "four-items", "bool-weight"])
    def test_check_malformed_edge_exit_2(self, tmp_path, capsys, edges, message):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "graph", "n": 3, "edges": %s}' % edges)
        code, out, _ = run(capsys, "space", "check", "--file", str(bad))
        assert code == 2
        assert out.startswith("FAIL:") and message in out

    @pytest.mark.parametrize("doc, message", [
        ('{"kind": "graph", "n": 3, "edges": 5}', "needs a list 'edges', not 5"),
        ('{"kind": "matrix", "n": 2, "matrix": 5}', "needs a list 'matrix', not 5"),
        ('{"kind": "graph", "n": 2, "edges": [[false, true]]}', "vertex False is a bool"),
        ('{"kind": "matrix", "n": 2, "matrix": [[0, 1], [1]]}', "matrix row 1 is not a list of 2 distances"),
        ('{"kind": "matrix", "n": 2, "matrix": [[0, "a"], [1, 0]]}', "matrix row 0 has a non-numeric entry 'a'"),
        ('{"kind": "matrix", "n": 2, "matrix": [[0, true], [true, 0]]}', "matrix row 0 has a non-numeric entry True"),
        ('{"kind": "matrix", "n": 2, "matrix": [5, [1, 0]]}', "matrix row 0 is not a list of 2 distances"),
    ], ids=["int-edges", "int-matrix", "bool-vertices", "ragged-matrix", "string-entry", "bool-entry",
            "int-row"])
    def test_check_malformed_file_exit_2(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        code, out, _ = run(capsys, "space", "check", "--file", str(bad))
        assert code == 2
        assert out.startswith("FAIL:") and message in out

    @pytest.mark.parametrize("params, message", [
        ([], "space build grid needs rows cols; rows is missing"),
        (["3"], "space build grid needs rows cols; cols is missing"),
    ], ids=["no-sizes", "one-size"])
    def test_build_grid_missing_size_exit_2(self, capsys, params, message):
        code, out, err = run(capsys, "space", "build", "grid", *params)
        assert code == 2
        assert out == "" and message in err

    def test_info_prints_diameter(self, tmp_path, capsys):
        f = write_space(tmp_path, "p.json", path_space(10))
        code, out, _ = run(capsys, "space", "info", "--file", f)
        assert code == 0
        assert json.loads(out.strip())["diameter"] == 9.0

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "space", "info", "--file", "/nonexistent.json")
        assert code == 2


class TestCover:
    def test_solve_and_verify(self, tmp_path, capsys):
        space = write_space(tmp_path, "p64.json", path_space(64))
        dec = tmp_path / "dec.json"
        code, _, _ = run(capsys, "cover", "solve", space, "--D", "4", "--B", "12",
                         "-o", str(dec))
        assert code == 0
        doc = json.loads(dec.read_text())
        assert doc["colors"] == 2
        code, out, _ = run(capsys, "cover", "verify", space, "--decomposition", str(dec))
        assert code == 0
        assert "ok" in out

    def test_verify_bad_decomposition_exit_1(self, tmp_path, capsys):
        space = write_space(tmp_path, "p.json", path_space(10))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "D": 3, "B": 9,
            "families": [[[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]],
        }))
        code, out, _ = run(capsys, "cover", "verify", space, "--decomposition", str(bad))
        assert code == 1
        assert "witness" in out

    @pytest.mark.parametrize("families", [
        [[[0, 1, 2, 3, 4, 5]], [[]]],
        [[[]], [[0, 1, 2, 3, 4, 5]]],
        [[[0, 1, 2], []], [[3, 4, 5]]],
    ], ids=["alone-in-last-color", "alone-in-first-color", "next-to-a-set"])
    def test_verify_empty_set_exit_2(self, tmp_path, capsys, families):
        space = write_space(tmp_path, "p6.json", path_space(6))
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"D": 1, "B": 5, "families": families}))
        code, out, err = run(capsys, "cover", "verify", space, "--decomposition", str(dec))
        assert code == 2
        assert out == ""
        assert "nonempty" in err

    @pytest.mark.parametrize("families, message", [
        ([[[0, 1, 2], [6, 7, 8.5]]], "point 8.5 is not a whole number"),
        ([[[0, 1, 2], [6, 7, 99]]], "point 99 is outside"),
    ], ids=["fractional", "outside"])
    def test_verify_bad_point_exit_2(self, tmp_path, capsys, families, message):
        space = write_space(tmp_path, "g.json", grid_space(3, 3))
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"D": 1, "B": 5, "families": families}))
        code, out, err = run(capsys, "cover", "verify", space, "--decomposition", str(dec))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("scale, message", [
        ({"D": math.nan}, "D must be a real number in [0, inf), not nan"),
        ({"B": -1}, "B must be a real number in [0, inf], not -1"),
    ], ids=["nan-D", "negative-B"])
    def test_verify_bad_scale_exit_2(self, tmp_path, capsys, scale, message):
        space = write_space(tmp_path, "g.json", grid_space(3, 3))
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"D": 1, "B": 5, "families": [[list(range(9))]], **scale}))
        code, out, err = run(capsys, "cover", "verify", space, "--decomposition", str(dec))
        assert (code, out) == (2, "")
        assert message in err

    def test_profile_csv(self, tmp_path, capsys):
        space = write_space(tmp_path, "p64.json", path_space(64))
        out = tmp_path / "profile.csv"
        code, _, _ = run(capsys, "cover", "profile", space, "--Dlist", "2,4,8",
                         "-o", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "D,B,colors,mode,seconds"
        assert len(lines) == 4
        for line in lines[1:]:
            assert line.split(",")[2] == "2"

    def test_deterministic_apart_from_seconds(self, tmp_path, capsys):
        space = write_space(tmp_path, "p.json", path_space(32))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "cover", "profile", space, "--Dlist", "2,4", "-o", str(a))
        run(capsys, "cover", "profile", space, "--Dlist", "2,4", "-o", str(b))
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip(a.read_text()) == strip(b.read_text())

    def test_profile_write_failure_leaves_no_temp_file(self, tmp_path, capsys):
        space = write_space(tmp_path, "p.json", path_space(8))
        target = tmp_path / "out"
        target.mkdir()  # the rename onto a directory fails
        code, _, _ = run(capsys, "cover", "profile", space, "--Dlist", "2", "-o", str(target))
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "p.json"]

    def test_exact_cap_exceeded_exit_3(self, tmp_path, capsys):
        # tiny mesh on a large space carves hundreds of clusters
        space = write_space(tmp_path, "p.json", path_space(100))
        code, _, err = run(capsys, "cover", "solve", space, "--D", "1", "--B", "1",
                           "--mode", "exact")
        assert code == 3
        assert "cap" in err


class TestHurewicz:
    def test_run_auto_scale(self, tmp_path, capsys):
        grid = grid_space(8, 8)
        space = write_space(tmp_path, "grid.json", grid)
        map_doc = {
            "codomain": space_to_json(path_space(8)),
            "assignment": [p % 8 for p in range(grid.n)],
            "lipschitz": 1.0,
        }
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(map_doc))
        out = tmp_path / "report.json"
        code, _, _ = run(capsys, "hurewicz", "run", "--space", space, "--map", str(map_path),
                         "--epsilon", "1.0", "--n", "1", "--k", "1", "-o", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["measured_lipschitz"] <= 1.0
        assert report["epsilon_certified"]
        assert report["dimK"] <= 2
        assert set(report) >= {"epsilon", "r", "lambda_k_per_simplex",
                               "measured_lipschitz", "cobound", "dimK", "seed"}

    def test_sub_required_warns_but_reports(self, tmp_path, capsys):
        grid = grid_space(4, 16)
        space = write_space(tmp_path, "grid.json", grid)
        map_doc = {
            "codomain": json.loads(json.dumps(space_to_json(path_space(16)))),
            "assignment": [p % 16 for p in range(grid.n)],
            "lipschitz": 1.0,
        }
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(map_doc))
        code, out, err = run(capsys, "hurewicz", "run", "--space", space, "--map", str(map_path),
                             "--epsilon", "1.0", "--n", "1", "--k", "1", "--r", "2.0")
        assert code == 0
        assert "warning" in err
        report = json.loads(out)
        assert report["sub_required_scale"]
        assert "measured_lipschitz" in report


    def test_codomain_path_is_relative_to_the_map_file(self, tmp_path, capsys, monkeypatch):
        grid = grid_space(4, 8)
        space = write_space(tmp_path, "grid.json", grid)
        (tmp_path / "maps").mkdir()
        write_space(tmp_path / "maps", "path8.json", path_space(8))
        map_doc = {"codomain": "path8.json", "assignment": [p % 8 for p in range(grid.n)], "lipschitz": 1}
        (tmp_path / "maps" / "proj.json").write_text(json.dumps(map_doc))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "hurewicz", "run", "--space", space, "--map", "maps/proj.json",
                           "--n", "1", "--k", "1", "--r", "2")
        assert code == 0
        assert json.loads(out)["parameters"]["map"] == "maps/proj.json"

    def test_fractional_image_exit_2(self, tmp_path, capsys):
        space = write_space(tmp_path, "p.json", path_space(3))
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps({"codomain": space, "assignment": [0, 1.5, 2]}))
        code, out, err = run(capsys, "hurewicz", "run", "--space", space, "--map", str(map_path),
                             "--n", "1", "--k", "1", "--r", "2")
        assert code == 2
        assert out == ""
        assert "image point 1.5 is not a whole number" in err


    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "map JSON must be an object, not [1, 2]"),
        ({"codomain": "p.json", "assignment": 5}, "map JSON needs a list 'assignment', not 5"),
        ({"codomain": "p.json", "assignment": [0, 1, 2], "lipschitz": True}, "constant True is not"),
        ({"codomain": "p.json", "assignment": [0, 1, 2], "lipschitz": -5}, "constant -5 is not"),
        ({"codomain": "p.json", "assignment": [0, 1, 2], "lipschitz": math.nan}, "constant nan is not"),
        ({"codomain": "p.json", "assignment": [0, 1, 2], "lipschitz": math.inf}, "constant inf is not"),
        ({"codomain": "p.json", "assignment": [0, 1, 2], "lipschitz": "x"}, "constant 'x' is not"),
    ], ids=["list-map", "int-assignment", "bool-lipschitz", "negative-lipschitz", "nan-lipschitz",
            "infinite-lipschitz", "string-lipschitz"])
    def test_malformed_map_exit_2(self, tmp_path, capsys, doc, message):
        space = write_space(tmp_path, "p.json", path_space(3))
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "hurewicz", "run", "--space", space, "--map", str(map_path),
                             "--n", "1", "--k", "1", "--r", "2")
        assert code == 2
        assert out == "" and message in err


class TestGroup:
    def test_ball_cached(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out = tmp_path / "ball.json"
        code, _, _ = run(capsys, "group", "ball", "--builtin", "heisenberg", "--R", "2",
                         "--cache-dir", str(cache), "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["n"] > 1
        # second run hits the cache and verifies against recomputation
        code, out2, _ = run(capsys, "group", "ball", "--builtin", "heisenberg", "--R", "2",
                            "--cache-dir", str(cache), "--verify-cache", "-o", str(out))
        assert code == 0
        assert "cache verified" in out2

    @pytest.mark.parametrize("entry", ["truncated", "[1, 2]", "no data"])
    def test_unusable_cache_entry_is_recomputed(self, tmp_path, capsys, entry):
        argv = ("group", "ball", "--builtin", "heisenberg", "--R", "2",
                "--cache-dir", str(tmp_path))
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        (path,) = tmp_path.glob("*.json")
        text = path.read_text()
        path.write_text({"truncated": text[: len(text) // 2],
                         "no data": json.dumps({"version": __version__})}.get(entry, entry))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (0, cold, "")
        assert path.read_text() == text  # the recomputation overwrote the entry

    def test_cold_warm_and_out_file_byte_identical(self, tmp_path, capsys):
        argv = ("group", "ball", "--builtin", "heisenberg", "--R", "2",
                "--cache-dir", str(tmp_path / "cache"))
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        (entry,) = (tmp_path / "cache").glob("*.json")
        assert entry.read_text() == cold  # the cache entry is the report itself
        code, warm, _ = run(capsys, *argv)
        assert code == 0 and warm == cold
        out = tmp_path / "ball.json"
        code, printed, _ = run(capsys, *argv, "-o", str(out))
        assert code == 0 and printed == ""
        assert out.read_bytes() == cold.encode()

    def test_written_files_follow_umask(self, tmp_path, capsys):
        out = tmp_path / "ball.json"
        old = os.umask(0o022)
        try:
            code, _, _ = run(capsys, "group", "ball", "--builtin", "heisenberg", "--R", "1",
                             "--cache-dir", str(tmp_path / "cache"), "-o", str(out))
        finally:
            os.umask(old)
        assert code == 0
        (entry,) = (tmp_path / "cache").glob("*.json")
        assert stat.S_IMODE(out.stat().st_mode) == 0o644
        assert stat.S_IMODE(entry.stat().st_mode) == 0o644

    def test_verify_cache_mismatch_exit_1(self, tmp_path, capsys):
        argv = ("group", "ball", "--builtin", "heisenberg", "--R", "2",
                "--cache-dir", str(tmp_path))
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        (path,) = tmp_path.glob("*.json")
        doc = json.loads(path.read_text())
        doc["matrix"][0][1] += 1.0  # still valid JSON with this version and parameters
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        code, out, err = run(capsys, *argv, "--verify-cache")
        assert code == 1
        assert "cache mismatch" in err and out == ""

    @pytest.mark.parametrize("group, message", [
        ("5", "group JSON must be an object, not 5"),
        ('{"builtin": "free", "params": 5}', "group JSON 'params' must be an object, not 5"),
        ('{"builtin": [1]}', "unknown builtin group [1]"),
    ], ids=["int-group", "int-params", "list-builtin"])
    def test_malformed_group_exit_2(self, tmp_path, capsys, group, message):
        code, out, err = run(capsys, "group", "ball", "--group", group, "--cache-dir", str(tmp_path / "cache"))
        assert code == 2
        assert out == "" and message in err
        assert not (tmp_path / "cache").exists()

    def test_freeprod_matrix_cap_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr(free_products, "MATRIX_CAP", 16)
        code, out, err = run(capsys, "group", "freeprod", "--factor-size", "4", "--max-norm", "6")
        assert code == 3
        assert "matrix exceeds cap 16" in err and out == ""

    def test_hyperbolize_matrix_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(hyperbolic, "MATRIX_CAP", 16)
        space = write_space(tmp_path, "p.json", path_space(5))
        code, out, err = run(capsys, "group", "hyperbolize", "--space", space, "--levels", "3")
        assert code == 3
        assert "matrix exceeds cap 16" in err and out == ""

    def test_oversized_ball_exit_3(self, tmp_path, capsys):
        t0 = time.monotonic()
        code, _, err = run(capsys, "group", "ball", "--group", '{"builtin": "zn", "params": {"rank": 1}}',
                           "--R", "5000", "--cache-dir", str(tmp_path))
        assert time.monotonic() - t0 < 30.0  # the cap is checked before the n x n arrays exist
        assert code == 3
        assert "matrix exceeds cap" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["free", "zn"])
    def test_huge_rank_exit_3_at_once(self, capsys, name):
        t0 = time.monotonic()
        code, out, err = run(capsys, "group", "ball", "--group", f'{{"builtin": "{name}", "params": {{"rank": 1e308}}}}',
                             "--R", "0", "--no-cache")
        assert time.monotonic() - t0 < 1.0  # checked before a generator is built
        assert (code, out) == (3, "")
        assert "generators; a ball of radius 1 exceeds cap" in err

    def test_freeprod_and_tree(self, tmp_path, capsys):
        code, out, _ = run(capsys, "group", "freeprod", "--factor-size", "4",
                           "--max-norm", "6")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == len(doc["words"])
        code, out, _ = run(capsys, "group", "tree", "--factor-size", "4", "--max-norm", "6")
        assert code == 0
        tree_doc = json.loads(out)
        assert tree_doc["acyclic"]
        assert tree_doc["projection_lipschitz"] <= 1.0

    def test_amalgam(self, capsys):
        code, out, _ = run(capsys, "group", "amalgam", "--model", "z2_z3", "--R", "4")
        assert code == 0
        assert json.loads(out)["lipschitz_ok"]

    def test_hyperbolize(self, tmp_path, capsys):
        space = write_space(tmp_path, "p.json", path_space(5))
        code, out, _ = run(capsys, "group", "hyperbolize", "--space", space, "--levels", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 15
        assert doc["height_lipschitz"] <= 1.0 + 1e-12

    def test_bound_polycyclic(self, capsys):
        code, out, _ = run(capsys, "group", "bound", "--expr", "polycyclic:Z,Z,Z")
        assert code == 0
        assert "bound <= 3" in out

    def test_bound_amalgam_chain(self, capsys):
        code, out, _ = run(capsys, "group", "bound", "--expr", "amalgam:1,1,1")
        assert code == 0
        assert "bound <= 2" in out
        assert "amalgam rule" in out


ORACLE_SCRIPTS = {
    "adds": """
        import sys
        for line in sys.stdin:
            parts = line.split()
            print(int(parts[1]) + int(parts[2]), flush=True)
        open(sys.argv[1], "w").write("end of input")
    """,
    "wrong on 2 * 1": """
        import sys
        for line in sys.stdin:
            a, b = (int(v) for v in line.split()[1:])
            print(0 if (a, b) == (2, 1) else a + b, flush=True)
    """,
    "exits after one answer": """
        import sys
        parts = sys.stdin.readline().split()
        print(int(parts[1]) + int(parts[2]), flush=True)
    """,
    "hangs": """
        import sys, time
        sys.stdin.readline()
        time.sleep(60)
    """,
}


class TestCustomGroupOracle:
    @pytest.fixture
    def spawned(self, monkeypatch):
        """Every oracle the CLI starts."""
        oracles = []
        raw_init = groups.ExternalGroupOracle.__init__

        def tracked_init(self, *args, **kwargs):
            raw_init(self, *args, **kwargs)
            oracles.append(self)

        monkeypatch.setattr(groups.ExternalGroupOracle, "__init__", tracked_init)
        return oracles

    def ball(self, tmp_path, capsys, script, cache_dir=None):
        path = tmp_path / "oracle.py"
        path.write_text(textwrap.dedent(ORACLE_SCRIPTS[script]))
        command = [sys.executable, str(path), str(tmp_path / "closed")]
        group = {"custom": {"command": command, "identity": "0",
                            "generators": [["t", "1"], ["t~", "-1"]]}}
        cache = ["--cache-dir", str(cache_dir)] if cache_dir else ["--no-cache"]
        return run(capsys, "group", "ball", "--group", json.dumps(group), "--R", "2", *cache)

    def test_success_closes_by_end_of_input(self, tmp_path, capsys, spawned):
        code, out, _ = self.ball(tmp_path, capsys, "adds")
        assert code == 0
        assert json.loads(out)["n"] == 5
        (oracle,) = spawned
        assert oracle.proc.returncode == 0  # exited by itself, not killed
        assert (tmp_path / "closed").read_text() == "end of input"

    def test_closed_stream_exit_2(self, tmp_path, capsys, spawned):
        code, _, err = self.ball(tmp_path, capsys, "exits after one answer")
        assert code == 2
        assert "closed the stream" in err or "is gone" in err
        assert all(o.proc.returncode is not None for o in spawned)

    def test_law_breaking_oracle_exit_1(self, tmp_path, capsys, spawned):
        cache = tmp_path / "cache"
        code, out, err = self.ball(tmp_path, capsys, "wrong on 2 * 1", cache_dir=cache)
        assert code == 1
        assert "breaks the group law" in err and out == ""
        assert not cache.exists() or not list(cache.iterdir())  # nothing was cached
        (oracle,) = spawned
        assert oracle.proc.returncode == 0

    def test_hanging_oracle_exit_3(self, tmp_path, capsys, spawned, monkeypatch):
        monkeypatch.setattr(groups, "ORACLE_TIMEOUT_S", 0.5)
        t0 = time.monotonic()
        code, _, err = self.ball(tmp_path, capsys, "hangs")
        assert time.monotonic() - t0 < 5.0
        assert code == 3
        assert "oracle.py" in err and "0.5 s" in err
        (oracle,) = spawned
        assert oracle.proc.returncode is not None  # no live child is left


SCIPY_PROBE = """
import contextlib, io, sys
from coarsedim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
print("scipy" in sys.modules)
"""

IMPORT_ALL = """
import importlib, pkgutil, sys, coarsedim
for m in pkgutil.walk_packages(coarsedim.__path__, "coarsedim."):
    importlib.import_module(m.name)
print("scipy" in sys.modules)
"""


SCIPY_BLOCKED = """
import contextlib, io, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
import coarsedim
from coarsedim.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps(codes))
"""


def fresh_python(code, *argv, cwd=None):
    """Standard output of ``code`` run in a new interpreter on this source tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": src}, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestColdStart:
    """No command loads scipy: graph metrics of any weights are computed
    in numpy."""

    @pytest.mark.parametrize("argv, loaded", [
        (["group", "ball", "--builtin", "heisenberg", "--R", "2", "--no-cache"], "False"),
        (["space", "build", "grid", "3", "3"], "False"),
    ], ids=["group ball", "space build"])
    def test_scipy_loaded_only_for_graph_metrics(self, argv, loaded):
        assert fresh_python(SCIPY_PROBE, *argv) == loaded

    def test_scipy_not_loaded_for_two_distinct_weights(self, tmp_path):
        path = tmp_path / "weighted.json"
        path.write_text(json.dumps({"kind": "graph", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.5]]}))
        assert fresh_python(SCIPY_PROBE, "space", "check", "--file", str(path)) == "False"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # every command of the installed-package CI step, with scipy made
        # unimportable, exits as it does with scipy installed
        (tmp_path / "nan.json").write_text('{"kind": "matrix", "n": 2, "matrix": [[0, NaN], [NaN, 0]]}')
        (tmp_path / "weighted.json").write_text(
            json.dumps({"kind": "graph", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.5]]}))
        (tmp_path / "maps").mkdir()
        proj = json.dumps({"codomain": "path8.json", "assignment": list(range(8)) * 4, "lipschitz": 1})
        (tmp_path / "proj.json").write_text(proj)
        (tmp_path / "maps" / "proj.json").write_text(proj)
        hurewicz = ["hurewicz", "run", "--space", "grid4x8.json", "--n", "1", "--k", "1", "--r", "2", "--map"]
        commands = [
            (["--version"], 0),
            (["group", "ball", "--builtin", "heisenberg", "--R", "2", "--no-cache"], 0),
            (["verify"], 0),
            (["space", "check", "--file", "nan.json"], 2),
            (["space", "build", "grid", "6", "6", "-o", "g.json"], 0),
            (["cover", "solve", "g.json", "--mode", "exact", "-o", "d.json"], 0),
            (["cover", "verify", "g.json", "--decomposition", "d.json"], 0),
            (["space", "build", "grid", "4", "8", "-o", "grid4x8.json"], 0),
            (["space", "build", "path", "8", "-o", "path8.json"], 0),
            (hurewicz + ["proj.json"], 0),
            (["space", "build", "path", "8", "-o", "maps/path8.json"], 0),
            (hurewicz + ["maps/proj.json"], 0),
            (["space", "check", "--file", "weighted.json"], 0),
        ]
        codes = fresh_python(SCIPY_BLOCKED, json.dumps([argv for argv, _ in commands]), cwd=tmp_path)
        assert json.loads(codes) == [code for _, code in commands]

    def test_no_module_imports_scipy(self):
        assert fresh_python(IMPORT_ALL) == "False"


def action_parsers():
    """The argv prefix and the parser of every action ``build_parser`` makes."""
    def subparsers(parser):
        return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)

    out = {}
    for command, parser in subparsers(build_parser()).items():
        actions = subparsers(parser)
        out.update({(command, name): ap for name, ap in actions.items()} if actions else {(command,): parser})
    return out


def flags(parser):
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


HUREWICZ_RUN = ["hurewicz", "run", "--space", "grid4x8.json", "--map", "proj.json", "--n", "1", "--k", "1"]


class TestCommandLine:
    """Every command line argparse rejects, and every parameter out of its
    range, exits 2 with one ``input error:`` line and nothing on stdout."""

    # a command line each action accepts, before any setting with a default
    ACCEPTED = {
        ("space", "build"): ["grid", "2", "2"],
        ("space", "check"): ["--file", "s.json"],
        ("space", "info"): ["--file", "s.json"],
        ("cover", "solve"): ["s.json"],
        ("cover", "verify"): ["s.json", "--decomposition", "d.json"],
        ("cover", "profile"): ["s.json"],
        ("hurewicz", "run"): HUREWICZ_RUN[2:],
        ("group", "ball"): [],
        ("group", "freeprod"): [],
        ("group", "tree"): [],
        ("group", "amalgam"): [],
        ("group", "hyperbolize"): ["--space", "s.json"],
        ("group", "bound"): ["--expr", "polycyclic:Z"],
        ("verify",): [],
    }

    def test_no_action_takes_another_actions_flags(self, capsys):
        parsers = action_parsers()
        assert set(parsers) == set(self.ACCEPTED)
        every = set().union(*map(flags, parsers.values()))
        for prefix, parser in parsers.items():
            argv = [*prefix, *self.ACCEPTED[prefix]]
            build_parser().parse_args(argv)
            for flag in sorted(every - flags(parser)):
                code, out, err = run(capsys, *argv, flag)
                assert (code, out, err) == (2, "", f"input error: unrecognized arguments: {flag}\n"), argv

    @pytest.mark.parametrize("argv, message", [
        (["cover", "solve", "s.json", "--D", "abc"], "argument --D: invalid float value: 'abc'"),
        (["cover", "profile", "s.json", "--D", "1"], "unrecognized arguments: --D 1"),
        (["space", "build", "torus", "3"], "argument kind: invalid choice: "),
        (["group", "amalgam", "--model", "z9"], "argument --model: invalid choice: "),
        (["group", "ball", "--builtin", "free", "--group", "{}"],
         "argument --group: not allowed with argument --builtin"),
        (["group", "bound"], "the following arguments are required: --expr"),
        (["cover", "verify", "s.json"], "the following arguments are required: --decomposition"),
        (["space"], "the following arguments are required: action"),
        ([], "the following arguments are required: command"),
    ], ids=["bad-float", "no-abbreviation", "bad-kind", "bad-model", "two-groups",
            "no-expr", "no-decomposition", "no-action", "no-command"])
    def test_rejected_command_line_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"input error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["cover", "solve", "grid.json", "--D", "1", "--B", "nan"], "B must be a real number in [0, inf], not nan"),
        (["cover", "profile", "grid.json", "--Dlist", "1,nan"], "D must be a real number in [0, inf), not nan"),
        (["cover", "profile", "grid.json", "--Dlist", "1", "--mesh-multiplier", "-1"],
         "mesh_multiplier must be a real number in [0, inf], not -1.0"),
        (HUREWICZ_RUN + ["--r", "nan"], "r must be a real number in (0, inf), not nan"),
        (HUREWICZ_RUN + ["--r", "2", "--mesh-multiplier", "nan"], "mesh_multiplier must be a real number in (0, inf)"),
        (HUREWICZ_RUN + ["--r", "inf"], "r must be a real number in (0, inf), not inf"),
        (HUREWICZ_RUN + ["--r", "2", "--mesh-multiplier", "0"], "mesh_multiplier must be a real number in (0, inf)"),
        (HUREWICZ_RUN + ["--r", "2", "--epsilon", "nan"], "epsilon must be a real number in (0, inf), not nan"),
        (HUREWICZ_RUN + ["--r", "2", "--n", "-1"], "n must be a real number in [0, inf), not -1"),
        (["cover", "solve", "grid.json", "--D", "nan"], "D must be a real number in [0, inf), not nan"),
        (["cover", "solve", "grid.json", "--D", "inf"], "D must be a real number in [0, inf), not inf"),
        (["group", "freeprod", "--max-norm", "nan"], "max_norm must be a real number in [0, inf), not nan"),
        (["group", "freeprod", "--max-norm", "-1"], "max_norm must be a real number in [0, inf), not -1.0"),
        (["group", "ball", "--group", '{"builtin": "cyclic", "params": {"m": 0}}', "--no-cache"],
         "builtin group 'cyclic' takes no parameter 'm'"),
        (["group", "hyperbolize", "--space", "path8.json", "--ratio", "1e200"],
         "the largest radius t0 * ratio**(levels - 1) is not a finite float (t0=1.0, ratio=1e+200, levels=5)"),
        (["group", "hyperbolize", "--space", "path8.json", "--t0", "1e308"],
         "the largest radius t0 * ratio**(levels - 1) is not a finite float (t0=1e+308, ratio=2.718"),
        (["group", "hyperbolize", "--space", "path8.json", "--t0", "1e-200"],
         "radii must be positive floats with a positive finite square, not 1e-200"),
        (["group", "bound", "--expr", '{"rule": "extension", "quotient": 1e999, "kernel": 1}'],
         "quotient inf is not a whole number"),
        (["group", "bound", "--expr", "extension:Z,-5"], "kernel must be a real number in [0, inf), not -5"),
        (["group", "bound", "--expr", '{"rule": "polycyclic", "series": "ZZZ"}'],
         "polycyclic series must be a list of quotients, not 'ZZZ'"),
        (["group", "bound", "--expr", "polycyclic:Z,finitely"], "series quotient 'finitely' is not 'Z', 'finite'"),
        (["group", "bound", "--expr", "freeprod:1"], "freeprod takes 2 operands (left, right), not 1"),
        (["group", "bound", "--expr", '{"rule": "extension", "quotient": 1}'],
         "the extension rule takes the keys quotient, kernel; bound expression has ['quotient']"),
        (["group", "bound", "--expr", '{"rule": "extension", "kernel": 0, "quotient": ' * 2000 + "0" + "}" * 2000],
         "bound expression nests too deeply"),
    ], ids=["solve-nan-B", "profile-nan-D", "profile-negative-mesh-multiplier", "nan-r", "nan-mesh-multiplier", "infinite-r", "zero-mesh-multiplier",
            "nan-epsilon", "negative-n", "solve-nan-D", "solve-infinite-D", "nan-max-norm", "negative-max-norm",
            "unknown-builtin-param", "overflowing-ratio", "overflowing-t0", "underflowing-t0",
            "infinite-bound", "negative-bound", "string-series", "unknown-quotient", "missing-operand",
            "missing-key", "deep-nesting"])
    def test_parameter_out_of_range_exit_2_at_once(self, tmp_path, capsys, monkeypatch, argv, message):
        # unchecked, the first four parameters would reach a carving or assembly loop that never ends
        monkeypatch.chdir(tmp_path)
        write_space(tmp_path, "grid.json", grid_space(3, 4))
        write_space(tmp_path, "grid4x8.json", grid_space(4, 8))
        write_space(tmp_path, "path8.json", path_space(8))
        (tmp_path / "proj.json").write_text(json.dumps({"codomain": "path8.json",
                                                        "assignment": list(range(8)) * 4, "lipschitz": 1}))
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 1.0
        assert code == 2 and out == ""
        assert err.startswith(f"input error: {message}") and err.count("\n") == 1


    def test_large_dimension_exit_3_at_once(self, tmp_path, capsys, monkeypatch):
        # n = 9 would measure the cylinder constant of dimension 9 first, for minutes
        monkeypatch.chdir(tmp_path)
        write_space(tmp_path, "grid4x8.json", grid_space(4, 8))
        write_space(tmp_path, "path8.json", path_space(8))
        (tmp_path / "proj.json").write_text(json.dumps({"codomain": "path8.json",
                                                        "assignment": list(range(8)) * 4, "lipschitz": 1}))
        t0 = time.monotonic()
        code, out, err = run(capsys, *HUREWICZ_RUN[:-4], "--n", "9", "--k", "1", "--r", "2")
        assert time.monotonic() - t0 < 1.0
        assert (code, out) == (3, "")
        assert err.startswith("resource cap: n + k - 1 = 9: ") and err.count("\n") == 1


class TestVerify:
    def test_clean_tree_exit_0(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_injected_fault_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--inject-fault")
        assert code == 1
        assert "FAIL" in out
        assert "axiom violation at" in out  # the first witness is printed

    def test_injected_fault_exit_1_without_asserts(self):
        # under python -O, where assert statements do not run
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-O", "-m", "coarsedim.cli", "verify", "--inject-fault"],
                              capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert "FAIL metric-axioms: axiom violation at" in proc.stdout

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"]
        assert all(r["ok"] for r in doc["results"])


def cache_entry(params, **fields):
    """A report text as the CLI writes it, stamped with this version."""
    doc = {"version": __version__, "parameters": params, **fields}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestWorkspace:
    def test_round_trip(self, tmp_path):
        ws = Workspace(str(tmp_path))
        assert ws.get("thing", {"a": 1}) is None
        text = cache_entry({"a": 1}, data=[1, 2, 3])
        ws.put("thing", {"a": 1}, text)
        assert ws.get("thing", {"a": 1}) == text
        assert ws.get("thing", {"a": 2}) is None

    @pytest.mark.parametrize("text", ["", "{\"version\":", "[1, 2]", "\"data\"",
                                      json.dumps({"version": __version__})])
    def test_unusable_entry_is_a_miss(self, tmp_path, text):
        ws = Workspace(str(tmp_path))
        (tmp_path / f"{ws.key('thing', {})}.json").write_text(text)
        assert ws.get("thing", {}) is None
        ws.put("thing", {}, cache_entry({}))
        assert ws.get("thing", {}) == cache_entry({})

    @pytest.mark.parametrize("doc", [
        {"version": __version__, "data": json.loads(cache_entry({}))},
        json.loads(cache_entry({"a": 1})),
        {"version": "0.0.0", "parameters": {}},
    ], ids=["parent format", "other parameters", "other version"])
    def test_stale_entry_is_a_miss(self, tmp_path, doc):
        ws = Workspace(str(tmp_path))
        (tmp_path / f"{ws.key('thing', {})}.json").write_text(json.dumps(doc))
        assert ws.get("thing", {}) is None
        ws.put("thing", {}, cache_entry({}))
        assert ws.get("thing", {}) == cache_entry({})
