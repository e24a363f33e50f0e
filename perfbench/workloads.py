"""The three benchmark workloads.

Each workload is a closed loop with one client: one operation at a time,
each waiting for its result, as a desk-scale user runs one witness
computation at a time.  A workload has

* ``setup(seed, workdir, tracer=None)``: import coarsedim, generate the
  inputs from the seed and finish lazy set-up; returns the state the
  operations use (``tracer`` makes the CLI commands run traced);
* ``run(state)``: one timed operation, returning its raw result;
* ``digest(state, result)``: the result reduced to what the reference
  records (see ``refcheck``).

The seed reaches the program only as generated inputs (the generator order
of each group, which the canonical element order makes irrelevant to the
output) and as the ``seed=`` of sampled checks.  The thin-grid and CLI
spaces are fixed sizes, so every seed costs the same work.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import refcheck

HERE = Path(__file__).resolve().parent
COMMAND_TIMEOUT_S = 150


def column_projection(rows: int, cols: int):
    """Grid -> path map collapsing rows; 1-Lipschitz by construction."""
    from coarsedim.metric_core import grid_space, map_between_spaces, path_space

    grid = grid_space(rows, cols)
    path = path_space(cols)
    return map_between_spaces(grid, path, [p % cols for p in range(grid.n)], 1.0)


def _shuffled_generators(group, rng: random.Random):
    import dataclasses

    gens = list(group.generators)
    rng.shuffle(gens)
    return dataclasses.replace(group, generators=tuple(gens))


def _axioms(report: dict, seed: int) -> dict:
    out = {k: v for k, v in report.items() if k != "seed"}
    out["seed_echo_ok"] = report.get("seed") == seed
    return out


# ---------------------------------------------------------------------------
# thin_grid_assembly


class ThinGridAssembly:
    """The assembly on the thin-grid family column_projection(4, 256) at r=2,
    followed by all face-agreement checks."""

    name = "thin_grid_assembly"
    ROWS, COLS = 4, 256

    def setup(self, seed: int, workdir: Path, tracer=None) -> dict:
        from coarsedim.hurewicz import default_c_table

        f = column_projection(self.ROWS, self.COLS)
        default_c_table(1, 1)  # measured cylinder constants, cached per process
        return {"f": f, "seed": seed}

    def run(self, state: dict):
        from coarsedim.hurewicz import all_face_agreements, build_assembly, make_config

        cfg = make_config(state["f"], epsilon=1, n=1, k=1, r=2,
                          allow_sub_required=True, seed=state["seed"])
        asm = build_assembly(cfg)
        return {"assembly": asm, "agreements": all_face_agreements(asm)}

    def digest(self, state: dict, result: dict) -> dict:
        asm, agreements = result["assembly"], result["agreements"]
        d = refcheck.new_digest()
        report = dict(asm.report)
        d["exact"]["seed_echo_ok"] = report.pop("seed") == state["seed"]
        refcheck.split_report("report", report, d)
        n = asm.config.f.domain.n
        d["exact"]["assignment"] = refcheck.fingerprint([asm.assignment[x] for x in range(n)])
        d["exact"]["tower_flags"] = refcheck.fingerprint(sorted(asm.towers))
        d["exact"]["base_families"] = refcheck.fingerprint(
            [[list(s.indices) for s in fam] for fam in asm.base_decomposition.families])
        d["exact"]["face_covers"] = refcheck.fingerprint(
            [[list(face), [list(s.indices) for s in cover.sets]]
             for face, cover in sorted(asm.face_covers.items())])
        d["exact"]["K"] = {"dimension": asm.K.dimension, "vertices": len(asm.K.vertices),
                           "simplices": len(asm.K.simplices)}
        d["exact"]["face_agreements"] = refcheck.fingerprint(
            [{k: rep[k] for k in ("pair", "adjacent", "ok", "points_checked", "witness")}
             for rep in agreements])
        d["approx"]["face_agreements.max_deviation"] = [rep["max_deviation"] for rep in agreements]
        return d


# ---------------------------------------------------------------------------
# group_balls


class GroupBalls:
    """Cayley balls of F2 (R=4), Heisenberg (R=6) and Z^3 (R=4); the free
    product of two 4-point paths truncated at norm 10 with its coset tree
    and tree projection; the hyperbolization of a 6x6 grid over 5 radii with
    its height projection.  Every space passes verify_metric_axioms and
    every projection measured_lipschitz."""

    name = "group_balls"
    BALLS = (("free2", 4), ("heisenberg", 6), ("z3", 4))

    def setup(self, seed: int, workdir: Path, tracer=None) -> dict:
        from coarsedim.group_spaces import free_abelian_group, free_group, heisenberg_group
        from coarsedim.group_spaces.free_products import PointedSpace
        from coarsedim.group_spaces.hyperbolic import geometric_radii
        from coarsedim.metric_core import grid_space, path_space

        rng = random.Random(seed)
        groups = {"free2": free_group(2), "heisenberg": heisenberg_group(),
                  "z3": free_abelian_group(3)}
        groups = {k: _shuffled_generators(g, rng) for k, g in groups.items()}
        path4 = PointedSpace(path_space(4), 0)
        return {
            "seed": seed,
            "groups": groups,
            "factors": (path4, path4),
            "grid": grid_space(6, 6),
            "radii": geometric_radii(levels=5),
        }

    def run(self, state: dict):
        from coarsedim.group_spaces import (
            cayley_ball, free_product_space, free_product_tree, height_projection,
            hyperbolization, tree_projection,
        )
        from coarsedim.metric_core import measured_lipschitz, verify_metric_axioms

        seed = state["seed"]
        out = {}
        for key, radius in self.BALLS:
            ball = cayley_ball(state["groups"][key], radius)
            out[key] = {"ball": ball, "axioms": verify_metric_axioms(ball.space, seed=seed)}
        fps = free_product_space(*state["factors"], 10)
        tree = free_product_tree(fps)
        proj = tree_projection(fps, tree)
        out["free_product"] = {
            "fps": fps,
            "tree": tree,
            "axioms": verify_metric_axioms(fps.space, seed=seed),
            "tree_axioms": verify_metric_axioms(tree.space, seed=seed),
            "projection_lipschitz": measured_lipschitz(proj),
        }
        hspace = hyperbolization(state["grid"], state["radii"])
        out["hyperbolization"] = {
            "hspace": hspace,
            "axioms": verify_metric_axioms(hspace.space, seed=seed),
            "height_lipschitz": measured_lipschitz(height_projection(hspace)),
        }
        return out

    def digest(self, state: dict, result: dict) -> dict:
        seed = state["seed"]
        d = refcheck.new_digest()
        ex, ap = d["exact"], d["approx"]
        for key, _ in self.BALLS:
            ball = result[key]["ball"]
            ex[f"{key}.n"] = ball.space.n
            ex[f"{key}.labels"] = refcheck.fingerprint(list(ball.space.labels))
            ex[f"{key}.matrix"] = refcheck.matrix_fingerprint(ball.space.matrix)
            ex[f"{key}.axioms"] = _axioms(result[key]["axioms"], seed)
        fp = result["free_product"]
        fps, tree = fp["fps"], fp["tree"]
        ex["free_product.n"] = fps.space.n
        ex["free_product.words"] = refcheck.fingerprint([list(map(list, w)) for w in fps.words])
        ex["free_product.norms"] = refcheck.fingerprint(list(fps.norms))
        ex["free_product.matrix"] = refcheck.matrix_fingerprint(fps.space.matrix)
        ex["free_product.axioms"] = _axioms(fp["axioms"], seed)
        ex["tree.n"] = tree.space.n
        ex["tree.edges"] = refcheck.fingerprint([list(e) for e in tree.edges])
        ex["tree.matrix"] = refcheck.matrix_fingerprint(tree.space.matrix)
        ex["tree.axioms"] = _axioms(fp["tree_axioms"], seed)
        ap["tree.projection_lipschitz"] = fp["projection_lipschitz"]
        hy = result["hyperbolization"]
        ex["hyperbolization.n"] = hy["hspace"].space.n
        ex["hyperbolization.labels"] = refcheck.fingerprint(list(hy["hspace"].space.labels))
        ex["hyperbolization.axioms"] = _axioms(hy["axioms"], seed)
        ap["hyperbolization.matrix"] = np.array(hy["hspace"].space.matrix)
        ap["hyperbolization.height_lipschitz"] = hy["height_lipschitz"]
        return d


# ---------------------------------------------------------------------------
# cli_session


HEISENBERG_TOKENS = (("x", "1,0,0"), ("x~", "-1,0,0"), ("y", "0,1,0"), ("y~", "0,-1,0"))


class CliSession:
    """Five fresh coarsedim processes in sequence: space check on a 31x31
    grid, cover solve on it (greedy, D=4, B=12), hurewicz run on
    column_projection(4, 64) at r=2, and group ball R=5 on a Heisenberg group
    served by the line-protocol oracle in ``oracle.py``, twice against a
    cache directory that starts empty (a miss and write, then a hit)."""

    name = "cli_session"
    BALL_R = 5

    def setup(self, seed: int, workdir: Path, tracer=None) -> dict:
        from coarsedim import cli  # noqa: F401  (the commands' import cost, paid here once)
        from coarsedim.metric_core import grid_space, space_to_json

        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        _write_json(inputs / "grid31.json", space_to_json(grid_space(31, 31)))
        f = column_projection(4, 64)
        _write_json(inputs / "grid4x64.json", space_to_json(f.domain))
        _write_json(inputs / "map4x64.json", {
            "codomain": space_to_json(f.codomain),
            "assignment": list(f.images),
            "lipschitz": 1.0,
        })
        gens = list(HEISENBERG_TOKENS)
        random.Random(seed).shuffle(gens)
        counts = workdir / "oracle_counts.txt"
        group = {"custom": {
            "command": [sys.executable, str(HERE / "oracle.py"), str(counts)],
            "identity": "0,0,0",
            "generators": [list(g) for g in gens],
        }}
        cache = workdir / "cache"
        ball_args = ["group", "ball", "--group", json.dumps(group), "--R", str(self.BALL_R),
                     "--cache-dir", str(cache)]
        commands = [
            ("space_check", ["space", "check", "--file", "grid31.json", "--seed", str(seed)]),
            ("cover_solve", ["cover", "solve", "grid31.json", "--D", "4", "--B", "12",
                             "--mode", "greedy"]),
            ("hurewicz_run", ["hurewicz", "run", "--space", "grid4x64.json", "--map",
                              "map4x64.json", "--epsilon", "1", "--n", "1", "--k", "1",
                              "--r", "2", "--seed", str(seed)]),
            ("group_ball_cold", ball_args),
            ("group_ball_warm", ball_args),
        ]
        return {
            "seed": seed,
            "workdir": workdir,
            "inputs": inputs,
            "cache": cache,
            "counts": counts,
            "group": group,
            "commands": commands,
            "trace": tracer is not None,
        }

    def run(self, state: dict):
        """One session; each command runs in a fresh interpreter through
        ``launch.py``, which also reports its import time and peak RSS."""
        shutil.rmtree(state["cache"], ignore_errors=True)
        state["cache"].mkdir(parents=True)
        state["counts"].write_text("")
        out = {}
        for name, args in state["commands"]:
            stats = state["workdir"] / f"stats_{name}.json"
            cmd = [sys.executable, str(HERE / "launch.py"), "--stats", str(stats)]
            if state["trace"]:
                cmd.append("--trace")
            t0 = perf_counter()
            proc = subprocess.run(cmd + ["--"] + args, cwd=state["inputs"], capture_output=True,
                                  text=True, timeout=COMMAND_TIMEOUT_S)
            wall = perf_counter() - t0
            with stats.open(encoding="utf-8") as f:
                launch_stats = json.load(f)
            stats.unlink()
            out[name] = {"returncode": proc.returncode, "stdout": proc.stdout,
                         "stderr": proc.stderr, "wall_s": wall, "stats": launch_stats}
        out["cache_bytes"] = sum(p.stat().st_size for p in state["cache"].rglob("*") if p.is_file())
        out["oracle_calls"] = sum(int(x) for x in state["counts"].read_text().split())
        shutil.rmtree(state["cache"], ignore_errors=True)
        return out

    def summary(self, result: dict) -> dict:
        """What the metrics need from a session, without the command outputs."""
        out = dict(result)
        for name in out:
            if isinstance(out[name], dict):
                out[name] = {k: out[name][k] for k in ("wall_s", "stats")}
        return out

    def digest(self, state: dict, result: dict) -> dict:
        d = refcheck.new_digest()
        for name, _ in state["commands"]:
            res = result[name]
            d["exact"][f"{name}.returncode"] = res["returncode"]
            try:
                doc = json.loads(res["stdout"])
            except json.JSONDecodeError:
                d["exact"][f"{name}.stdout"] = "not JSON: " + res["stdout"][:200]
                continue
            if name.startswith("group_ball"):
                name = "group_ball"  # cold and warm must give the same report
                doc = dict(doc)
                params = doc.pop("parameters", None)
                d["exact"][f"{name}.parameters_ok"] = params == {"group": state["group"],
                                                                 "R": self.BALL_R}
                d["exact"][f"{name}.matrix"] = refcheck.matrix_fingerprint(doc.pop("matrix"))
            elif name == "hurewicz_run":
                doc = dict(doc)
                d["exact"][f"{name}.seed_echo_ok"] = doc.pop("seed") == state["seed"]
            refcheck.split_report(name, doc, d)
        return d


def _write_json(path: Path, doc) -> None:
    with path.open("w", encoding="utf-8") as f:
        json.dump(doc, f)


WORKLOADS = {w.name: w for w in (ThinGridAssembly(), GroupBalls(), CliSession())}
