"""Command line front end.

Subcommands build spaces, run the cover solvers and the map-assembly
pipeline, enumerate group balls, and emit JSON/CSV reports.  Every command
is deterministic given its inputs and seed; reports echo their parameters,
the tool version, and the rule used, so a rerun reproduces byte-identical
output apart from timing fields.

Exit codes: 0 ok, 1 invariant failure, 2 input error, 3 resource cap.
Expensive enumerations are cached under $COARSEDIM_CACHE (content-hash
keyed, version-stamped).

This module imports only ``errors`` and ``metric_core`` of the package;
each command imports the layers it runs, so a process loads and compiles
only what its command needs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from contextlib import ExitStack
from pathlib import Path

from . import __version__
from .errors import CapExceeded, CoarsedimError, InputError, InvariantViolation, StageFailure
from .metric_core import (
    cycle_space,
    grid_space,
    load_space,
    map_between_spaces,
    measured_lipschitz,
    path_space,
    space_from_json,
    space_to_json,
    verify_metric_axioms,
)

SPACE_PARAMS = {"grid": ("rows", "cols"), "path": ("n",), "cycle": ("n",), "file": ("file",)}

# each model's factory in ``group_spaces.amalgams``, looked up when the command runs
AMALGAM_MODELS = {
    "z2_z3": "plain_free_product_z2_z3",
    "z_2z": "z_amalgam_2z",
    "z4_z6": "z4_amalgam_z6",
}


# ---------------------------------------------------------------------------
# workspace


class Workspace:
    """Content-hash keyed cache of report texts.  An entry is the report
    itself, which echoes the tool version and its parameters, so stale data
    is never served across upgrades."""

    def __init__(self, root: str | None = None):
        root = root or os.environ.get("COARSEDIM_CACHE") or os.path.join(
            os.path.expanduser("~"), ".cache", "coarsedim"
        )
        self.root = Path(root)

    def key(self, kind: str, params: dict) -> str:
        blob = json.dumps({"kind": kind, "params": params, "version": __version__}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def get(self, kind: str, params: dict) -> str | None:
        """The cached report text, or None unless it parses to an object
        stamped with this version and these parameters.  An unusable entry
        (unreadable, truncated, another format) is a miss, which the next
        ``put`` overwrites."""
        path = self.root / f"{self.key(kind, params)}.json"
        try:
            text = path.read_text()
            doc = json.loads(text)
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("version") != __version__ or doc.get("parameters") != params:
            return None
        return text

    def put(self, kind: str, params: dict, text: str) -> None:
        _atomic_write(self.root / f"{self.key(kind, params)}.json", text)


def _atomic_write(path, text: str) -> None:
    """Write through a temporary file in the same directory and rename it
    into place, so readers never see a partial file.  The file is created
    with mode 0o666 less the umask, as ``open(path, "w")`` would."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _stamp(doc: dict, args_echo: dict, rule: str | None = None, seed: int = 0) -> dict:
    doc["version"] = __version__
    doc["parameters"] = args_echo
    doc["seed"] = seed
    if rule:
        doc["rule"] = rule
    return doc


def _report(args, doc: dict, rule: str, *echo: str, seed: int = 0) -> int:
    """Stamp ``doc`` with ``rule``, ``seed`` and the settings named in
    ``echo``, write it to ``-o`` (else stdout), and return exit code 0."""
    _stamp(doc, {name: getattr(args, name) for name in echo}, rule, seed)
    _emit(_report_text(doc), args.out)
    return 0


def _report_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With ``indent`` set, ``json`` encodes in pure Python, which on a ball
    report means one call per matrix entry.  Here a top-level value that
    is a list of floats, or a matrix of such rows, goes through the C
    encoder row by row, its ``", "`` separators becoming the indented line
    breaks: a float's repr never holds ``", "``, and NaN and the infinities
    are spelled as ``json`` spells them.  Every other value, at any depth,
    is left to ``json.dumps``; no report holds a long float list below
    its top level."""
    if not isinstance(doc, dict) or not doc or not all(type(key) is str for key in doc):
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    fields = []
    for key in sorted(doc):
        value = doc[key]
        if _is_row(value):
            text = _row_text(value, "\n  ")
        elif type(value) is list and value and all(map(_is_row, value)):
            text = "[\n    " + ",\n    ".join([_row_text(row, "\n    ") for row in value]) + "\n  ]"
        else:
            text = json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
        fields.append(json.encoder.encode_basestring_ascii(key) + ": " + text)
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


_encode_row = json.JSONEncoder().encode  # no indent: the C encoder


def _is_row(value) -> bool:
    """Whether ``value`` is a nonempty list of floats."""
    return type(value) is list and set(map(type, value)) == {float}


def _row_text(row: list, newline: str) -> str:
    """The indented text of a float row whose own line starts with ``newline``."""
    inner = newline + "  "
    return "[" + inner + _encode_row(row)[1:-1].replace(", ", "," + inner) + newline + "]"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# space


def cmd_space_build(args) -> int:
    names = SPACE_PARAMS[args.kind]
    if len(args.params) < len(names):
        raise InputError(f"space build {args.kind} needs {' '.join(names)}; {names[len(args.params)]} is missing")
    if len(args.params) > len(names):
        raise InputError(f"space build {args.kind} takes {' '.join(names)}; {args.params[len(names)]!r} is extra")
    if args.kind == "file":
        space = load_space(args.params[0])
    else:
        build = {"grid": grid_space, "path": path_space, "cycle": cycle_space}[args.kind]
        space = build(*map(int, args.params))
    _emit(_report_text(space_to_json(space)), args.out)
    return 0


def cmd_space_check(args) -> int:
    try:
        space = load_space(args.file)
    except CoarsedimError as exc:
        print(f"FAIL: {exc}")
        return 2
    report = verify_metric_axioms(space, seed=args.seed)
    print(json.dumps(_stamp(report, {"file": args.file}), sort_keys=True, default=str))
    return 0 if report["ok"] else 2


def cmd_space_info(args) -> int:
    space = load_space(args.file)
    info = {
        "n": space.n,
        "diameter": space.diameter(),
        "provenance": space.provenance,
    }
    print(json.dumps(_stamp(info, {"file": args.file}), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# cover


def cmd_cover_solve(args) -> int:
    from .covers import colored_decomposition, decomposition_to_json

    dec = colored_decomposition(load_space(args.space), args.D, args.B, mode=args.mode)
    doc = decomposition_to_json(dec)
    doc["colors"] = dec.colors
    doc["label"] = dec.info["label"]
    return _report(args, doc, "scale-separated decomposition", "space", "D", "B", "mode")


def cmd_cover_verify(args) -> int:
    from .covers import decomposition_from_json

    space = load_space(args.space)
    with open(args.decomposition) as f:
        doc = json.load(f)
    try:
        dec = decomposition_from_json(doc, space)
    except InvariantViolation as exc:
        print(f"FAIL: {exc} witness={exc.witness}")
        return 1
    print(f"ok: {dec.colors} colors, D={dec.D}, B={dec.B}")
    return 0


def cmd_cover_profile(args) -> int:
    from .covers import scale_dimension_profile

    space = load_space(args.space)
    d_list = [float(d) for d in args.Dlist.split(",")]
    rows = scale_dimension_profile(space, d_list, mesh_multiplier=args.mesh_multiplier)
    lines = ["D,B,colors,mode,seconds"]
    lines += [f"{row['D']:g},{row['B']:g},{row['colors']},{row['mode']},{row['seconds']:.6f}"
              for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# hurewicz


def cmd_hurewicz_run(args) -> int:
    from .hurewicz import build_assembly, make_config

    space = load_space(args.space)
    with open(args.map) as f:
        map_doc = json.load(f)
    if not isinstance(map_doc, dict):
        raise InputError(f"map JSON must be an object, not {map_doc!r}")
    if not isinstance(map_doc.get("assignment"), list):
        raise InputError(f"map JSON needs a list 'assignment', not {map_doc.get('assignment')!r}")
    codomain_doc = map_doc["codomain"]
    if isinstance(codomain_doc, str):  # a path relative to the map file
        codomain = load_space(os.path.join(os.path.dirname(args.map), codomain_doc))
    else:
        codomain = space_from_json(codomain_doc)
    f_map = map_between_spaces(
        space, codomain, map_doc["assignment"], map_doc.get("lipschitz")
    )
    r = None if args.r == "auto" else float(args.r)
    cfg = make_config(
        f_map, args.epsilon, args.n, args.k, r=r, allow_sub_required=r is not None,
        mesh_multiplier=args.mesh_multiplier, seed=args.seed,
    )
    if not cfg.meets_required_scale:
        print(
            f"warning: scale {r} is below the required scale; "
            "the epsilon claim will not be certified",
            file=sys.stderr,
        )
    asm = build_assembly(cfg)
    report = dict(asm.report)
    report.pop("stage_log", None)
    report["sub_required_scale"] = not cfg.meets_required_scale
    return _report(args, report, "dimension-lowering assembly", "space", "map", "epsilon", "n", "k", "r",
                   seed=args.seed)


# ---------------------------------------------------------------------------
# group


def cmd_group_ball(args) -> int:
    from .group_spaces.groups import cayley_ball, group_from_json

    ws = Workspace(args.cache_dir)
    group_doc = json.loads(args.group) if args.group is not None else {"builtin": args.builtin}
    params = {"group": group_doc, "R": args.R}
    cached = None if args.no_cache else ws.get("cayley-ball", params)
    if cached is not None and not args.verify_cache:
        _emit(cached, args.out)
        return 0
    with ExitStack() as stack:  # closes a custom group's oracle on every path
        ball = cayley_ball(group_from_json(group_doc, stack), args.R)
    doc = space_to_json(ball.space)
    doc["elements"] = [repr(e) for e in ball.elements]
    text = _report_text(_stamp(doc, params, rule="word-metric ball"))
    if args.verify_cache and cached is not None:
        if cached != text:
            print("cache mismatch against recomputation", file=sys.stderr)
            return 1
        print("cache verified: identical to recomputation")
    if not args.no_cache:
        ws.put("cayley-ball", params, text)
    _emit(text, args.out)
    return 0


def _free_product(args):
    from .group_spaces.free_products import PointedSpace, free_product_space

    x = PointedSpace(path_space(args.factor_size), 0)
    return free_product_space(x, x, args.max_norm)


def cmd_group_freeprod(args) -> int:
    fps = _free_product(args)
    doc = {
        "max_norm": args.max_norm,
        "count": len(fps.words),
        "words": [[[t, p] for t, p in w] for w in fps.words],
        "norms": list(fps.norms),
    }
    return _report(args, doc, "free product of pointed spaces", "factor_size", "max_norm")


def cmd_group_tree(args) -> int:
    from .group_spaces.free_products import free_product_tree, tree_projection

    fps = _free_product(args)
    tree = free_product_tree(fps)
    proj = tree_projection(fps, tree)
    doc = {
        "vertices": len(tree.vertices),
        "edges": len(tree.edges),
        "acyclic": len(tree.edges) == len(tree.vertices) - 1,
        "projection_lipschitz": measured_lipschitz(proj),
    }
    return _report(args, doc, "coset tree projection", "factor_size", "max_norm")


def cmd_group_amalgam(args) -> int:
    from .group_spaces import amalgams

    rep = amalgams.amalgam_projection(getattr(amalgams, AMALGAM_MODELS[args.model])(), radius=args.R)
    doc = {k: v for k, v in rep.items() if k in (
        "model", "radius", "ball_size", "pairs_checked",
        "max_generator_ratio", "max_generator_ratio_plain_metric", "lipschitz_ok",
    )}
    _report(args, doc, "amalgam coset projection", "model", "R")
    return 0 if rep["lipschitz_ok"] else 1


def cmd_group_hyperbolize(args) -> int:
    from .group_spaces.hyperbolic import geometric_radii, height_projection, hyperbolization

    base = load_space(args.space)
    ratio = math.e if args.ratio == "e" else float(args.ratio)
    hspace = hyperbolization(base, geometric_radii(args.t0, ratio, args.levels))
    proj = height_projection(hspace)
    doc = space_to_json(hspace.space)
    doc["height_lipschitz"] = measured_lipschitz(proj)
    return _report(args, doc, "logarithmic space of balls", "space", "levels", "t0", "ratio")


def cmd_group_bound(args) -> int:
    from .group_spaces.bounds import asdim_upper_bound, parse_bound_expr

    try:
        rep = asdim_upper_bound(parse_bound_expr(args.expr))
    except RecursionError:
        raise InputError("bound expression nests too deeply") from None
    print(f"bound <= {rep['bound']}")
    for line in rep["derivation"]:
        print(f"  {line}")
    return 0


# ---------------------------------------------------------------------------
# verify


def run_verify(inject_fault: bool = False) -> list[dict]:
    from .covers import (
        _conflict_graph,
        brute_force_chromatic,
        carve_clusters,
        chromatic_number,
        colored_decomposition,
        make_cover,
    )
    from .group_spaces.free_products import PointedSpace, free_product_space, free_product_tree, tree_projection
    from .group_spaces.groups import heisenberg_center_quotient, kernel_neighborhood_check
    from .group_spaces.hyperbolic import geometric_radii, height_projection, hyperbolization
    from .polyhedra import projection_lipschitz_check

    results = []

    def check(name, fn):
        try:
            detail = fn()
            results.append({"name": name, "ok": True, "detail": detail})
        except CoarsedimError as exc:
            witness = getattr(exc, "witness", None)
            detail = str(exc) if witness is None else f"{exc} witness={witness}"
            results.append({"name": name, "ok": False, "detail": detail})
        except AssertionError as exc:
            results.append({"name": name, "ok": False, "detail": str(exc)})

    def require(ok, detail):
        """Fail the current check with ``detail``; a plain check, unlike
        ``assert``, also runs under ``python -O``."""
        if not ok:
            raise InvariantViolation(detail)

    def axioms():
        for space in (path_space(64), grid_space(6, 6), cycle_space(12)):
            rep = verify_metric_axioms(space)
            require(rep["ok"], rep)
        if inject_fault:
            rep = verify_metric_axioms(
                [[0, 1, 5], [1, 0, 1], [5, 1, 0]], triple_mode="exhaustive"
            )
            require(rep["ok"], f"axiom violation at {rep['witness']}")
        return "3 spaces"

    def coloring():
        space = path_space(16)
        adj = _conflict_graph(space.matrix <= 2, carve_clusters(space.matrix, 4))
        chi, _ = chromatic_number(adj)
        brute = brute_force_chromatic(adj)
        require(chi == brute, f"chromatic number {chi}, brute force {brute}")
        greedy = colored_decomposition(space, 2, 4, mode="greedy")
        exact = colored_decomposition(space, 2, 4, mode="exact")
        require(greedy.colors >= exact.colors, f"greedy {greedy.colors} colors < exact {exact.colors}")
        return f"chi={chi}"

    def projection():
        cover = make_cover(path_space(12), [range(0, 7), range(5, 12)])
        rep = projection_lipschitz_check(cover)
        require(rep["ok"], rep)
        return f"measured={rep['measured']:.3f} bound={rep['bound']:.3f}"

    def freeprod():
        x = PointedSpace(path_space(3), 0)
        fps = free_product_space(x, x, 4)
        rep = verify_metric_axioms(fps.space)
        require(rep["ok"], rep)
        tree = free_product_tree(fps)
        proj = tree_projection(fps, tree)
        lip = measured_lipschitz(proj)
        require(lip <= 1.0, f"tree projection Lipschitz constant {lip} > 1")
        return f"{len(fps.words)} words"

    def hyperbolize():
        h = hyperbolization(path_space(6), geometric_radii(levels=3))
        height_projection(h)
        return f"{h.space.n} ball points"

    def extension():
        rep = kernel_neighborhood_check(heisenberg_center_quotient(), 1, 4)
        require(rep["ok"], rep)
        return f"ball={rep['ball_size']}"

    check("metric-axioms", axioms)
    check("coloring-oracle", coloring)
    check("projection-bound", projection)
    check("free-product", freeprod)
    check("hyperbolization", hyperbolize)
    check("extension-kernel", extension)
    return results


def cmd_verify(args) -> int:
    results = run_verify(inject_fault=args.inject_fault)
    ok = all(r["ok"] for r in results)
    if args.json:
        sys.stdout.write(_report_text({"ok": ok, "results": results, "version": __version__}))
    else:
        for r in results:
            print(f"{'PASS' if r['ok'] else 'FAIL'} {r['name']}: {r['detail']}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """Raises ``InputError`` for a malformed command line (an unknown or abbreviated
    flag, a bad value, a missing argument), so ``main`` reports it as an input error."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    """One parser per action, with only the settings its ``cmd_*`` function reads."""
    p = _Parser(prog="coarsedim", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    commands = p.add_subparsers(dest="command", required=True)

    def actions(name, help):
        return commands.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    def action(parent, name, fn, out=True, **kwargs):
        ap = parent.add_parser(name, allow_abbrev=False, **kwargs)
        ap.set_defaults(fn=fn)
        if out:
            ap.add_argument("-o", "--out")
        return ap

    space = actions("space", "build, check, or describe finite metric spaces")
    a = action(space, "build", cmd_space_build)
    a.add_argument("kind", choices=SPACE_PARAMS)
    a.add_argument("params", nargs="*", help="size parameters or input file")
    a = action(space, "check", cmd_space_check, out=False)
    a.add_argument("--file", required=True, help="space JSON")
    a.add_argument("--seed", type=int, default=0)
    a = action(space, "info", cmd_space_info, out=False)
    a.add_argument("--file", required=True, help="space JSON")

    cover = actions("cover", "solve, verify, or profile decompositions")
    a = action(cover, "solve", cmd_cover_solve)
    a.add_argument("space", help="space JSON file")
    a.add_argument("--D", type=float, default=2.0)
    a.add_argument("--B", type=float, default=6.0)
    a.add_argument("--mode", choices=["auto", "exact", "greedy"], default="auto")
    a = action(cover, "verify", cmd_cover_verify, out=False)
    a.add_argument("space", help="space JSON file")
    a.add_argument("--decomposition", required=True, help="decomposition JSON")
    a = action(cover, "profile", cmd_cover_profile)
    a.add_argument("space", help="space JSON file")
    a.add_argument("--Dlist", default="2,4,8")
    a.add_argument("--mesh-multiplier", type=float, default=3.0)

    a = action(actions("hurewicz", "run the dimension-lowering assembly"), "run", cmd_hurewicz_run)
    a.add_argument("--space", required=True)
    a.add_argument("--map", required=True)
    a.add_argument("--epsilon", type=float, default=1.0)
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--k", type=int, required=True)
    a.add_argument("--r", default="auto")
    a.add_argument("--mesh-multiplier", type=float, default=3.0)
    a.add_argument("--seed", type=int, default=0)

    group = actions("group", "group balls, free products, amalgams, bounds")
    a = action(group, "ball", cmd_group_ball)
    which = a.add_mutually_exclusive_group()
    which.add_argument("--group", help="group JSON")
    which.add_argument("--builtin", default="heisenberg")
    a.add_argument("--R", type=int, default=3)
    a.add_argument("--cache-dir")
    a.add_argument("--no-cache", action="store_true")
    a.add_argument("--verify-cache", action="store_true")
    for name, fn in (("freeprod", cmd_group_freeprod), ("tree", cmd_group_tree)):
        a = action(group, name, fn)
        a.add_argument("--factor-size", type=int, default=4)
        a.add_argument("--max-norm", type=float, default=6.0)
    a = action(group, "amalgam", cmd_group_amalgam)
    a.add_argument("--model", choices=AMALGAM_MODELS, default="z2_z3")
    a.add_argument("--R", type=int, default=3)
    a = action(group, "hyperbolize", cmd_group_hyperbolize)
    a.add_argument("--space", required=True, help="base space JSON")
    a.add_argument("--levels", type=int, default=5)
    a.add_argument("--t0", type=float, default=1.0)
    a.add_argument("--ratio", default="e")
    a = action(group, "bound", cmd_group_bound, out=False)
    a.add_argument("--expr", required=True, help="bound expression")

    a = action(commands, "verify", cmd_verify, out=False, help="run the cross-module invariant battery")
    a.add_argument("--json", action="store_true")
    a.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (StageFailure, InvariantViolation) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
