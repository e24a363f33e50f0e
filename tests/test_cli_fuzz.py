"""The command line under hostile input: Hypothesis draws argv for every
action of ``cli.build_parser()``.  Numeric flags take values from a fixed
set of troublesome values, and file arguments name small space, map and
decomposition documents, most of them malformed.  Group and bound
documents are passed inline.  Every example runs ``cli.main`` in-process
under a ``signal.setitimer`` budget, and must return 0, 1, 2 or 3, raise
nothing and write no ``NaN``."""

import argparse
import contextlib
import io
import json
import signal

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coarsedim import cli
from coarsedim.group_spaces import groups
from coarsedim.metric_core import grid_space, path_space, space_to_json
from test_cli import action_parsers

NUMBERS = ["nan", "inf", "-inf", "-1", "0", "0.5", "2", "1e308", "x", "true"]
JSON_NUMBERS = ["NaN", "Infinity", "-Infinity", "-1", "0", "0.5", "2", "1e308", '"x"', "true"]
BUDGET_S = 10.0

TILED = list(range(8)) * 4  # grid4x8.json onto path8.json, column by column
SPACES = {
    "grid.json": json.dumps(space_to_json(grid_space(3, 4))),
    "grid4x8.json": json.dumps(space_to_json(grid_space(4, 8))),
    "path8.json": json.dumps(space_to_json(path_space(8))),
    "nan.json": '{"kind": "matrix", "n": 2, "matrix": [[0, NaN], [NaN, 0]]}',
    "asymmetric.json": '{"kind": "matrix", "n": 2, "matrix": [[0, 1], [2, 0]]}',
    "ragged.json": '{"kind": "matrix", "n": 2, "matrix": [[0, 1], [1]]}',
    "fractional.json": '{"kind": "graph", "n": 3, "edges": [[0, 1.5], [1, 2]]}',
    "huge.json": '{"kind": "graph", "n": 1e308, "edges": [[0, 1]]}',
    "disconnected.json": '{"kind": "graph", "n": 3, "edges": [[0, 1]]}',
    "list.json": "[1, 2]",
    "truncated.json": '{"kind": "matrix", ',
    "empty.json": "",
}
MAPS = {
    "proj.json": json.dumps({"codomain": "path8.json", "assignment": TILED, "lipschitz": 1}),
    "map_list.json": "[1, 2]",
    "map_int.json": '{"codomain": "path8.json", "assignment": 5}',
    "map_nan.json": '{"codomain": "path8.json", "assignment": %s, "lipschitz": NaN}' % TILED,
    "map_outside.json": json.dumps({"codomain": "path8.json", "assignment": [99] * 32}),
    "map_short.json": json.dumps({"codomain": "path8.json", "assignment": [0, 1, 2]}),
    "map_fractional.json": json.dumps({"codomain": "path8.json", "assignment": [0.5] * 32}),
    "map_missing.json": json.dumps({"codomain": "missing.json", "assignment": TILED}),
    "map_inline.json": json.dumps({"codomain": {"kind": "matrix", "n": 1, "matrix": [[0]]}, "assignment": [0] * 32}),
    "map_no_codomain.json": json.dumps({"assignment": TILED}),
}
DECOMPOSITIONS = {
    "dec_outside.json": '{"families": [[[0, 99]]], "D": 2, "B": 6}',
    "dec_nan.json": '{"families": [[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]]], "D": NaN, "B": NaN}',
    "dec_empty_set.json": '{"families": [[[]]], "D": 2, "B": 6}',
    "dec_no_families.json": '{"D": 2, "B": 6}',
    "dec_list.json": "[]",
}
FILES = {**SPACES, **MAPS, **DECOMPOSITIONS}

MALFORMED_CUSTOM = [
    '{"custom": 5}',
    '{"custom": {}}',
    '{"custom": {"command": "python", "identity": "0", "generators": []}}',
    '{"custom": {"command": [], "identity": "0", "generators": []}}',
    '{"custom": {"command": [1], "identity": "0", "generators": []}}',
    '{"custom": {"command": ["python"], "identity": "0", "generators": [["a"]]}}',
    '{"custom": {"command": ["python"], "identity": "0", "generators": 5}}',
    '{"custom": {"command": ["python"], "generators": []}}',
]
GROUPS = [
    "5", "[]", "{}", "{bad", '{"builtin": "nope"}', '{"builtin": "free", "params": 5}',
    '{"builtin": "cyclic", "params": {"m": 0}}', '{"builtin": "heisenberg", "params": {"rank": 2}}',
    *(f'{{"builtin": "{name}", "params": {{"{key}": {value}}}}}'
      for name, key in (("free", "rank"), ("zn", "rank"), ("cyclic", "order")) for value in JSON_NUMBERS),
    *MALFORMED_CUSTOM,
]
# inputs that once exited 1 with a traceback, or 0 with a negative bound or a string read as a series
BOUND_CASES = [
    '{"rule": "extension", "quotient": 1e999, "kernel": 1}',
    "extension:Z,-5",
    '{"rule": "polycyclic", "series": "ZZZ"}',
]
BOUNDS = [
    *BOUND_CASES,
    "polycyclic:Z,Z,finite:2", "freeprod:0,0", "amalgam:1,Z,finite", "extension:Z,finite:3",
    "polycyclic:", "polycyclic:Z,finitely", "freeprod:1", "amalgam:1,2,3,4", "extension:Z,2.5", "nope",
    '{"rule": "leaf", "value": -1}', '{"rule": "leaf", "value": 2}', '{"rule": "extension", "quotient": 1}',
    '{"rule": "free_product", "left": true, "right": null}', '{"rule": "amalgam", "c": [], "a_quotient": {},'
    ' "b_quotient": "finite:0"}', '{"rule": "polycyclic", "series": ["Z", 5]}', '{"rule": "nope"}', '{"rule": []}', "{bad",
    *(f'{{"rule": "free_product", "left": {value}, "right": 1}}' for value in JSON_NUMBERS),
]

# the values of each setting that is not a number or a choice, by its argparse dest
VALUES = {
    "space": sorted(SPACES), "file": sorted(SPACES), "map": sorted(MAPS),
    "decomposition": ["dec.json", *sorted(DECOMPOSITIONS)],
    "group": GROUPS, "builtin": ["heisenberg", "free", "zn", "cyclic", "nope"], "expr": BOUNDS,
    "r": ["auto", *NUMBERS], "ratio": ["e", *NUMBERS], "out": ["out.json"],
}


def setting_values(action):
    """A strategy for the argv words one setting contributes."""
    if action.nargs == 0:
        return st.just([action.option_strings[0]])
    if action.choices:
        values = st.sampled_from([*action.choices, "bogus"])
    elif action.type in (int, float):
        values = st.sampled_from(NUMBERS)
    elif action.dest == "Dlist":
        values = st.lists(st.sampled_from(NUMBERS), max_size=3).map(",".join)
    elif action.dest == "params":
        return st.lists(st.sampled_from(NUMBERS), max_size=3)
    else:
        values = st.sampled_from(VALUES[action.dest])
    return values.map(lambda v: [v] if not action.option_strings else [action.option_strings[0], v])


PARSERS = sorted(action_parsers().items())


@st.composite
def command_lines(draw):
    """An action's argv: its positionals and required flags, then each
    optional flag or not, at most one of a mutually exclusive pair, and
    ``--no-cache`` always, so no example reads or writes a cache."""
    prefix, parser = draw(st.sampled_from(PARSERS))
    exclusive = [draw(st.sampled_from([None, *g._group_actions])) for g in parser._mutually_exclusive_groups]
    argv = list(prefix)
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or action.dest == "cache_dir":
            continue
        if any(action in g._group_actions for g in parser._mutually_exclusive_groups):
            drawn = action in exclusive
        else:
            drawn = action.dest == "no_cache" or action.required or not action.option_strings or draw(st.booleans())
        if drawn:
            argv += draw(setting_values(action))
    return argv


class BudgetExceeded(Exception):
    pass


def _expire(signum, frame):
    raise BudgetExceeded


def test_every_command_line_exits_cleanly(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    assert cli.main(["cover", "solve", "grid.json", "-o", "dec.json"]) == 0

    def no_oracle(command):
        raise AssertionError(f"a custom group started its oracle {command!r}")

    monkeypatch.setattr(groups, "ExternalGroupOracle", no_oracle)
    previous = signal.signal(signal.SIGALRM, _expire)
    ran = []

    @settings(max_examples=220, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=command_lines())
    @example(argv=["group", "bound", "--expr", BOUND_CASES[0]])
    @example(argv=["group", "bound", "--expr", BOUND_CASES[1]])
    @example(argv=["group", "bound", "--expr", BOUND_CASES[2]])
    def check(argv):
        ran.append(argv)
        (tmp_path / "out.json").unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except BudgetExceeded:
            raise AssertionError(f"{argv} ran past its {BUDGET_S} s budget") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        written = (tmp_path / "out.json").read_text() if (tmp_path / "out.json").exists() else ""
        assert "NaN" not in out.getvalue() + written, argv
        if argv[:2] == ["group", "bound"] and argv[3] in BOUND_CASES:
            assert code == 2 and err.getvalue().startswith("input error: "), (argv, err.getvalue())

    try:
        check()
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert len(ran) >= 200
