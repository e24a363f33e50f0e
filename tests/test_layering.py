"""The layers import downward only: ``group_spaces`` reads ``metric_core``
and ``errors`` and nothing else of the package, and ``covers``,
``polyhedra`` and ``hurewicz`` never read ``group_spaces``.  Every import
statement counts, those inside functions too."""

import ast
from pathlib import Path

import pytest

import coarsedim

PACKAGE = Path(coarsedim.__file__).parent


def imported_layers(path: Path) -> set[str]:
    """The layers of the package that the module at ``path`` imports: the
    first component below ``coarsedim`` of each imported module ("" for
    the package itself)."""
    package = path.relative_to(PACKAGE.parent).with_suffix("").parts[:-1]
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            names.append(".".join([*base, *([node.module] if node.module else [])]))
    return {(name.split(".") + [""])[1] for name in names if name.split(".")[0] == "coarsedim"}


def modules(*layers):
    paths = [p for layer in layers for p in sorted(PACKAGE.glob(layer))]
    return pytest.mark.parametrize("path", paths, ids=[p.relative_to(PACKAGE).as_posix() for p in paths])


def test_relative_imports_resolve():
    assert imported_layers(PACKAGE / "group_spaces" / "amalgams.py") == {"errors", "metric_core", "group_spaces"}
    assert imported_layers(PACKAGE / "cli.py") >= {"", "covers", "group_spaces", "hurewicz", "metric_core"}


@modules("group_spaces/*.py")
def test_group_spaces_import_only_metric_core_and_errors(path):
    assert imported_layers(path) <= {"metric_core", "errors", "group_spaces"}


@modules("covers.py", "polyhedra.py", "hurewicz.py")
def test_lower_layers_never_import_group_spaces(path):
    assert "group_spaces" not in imported_layers(path)
