"""The three paths stay independent by construction: each module's imports
from the package, read from its source.

lattice, divisors, bounds and series import nothing from the package, and
qseries imports only series.  bivariate, the definition path, imports only
series and qseries._unpack: its sign scan reads values decoded by the
reduction path's codec, which test_qseries checks against a field-by-field
decode (test_unpack_matches_the_field_by_field_decode).  Only the front
ends, verify, cli and __init__, bring the paths together.
"""

import ast
from pathlib import Path

import pytest

import sptcrank

PACKAGE = Path(sptcrank.__file__).resolve().parent

# module -> what it may import from the package: a module, any of its
# names, or "module.name", that name only
ALLOWED = {
    "lattice": set(),
    "divisors": set(),
    "bounds": set(),
    "series": set(),
    "qseries": {"series"},
    "bivariate": {"series", "qseries._unpack"},
}
FRONT_ENDS = {"verify", "cli", "__init__"}


def package_imports(module: str) -> set:
    """What the module's source imports from sptcrank, anywhere in it:
    "m" for a whole module m, "m.name" for a name taken from m."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {a.name.removeprefix("sptcrank.") for a in node.names
                      if a.name.startswith("sptcrank.")}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if not node.level:  # absolute: only sptcrank and its modules count
                if base.partition(".")[0] != "sptcrank":
                    continue
                base = base.removeprefix("sptcrank").lstrip(".")
            found |= {f"{base}.{a.name}" if base else a.name for a in node.names}
    return found


def test_every_module_has_a_place_in_the_graph():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED) | FRONT_ENDS


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_allowed_parts(module):
    allowed = ALLOWED[module]
    extra = {i for i in package_imports(module)
             if i not in allowed and i.split(".")[0] not in allowed}
    assert extra == set()


def test_the_reader_sees_each_kind_of_import():
    """package_imports finds relative, absolute and whole-module imports."""
    assert package_imports("bivariate") == {"qseries._unpack", "series.TruncatedSeries"}
    assert {"bivariate", "qseries", "series.ParitySums"} <= package_imports("verify")
    assert "verify" in package_imports("cli")
