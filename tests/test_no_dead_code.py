"""src/sptcrank holds no dead code: every definition has a use.

A module-level function, class or assigned name (a constant or a table),
or a method of a module-level class, is used when its name is read somewhere
in src/sptcrank outside its own body, as a name or an attribute; when
bench/spans.py's TARGETS traces it; or when the package exports it in
__init__.__all__.  An import alone is no use, and neither is another
assignment to the name; dunders are exempt, since the language reads them.
TARGETS is read from bench/spans.py and __all__ from src/sptcrank/__init__.py.
"""

import ast
from pathlib import Path

from test_trace_targets import TARGETS

SRC = Path(__file__).resolve().parent.parent / "src" / "sptcrank"


def exported(init_tree) -> set:
    """The names of the __all__ list of a package's __init__ module."""
    (value,) = (
        node.value for node in init_tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    )
    return set(ast.literal_eval(value))


def definitions(trees: dict):
    """(module, qualified name, node) for each module-level function, class
    and assigned name and each method of a module-level class; an assigned
    name's node is its whole assignment statement."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, kinds):
                yield module, node.name, node
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Store):
                            yield module, leaf.id, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, kinds):
                        yield module, f"{node.name}.{sub.name}", sub


def unused(trees: dict, traced: set, exports: set) -> list:
    """The 'module.qualname' of each definition in trees (module -> parsed
    source) that has no use: not traced ('module.qualname' in traced), not
    exported (a module-level name in exports), and not read outside its own
    body."""
    reads = {}  # name -> ids of the Name and Attribute nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                reads.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(id(node))
    found = []
    for module, qualname, node in definitions(trees):
        name = qualname.rpartition(".")[2]
        if name.startswith("__") and name.endswith("__"):
            continue
        if f"{module}.{qualname}" in traced or qualname in exports:
            continue
        if reads.get(name, set()) - {id(inner) for inner in ast.walk(node)}:
            continue
        found.append(f"{module}.{qualname}")
    return sorted(found)


def test_every_definition_in_src_has_a_use():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    traced = {f"{layer}.{attr}" for layer, attrs in TARGETS.items() for attr in attrs}
    assert unused(trees, traced, exported(trees["__init__"])) == []


def test_unused_definitions_are_found():
    """The checker flags an orphan function, an orphan class and its
    methods, a function whose only read is its own recursive call, and
    module-level names (a constant, a table, one of an unpacked pair) that
    are only assigned, even when a function assigns a local of that name."""
    source = (
        "LIMIT = 2\nORPHAN_TABLE = {'A1': (1,)}\n__version__ = '1'\n"
        "low, HIGH = 0, 9\nWIDTH: int = 4\n\n"
        "def used():\n    HIGH = low\n    return LIMIT + WIDTH\n\n"
        "def recursive(k):\n    return recursive(k - 1)\n\n"
        "class Orphan:\n    def __init__(self):\n        pass\n\n"
        "    def method(self):\n        return used()\n"
    )
    trees = {"mod": ast.parse(source), "other": ast.parse("from .mod import recursive\n")}
    assert unused(trees, set(), set()) == [
        "mod.HIGH", "mod.ORPHAN_TABLE", "mod.Orphan", "mod.Orphan.method", "mod.recursive"
    ]
    exports = {"Orphan", "recursive", "HIGH", "ORPHAN_TABLE"}
    assert unused(trees, {"mod.Orphan.method"}, exports) == []
    assert exported(ast.parse("__all__ = ['a', 'b']\n")) == {"a", "b"}
