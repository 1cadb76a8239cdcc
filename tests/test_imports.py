"""Every name a ``ringnet`` module, script or test imports is used in
that file, every global name such a file reads is defined in it, every
private name a ``ringnet`` module defines is used somewhere in
``ringnet``, and every field of a private class is read somewhere in
``ringnet``.

A global a scope reads is defined when the module binds it at module
level (or in a ``global`` statement), imports it, or it is a builtin;
``symtable`` tells which names each scope reads as globals.  A name
counts as used wherever it appears; a string that parses as an
expression, such as the annotation ``"Any"``, counts for the names in it.
A private name is a ``_``-prefixed ``def``, ``class`` or module-level
assignment; dunders are exempt.  A field of a ``_``-prefixed class is an
annotated class attribute or a ``self.x =`` store in its methods, and it
is read where an attribute of that name is loaded.

Every public name a ``ringnet`` module defines (a module-level ``def``,
``class`` or assignment, or a method of a module-level class) is named
in the program, ``src/ringnet``, ``scripts`` or ``perfbench``, outside
its own definition: an attribute read or a string that parses as an
expression counts, so a name perfbench's tracer spells as text is named.
A public name only tests use is test-only code in ``src``.

Every ``OverlayConfig`` field is set by some caller in the program: a
keyword of an ``OverlayConfig(...)`` call in ``src/ringnet``, ``scripts``
or ``perfbench``, or an ``[overlay]`` key of a shipped scenario.  A field
only tests set has one value in use and belongs in a constant.
"""

import ast
import builtins
import dataclasses
import functools
import pathlib
import symtable
from collections import Counter

import pytest

from ringnet.cli import parse_config
from ringnet.node import OverlayConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ringnet"
IMPORTERS = ([p.name for p in sorted(SRC.glob("*.py"))]
             + [str(p.relative_to(ROOT)) for d in ("scripts", "tests")
                for p in sorted((ROOT / d).glob("*.py"))])


def read_importer(module: str) -> str:
    path = SRC / module if "/" not in module else ROOT / module
    return path.read_text(encoding="utf-8")


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _string_expressions(tree: ast.AST):
    """The strings in ``tree`` that parse as expressions, parsed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value, mode="eval")
            except SyntaxError:
                pass


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names(tree)
    for expr in _string_expressions(tree):
        used |= _names(expr)
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_checker_sees_string_annotations_and_unused_names():
    source = ("from typing import Any, Callable\nimport os.path\n"
              "def f(x: 'Any | None') -> None:\n    pass\n")
    assert unused_imports(source) == ["line 1: Callable", "line 2: os"]


@pytest.mark.parametrize("module", IMPORTERS)
def test_module_uses_every_import(module):
    assert unused_imports(read_importer(module)) == []


MODULE_GLOBALS = frozenset(dir(builtins)) | {"__file__"}


def undefined_globals(source: str) -> list[str]:
    """Globals some scope reads that the module neither binds nor imports,
    and that are not builtins."""
    top = symtable.symtable(source, "<source>", "exec")
    defined: set[str] = set()
    read: set[str] = set()

    def walk(table: symtable.SymbolTable) -> None:
        for sym in table.get_symbols():
            if table is top or sym.is_global():
                if sym.is_assigned() or sym.is_imported():
                    defined.add(sym.get_name())
                if sym.is_referenced():
                    read.add(sym.get_name())
        for child in table.get_children():
            walk(child)

    walk(top)
    return sorted(read - defined - MODULE_GLOBALS)


def test_undefined_global_checker_flags_a_missing_import():
    source = ("from ringnet.scenarios import Wait\n"
              "def f():\n    global g\n    g = len([Wait for _ in ()])\n"
              "def h():\n    return g, Churn(1, 0.5), __file__\n"
              "class C:\n    phase = Bootstrap\n")
    assert undefined_globals(source) == ["Bootstrap", "Churn"]


@pytest.mark.parametrize("module", IMPORTERS)
def test_module_defines_every_global_it_reads(module):
    assert undefined_globals(read_importer(module)) == []


def private_definitions(source: str) -> dict[str, int]:
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name):
                defined[target.id] = node.lineno
    return {name: line for name, line in defined.items()
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}


def _referenced(tree: ast.AST):
    """Names read, attributes read and names imported, once per
    occurrence; definitions and assignments are not references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def references(source: str) -> set[str]:
    return set(_referenced(ast.parse(source)))


def test_private_name_checker_skips_dunders_and_stores():
    source = ("_USED = 1\n_STORED = 2\nclass _C:\n"
              "    def __init__(self):\n        self._stored = _USED\n"
              "    def _unread(self):\n        pass\n")
    assert private_definitions(source) == {"_USED": 1, "_STORED": 2, "_C": 3,
                                           "_unread": 6}
    assert references(source) & {"_USED", "_STORED", "_C", "_unread"} == {"_USED"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_private_names_are_used(module):
    used: set[str] = set()
    for path in SRC.glob("*.py"):
        used |= references(path.read_text(encoding="utf-8"))
    defined = private_definitions((SRC / module).read_text(encoding="utf-8"))
    assert sorted(f"line {line}: {name}" for name, line in defined.items()
                  if name not in used) == []


def name_counts(tree: ast.AST) -> Counter:
    """How often ``tree`` names each name: its references and those in
    its strings that parse as expressions."""
    counts = Counter(_referenced(tree))
    for expr in _string_expressions(tree):
        counts.update(_referenced(expr))
    return counts


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, defining node) of each public module-level ``def``, ``class``
    or assignment, and of each public method of a module-level class."""
    defined: list[tuple[str, ast.AST]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                defined += [(f.name, f) for f in node.body
                            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        defined += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in defined if not name.startswith("_")]


def unnamed_definitions(tree: ast.Module, counts: Counter) -> dict[str, int]:
    """Name -> line of each public definition of ``tree`` that ``counts``
    (names counted over the program, ``tree`` included) holds only inside
    the definition."""
    return {name: node.lineno for name, node in public_definitions(tree)
            if counts[name] <= name_counts(node)[name]}


def test_unnamed_checker_skips_own_definition_and_counts_strings():
    source = ("A = 1\nB = A\n_C = 2\ndef f():\n    return f()\n"
              "class K:\n    def m(self):\n        return self.m, 'K.n'\n"
              "    def n(self):\n        pass\n")
    tree = ast.parse(source)
    assert [name for name, _ in public_definitions(tree)] == ["A", "B", "f", "K", "m", "n"]
    assert unnamed_definitions(tree, name_counts(tree)) == {"B": 2, "f": 4, "K": 6, "m": 7}


@functools.cache
def program_name_counts() -> Counter:
    counts: Counter = Counter()
    for d in ("src/ringnet", "scripts", "perfbench"):
        for path in sorted((ROOT / d).glob("*.py")):
            counts += name_counts(ast.parse(path.read_text(encoding="utf-8")))
    return counts


# The protocol-built ring that the acceptance and hop-law tests assert
# on; no command builds one yet.
UNNAMED_ALLOWED = {"scenarios.grow"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_public_names_are_named_in_the_program(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    unnamed = unnamed_definitions(tree, program_name_counts())
    assert sorted(f"line {line}: {name}" for name, line in unnamed.items()
                  if f"{module.removesuffix('.py')}.{name}" not in UNNAMED_ALLOWED) == []


def private_class_fields(source: str) -> dict[str, int]:
    """``Class.field`` -> line for each field of a ``_``-prefixed class."""
    fields: dict[str, int] = {}
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name.startswith("_")):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                fields[f"{cls.name}.{node.target.id}"] = node.lineno
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                fields.setdefault(f"{cls.name}.{node.attr}", node.lineno)
    return fields


def attribute_reads(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)}


def unread_fields(fields: dict[str, int], read: set[str]) -> list[str]:
    return sorted(f"line {line}: {name}" for name, line in fields.items()
                  if name.split(".", 1)[1] not in read)


def test_field_checker_sees_annotations_and_self_stores_of_private_classes():
    source = ("class _C:\n    read: int\n    unread: int = 0\n"
              "    def __init__(self):\n        self.stored = 1\n"
              "        self.read = 2\n"
              "class Public:\n    hidden: int\n"
              "def f(c, stored):\n    c.unread = 3\n    return c.read, stored\n")
    fields = private_class_fields(source)
    assert fields == {"_C.read": 2, "_C.unread": 3, "_C.stored": 5}
    assert unread_fields(fields, attribute_reads(source)) == [
        "line 3: _C.unread", "line 5: _C.stored"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_private_class_fields_are_read(module):
    read: set[str] = set()
    for path in SRC.glob("*.py"):
        read |= attribute_reads(path.read_text(encoding="utf-8"))
    fields = private_class_fields((SRC / module).read_text(encoding="utf-8"))
    assert unread_fields(fields, read) == []


# The observability switch: tests turn it on, no program caller does.
UNSET_OVERLAY_FIELDS = {"trace"}


def overlay_config_keywords(source: str) -> set[str]:
    """Keywords passed to ``OverlayConfig(...)`` calls in ``source``."""
    keywords: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)  # a call's callee: a Name or an Attribute
        if getattr(func, "id", getattr(func, "attr", None)) == "OverlayConfig":
            keywords |= {kw.arg for kw in node.keywords if kw.arg is not None}
    return keywords


def test_knob_checker_reads_keywords_of_overlay_config_calls_only():
    source = ("OverlayConfig(k_shortcuts=2)\n"
              "node.OverlayConfig(tick_interval=1, **extra)\n"
              "Other(trace=True)\n")
    assert overlay_config_keywords(source) == {"k_shortcuts", "tick_interval"}


def test_every_overlay_setting_is_set_by_a_caller():
    sources = [p for d in ("src/ringnet", "scripts", "perfbench")
               for p in sorted((ROOT / d).glob("*.py"))]
    set_somewhere: set[str] = set()
    for path in sources:
        set_somewhere |= overlay_config_keywords(path.read_text(encoding="utf-8"))
    for path in sorted((ROOT / "scenarios").glob("*.cfg")):
        set_somewhere |= {key for _, key, _ in parse_config(str(path)).get("overlay", [])}
    fields = {f.name for f in dataclasses.fields(OverlayConfig)}
    unset = sorted(fields - set_somewhere - UNSET_OVERLAY_FIELDS)
    assert not unset, f"OverlayConfig fields no caller sets: {', '.join(unset)}"
