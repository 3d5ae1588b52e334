"""No test-only public API: every public function and method of ``src/hfock``
has a caller in the package itself, in ``perfbench/`` or in ``tools/``.

A caller is a reference ``module.name`` (``self.name`` or ``obj.name`` for a
method), an import of the name, or a use of the name inside its own module
other than its definition.  Tests do not count.

Also: the integrator's panel rule has one home, ``numerics``.
"""
import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "hfock"
_CALLER_DIRS = (_PACKAGE, _ROOT / "perfbench", _ROOT / "tools")

# public functions kept without a caller, each with its reason
_EXCEPTIONS = {
    "golden.load": "the tests' reader of the golden values; it moves out of the package "
                   "with ROADMAP item 11 step 2",
    "cli.main": "the console script hfock = hfock.cli:main of pyproject.toml, whatever "
                "else calls it",
}


def _public_api():
    """(module, name, is_method) for each public function and method of the package."""
    for path in sorted(_PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield module, node.name, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield module, item.name, True


def _references():
    """Per file: its module stem, the (base, attr) of every attribute
    reference, the names it imports, and the names it loads."""
    out = []
    for directory in _CALLER_DIRS:
        for path in sorted(directory.glob("*.py")):
            attrs, imported, loaded = set(), set(), set()
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    base = node.value
                    attrs.add((base.id if isinstance(base, ast.Name) else
                               base.attr if isinstance(base, ast.Attribute) else None, node.attr))
                elif isinstance(node, ast.ImportFrom):
                    imported.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Name):
                    loaded.add(node.id)
            own = path.stem if directory == _PACKAGE else None
            out.append((own, attrs, imported, loaded))
    return out


def _has_caller(module, name, is_method, refs) -> bool:
    for own, attrs, imported, loaded in refs:
        if is_method and any(attr == name for _, attr in attrs):
            return True
        if (module, name) in attrs or (own != module and name in imported):
            return True
        if own == module and name in loaded:
            return True
    return False


def test_every_public_function_has_a_caller():
    refs = _references()
    missing = [f"{module}.{name}" for module, name, is_method in _public_api()
               if f"{module}.{name}" not in _EXCEPTIONS
               and not _has_caller(module, name, is_method, refs)]
    assert missing == []


def test_every_exception_names_a_public_function():
    # an exception whose function went away or went private is stale
    api = {f"{module}.{name}" for module, name, _ in _public_api()}
    assert sorted(_EXCEPTIONS) == sorted(api & set(_EXCEPTIONS))


_PANEL_RULE = {"_K15_CENTER_W", "_G7_CENTER_W", "_K15_PAIRS"}


def test_the_panel_rule_has_one_home():
    # the K15/G7 nodes and weights reach other modules only as rows of
    # numerics._panel_table, so no other module names them
    naming = {}
    for path in sorted(_PACKAGE.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        if names & _PANEL_RULE:
            naming[path.stem] = sorted(names & _PANEL_RULE)
    assert list(naming) == ["numerics"]
