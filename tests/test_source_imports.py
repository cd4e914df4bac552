"""No module under src/gbdp, tests or demos imports a name it never uses.

Moving or deleting a function tends to leave the imports only it needed
behind; this check reads the sources, so such a leftover fails here.
src/gbdp/__init__.py is exempt: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {
    "src/gbdp": [p for p in (ROOT / "src" / "gbdp").glob("*.py")
                 if p.name != "__init__.py"],
    "tests": list((ROOT / "tests").glob("*.py")),
    "demos": list((ROOT / "demos").glob("*.py")),
}


def unused_imports(source, filename="<source>"):
    """The names an import in `source` binds that nothing loads, in order."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(set(imported) - used, key=imported.get)


def test_an_unused_import_is_found():
    source = ("import os\nimport numpy.linalg\n"
              "from functools import reduce as fold, wraps\n"
              "print(os.sep, numpy, wraps)\n")
    assert unused_imports(source) == ["fold"]


@pytest.mark.parametrize("folder", sorted(SOURCES))
def test_no_module_imports_a_name_it_never_uses(folder):
    modules = sorted(SOURCES[folder])
    assert modules  # a glob that finds nothing would make this vacuous
    unused = {p.name: unused_imports(p.read_text(), str(p)) for p in modules}
    assert not {name: u for name, u in unused.items() if u}, unused
