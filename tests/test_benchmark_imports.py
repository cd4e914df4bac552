"""The benchmark under perfbench/ imports only names gbdp still provides.

The benchmark runs as a multi-minute smoke test; this check reads its
sources instead, so pruning a public name it uses fails here first.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def gbdp_imports():
    """(file, module, name) for every `from gbdp[.mod] import name` and
    (file, module, None) for every `import gbdp[.mod]` in perfbench."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module == "gbdp" or node.module.startswith("gbdp.")):
                found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names
                          if a.name.split(".")[0] == "gbdp"]
    return found


def test_the_benchmark_imports_from_gbdp():
    # a parse that finds nothing would make the next test vacuous
    modules = {m for _, m, _ in gbdp_imports()}
    assert {"gbdp", "gbdp.commute", "gbdp.model"} <= modules


def test_every_name_the_benchmark_imports_from_gbdp_exists():
    missing = []
    for path, module, name in gbdp_imports():
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:
                importlib.import_module(module + "." + name)
            except ModuleNotFoundError:
                missing.append("%s: from %s import %s" % (path, module, name))
    assert not missing, missing
