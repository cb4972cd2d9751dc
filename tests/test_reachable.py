"""The package holds only code its commands can reach.

Every function, class and method defined under ``src/rwdetect`` must be
named (as a variable or an attribute) by code there outside its own body;
what only tests use belongs in ``tests/fixtures.py``. Three kinds of name
count as reached without that: dunders, which Python calls; the names
``bench/spans.py`` wraps to time the program from outside (the test reads
that file and changes nothing there); and ``cli.ArgumentParser.error``,
which argparse calls.

Only ``cli.py`` says anything: the rest of the package computes and
returns, and neither logs, prints nor writes to a standard stream.
"""

import ast
import importlib.util
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rwdetect"
SPANS = ROOT / "bench" / "spans.py"

CALLED_BY_ARGPARSE = {"cli.ArgumentParser.error"}


def wrapped_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {attr for _, attr, _, _ in spans.TARGETS}


def definitions(node, prefix):
    """(qualified name, node) of every function and class below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from definitions(child, name)
        else:
            yield from definitions(child, prefix)


def unreached() -> list[str]:
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts) or "rwdetect"
        modules[module] = ast.parse(path.read_text(encoding="utf-8"))
    uses = defaultdict(set)  # name -> ids of the nodes that name it
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].add(id(node))
    reached = wrapped_names()
    found = []
    for module, tree in modules.items():
        for qualified, node in definitions(tree, module):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in reached \
                    or qualified in CALLED_BY_ARGPARSE:
                continue
            own = {id(n) for n in ast.walk(node)}
            if not uses[name] - own:
                found.append(qualified)
    return found


def test_every_definition_is_used_in_the_package():
    assert unreached() == []


def speaks(node) -> bool:
    """Whether ``node`` imports ``logging``, calls ``print`` or names ``sys.stdout``/``stderr``."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "logging" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "logging"
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id == "print"
    return (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_only_the_cli_logs_or_prints():
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py")) if path != PACKAGE / "cli.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if speaks(node)]
    assert found == []
