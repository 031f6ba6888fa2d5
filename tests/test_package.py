"""The package holds only code that a command reaches."""

import ast
from pathlib import Path

import fingersense

PACKAGE = Path(fingersense.__file__).parent

# Public functions that no command reaches, each kept for a reason outside the package.
ALLOWED_UNREACHED = {
    "geometry.project": "the one-point case of project_points, which the tests project with",
    "blocksworld.replay_policy": "perfbench's exact_moments replays every draw sequence through it",
    "blocksworld.batch_distribution": "acceptance criterion 8 places the hardware counts in its spread",
}


def _names(node: ast.AST) -> set[str]:
    """Every name a piece of code mentions, bare, as an attribute or as an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _unreached_public_functions() -> set[str]:
    """Public top-level functions that no path from ``cli.main`` mentions by name.

    Module-level code runs on import, so what it mentions is reached too.  A
    name reaches every top-level function or class of that name in any
    module, which can only count too much as reached, never too little.
    """
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    pending = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((module, node))
            else:
                pending.append(node)
    reached = {("cli", "main")}
    pending += [node for module, node in definitions["main"] if module == "cli"]
    while pending:
        for name in _names(pending.pop()):
            for module, node in definitions.get(name, []):
                if (module, name) not in reached:
                    reached.add((module, name))
                    pending.append(node)
    return {
        f"{module}.{name}"
        for name, defs in definitions.items()
        for module, node in defs
        if isinstance(node, ast.FunctionDef)
        and not name.startswith("_")
        and (module, name) not in reached
    }


def test_every_public_function_is_reached_by_a_command_or_allowed():
    assert _unreached_public_functions() == set(ALLOWED_UNREACHED)
