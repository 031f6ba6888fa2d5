"""The package holds only code that a command reaches."""

import ast
from pathlib import Path

import fingersense

PACKAGE = Path(fingersense.__file__).parent

# Public functions and classes no command reaches, each kept for a reason outside the package.
ALLOWED_UNREACHED = {
    "blocksworld.replay_policy": "perfbench's exact_moments replays every draw sequence through it",
    "blocksworld.BlockRecord": "what the allowed replay_policy returns",
    "imaging.DiffImage": "perfbench's per-layer trace wraps its constructor and tests/oracle.py builds it",
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


def _unreached_public_names() -> set[str]:
    """Public top-level functions and classes that no path from ``cli.main`` mentions by name.

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
        if not name.startswith("_") and (module, name) not in reached
    }


def test_every_public_function_is_reached_by_a_command_or_allowed():
    assert _unreached_public_names() == set(ALLOWED_UNREACHED)


def _unread_parameters(source: str, module: str) -> set[str]:
    """``module.function.parameter`` for each parameter its function's body never reads.

    Every function counts, nested ones and lambdas too; ``self`` and ``cls``
    do not.  A read anywhere in the body, a nested function's included, counts,
    which can only count too much as read, never too little.
    """
    unread = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for statement in body
            for sub in ast.walk(statement)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread |= {
            f"{module}.{name}.{param.arg}"
            for param in params
            if param is not None and param.arg not in {"self", "cls"} | read
        }
    return unread


def test_every_parameter_is_read():
    sample = (
        "def f(a, b, *c, d, **e):\n    return a + d\n"
        "class K:\n    def g(self, x):\n        return lambda y: 0\n"
    )
    assert _unread_parameters(sample, "m") == {"m.f.b", "m.f.c", "m.f.e", "m.g.x", "m.<lambda>.y"}
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        unread |= _unread_parameters(path.read_text(), path.stem)
    assert unread == set()
