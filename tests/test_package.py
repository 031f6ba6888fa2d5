"""The package holds only code that a command reaches, and only settings that code reads."""

import ast
import dataclasses
from pathlib import Path

import fingersense
from fingersense.config import SessionConfig

PACKAGE = Path(fingersense.__file__).parent

# Public functions and classes no command reaches, each kept for a reason outside the package.
ALLOWED_UNREACHED = {
    "blocksworld.replay_policy": "perfbench's exact_moments replays every draw sequence through it",
    "blocksworld.BlockRecord": "what the allowed replay_policy returns",
    "imaging.DiffImage": "perfbench's per-layer trace wraps its constructor and tests/oracle.py builds it",
    "render.render_contact": "perfbench's check_shape counts imprint pixels through it",
}

# Public module-level constants no reached code reads, each kept for a reason outside the package.
ALLOWED_UNREAD_CONSTANTS: dict[str, str] = {}


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


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _reached_code(sources: dict[str, str]) -> tuple[dict, set, list]:
    """What a path from ``cli.main`` reaches: definitions by name, reached ``(module, name)``, reached code.

    Module-level code runs on import, so it is reached, and what it mentions
    too.  A name reaches every top-level function or class of that name in
    any module, which can only count too much as reached, never too little.
    The reached code is each reached ``(module, node)``.
    """
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    pending = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((module, node))
            else:
                pending.append((module, node))
    reached = {("cli", "main")}
    pending += [(module, node) for module, node in definitions["main"] if module == "cli"]
    code = []
    while pending:
        code.append(pending.pop())
        for name in _names(code[-1][1]):  # the node just reached
            for module, node in definitions.get(name, []):
                if (module, name) not in reached:
                    reached.add((module, name))
                    pending.append((module, node))
    return definitions, reached, code


def _unreached_public_names() -> set[str]:
    """Public top-level functions and classes that no path from ``cli.main`` mentions by name."""
    definitions, reached, _ = _reached_code(_package_sources())
    return {
        f"{module}.{name}"
        for name, defs in definitions.items()
        for module, node in defs
        if not name.startswith("_") and (module, name) not in reached
    }


def test_every_public_function_is_reached_by_a_command_or_allowed():
    assert _unreached_public_names() == set(ALLOWED_UNREACHED)


def _unread_public_constants(sources: dict[str, str]) -> set[str]:
    """``module.NAME`` for each public module-level constant that no reached code reads.

    A read is a bare name loaded in the constant's own module, or in a module
    that imports it with ``from .module import NAME``, possibly through
    re-exports.  Unlike a function, a constant is not reached by its name
    alone, so a table left behind under a name that another module also
    defines still counts as unread.
    """
    constants, imports = set(), {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            constants |= {
                (module, t.id) for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")
            }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = (node.module, alias.name)
    read = set()
    for module, node in _reached_code(sources)[2]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                key = (module, sub.id)
                while key not in constants and key in imports:
                    key = imports[key]
                read.add(key)
    return {f"{module}.{name}" for module, name in constants - read}


def test_every_public_constant_is_read_by_a_command_or_allowed():
    sample = {
        "cli": "from .a import X as Y, f\ndef main():\n    return Y + f()\n",
        "a": "X = 1\nUNREAD = 2\nIN_F = 3\n_PRIVATE = 4\n"
        "def f():\n    return IN_F\ndef g():\n    return UNREAD\n",
        "b": "X = 5  # the name cli reads, in a module it does not import it from\n",
    }
    assert _unread_public_constants(sample) == {"a.UNREAD", "b.X"}
    assert _unread_public_constants(_package_sources()) == set(ALLOWED_UNREAD_CONSTANTS)


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


def test_every_config_field_is_read_outside_config():
    # A field only config.py reads is a setting that changes nothing.  Any
    # attribute of the field's name counts, which can only count too much.
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "config":
            read |= {
                sub.attr
                for sub in ast.walk(ast.parse(path.read_text()))
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            }
    assert {field.name for field in dataclasses.fields(SessionConfig)} - read == set()


def _discarded_configs(source: str) -> set[str]:
    """Each ``cmd_*`` function with a ``_session_config`` call whose result it never reads.

    A call is read when it is part of a larger expression or assigned to a
    name that the function reads.
    """
    discarded = set()
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")):
            continue
        nodes = list(ast.walk(node))
        read = {sub.id for sub in nodes if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for sub in nodes:
            if (
                isinstance(sub, (ast.Expr, ast.Assign))
                and isinstance(sub.value, ast.Call)
                and getattr(sub.value.func, "id", None) == "_session_config"
                and not any(getattr(t, "id", None) in read for t in getattr(sub, "targets", []))
            ):
                discarded.add(node.name)
    return discarded


def test_every_command_that_loads_the_config_uses_it():
    sample = (
        "def cmd_a(args):\n    _session_config(args)\n"
        "def cmd_b(args):\n    config = _session_config(args)\n"
        "def cmd_c(args):\n    config = _session_config(args)\n    return config.r\n"
        "def cmd_d(args):\n    return run(_session_config(args))\n"
    )
    assert _discarded_configs(sample) == {"cmd_a", "cmd_b"}
    assert _discarded_configs((PACKAGE / "cli.py").read_text()) == set()
