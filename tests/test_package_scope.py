"""The package holds what the pipeline runs, and every layer the benchmark traces.

bench/child.py times layers by wrapping package functions by name, and the
benchmark drops a layer whose names are all gone.  So a top-level definition,
and a method or property of a class, under src/oamtomo is either loaded by
package code or named in LAYERS; test oracles live in tests/oracles.py.
"""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oamtomo"
CHILD = ROOT / "bench" / "child.py"

# named in LAYERS but gone from the package before this check existed
KNOWN_MISSING = {"tomography.state_probabilities_from_counts"}


def _layers() -> dict:
    """LAYERS of bench/child.py, read from its source without importing it."""
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {CHILD}")


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))
            if p.stem != "__init__"}


def _definitions(tree: ast.Module):
    """Top-level functions, classes and assigned constants of one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _loads(trees: dict) -> set:
    """Names read anywhere in the package: bare names, and attributes of a
    package module bound by name (cli's `fileio.write_counts`)."""
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in trees):
                loaded.add(node.attr)
    return loaded


def _members(tree: ast.Module):
    """(class, name) of every method and property of the module's top-level
    classes, dunder methods aside."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    yield node.name, item.name


def test_every_layer_resolves_a_function():
    for layer, (module_name, names) in _layers().items():
        module = importlib.import_module(f"oamtomo.{module_name}")
        assert any(callable(getattr(module, n, None)) for n in names), (
            f"layer {layer}: none of {names} is a function of oamtomo.{module_name}")


def test_every_layer_name_resolves():
    missing = {f"{m}.{n}" for m, names in _layers().values() for n in names
               if not callable(getattr(importlib.import_module(f"oamtomo.{m}"), n, None))}
    assert missing <= KNOWN_MISSING


def test_every_definition_is_loaded_or_traced():
    trees = _modules()
    loaded = _loads(trees)
    traced = {n for _, names in _layers().values() for n in names}
    unloaded = [(module, name) for module, tree in trees.items() for name in _definitions(tree)
                if name not in loaded]
    unused = [f"{module}.{name}" for module, name in unloaded if name not in traced]
    assert unused == [], f"defined under src/ but neither loaded there nor traced: {unused}"
    # the Uhlmann fidelities, the full optical chain and the whole-grid LG mode stay for
    # the benchmark's qudit.fidelity, optics.projection and optics.field layers until it
    # reads spans instead
    assert {name for _, name in unloaded} == {
        "oam_mode_field", "optical_projection_probability", "process_fidelity", "state_fidelity"}


def test_every_member_is_read_or_traced():
    # by name: an attribute read of that name anywhere in the package counts
    trees = _modules()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    traced = {n for _, names in _layers().values() for n in names}
    unused = [f"{module}.{cls}.{name}" for module, tree in trees.items()
              for cls, name in _members(tree) if name not in read | traced]
    assert unused == [], f"members under src/ that no package code reads: {unused}"
