"""Every pseudoplap name that the benchmark in perfbench/ binds still resolves.

A traced benchmark run (`perfbench/run.py --trace 1`) wraps each TARGETS
entry of perfbench/tracing.py by getattr and reads the arguments and results
of some of them; perfbench also imports names with `from pseudoplap... import`.
Deleting or renaming one of those names breaks only that run, so this test
reads the perfbench files with ast, without importing them, and resolves
each name in the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "pseudoplap"


def _bound_names() -> set:
    """(module, name) of every TARGETS triple and every `from pseudoplap... import`."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "pseudoplap":
                names.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Assign) \
                    and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
                names.update((module, attr) for _, module, attr in ast.literal_eval(node.value))
    return names


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # `from package import submodule`
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_bound_names_resolve():
    names = _bound_names()
    assert ("pseudoplap.jets", "pair_conclusions_check") in names  # TARGETS was read
    assert ("pseudoplap.solver", "energy_gradient") in names  # and the imports
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not _resolves(module, name))
    assert not missing


def test_benchmark_hook_call_shapes():
    # the tracer's hooks read jacobi_eigh's (w, V) and the written file's path, argument 0
    from pseudoplap.eig import jacobi_eigh
    from pseudoplap.grid import write_field
    from pseudoplap.reporting import svg_line_plot, write_csv

    w, V = jacobi_eigh(np.diag([2.0, 1.0]))
    assert list(w) == [1.0, 2.0] and V.shape == (2, 2)
    # its hook checks argument 0 as one matrix, so the traced name takes no stack
    with pytest.raises(ValueError, match="square matrix"):
        jacobi_eigh(np.zeros((2, 2, 2)))
    for fn in (write_csv, write_field, svg_line_plot):
        assert next(iter(inspect.signature(fn).parameters)) == "path", fn.__name__


def _reads(nodes) -> set:
    """The names that the ast nodes read: each Name load and Attribute name."""
    read = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
    return read


def test_every_definition_is_read_in_src_or_bound():
    """Every module-level function and class of src/pseudoplap is reachable
    from cli.main, from module-level code (decorators included) or from a
    name that perfbench binds, through the names each reachable definition
    reads.

    Names are matched without their module, so a definition counts as read
    wherever a reachable body reads its name: the guard may miss dead code
    that shares a live name, but a chain of definitions that only read each
    other, or that only tests read, fails it.
    """
    defs, roots = {}, {"main"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((f"pseudoplap.{path.stem}", node))
                roots |= _reads(node.decorator_list)
            else:
                roots |= _reads([node])
    assert "jet_scalars" in defs  # the modules were read
    roots |= {name for _, name in _bound_names()}
    reached, pending = set(), [name for name in roots if name in defs]
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            body = [node for _, node in defs[name]]
            pending += [read for read in _reads(body) if read in defs]
    unreached = sorted(f"{module}.{name}" for name, found in defs.items() if name not in reached
                       for module, _ in found)
    assert not unreached
