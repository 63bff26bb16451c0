"""Structure of the package: no module imports another's private names or swaps
the warning filters, and the parameters the benchmark reads by position stay
where they are.

A private name (leading underscore) is a module's own business; a module
that imports one from a sibling couples itself to that sibling's internals,
such as the layout of a private cache.  ``__version__`` is the one shared
dunder.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "faddeev_ep"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "faddeev_ep":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and alias.name != "__version__":
                source = "." * node.level + (node.module or "")
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {source}")
    return found


def test_no_module_imports_private_names_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = [line for path in modules for line in _private_imports(path)]
    assert not offenders, offenders


def _catch_warnings_calls(path: Path) -> list[str]:
    return [f"{path.name}:{node.lineno} calls catch_warnings"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and "catch_warnings" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


def test_no_module_swaps_the_warning_filters():
    """``warnings.catch_warnings`` saves and restores the interpreter-wide filter list, so
    two threads inside it can leave a filter behind or let the other's warning through;
    the scan runs its points on threads.  A warning the package does not want is not issued."""
    offenders = [line for path in sorted(PACKAGE.glob("*.py")) for line in _catch_warnings_calls(path)]
    assert not offenders, offenders


def _memory_layers(path: Path) -> list[str]:
    """Imports of weakref or threading, and class-level dicts, in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0 else [])
        found += [f"{path.name}:{node.lineno} imports {name}" for name in names
                  if name.split(".")[0] in ("weakref", "threading")]
        if isinstance(node, ast.ClassDef):
            found += [f"{path.name}:{stmt.lineno} {node.name} keeps a class-level dict"
                      for stmt in node.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                      and (isinstance(stmt.value, (ast.Dict, ast.DictComp))
                           or isinstance(stmt.value, ast.Call) and getattr(stmt.value.func, "id", None) == "dict")]
    return found


def test_operators_are_kept_by_their_owners_not_by_a_shared_layer():
    """The k-independent operators live in the memo of the NodeSet or Potential they are
    built from, and the disk store keeps no memory: no module keeps a weak-keyed table
    or a lock, and no class a dict shared by its instances."""
    offenders = [line for path in sorted(PACKAGE.glob("*.py")) for line in _memory_layers(path)]
    assert not offenders, offenders


#: leading parameters that perfbench/tracing.py reads as ``args[0]`` or ``args[3]``
POSITIONAL = {
    "boundary_ops.assemble_S": ["k", "nodes"],
    "transform.trace_u": ["k", "n", "nodes"],
    "exceptional.trace_locus": ["lam", "family", "nodes", "angles"],
    "boundary_ops.load_operator": ["path"],
    "boundary_ops.save_operator": ["path"],
}


def test_traced_functions_keep_their_leading_parameters():
    changed = []
    for qualname, lead in POSITIONAL.items():
        module, name = qualname.split(".")
        fn = getattr(importlib.import_module(f"faddeev_ep.{module}"), name)
        params = list(inspect.signature(fn).parameters)
        if params[: len(lead)] != lead:
            changed.append(f"{qualname}{tuple(params)} should start with {tuple(lead)}")
    assert not changed, changed


REPO = PACKAGE.parents[1]

#: methods perfbench/tracing.py wraps by name (its ``METHODS``), with the leading
#: parameters they keep; a method that moves silences its ``*.calls``/``*.self_s``
TRACED_METHODS = {
    "disk_solver.DiskDtnSolver.dtn_matrix": ["self", "potential"],
    "harness.OperatorCache.get_or_build": ["self", "key"],
}


def _tracer_constant(name: str):
    """The literal perfbench/tracing.py assigns to ``name`` at module level."""
    tree = ast.parse((REPO / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py defines no {name}")


def _tracer_methods() -> set[str]:
    return {".".join(entry) for entry in _tracer_constant("METHODS")}


def test_traced_methods_exist_with_their_leading_parameters():
    assert _tracer_methods() == set(TRACED_METHODS)
    changed = []
    for qualname, lead in TRACED_METHODS.items():
        module, cls, name = qualname.split(".")
        method = getattr(getattr(importlib.import_module(f"faddeev_ep.{module}"), cls, None), name, None)
        params = list(inspect.signature(method).parameters) if callable(method) else []
        if params[: len(lead)] != lead:
            changed.append(f"{qualname}{tuple(params)} should start with {tuple(lead)}")
    assert not changed, changed


def test_traced_layers_import_and_declare_their_public_names():
    """perfbench/tracing.py imports each module of its ``LAYERS`` and wraps the functions its
    ``__all__`` names; a layer that is deleted or loses ``__all__`` stops the benchmark or
    silences that layer's metrics."""
    layers = _tracer_constant("LAYERS")
    assert "green" in layers
    bare = [m for m in layers if not hasattr(importlib.import_module(f"faddeev_ep.{m}"), "__all__")]
    assert not bare, bare


def _loaded_by_package_import(package: str) -> str:
    """The modules of package (itself or below it) that importing the package's entry points loads."""
    probe = ("import sys, faddeev_ep, faddeev_ep.harness, faddeev_ep.cli; "
             f"print(sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.strip() + out.stderr


def test_package_import_loads_no_scipy():
    """A run needs numpy only: scipy.linalg and scipy.special together add about a third
    of a second and 30 MB to every process start.  Tests may still use scipy as an oracle."""
    assert _loaded_by_package_import("scipy") == "[]"


def test_package_import_loads_no_numpy_polynomial():
    """The Gauss-Legendre rules (mu's and Ein's) come from Newton steps on P_n in green.gauss_legendre,
    not from the eigenvalues of a Jacobi matrix, so no run pays for importing numpy.polynomial (about
    5.6 ms and 0.8 MB of every process start)."""
    assert _loaded_by_package_import("numpy.polynomial") == "[]"


def test_package_import_loads_no_openssl():
    """Keys, checksums and manifest hashes come from CPython's built-in SHA-256: hashlib
    would load OpenSSL's _hashlib, 3.5 MB of every process's RSS, for at most 1.5 MiB hashed."""
    assert _loaded_by_package_import("_hashlib") == "[]"


def test_package_import_loads_no_thread_pool():
    """Only the scan runs a thread pool, so only the scan imports concurrent.futures."""
    assert _loaded_by_package_import("concurrent.futures") == "[]"


def test_the_package_sha256_gives_hashlib_s_digests():
    import hashlib
    import random

    from faddeev_ep import sha256

    rng = random.Random(7)
    for size in (0, 1, 63, 64, 65, 4096, 100_003):
        data = rng.randbytes(size)
        assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


#: the functions that may call np.linalg.inv: the one refusing inverse, B^{-1} on mean-free
#: densities (B is invertible there by construction), and the interior solver's blocks
INVERSES = {("boundary_ops", "checked_inverse"), ("boundary_ops", "invert_on_meanfree"), ("disk_solver", "*")}


def _linalg_calls(path: Path, name: str = "inv") -> list[tuple[str, str, int]]:
    """(module, enclosing function, line) of every np.linalg.``name`` in a module, or import of it."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if (isinstance(node, ast.Attribute) and node.attr == name
                and ast.unparse(node.value) in ("np.linalg", "numpy.linalg", "linalg")
                or isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")
                and any(alias.name == name for alias in node.names)):
            found.append((path.stem, fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_only_checked_inverse_inverts_a_system_it_may_refuse():
    """Every inverse that can meet a near-singular system goes through checked_inverse, so
    the refusal has one path; B^{-1} and the interior solver's block inverses are the others.  No
    system is solved besides: S_ref's alpha and G read B^{-1}, and the n = 0 gain of the interior
    refusal has a closed form."""
    assert [c for path in sorted(PACKAGE.glob("*.py")) for c in _linalg_calls(path, "solve")] == []
    calls = [c for path in sorted(PACKAGE.glob("*.py")) for c in _linalg_calls(path)]
    assert {c[:2] for c in calls} >= {("boundary_ops", "checked_inverse"), ("boundary_ops", "invert_on_meanfree")}
    offenders = [c for c in calls if c[:2] not in INVERSES and (c[0], "*") not in INVERSES]
    assert not offenders, offenders


def _memo_uses(path: Path) -> list[str]:
    """Lines of a module that read or write a ``.memo``."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr == "memo"]


def _sampled_keys(path: Path) -> list[str]:
    """Lines of a module that name the ("sampled", N) key of ``Potential.memo``."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Tuple) and node.elts
            and isinstance(node.elts[0], ast.Constant) and node.elts[0].value == "sampled"]


def test_each_kept_operator_has_one_owner():
    """The transform keeps nothing: its references are exceptional.route_references', so transform.py
    reads and writes no memo.  The digest of a potential's samples has one reader and writer,
    disk_solver.read_samples: no other module names its ("sampled", N) key."""
    assert _memo_uses(PACKAGE / "transform.py") == []
    assert _memo_uses(PACKAGE / "exceptional.py") != []
    named = [line for path in sorted(PACKAGE.glob("*.py")) for line in _sampled_keys(path)]
    assert named and all(line.startswith("disk_solver.py:") for line in named), named


def _imports(path: Path, module: str) -> list[str]:
    """Lines of a module that import ``module`` or a name from it."""
    return [f"{path.name}:{node.lineno}" for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Import) and any(alias.name == module for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == module]


def test_only_the_harness_writes_csv():
    """Every run file comes from the harness's one writer: no other module imports csv."""
    named = [line for path in sorted(PACKAGE.glob("*.py")) for line in _imports(path, "csv")]
    assert named and all(line.startswith("harness.py:") for line in named), named


def _calls_of(path: Path, name: str) -> list[tuple[str, str]]:
    """(module, enclosing function) of every call of the bare name ``name`` in a module."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
            found.append((path.stem, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_only_the_Fn_solve_builds_a_solver():
    """A potential's samples are read without a solver, so DiskDtnSolver is constructed only
    where assemble_Fn solves."""
    calls = [c for path in sorted(PACKAGE.glob("*.py")) for c in _calls_of(path, "DiskDtnSolver")]
    assert calls == [("dtn_maps", "build")], calls
