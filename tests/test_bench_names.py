"""The benchmark in perfbench/ calls the library by name.  These tests read
its sources with `ast` (nothing there is imported) and check that every
library name it reaches still exists, so that a deletion in src/ that
would break the benchmark fails here first."""
import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _library_imports(tree: ast.Module):
    """(module aliases, names imported from modules) of `spinbranch`."""
    aliases, names = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not (node.module or "").startswith("spinbranch"):
            continue
        for alias in node.names:
            if node.module == "spinbranch":
                aliases[alias.asname or alias.name] = f"spinbranch.{alias.name}"
            else:
                names.append((node.module, alias.name))
    return aliases, names


def test_workload_attributes_resolve():
    tree = _tree("workloads.py")
    aliases, _ = _library_imports(tree)
    assert set(aliases) == {"cli", "cr", "ix", "ra", "sq", "vf"}
    used = {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    assert ("spinbranch.raising", "DeltaFunction") in used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used)
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


def test_workload_imports_resolve():
    tree = _tree("workloads.py")
    _, names = _library_imports(tree)
    assert ("spinbranch.core", "Weight") in names
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing
    # and every attribute read off an imported name, such as `SignedSet.of`
    imported = {name: getattr(importlib.import_module(mod), name) for mod, name in names}
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in imported
    }
    assert ("SignedSet", "of") in used
    missing = [f"{name}.{attr}" for name, attr in sorted(used)
               if not hasattr(imported[name], attr)]
    assert not missing


def test_traced_methods_exist():
    (methods,) = [
        ast.literal_eval(node.value)
        for node in _tree("tracer.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets)
    ]
    assert methods
    for layer, classes in methods.items():
        module = importlib.import_module(f"spinbranch.{layer}")
        for cls_name, names in classes.items():
            # the tracer wraps vars(cls)[name]: it must be defined on the class itself
            assert set(names) <= set(vars(getattr(module, cls_name))), (layer, cls_name)


def _counted_names(tree: ast.Module) -> set[str]:
    """Every library name the tracer counts or hooks: the constant keys of
    `c[...]` in layer_metrics, FLOW_NAMES (sigseq functions), HOOKED_BEFORE,
    HOOKED_AFTER and SKIP."""
    consts = {
        t.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for t in node.targets if isinstance(t, ast.Name)
        and t.id in ("FLOW_NAMES", "HOOKED_BEFORE", "HOOKED_AFTER", "SKIP")
    }
    (metrics,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "layer_metrics"]
    keys = {
        node.slice.value
        for node in ast.walk(metrics)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
        and node.value.id == "c" and isinstance(node.slice, ast.Constant)
    }
    flows = {f"sigseq.{name}" for name in consts["FLOW_NAMES"]}
    return keys | flows | consts["HOOKED_BEFORE"] | consts["HOOKED_AFTER"] | consts["SKIP"]


def _resolves(name: str) -> bool:
    layer, *path = name.split(".")
    obj = importlib.import_module(f"spinbranch.{layer}")
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_counted_names_resolve():
    # a name that no longer resolves zeroes its per-layer metric silently;
    # indices.classify_index is the one stale name, left for the benchmark
    names = _counted_names(_tree("tracer.py"))
    assert {"sigseq.section_of", "poly.Polynomial.__mul__", "crystal.cont_p"} <= names
    assert {name for name in names if not _resolves(name)} == {"indices.classify_index"}
