"""Source hygiene, checked on the syntax tree since no linter is installed.

* Every module-level function and class of the package, and every
  non-dunder method or property, is referenced from the program: from
  `src/` or from the stage benchmark.  A reference is an attribute or an
  exact string constant (the benchmark wraps functions by name), and for a
  module-level definition also a bare name; so an API that only tests reach
  fails here.
* Every keyword-only parameter of a package function is passed by keyword
  somewhere in the program (`src/` or the stage benchmark, not its tests), so
  no option exists that only the tests set.
* No module in `src/` or `tests/` imports a name it does not use.  The
  submodule imports in `__init__.py` and lines marked `# noqa: F401` are exempt.
* The package root binds no public name but its submodules, so every public
  function and class has one import path: `dualprune.<module>.<name>`.
* Only `model.row_block_loss` reaches `row_blocks` and
  `row_block_cross_entropy`, so every pass is cut into row blocks one way.
* Only `model._submit` calls `EVAL_POOL.submit`, so no offer to the pool
  skips the context copy or the pool-task mark.
* No module of `src/` but `model` names `EVAL_POOL` or `EVAL_WORKERS` in
  code, so `model` alone sizes the work offered to the pool.
* The stage benchmark's hooks install on the package and come off again.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import dualprune
from dualprune import model, tensor

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualprune"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(path, tree):
    """(qualified name, bare name, is a method) of each module-level def/class and each method."""
    module = path.stem
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name):
                    yield f"{module}.{node.name}.{item.name}", item.name, True


def test_every_definition_is_reached_by_the_program():
    names, members = set(), set()  # bare names; attributes and string constants
    for _, tree in _trees(ROOT / "src", ROOT / "stagebench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                members.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                members.add(node.value)
    unreferenced = [qualified for path, tree in _trees(PACKAGE)
                    for qualified, name, is_method in _definitions(path, tree)
                    if name not in members and (is_method or name not in names)]
    assert unreferenced == [], f"defined but never referenced by src/ or stagebench/: {unreferenced}"


def _keyword_only_parameters(tree):
    """(callee name, parameter) of each keyword-only parameter; a constructor
    is called by its class's name."""
    class_of = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                for item in node.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            name = class_of.get(id(node), node.name) if node.name == "__init__" else node.name
            for arg in node.args.kwonlyargs:
                yield name, arg.arg


def test_every_keyword_only_parameter_is_passed_by_the_program():
    passed = set()  # (callee name, keyword) of every call in src/ and the benchmark
    for path, tree in _trees(ROOT / "src", ROOT / "stagebench"):
        if "tests" in path.relative_to(ROOT).parts:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                passed.update((callee, k.arg) for k in node.keywords if k.arg)
    parameters = {entry for _, tree in _trees(PACKAGE) for entry in _keyword_only_parameters(tree)}
    assert parameters, "no keyword-only parameter found; the walk is broken"
    unpassed = sorted(parameters - passed)
    assert unpassed == [], f"keyword-only parameters no program call passes: {unpassed}"


def _unused_imports(path, tree):
    lines = path.read_text().splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or (path.name == "__init__.py" and node.level)):
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                yield f"{path.relative_to(ROOT)}:{node.lineno}: {bound}"


def test_no_unused_imports():
    unused = [entry for path, tree in _trees(ROOT / "src", ROOT / "tests")
              for entry in _unused_imports(path, tree)]
    assert unused == [], f"unused imports: {unused}"


def test_package_root_binds_only_submodules(package_env):
    public = {name: value for name, value in vars(dualprune).items() if not name.startswith("_")}
    assert {name: getattr(value, "__name__", None) for name, value in public.items()} == {
        name: f"dualprune.{name}" for name in public}
    fresh = subprocess.run(
        [sys.executable, "-c", "import dualprune; "
         "print(*sorted(n for n in vars(dualprune) if not n.startswith('_')))"],
        env=package_env, capture_output=True, text=True, timeout=60)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout.split() == ["container", "corpus", "errors", "evaluation", "importance",
                                    "model", "pruning", "tensor"]


ROW_CUTTING = {"row_blocks", "row_block_cross_entropy"}


def _references(helper, name_of):
    """(the names `name_of(node)` gives inside the function `helper` of
    `src/`, "path:line: name" of each it gives elsewhere); `name_of` gives
    None for a node that does not count."""
    inside, outside = set(), []
    for path, tree in _trees(PACKAGE):
        in_helper = {id(node) for top in tree.body if isinstance(top, ast.FunctionDef)
                     and f"{path.stem}.{top.name}" == helper for node in ast.walk(top)}
        for node in ast.walk(tree):
            name = name_of(node)
            if name is None:
                continue
            if id(node) in in_helper:
                inside.add(name)
            else:
                outside.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    return inside, outside


def _named(node, names):
    """The name of `node` if it is a name, attribute or import of one of `names`."""
    name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
    return name if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in names else None


def test_only_the_row_block_helper_cuts_rows():
    """The helper must hold one reference of each of `ROW_CUTTING`, and nothing else any."""
    inside, outside = _references("model.row_block_loss", lambda node: _named(node, ROW_CUTTING))
    assert inside == ROW_CUTTING, "model.row_block_loss no longer cuts rows; the rule is stale"
    assert outside == [], f"row blocks cut outside model.row_block_loss: {outside}"


def _pool_submit(node):
    """The attribute `submit` of a name or attribute `EVAL_POOL`."""
    if isinstance(node, ast.Attribute) and node.attr == "submit":
        owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
        if owner == "EVAL_POOL":
            return "EVAL_POOL.submit"
    return None


def test_only_the_submit_helper_offers_work_to_the_pool():
    """Every offer then runs under a copy of the caller's context marked as a pool task."""
    inside, outside = _references("model._submit", _pool_submit)
    assert inside == {"EVAL_POOL.submit"}, "model._submit no longer submits; the rule is stale"
    assert outside == [], f"work offered to EVAL_POOL outside model._submit: {outside}"


POOL_SIZING = {"EVAL_POOL", "EVAL_WORKERS"}


def test_only_the_model_sizes_pool_work():
    named = {path.stem: [f"{path.relative_to(ROOT)}:{node.lineno}: {name}" for node in ast.walk(tree)
                         if (name := _named(node, POOL_SIZING))]
             for path, tree in _trees(PACKAGE)}
    assert named.pop("model"), "model names neither EVAL_POOL nor EVAL_WORKERS; the rule is stale"
    outside = [entry for entries in named.values() for entry in entries]
    assert outside == [], f"pool work sized outside model: {outside}"


def _package_bindings():
    """Identity of every name bound in a loaded dualprune module, and of the
    two methods the benchmark's tracer replaces."""
    bindings = {(name, attr): id(value) for name, mod in sys.modules.items()
                if name == "dualprune" or name.startswith("dualprune.")
                for attr, value in vars(mod).items()}
    bindings["TransformerModel.forward"] = id(model.TransformerModel.forward)
    bindings["GradientTape.record"] = id(tensor.GradientTape.record)
    return bindings


def test_benchmark_hooks_install_and_restore(monkeypatch):
    """The stage benchmark wraps package functions by name; a renamed or deleted
    one makes its installation fail here rather than only in a traced run."""
    monkeypatch.syspath_prepend(str(ROOT))
    spans = importlib.import_module("stagebench.spans")
    workloads = importlib.import_module("stagebench.workloads")
    refkernel = importlib.import_module("stagebench.refkernel")
    before = _package_bindings()
    for hooks in (spans.Tracer(), workloads.Ticker(refkernel.RefClock())):
        hooks.install()
        try:
            assert _package_bindings() != before, type(hooks).__name__
        finally:
            hooks.uninstall()
        assert _package_bindings() == before, type(hooks).__name__
