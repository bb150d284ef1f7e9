"""The library's public surface: every public name is used by the library
itself or exported by the package, every private name and import is read,
and the README example runs."""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import entlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "entlab"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each public module-level name and each
    public method of a public class defined in the module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(f"{module}.{name}", name) for name in names if _public(name)]
        if isinstance(node, ast.ClassDef) and _public(node.name):
            found += [
                (f"{module}.{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(item.name)
            ]
    return found


def _references(tree: ast.Module) -> set[str]:
    """Names the module's code reads: loaded names, attributes and imported
    names (string contents are not code)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_names(package: Path, exported: set[str]) -> list[str]:
    """Public names of the package's modules that no library code outside
    ``__init__.py`` references and that the package does not export."""
    defined, referenced = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += _definitions(tree, path.stem)
        if path.name != "__init__.py":
            referenced |= _references(tree)
    return [qual for qual, name in defined if name not in referenced and name not in exported]


def test_every_public_name_is_used_or_exported():
    assert unreferenced_names(PACKAGE, set(entlab.__all__)) == []


def _bound_at_top(tree: ast.Module) -> tuple[list[str], list[str]]:
    """(private names defined, names imported) by the module's top-level
    statements; dunder names and ``from __future__`` imports are left out."""
    private, imported = [], []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        private += [n for n in names if n.startswith("_") and not n.endswith("__")]
    return private, imported


def orphaned_names(package: Path) -> list[str]:
    """Module-level private names that no module of the package reads, and
    imports that their own module neither reads nor lists in ``__all__``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    read_anywhere = set().union(*(_references(tree) for tree in trees.values()))
    orphans = []
    for module, tree in trees.items():
        private, imported = _bound_at_top(tree)
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        exported = set(entlab.__all__) if module == "__init__" else set()
        orphans += [f"{module}.{name}" for name in private if name not in read_anywhere]
        orphans += [f"{module}: import {name}" for name in imported if name not in loaded | exported]
    return orphans


def test_no_orphaned_private_name_or_import():
    assert orphaned_names(PACKAGE) == []


def test_readme_python_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("MeasureReport(")
    p_entangled, p_violation = map(float, lines[1].split())
    assert 0.3 < p_entangled < 0.45 and 0.0 < p_violation < 0.1


def test_cli_import_leaves_out_selftest_and_the_thread_pool():
    # `entlab selftest` imports the self-test, and a threaded run the thread
    # pool, when they start, so every other command skips their import time
    code = "import sys, entlab.cli; print(sorted({'entlab.selftest', 'concurrent.futures'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_one_module_spells_the_float_format():
    # every CSV float goes through qstate.write_csv and its CSV_FLOAT, and
    # every flag through its true/false table; the self-test alone reads
    # CSV_FLOAT besides, to check the float kernel against it
    paths = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in paths if ".17g" in path.read_text(encoding="utf-8")] == ["qstate.py"]
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    assert [module for module, tree in trees.items() if "CSV_FLOAT" in _references(tree)] == ["qstate", "selftest"]
    flag_words = {"true", "false", b"true", b"false"}
    spellers = [
        module
        for module, tree in trees.items()
        if any(isinstance(n, ast.Constant) and n.value in flag_words for n in ast.walk(tree))
    ]
    assert spellers == ["qstate"]


def test_one_module_calls_the_text_parser():
    # state files are parsed in qstate alone: by its kernel and, for the
    # fields outside its grammar, by float itself, in one function that
    # _convert_block alone calls; no module calls numpy's text parsers
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    numpy_parsers = [
        module
        for module, tree in trees.items()
        if any(isinstance(n, ast.Attribute) and n.attr in ("loadtxt", "genfromtxt") for n in ast.walk(tree))
    ]
    assert numpy_parsers == []
    functions = {n.name: n for n in trees["qstate"].body if isinstance(n, ast.FunctionDef)}

    def calls(function, name):
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == name for n in ast.walk(function))

    assert [name for name, function in functions.items() if calls(function, "_floats")] == ["_convert_block"]
    assert calls(functions["_floats"], "float")


def test_one_function_names_the_faulty_matrix():
    # a stack's first fault, LAPACK's failure included, is decided in cmat:
    # cmat._raise alone sets an error's index, cmat._eig_before alone turns
    # LAPACK's failure into a fault, and outside cmat only the reader catches
    # NotConverged by name, to add the file line
    setters, catchers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for n in ast.walk(top):
                if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = [t for target in (n.targets if isinstance(n, ast.Assign) else [n.target]) for t in ast.walk(target)]
                    if any(isinstance(t, ast.Attribute) and t.attr == "index" for t in targets):
                        setters.append(where)
                elif isinstance(n, ast.ExceptHandler) and n.type and "NotConverged" in _references(n.type):
                    catchers.append(where)
    assert setters == ["cmat._raise"]
    assert sorted(set(catchers)) == ["cmat._eig_before", "qstate._read_stack_eig"]


def _constructions(tree: ast.Module, name: str) -> int:
    return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name for n in ast.walk(tree))


def test_one_construction_site_per_state_invariant():
    # each invariant of a density matrix has one check, and so one raise site
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    for name in ("NotPSD", "TraceNotOne"):
        assert sum(_constructions(tree, name) for tree in trees) == 1, name


def test_every_eigensolver_and_svd_goes_through_lapack():
    # cmat._lapack turns LAPACK's failure to converge into NotConverged, so no
    # routine may be called, or passed anywhere else, directly
    routines = {"eig", "eigh", "eigvals", "eigvalsh", "svd"}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        passed = {
            id(n.args[0])
            for n in ast.walk(tree)
            if isinstance(n, ast.Call) and n.args and getattr(n.func, "attr", getattr(n.func, "id", None)) == "_lapack"
        }
        direct = [
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and n.attr in routines
            and isinstance(n.value, ast.Attribute)
            and n.value.attr == "linalg"
            and id(n) not in passed
        ]
        assert direct == [], path.name


def test_one_screened_route_measures_every_state():
    # measures._spectral_table alone screens states and takes their
    # concurrence, for the harness, the stack and the scalar APIs alike; the
    # self-test calls both besides, to check them.  The linear entropy comes
    # from the spectrum, with no matrix product of its own.
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    called = [
        getattr(n.func, "attr", getattr(n.func, "id", None))
        for name, text in sources.items()
        if name != "selftest.py"
        for n in ast.walk(ast.parse(text))
        if isinstance(n, ast.Call)
    ]
    assert (called.count("_pt_screen"), called.count("concurrence_from_eig")) == (1, 1)
    assert not any("linear_entropy_batch" in text for text in sources.values())


def test_one_module_frames_a_state_file():
    # qstate.write_stack alone writes the header and rows of a state file;
    # every other module passes it stacks
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    framers = [module for module, tree in trees.items() if {"CSV_HEADER", "_write_rows"} & _references(tree)]
    assert framers == ["qstate"]


def test_one_error_class_per_argument_condition():
    # every out-of-range or ill-formed argument raises ParameterOutOfRange, a
    # ValueError; only the state-file reader builds a bare one (a field that
    # is no float), and cli.main's exit-2 clause catches both as ValueError
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    bare = {module: _constructions(tree, "ValueError") for module, tree in trees.items()}
    assert {module: count for module, count in bare.items() if count} == {"qstate": 1}
    main = next(node for node in trees["cli"].body if getattr(node, "name", None) == "main")
    assert "ParameterOutOfRange" not in _references(main)
