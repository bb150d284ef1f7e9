"""The library's public surface: every public name is used by the library
itself or exported by the package, and the README example runs."""

import ast
import contextlib
import io
import re
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


def test_one_module_spells_the_float_format():
    # every CSV float goes through qstate.write_csv and its CSV_FLOAT
    paths = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in paths if ".17g" in path.read_text(encoding="utf-8")] == ["qstate.py"]
