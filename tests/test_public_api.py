"""Every name reliakit exports has a use: the package's own modules load it
outside its own definition, or the README names it. An export that neither
holds is dead, and fails here."""

import ast
import re
from pathlib import Path

import reliakit

PACKAGE = Path(reliakit.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


class _Loads(ast.NodeVisitor):
    """The names a module loads, as a bare name or an attribute, outside
    the body of the function or class of that name."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.inside: list[str] = []

    def _definition(self, node) -> None:
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id not in self.inside:
            self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr not in self.inside:
            self.names.add(node.attr)
        self.generic_visit(node)


def test_every_export_is_used_or_documented():
    loads = _Loads()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":  # it only imports and re-exports
            loads.visit(ast.parse(path.read_text(encoding="utf-8")))
    code_spans = re.findall(r"`([^`]+)`", README.read_text(encoding="utf-8"))
    dead = [
        name
        for name in reliakit.__all__
        if name not in loads.names
        and not any(re.search(rf"\b{re.escape(name)}\b", span) for span in code_spans)
    ]
    assert not dead, f"exported but neither used in the package nor named in README.md: {dead}"
