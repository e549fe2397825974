"""The package keeps its promise of zero runtime dependencies: every import
in src/sheaf_census is relative or names a standard-library module."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sheaf_census"


def _absolute_imports(path: Path):
    """(line, top-level module) of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    outside = [f"{path.name}:{line} imports {module}" for path in sources
               for line, module in _absolute_imports(path)
               if module not in sys.stdlib_module_names]
    assert outside == []


def test_the_guard_sees_a_third_party_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from . import census\nimport json\nif True:\n    import numpy.linalg\n")
    assert [m for _, m in _absolute_imports(source)
            if m not in sys.stdlib_module_names] == ["numpy"]
