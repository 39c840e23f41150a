import ast
from pathlib import Path

import hardyheat

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in hardyheat.__all__ if not hasattr(hardyheat, name)]
    assert not missing


def _unused_imports(path: Path) -> list:
    """'file:line name' for each name path imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # the package's __init__ imports to re-export, so it is left out
    paths = [p for p in sorted((ROOT / "src" / "hardyheat").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert [u for p in paths for u in _unused_imports(p)] == []
