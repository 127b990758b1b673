"""Names the demos and the README quickstart import must exist.

Nothing runs the demos in the test suite, so a removed export would break
them silently; this parses their imports instead of running them.
"""

import ast
import importlib
import re
from pathlib import Path

import hhg1d

ROOT = Path(__file__).resolve().parent.parent


def test_demo_and_readme_imports_exist():
    sources = {p.name: p.read_text()
               for p in sorted((ROOT / "demos").glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.S)):
        sources[f"README.md python block {k}"] = block
    assert len(sources) >= 9

    missing = []
    for source, text in sources.items():
        imports = [(node.module, alias.name)
                   for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.ImportFrom) and node.module
                   and node.module.split(".")[0] == "hhg1d"
                   for alias in node.names]
        assert imports, f"{source} imports nothing from hhg1d"
        for module, name in imports:
            if module == "hhg1d":
                found = name in hhg1d.__all__
            else:
                found = hasattr(importlib.import_module(module), name)
            if not found:
                missing.append(f"{source}: {module}.{name}")
    assert not missing
