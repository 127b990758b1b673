"""Names the demos and the README quickstart import must exist, and accept
the arguments the demos and the quickstart pass to them.

Nothing runs the demos in the test suite, so a removed export or keyword
would break them silently; this parses their source instead of running it.
The last tests pin which modules `import hhg1d.cli` leaves unloaded.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import hhg1d

ROOT = Path(__file__).resolve().parent.parent


def _sources() -> dict[str, ast.Module]:
    texts = {p.name: p.read_text()
             for p in sorted((ROOT / "demos").glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.S)):
        texts[f"README.md python block {k}"] = block
    assert len(texts) >= 9
    return {source: ast.parse(text) for source, text in texts.items()}


def _hhg1d_imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (module, name) of every `from hhg1d... import`."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "hhg1d"
            for alias in node.names}


def test_demo_and_readme_imports_exist():
    missing = []
    for source, tree in _sources().items():
        imports = _hhg1d_imports(tree).values()
        assert imports, f"{source} imports nothing from hhg1d"
        for module, name in imports:
            if module == "hhg1d":
                found = name in hhg1d.__all__
            else:
                found = hasattr(importlib.import_module(module), name)
            if not found:
                missing.append(f"{source}: {module}.{name}")
    assert not missing


def test_demo_and_readme_calls_bind():
    checked, failures = 0, []
    for source, tree in _sources().items():
        imports = _hhg1d_imports(tree)
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id in imports):
                continue
            module, name = imports[call.func.id]
            target = getattr(importlib.import_module(module), name)
            n_args = 0 if any(isinstance(a, ast.Starred) for a in call.args) \
                else len(call.args)
            keywords = {k.arg: None for k in call.keywords if k.arg}
            try:
                inspect.signature(target).bind_partial(*[None] * n_args,
                                                       **keywords)
            except TypeError as exc:
                failures.append(f"{source}:{call.lineno} {name}: {exc}")
            checked += 1
    assert checked >= 50
    assert not failures


def _loaded_by_cli_import(modules: list[str]) -> list[str]:
    """Those of `modules` that a fresh `import hhg1d.cli` loads."""
    code = ("import sys, hhg1d.cli; "
            f"print([m for m in {modules!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": str(
                             Path(hhg1d.__file__).resolve().parents[1])})
    return ast.literal_eval(out.stdout.strip())


def test_cli_start_up_loads_no_heavy_scipy_modules():
    # every hhg1d process pays for what `hhg1d.cli` imports; these are
    # loaded on first use, by the step and the purity fit, and
    # scipy.sparse.linalg by no hhg1d code at all
    assert _loaded_by_cli_import(["scipy.fft", "scipy.optimize",
                                  "scipy.sparse.linalg", "scipy.linalg"]) == []


def test_cli_start_up_loads_no_process_pool():
    # loaded only by a run with more than one block of configurations
    assert _loaded_by_cli_import(["concurrent.futures.process",
                                  "multiprocessing"]) == []
