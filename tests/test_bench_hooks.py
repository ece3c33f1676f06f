"""The benchmark tracer's hooks must all resolve against the package.

``bench/tracer.py`` wraps functions by name in the modules that call them.
A rename or deletion in ``src/`` leaves its hook absent and silently drops
the per-layer metrics built on it, so every hook is checked here without
running the benchmark.  An import kept in ``src/`` only for a hook is marked
``# noqa: F401``; each such name must still be hooked, so it goes in the
same change that drops its hook.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
SRC = ROOT / "src" / "visdep"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("visdep_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves():
    import visdep.cli as cli

    original = cli.run_eval
    tracer = load_tracer_module().Tracer()
    with tracer:
        assert tracer.absent == []
        assert tracer.incomplete == set()
        assert cli.run_eval is not original
    assert cli.run_eval is original


def tracer_only_imports(src: Path) -> list[tuple[str, str]]:
    """``(module, name)`` of each name imported in ``src/*.py`` by an import marked ``# noqa: F401``."""
    found = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                found.extend((path.stem, alias.asname or alias.name) for alias in node.names)
    return found


def test_every_tracer_only_import_is_hooked():
    tracer = load_tracer_module().Tracer()
    with tracer:
        hooked = {(owner.__name__, attr) for owner, attr, _ in tracer._undo}
    imports = tracer_only_imports(SRC)
    assert [f"{module}.{name}" for module, name in imports if (f"visdep.{module}", name) not in hooked] == []
