"""The benchmark tracer's hooks must all resolve against the package.

``bench/tracer.py`` wraps functions by name in the modules that call them.
A rename or deletion in ``src/`` leaves its hook absent and silently drops
the per-layer metrics built on it, so every hook is checked here without
running the benchmark.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
