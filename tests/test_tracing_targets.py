"""Every function the benchmark tracer wraps must still exist.

``perfbench/tracing.py`` rebinds each of its targets by name, so a
renamed or deleted target breaks ``perfbench/run.py --trace 1``.  The
perfbench tests are not collected here, so this runs the tracer's
install and uninstall against the package as it is.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import metaform.cli  # noqa: F401  (imports every traced module)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_in_metaform():
    """Each target names a function of its ``metaform`` module, or a method
    defined in a class there, looked up through ``vars`` as the tracer
    does, so an inherited or deleted name does not count."""
    unresolved = []
    for metric, module, attr in load_tracing().TARGETS:
        obj = importlib.import_module(f"metaform.{module}")
        for part in attr.split("."):
            obj = vars(obj).get(part)
            if obj is None:
                break
        if not callable(obj):
            unresolved.append(metric)
    assert unresolved == []


def test_every_traced_target_resolves_and_is_restored():
    tracing = load_tracing()
    before = {
        (mod, key): value
        for mod in (m for n, m in sys.modules.items() if n.startswith("metaform."))
        for key, value in vars(mod).items()
        if callable(value)
    }
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert len(tracer.names) == len(tracing.TARGETS)
    finally:
        tracer.uninstall()
    after = {
        (mod, key): value
        for mod in (m for n, m in sys.modules.items() if n.startswith("metaform."))
        for key, value in vars(mod).items()
        if callable(value)
    }
    assert after == before
