"""perfbench's tracer still installs on the package: every name it wraps exists."""
import importlib
import importlib.util
import sys
from pathlib import Path

import bnsum.cli  # noqa: F401  (the tracer wraps functions of every bnsum module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if mod is not None and (name == "bnsum" or name.startswith("bnsum."))
            for attr, value in vars(mod).items()}


def test_every_target_resolves():
    for mod_name, fn_name, _ in load_tracer().TARGETS:
        assert callable(getattr(importlib.import_module("bnsum." + mod_name), fn_name))


def test_install_then_uninstall_restores_every_binding():
    tracer_module = load_tracer()
    before = bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for mod_name, fn_name, _ in tracer_module.TARGETS:
            key = ("bnsum." + mod_name, fn_name)
            assert bindings()[key] is not before[key], key
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
