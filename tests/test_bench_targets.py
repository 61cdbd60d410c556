"""The benchmark tracer patches ``singlerail`` names: every one must resolve.

``bench/spans.py`` wraps the functions listed in its ``TARGETS`` by name
and counts ``FockState`` constructions through ``__init__``.  A name that
``src/`` stops calling still has to exist, or ``bench/run.py --trace 1``
breaks without any test noticing.  The module is loaded from its file
without writing bytecode next to it.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.TARGETS


def test_every_target_resolves(targets):
    assert targets
    for layer, names in targets.items():
        module = importlib.import_module(f"singlerail.{layer}")
        for name in names:
            if "." in name:
                cls_name, method = name.split(".")
                assert inspect.isfunction(vars(getattr(module, cls_name)).get(method)), name
            else:
                assert inspect.isfunction(vars(module).get(name)), f"{layer}.{name}"


def test_fock_state_init_takes_register_and_terms():
    from singlerail.fock import FockState

    params = list(inspect.signature(FockState.__init__).parameters)
    assert params[:3] == ["self", "register", "terms"]
