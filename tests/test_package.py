import importlib
import types

import spikesr
from spikesr import errors

MODULES = ("decimation", "experiments", "matrix_pencil", "prony", "signal", "worstcase")


def test_package_reexports_exactly_the_module_exports():
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"spikesr.{name}")
        assert len(set(module.__all__)) == len(module.__all__), name
        exported.update({attr: getattr(module, attr) for attr in module.__all__})
    # errors has no __all__: its public names are its exception classes
    exported.update(
        (attr, value) for attr, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    )
    public = {
        attr: value for attr, value in vars(spikesr).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public.keys() == exported.keys()
    assert all(public[attr] is value for attr, value in exported.items())
