import importlib
import re
import types
from pathlib import Path

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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # numpy prints the node array as [x0 x1 x2]
    nodes = [float(x) for x in capsys.readouterr().out.strip(" []\n").split()]
    assert len(nodes) == 3
    assert nodes == sorted(nodes) and len(set(nodes)) == 3
    assert all(-0.5 < x <= 0.5 for x in nodes)
