"""The package import graph is the dependency graph of its layers.

``import qindex`` loads no layer, and each layer loads only the layers it
uses, so a caller of one layer pays for that layer alone.  Each layer is
imported in a fresh interpreter, since the test process has loaded them
all already.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# each layer, with the qindex modules that importing it loads
LOADS = {
    "lattice": {"lattice"},
    "fusion": {"fusion"},
    "generators": {"generators", "fusion"},
    "algebra": {"algebra"},
    "expectation": {"expectation", "algebra"},
    "io": {"io", "algebra", "fusion"},
    "cli": {"algebra", "cli", "expectation", "fusion", "generators", "io", "lattice"},
}

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import qindex.{layer}
print(json.dumps({{"qindex": sorted(m for m in sys.modules
                                    if m.split(".")[0] == "qindex"),
                  "numpy": "numpy" in sys.modules}}))
"""


@pytest.mark.parametrize("layer", sorted(LOADS))
def test_each_layer_loads_only_the_layers_it_uses(layer):
    # -I: no PYTHONPATH, user site or working directory on sys.path; -B:
    # no bytecode written into src, which -I would not stop
    out = subprocess.run([sys.executable, "-I", "-B", "-c", PROBE.format(layer=layer), SRC],
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert loaded["qindex"] == sorted({"qindex"} | {f"qindex.{m}" for m in LOADS[layer]})
    if layer == "lattice":
        assert not loaded["numpy"]


@pytest.mark.parametrize("layer", ["expectation", "fusion", "generators", "io", "lattice"])
def test_every_exported_name_exists(layer):
    module = importlib.import_module(f"qindex.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
