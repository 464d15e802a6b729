"""What `import rtmfpsim` loads. Every process that runs the simulator pays
for each module it imports, and `bench/worker.py` times the import as part
of set-up: the package imports all its submodules, and none of them pulls in
the standard library's code-introspection machinery."""

import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SUBMODULES = {"app", "cc", "config", "engine", "flows", "harness", "netsim", "topology",
              "wire"}
# dataclasses imports inspect, which imports ast, dis and tokenize.
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_import_loads_every_submodule_and_no_introspection_module():
    # The delta against the interpreter as it starts, so that what `site`
    # loads does not count.
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules)\n"
            "import rtmfpsim\n"
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    loaded = set(out.split())
    assert {f"rtmfpsim.{name}" for name in SUBMODULES} <= loaded
    assert not loaded & INTROSPECTION, sorted(loaded & INTROSPECTION)
