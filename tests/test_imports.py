import json
import subprocess
import sys

import pytest

# Run in a fresh interpreter, so no other test has loaded scipy yet
ENTRY_POINTS = {
    "import": "import delaylattice",
    "cli-simulate": (
        "from delaylattice import cli; "
        "assert cli.main(['simulate', '--config', sys.argv[1], "
        "'--out', sys.argv[2]]) == 0"),
}


# the package needs scipy.special for Lambert W only, and loads it on first
# use: it doubles the import time, and a simulation never calls it.
# scipy.optimize (and the scipy.linalg it pulls in) is never needed
@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.special"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_leaves_module_unloaded(tmp_path, entry, module):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "model": "fhn", "M": 2, "N": 2, "params": {"I": 0.5}, "C": 1.0,
        "delay": {"homogeneous": 1.0}, "sim": {"t_end": 1.0, "dt": 0.05}}))
    code = (f"import sys; {ENTRY_POINTS[entry]}; "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(config),
                          str(tmp_path / "run")],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
