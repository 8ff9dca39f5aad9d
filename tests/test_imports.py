import subprocess
import sys


def test_package_import_leaves_scipy_optimize_unloaded():
    # the package needs only scipy.special; scipy.optimize (and the
    # scipy.linalg it pulls in) would double the import time
    code = ("import sys, delaylattice; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
