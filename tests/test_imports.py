import subprocess
import sys
from pathlib import Path

import oqrw


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported lazily by the few functions that need it, so starting
    # the command line does not pay for it
    code = "import sys, oqrw.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(oqrw.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_distribution_module_is_not_shadowed():
    import oqrw.distribution as m
    from oqrw import distribution

    assert distribution is m
    assert m.__name__ == "oqrw.distribution"
    assert hasattr(m, "Distribution")
