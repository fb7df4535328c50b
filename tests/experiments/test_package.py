"""The experiments package imports no driver until one is asked for."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import repro


def test_package_import_loads_no_driver():
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; import repro.experiments; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.experiments.')))"
    )
    source_dir = Path(repro.__file__).parents[1]
    completed = subprocess.run(
        [sys.executable, "-c", code, str(source_dir)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == "[]"


def test_drivers_import_by_name_and_star():
    namespace: dict = {}
    exec("from repro.experiments import *", namespace)
    from repro.experiments import __all__ as drivers, table8

    assert table8.__name__ == "repro.experiments.table8"
    assert all(name in namespace for name in drivers)
