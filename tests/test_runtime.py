import os
import subprocess
import sys
import threading

import numpy as np

import geodrev
from geodrev.runtime import ordered_map, thread_cap
from geodrev import reversibility_scan

from conftest import make_class_b_bundle


def test_thread_cap_default(monkeypatch):
    monkeypatch.delenv("GEODREV_THREADS", raising=False)
    assert thread_cap() == 1


def test_ordered_map_preserves_order():
    items = list(range(23))
    assert ordered_map(lambda v: v * v, items) == [v * v for v in items]


def test_direction_scan_identical_under_threading(monkeypatch):
    # the former thread knob is ignored and the scan starts no thread
    bundle = make_class_b_bundle()
    monkeypatch.delenv("GEODREV_THREADS", raising=False)
    unset = reversibility_scan(bundle, (0.0, 0.0), 0.1, 2e-3, 4)

    def refuse(self):
        raise AssertionError("a direction scan started a thread")

    monkeypatch.setenv("GEODREV_THREADS", "3")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    knob = reversibility_scan(bundle, (0.0, 0.0), 0.1, 2e-3, 4)
    assert [y for y, _ in unset] == [y for y, _ in knob]
    np.testing.assert_array_equal(np.array([e for _, e in unset]), np.array([e for _, e in knob]))


def test_cli_import_loads_no_thread_pool():
    code = "import sys, geodrev.cli; print('concurrent.futures' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(geodrev.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "False"
