"""The benchmark's tracer still finds every name it wraps.

`perfbench/tracer.py` wraps functions and methods by their module and
attribute path.  A traced name that moves or becomes an alias would
otherwise show up only when the benchmark runs.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent

SCRIPT = """
import functools, importlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer

def bound(mod, path):
    module = importlib.import_module("assoclab." + mod)
    return functools.reduce(getattr, path.split("."), module)

before = {prefix: bound(mod, path) for mod, path, prefix, _ in tracer.TARGETS}
session = tracer.install()
unbound = [p for m, path, p, _ in tracer.TARGETS if bound(m, path) is before[p]]
from assoclab import barcx
ok = barcx.check_series_shuffle_bar((2,), (1,))
calls = session.snapshot()["counters"].get("barcx.BarElement.shuffle.calls")
print(json.dumps({"unbound": unbound, "ok": ok, "shuffle_calls": calls}))
"""


def test_tracer_binds_every_target_and_counts_bar_shuffles():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"unbound": [], "ok": True, "shuffle_calls": 1}
