"""The demo scripts run and print exactly the text they printed before."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "01_flat_catalogue.py":
        "84e636c4953429aa7e645c606412ccc7510789b18b162557e035de0f5ae0e6d3",
    "02_connected_sums.py":
        "9670dab72bf023777db1a0d3ec358224b6d93ba887ad631fe5e4ee70b6ee68e8",
    "03_tree_of_life.py":
        "b01e8c589e9cdcb4a32d5bd5a9d08d20501fe312ad749b587ce085c341aa4173",
    "04_hyperbolic_gallery.py":
        "ae890f2509fcabe40dbd0a9eed8a7297f801e526a7d806fc8b1a9cdad512bcfc",
    "05_four_dimensional.py":
        "08bbcafcf66d87bccc08e2d55b028171dd693cf4263a18827d356b1058869d3a",
}


@pytest.mark.parametrize(
    "name", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_prints_the_pinned_text(name):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == \
        DEMO_DIGESTS[name]
