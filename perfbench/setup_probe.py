"""One set-up sample: a fresh interpreter imports tspec.cli and builds the potentials.

Usage: python3 setup_probe.py SRC_DIR POTENTIALS.json

Prints ``ready`` once done; the caller times from process start to that line.
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

import tspec.cli  # noqa: E402,F401
from tspec.potential import Potential, derive_scalars  # noqa: E402

with open(sys.argv[2]) as fh:
    for spec in json.load(fh):
        derive_scalars(Potential.from_dict(spec))
print("ready", flush=True)
