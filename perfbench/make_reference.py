"""Regenerate ``reference.json`` from the current program's outputs.

    PYTHONPATH=src python3 perfbench/make_reference.py

Only for a change that is meant to alter outputs; say so where the change is
described, since every later run is checked against this file.
"""

import json

from checks import REFERENCE_PATH, REFERENCE_SEED, TOLERANCE, reference_outputs
from workloads import WORKLOADS

if __name__ == "__main__":
    doc = {"seed": REFERENCE_SEED, "tolerance": TOLERANCE}
    doc.update({name: reference_outputs(name) for name in WORKLOADS})
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
