"""Write ``checkpoint_v2.json``, a version-2 checkpoint of the toy dual_cnn.

    PYTHONPATH=src python3 tests/data/make_checkpoint_v2.py

The file is a fixture: ``test_a_checked_in_version_2_checkpoint_still_loads``
reads it and compares its parameters and norm block with ``flat_values`` and
``NORM`` below. Regenerate it only for a deliberate change of the checkpoint
format, and say so where the change is described.
"""

from pathlib import Path

import numpy as np

from radarpose.gradcheck import toy_config
from radarpose.model import ModelParams, param_count, save_checkpoint

FIXTURE_PATH = Path(__file__).with_name("checkpoint_v2.json")
CONFIG = toy_config("dual_cnn", seed=0)
NORM = {"gt_min": [-1 / 3, 1.1, 0.1], "gt_max": [2 / 3, 3.3, 1.9], "snr_bounds": (2.5, 41.0)}
#: stored first: a negative zero, the least subnormal, the most negative and the least normal float
EDGES = [-0.0, 5e-324, -1.7976931348623157e308, 2.2250738585072014e-308]


def flat_values(n: int) -> np.ndarray:
    """The fixture's ``n`` parameter values: ``EDGES``, then a pattern of correctly
    rounded quotients (the same bits on every IEEE host)."""
    values = (np.arange(n) * 37 % 101 - 50) / 7
    values[: len(EDGES)] = EDGES
    return values


def fixture_params() -> ModelParams:
    return ModelParams(
        config=CONFIG,
        flat=flat_values(param_count(CONFIG)),
        gt_min=np.array(NORM["gt_min"]),
        gt_max=np.array(NORM["gt_max"]),
        snr_bounds=NORM["snr_bounds"],
    )


if __name__ == "__main__":
    save_checkpoint(fixture_params(), FIXTURE_PATH)
    print(f"wrote {FIXTURE_PATH}")
