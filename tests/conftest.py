import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import bell3q  # noqa: F401
except ImportError:  # running from a checkout without installing
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture
def held_variant_values():
    """(decomp, strengths, kind, angles) -> every |variant_expectations| value at
    the settings a see-saw held at ``angles`` reaches on each exchanged operator.

    The variant for a pattern is the operator with that pattern's pairs
    exchanged, so the see-saw climbs the operator at the exchanged strengths
    and its setting is exchanged back to the given strengths."""
    from bell3q import SeeSawConfig, Strengths, see_saw_maximize, variant_expectations
    from bell3q.observables import VARIANT_SWAPS, exchange_order

    def values(decomp, strengths, kind, angles):
        config = SeeSawConfig(restarts=8, seed=0, angle_constraints=angles)
        found = []
        for pattern in VARIANT_SWAPS:
            exchanged = Strengths(*strengths.as_array()[list(exchange_order(pattern))])
            result = see_saw_maximize(decomp, exchanged, np.zeros(6), kind, config)
            setting = result.setting.swapped(pattern)
            found.extend(abs(v) for v in variant_expectations(decomp, setting, kind))
        return found
    return values
