"""Wear-leveling remap engine (extension).

DNN-Life's encoding policies balance duty-cycles *within* a word; this
package balances *where* the stress lands by remapping logical memory rows to
physical rows over time.  See :mod:`repro.leveling.remap` for the protocol
and :mod:`repro.leveling.policies` for the rotation / start-gap / wear-guided
swap implementations; both aging simulation engines accept a leveler and the
``leveling`` experiment sweeps them against the encoding policies.
"""

from repro.leveling.policies import (
    LEVELER_CHOICES,
    RotationLeveler,
    StartGapLeveler,
    WearSwapLeveler,
    make_leveler,
)
from repro.leveling.remap import (
    SpanTable,
    WearLeveler,
    check_leveler,
    check_permutation,
    mean_duty_from_row_counts,
)

__all__ = [
    "LEVELER_CHOICES",
    "RotationLeveler",
    "SpanTable",
    "StartGapLeveler",
    "WearSwapLeveler",
    "WearLeveler",
    "check_leveler",
    "check_permutation",
    "make_leveler",
    "mean_duty_from_row_counts",
]
