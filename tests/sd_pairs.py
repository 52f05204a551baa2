"""Default state pairs for the two-state (sd) cloning tests, as (psi_A, psi_B).

Chosen to span equatorial, real-amplitude and off-equator pairs with
non-orthogonal overlaps; angles in radians.
"""

import math

from vclone.cloner import QubitState

DEFAULT_SD_PAIRS: tuple[tuple[QubitState, QubitState], ...] = (
    (QubitState(math.pi / 4, 0.0), QubitState(math.pi / 4, math.pi / 2)),
    (QubitState(math.pi / 8, 0.0), QubitState(3 * math.pi / 8, 0.0)),
    (QubitState(math.pi / 8, 0.0), QubitState(math.pi / 8, math.pi)),
    (QubitState(math.pi / 6, math.pi / 4), QubitState(math.pi / 3, 5 * math.pi / 4)),
)
