"""The Yee scheme's exact discrete energy, for conservation and loss tests.

With ``before`` the state at step n (E^n, H^(n-1/2)) and ``after`` the next
one (H^(n+1/2)), the energy at step n is::

    W^n = sum(eps * E^n . E^n) + sum(mu * H^(n-1/2) . H^(n+1/2))

Without loss or sources, and with every frozen cell at zero, the leapfrog
update keeps ``W^n`` constant to rounding: the forward difference that feeds
H and the backward difference that feeds E are minus each other's transpose.
Loss only drains it. The plain ``eps*|E|^2 + mu*|H|^2`` at one step is not
conserved: it swings by several percent as the wave moves.
"""

from __future__ import annotations

import numpy as np


def discrete_energy(before, after, materials) -> float:
    """``W`` at ``before``'s step; ``after`` is the state one step later."""
    total = 0.0
    for name, arr in before.components().items():
        if name[0] == "e":
            total += float(np.sum(materials.epsilon * arr * arr))
        else:
            total += float(np.sum(materials.mu * arr * getattr(after, name)))
    return total
