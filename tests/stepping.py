"""One full step of the leapfrog scheme on a copy of a state, for tests.

It drives the engine's own stepper, so a step here gives the bits of a step
inside ``run``; the engine's exact and oracle tests step by hand with it.
"""

from __future__ import annotations

from dataclasses import replace

from fdtdkit.backends import Backend, StencilExecutor
from fdtdkit.engine import UpdateCoefficients, _stepper
from fdtdkit.model import FieldState, SourceSpec, require_matching


def step(
    state: FieldState,
    coeff: UpdateCoefficients,
    source: SourceSpec | None,
    deltat: float,
    backend: Backend = Backend.serial(),
) -> FieldState:
    """One full step on a copy of ``state``: source write, H update, E update.

    ``source=None`` advances the fields without driving them. The input state
    is left untouched; the result owns its arrays and carries step count + 1.
    Coefficients must match the state in shape and dtype, so every cell has
    its factors and all arithmetic stays in the state's precision, and a
    source must lie inside the state's grid.
    """
    require_matching(ez=state.ez, cea=coeff.cea)
    if source is not None:
        source.validate_for_extent(state.ez.shape)
    n = state.step + 1
    out = replace(state.copy(), step=n)
    with StencilExecutor(backend) as executor:
        _stepper(out, coeff, source, deltat, executor)(n)
    return out
