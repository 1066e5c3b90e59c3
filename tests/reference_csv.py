"""The snapshot CSV written one ``%`` format per row: the definition of the bytes.

``cli.emit_snapshot_csv`` builds its text a block at a time in NumPy; every
byte it writes must equal what this plain loop writes.
"""

import numpy as np


def reference_csv(series) -> str:
    first = series.states[0]
    index = {1: "index", 3: "i,j,k"}[first.NDIM]
    lines = [f"step,{index}," + ",".join(name.capitalize() for name in first.NAMES)]
    for state in series.states:
        columns = [arr.reshape(-1).tolist() for arr in state.components().values()]
        for cell, idx in enumerate(np.ndindex(state.ez.shape)):
            lines.append(",".join([str(state.step), *map(str, idx), *("%.17g" % col[cell] for col in columns)]))
    return "\n".join(lines) + "\n"


def first_difference(written: str, expected: str) -> str | None:
    """The first line where two CSV texts differ, or None if they are equal.

    Tests assert that this is None rather than comparing the texts, so a
    failure reports one line instead of a diff of megabytes.
    """
    if written == expected:
        return None
    for n, (a, b) in enumerate(zip(written.splitlines(), expected.splitlines())):
        if a != b:
            return f"line {n}: wrote {a!r}, %.17g gives {b!r}"
    return f"{len(written)} characters written, {len(expected)} expected"
