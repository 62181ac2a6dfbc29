"""Built-in example families, addressable by catalog name.

Four presets are provided:

``7.1``    in dimension n: the span of the first coordinate vector
           repeated n+1 times, followed by the remaining coordinate
           spans once each; unit weights.  Redundancy range (1, n+1).
``7.1-V``  in dimension n: every coordinate span repeated twice, unit
           weights.  A 2-tight family with redundancy identically 2.
``7.2``    in dimension n: the coordinate spans once each, unit
           weights: an orthonormal fusion basis.
``7.3``    a fixed complex 5-dimensional family of four subspaces with
           two distinct weights; 2-tight with redundancy identically 2
           but robust only against selected erasures.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, UnknownExample
from .fusion import FusionFrame
from .numerics import COMPLEX, REAL

EXAMPLE_NAMES = ("7.1", "7.1-V", "7.2", "7.3")
# Largest dimension of the scalable presets.  Example 7.1 at dimension n
# has 2n members: an n x 2n stacked basis and synthesis matrix, an n x n
# operator, and 2n^2 numbers in its document (`ffk example` at the cap:
# about 70 MB peak, 0.8 s on 2 vCPUs).  Larger n fails before allocating.
EXAMPLE_MAX_DIMENSION = 512


def _coordinate_subspace(indices, n: int, field: str) -> np.ndarray:
    """The orthonormal basis of the coordinate axes ``indices``, one column each."""
    basis = np.zeros((n, len(indices)), dtype=np.complex128 if field == COMPLEX else np.float64)
    basis[indices, np.arange(len(indices))] = 1.0
    return basis


def example_frame(name: str, n: int | None = None) -> FusionFrame:
    """Construct a catalog example.

    ``n`` selects the dimension of the scalable presets (default 4, at
    most ``EXAMPLE_MAX_DIMENSION``) and must be omitted (or 5) for the
    fixed preset ``7.3``.
    """
    if name not in EXAMPLE_NAMES:
        raise UnknownExample(f"no example named {name!r}; choose from {', '.join(EXAMPLE_NAMES)}")
    if name == "7.3":
        if n not in (None, 5):
            raise DimensionMismatch("example 7.3 is fixed in dimension 5")
        spans = ([0, 1, 2], [1, 2, 3], [3, 4], [0, 4])
        weights = (math.sqrt(2.0 / 3.0), 2.0 * math.sqrt(3.0) / 3.0) * 2
        return FusionFrame([_coordinate_subspace(idx, 5, COMPLEX) for idx in spans], weights)
    n = 4 if n is None else int(n)
    if not 2 <= n <= EXAMPLE_MAX_DIMENSION:
        raise DimensionMismatch(f"example {name} requires dimension 2 <= n <= {EXAMPLE_MAX_DIMENSION}, got {n}")
    if name == "7.1":
        axes = [0] * (n + 1) + list(range(1, n))
    elif name == "7.1-V":
        axes = [i for i in range(n) for _ in range(2)]
    else:  # "7.2"
        axes = list(range(n))
    return FusionFrame([_coordinate_subspace([i], n, REAL) for i in axes], [1.0] * len(axes))
