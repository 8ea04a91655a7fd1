"""Float node arrays: one quantity at many points at once.

The closed forms of :mod:`~tubeflow.polydisc` and
:mod:`~tubeflow.expansion` are arithmetic-generic, so a :class:`NodeArray`
coefficient or argument runs one formula on every axis node, or on every
point of a disc grid such as :func:`polar_grid`.  Of the three, only this
module imports numpy when it loads; the exact layer leaves numpy unloaded
until it is handed float data.
"""

from __future__ import annotations

from functools import lru_cache
from math import pi

import numpy as np


class NodeArray(np.ndarray):
    """One quantity at many points, for a formula to run on all at once:
    every axis node of a closed form, or every disc point of a grid that
    :meth:`~tubeflow.polydisc.DiscPoly.evaluate` tabulates.

    Arithmetic is numpy's elementwise IEEE arithmetic, which gives each
    point the bits of the same formula on Python floats, except for
    ``**``: here it is each point's Python-float power (an array
    ``x ** k`` may differ from the scalar one in the last bit).  An array
    made by ``NodeArray(values)`` is read-only and keeps each power it
    returns, read-only too, so ``x ** k`` is the same object on every
    call; the results of arithmetic are computed afresh.

    Zero means falsy: the truth value is "some point is nonzero" (NaN
    counts, +-0.0 does not), a Python ``bool`` at the cost of one
    ``count_nonzero``.  So :class:`~tubeflow.polydisc.DiscPoly` keeps a
    coefficient that is nonzero anywhere, and it is 0.0 at the points
    where a scalar polynomial would drop it.  Times an exact table (disc
    moments, Fourier modes), a node array takes the table's float, so it
    stays a float array with each point's scalar bits.  A zero polynomial
    evaluates to the int 0; :meth:`broadcast` spreads such a scalar over
    the points.
    """

    def __new__(cls, values):
        out = np.array(values, dtype=float).view(cls)
        out.flags.writeable = False
        out._powers = {}
        return out

    def __pow__(self, k):
        # an arithmetic result may be written to, so it keeps no powers
        powers = getattr(self, "_powers", {})
        out = powers.get(k)
        if out is None:
            out = powers[k] = NodeArray([x**k for x in self.tolist()])
        return out

    def __bool__(self):
        # a Python bool: `if` raises TypeError on a numpy.bool from here
        return bool(np.count_nonzero(self))

    def broadcast(self, value):
        """``value``, an array over the points or a scalar, as one float
        per point (read-only)."""
        return np.broadcast_to(np.asarray(value, dtype=float), self.shape)


@lru_cache(maxsize=None)
def polar_grid(n_rings):
    """(s2, s3, z2, z3) at the centre of each cell of a polar grid on the
    unit disc with ``n_rings`` rings and 2 ``n_rings`` sectors, ring by ring.

    Radii are half-offset ((i + 1/2) / n_rings) so the axis point, where the
    angle is ambiguous, is never sampled.  s2 and s3 are read-only float
    arrays, z2 and z3 :class:`NodeArray`, so one
    :meth:`~tubeflow.polydisc.DiscPoly.evaluate` tabulates a polynomial on
    the whole grid.
    """
    n_sectors = 2 * n_rings
    points = []
    for i in range(n_rings):
        s3 = (i + 0.5) / n_rings
        for j in range(n_sectors):
            s2 = 2 * pi * j / n_sectors
            points.append((s2, s3, float(s3 * np.cos(s2)),
                           float(s3 * np.sin(s2))))
    s2, s3, z2, z3 = zip(*points)
    s2, s3 = np.array(s2), np.array(s3)
    s2.flags.writeable = s3.flags.writeable = False
    return s2, s3, NodeArray(z2), NodeArray(z3)
