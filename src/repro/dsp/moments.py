"""Sample moments of 1-D float arrays at ufunc level.

``np.mean`` and ``np.std`` route every call through several layers of
Python (argument normalisation, ``_methods._mean``/``_var``, keepdims
handling) that cost more than the reduction itself on the ~60–240-element
vectors of one analysis window.  The functions here issue exactly the
ufunc operations those wrappers issue for a 1-D float64 input, in the same
order, so their results are bit-identical to NumPy's (pinned by the
feature-kernel equivalence tests).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["mean", "sample_std"]


def mean(x: np.ndarray) -> float:
    """``np.mean(x)`` of a non-empty 1-D float64 array: ``sum / n``."""
    return float(np.add.reduce(x) / x.size)


def sample_std(x: np.ndarray) -> float:
    """``np.std(x, ddof=1)`` of a 1-D float64 array with at least 2 entries.

    Deviations from the mean, squared by multiplication, summed, divided by
    ``n - 1``; the square root is correctly rounded in both ``math.sqrt``
    and ``np.sqrt``.
    """
    deviations = x - np.add.reduce(x) / x.size
    np.multiply(deviations, deviations, out=deviations)
    return math.sqrt(np.add.reduce(deviations) / (x.size - 1))
