"""Least-squares R-squared, for checking the shape of a scaling curve."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from motionlink.errors import ConfigError


def fit_r2(x: Sequence[float], y: Sequence[float]) -> float:
    """R-squared of the least-squares line of y against x.

    Pass transformed abscissae to test other shapes, e.g. x = p**2 for a
    quadratic-growth check.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 3:
        raise ConfigError("need at least three (x, y) points")
    coeffs = np.polyfit(x, y, 1)
    pred = np.polyval(coeffs, x)
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot
