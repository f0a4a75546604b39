"""Single series for tests.

A series is a row view of a dataset, so a test that needs one builds a
one-row dataset with `from_arrays` and takes its row: the series is
validated exactly as any dataset row is.
"""
from __future__ import annotations

from motionlink.model import ActivityVectorSeries, MotionDataset, SensorPosition, VisualDataset


def _ramp(n: int) -> list[float]:
    return [1.0 + 0.1 * i for i in range(n)]


def motion_series(source_id: str, codes, mags=None, w: float = 1.0) -> ActivityVectorSeries:
    """The motion series `source_id` with activity `codes` and magnitudes
    `mags`, by default 1.0, 1.1, 1.2, ..."""
    mags = _ramp(len(codes)) if mags is None else mags
    return MotionDataset.from_arrays([source_id], [codes], [mags], w)[0]


def visual_series(source_id: str, codes, mags=None, w: float = 1.0) -> ActivityVectorSeries:
    """The visual series `source_id` with activity `codes`.  `mags` maps a
    position name to its list of magnitudes, None reading as a NaN hole (an
    unobservable window); a position it leaves out gets 1.0, 1.1, 1.2, ..."""
    mags = mags or {}
    rows = [mags.get(p.value, _ramp(len(codes))) for p in SensorPosition]
    return VisualDataset.from_arrays([source_id], [codes], [rows], w)[0]
