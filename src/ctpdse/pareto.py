"""Pareto-front extraction over (BDR, BDDE) points and profile selection.

Dominance is weak on both axes with at least one strict: lower bit-rate
overhead and lower energy are both better. The front is one sorted sweep
(Kung, Luccio & Preparata, J. ACM 22(4), 1975). From a front three profile
families are picked: EE (minimum energy), EBE (minimum energy + rate sum)
and LBE (front members below a bit-rate-increase threshold).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .csvrows import data_rows, parse_float
from .errors import ConfigError
from .frozen import Frozen

DEFAULT_LBE_THRESHOLD = 5.0
POINTS_HEADER = ("bdr", "bdde")


class ProfilePoint(Frozen):
    """One evaluated profile in the (BDR, BDDE) plane.

    Points ingested from plain tables carry only their coordinates.
    """

    __slots__ = ()
    _fields = ("bdr", "bdde", "label")

    def __new__(cls, bdr: float, bdde: float, label: str = ""):
        if not (math.isfinite(bdr) and math.isfinite(bdde)):
            raise ConfigError(f"profile point {label!r} has non-finite coordinates")
        return tuple.__new__(cls, (bdr, bdde, label))


class SelectionCriteria(Frozen):
    __slots__ = ()
    _fields = ("lbe_bdr_threshold",)

    def __new__(cls, lbe_bdr_threshold: float = DEFAULT_LBE_THRESHOLD):
        if not 0 < lbe_bdr_threshold < math.inf:
            raise ConfigError(
                f"lbe_bdr_threshold must be finite and > 0, got {lbe_bdr_threshold}"
            )
        return tuple.__new__(cls, (lbe_bdr_threshold,))


def pareto_front(points: Sequence[ProfilePoint]) -> list[ProfilePoint]:
    """Non-dominated subset, sorted by ascending bdr, duplicates collapsed.

    One sweep over the points sorted by (bdr, bdde, label) keeps a point
    exactly when its bdde is strictly below that of the last kept point.
    Exact coordinate duplicates therefore keep one representative, the
    first in label order, and among equal labels the first in input order.
    """
    if not points:
        raise ConfigError("cannot compute a Pareto front of zero points")
    front: list[ProfilePoint] = []
    # A point is the tuple (bdr, bdde, label), so it sorts by those fields.
    for point in sorted(points, key=tuple):
        if not front or point.bdde < front[-1].bdde:
            front.append(point)
    return front


class Selection(Frozen):
    __slots__ = ()
    _fields = ("front", "ee", "ebe", "lbe")

    def __new__(cls, front: tuple[ProfilePoint, ...], ee: ProfilePoint, ebe: ProfilePoint,
                lbe: tuple[ProfilePoint, ...]):
        return tuple.__new__(cls, (front, ee, ebe, lbe))


def select_profiles(
    points: Sequence[ProfilePoint],
    criteria: SelectionCriteria = SelectionCriteria(),
) -> Selection:
    """Pick the Pareto front and the EE, EBE and LBE profiles out of a point set.

    EE is the point with minimum bdde, EBE the one with minimum
    bdde + bdr (both tie-break to lower bdr); LBE are the front members
    with bdr strictly below the threshold, in ascending bdr order.
    """
    if not points:
        raise ConfigError("cannot select profiles from zero points")
    front = tuple(pareto_front(points))
    ee = min(points, key=lambda p: (p.bdde, p.bdr))
    ebe = min(points, key=lambda p: (p.bdde + p.bdr, p.bdr))
    lbe = tuple(p for p in front if p.bdr < criteria.lbe_bdr_threshold)
    return Selection(front=front, ee=ee, ebe=ebe, lbe=lbe)


def points_csv(points: Iterable[ProfilePoint], comment: str) -> str:
    """Two-column (bdr, bdde) CSV text under one ``# comment`` line; floats written by ``repr``."""
    lines = [f"# {comment}", ",".join(POINTS_HEADER)]
    lines += [f"{bdr!r},{bdde!r}" for bdr, bdde, _ in points]
    return "\n".join(lines) + "\n"


def read_points_csv(path) -> list[ProfilePoint]:
    """Read a two-column (bdr, bdde) CSV, by the rules of ``csvrows.data_rows``."""
    points = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for lineno, (bdr, bdde) in data_rows(handle, POINTS_HEADER, path):
            try:
                points.append(ProfilePoint(parse_float(bdr, "bdr"), parse_float(bdde, "bdde")))
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return points
