"""Pareto-front extraction over (BDR, BDDE) points and profile selection.

Dominance is weak on both axes with at least one strict: lower bit-rate
overhead and lower energy are both better. The front is one sorted sweep
(Kung, Luccio & Preparata, J. ACM 22(4), 1975). From a front three profile
families are picked: EE (minimum energy), EBE (minimum energy + rate sum)
and LBE (front members below a bit-rate-increase threshold).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .csvrows import data_rows, parse_float
from .errors import ConfigError

DEFAULT_LBE_THRESHOLD = 5.0
POINTS_HEADER = ("bdr", "bdde")


@dataclass(frozen=True)
class ProfilePoint:
    """One evaluated profile in the (BDR, BDDE) plane.

    Points ingested from plain tables carry only their coordinates.
    """

    bdr: float
    bdde: float
    label: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.bdr) and math.isfinite(self.bdde)):
            raise ConfigError(f"profile point {self.label!r} has non-finite coordinates")


@dataclass(frozen=True)
class SelectionCriteria:
    lbe_bdr_threshold: float = DEFAULT_LBE_THRESHOLD

    def __post_init__(self):
        if not 0 < self.lbe_bdr_threshold < math.inf:
            raise ConfigError(
                f"lbe_bdr_threshold must be finite and > 0, got {self.lbe_bdr_threshold}"
            )


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
    for point in sorted(points, key=lambda p: (p.bdr, p.bdde, p.label)):
        if not front or point.bdde < front[-1].bdde:
            front.append(point)
    return front


@dataclass(frozen=True)
class Selection:
    front: tuple[ProfilePoint, ...]
    ee: ProfilePoint
    ebe: ProfilePoint
    lbe: tuple[ProfilePoint, ...]


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


def write_points_csv(points: Iterable[ProfilePoint], path, comment: str | None = None) -> None:
    """Two-column (bdr, bdde) CSV consumable by any plotting tool."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(POINTS_HEADER)
        for point in points:
            writer.writerow([repr(point.bdr), repr(point.bdde)])


def write_plot_data(
    points: Sequence[ProfilePoint],
    front: Sequence[ProfilePoint],
    out_dir,
    comment: str | None = None,
) -> tuple[Path, Path]:
    """Emit ``points.csv`` (all points) and ``front.csv`` (their front)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    points_path = out_dir / "points.csv"
    front_path = out_dir / "front.csv"
    write_points_csv(points, points_path, comment)
    write_points_csv(front, front_path, comment)
    return points_path, front_path


def read_points_csv(path) -> list[ProfilePoint]:
    """Read a two-column (bdr, bdde) CSV, by the rules of ``csvrows.data_rows``."""
    points = []
    with open(path, newline="", encoding="utf-8") as handle:
        for lineno, (bdr, bdde) in data_rows(handle, POINTS_HEADER, path):
            try:
                points.append(ProfilePoint(parse_float(bdr, "bdr"), parse_float(bdde, "bdde")))
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return points
