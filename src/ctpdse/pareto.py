"""Pareto-front extraction over (BDR, BDDE) points and profile selection.

Dominance is weak on both axes with at least one strict: lower bit-rate
overhead and lower energy are both better. From a front three profile
families are picked: EE (minimum energy), EBE (minimum energy + rate sum)
and LBE (front members below a bit-rate-increase threshold).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import ConfigError

DEFAULT_LBE_THRESHOLD = 5.0


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
        if not self.lbe_bdr_threshold > 0:
            raise ConfigError(
                f"lbe_bdr_threshold must be > 0, got {self.lbe_bdr_threshold}"
            )


def _dominates(p: ProfilePoint, q: ProfilePoint) -> bool:
    return (
        p.bdr <= q.bdr
        and p.bdde <= q.bdde
        and (p.bdr < q.bdr or p.bdde < q.bdde)
    )


def pareto_front(points: Sequence[ProfilePoint]) -> list[ProfilePoint]:
    """Non-dominated subset, sorted by ascending bdr, duplicates collapsed.

    Exact coordinate duplicates keep one representative, the first in
    label order.
    """
    if not points:
        raise ConfigError("cannot compute a Pareto front of zero points")
    by_coord: dict[tuple[float, float], ProfilePoint] = {}
    for point in points:
        key = (point.bdr, point.bdde)
        kept = by_coord.get(key)
        if kept is None or point.label < kept.label:
            by_coord[key] = point
    unique = list(by_coord.values())
    front = [
        p for p in unique
        if not any(_dominates(q, p) for q in unique)
    ]
    front.sort(key=lambda p: (p.bdr, p.bdde))
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
        writer.writerow(["bdr", "bdde"])
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
    """Read a two-column (bdr, bdde) CSV; ``#`` comment lines are skipped."""
    points = []
    with open(path, newline="", encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty points file") from None
    if [h.strip() for h in header] != ["bdr", "bdde"]:
        raise ConfigError(f"{path}: expected header 'bdr,bdde', got {','.join(header)!r}")
    for i, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ConfigError(f"{path}:{i}: expected 2 fields, got {len(row)}")
        try:
            points.append(ProfilePoint(bdr=float(row[0]), bdde=float(row[1])))
        except ValueError:
            raise ConfigError(f"{path}:{i}: not a number: {row!r}") from None
    return points
