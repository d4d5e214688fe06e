"""Correctness checks on `ctp` outputs, independent of the program's own code paths.

BD values are recomputed from the generated model or table with the
benchmark's own scipy route (a PCHIP antiderivative evaluated at the
overlap bounds, where the program integrates the interpolant directly).
Pareto fronts are recomputed with a sort-and-sweep instead of the
program's pairwise dominance scan. Each check returns a list of error
strings; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import random
import re

import numpy as np
from scipy.interpolate import PchipInterpolator

from gen import ANCHOR_MASK, QPS, SEQUENCES, TOOLS
from stub_encoder import model_point

# (report field, cost index, quality index) into a (rate, psnr, vmaf, energy) point
FIELDS = (
    ("bdr_psnr", 0, 1),
    ("bdr_vmaf", 0, 2),
    ("bdde_psnr", 3, 1),
    ("bdde_vmaf", 3, 2),
)
BD_TOLERANCE = 1e-6
WALK_TOLERANCE = 1e-9
# Half a unit in the last printed place (values are printed with "%.2f").
PRINT_TOLERANCE = 0.005 + 1e-9
BD_SAMPLE = 12


class Antiderivative:
    """log10(cost) against quality, interpolated by PCHIP and integrated once."""

    def __init__(self, points, cost, quality):
        pairs = sorted((p[quality], math.log10(p[cost])) for p in points)
        self.q = np.array([q for q, _ in pairs])
        self.f = PchipInterpolator(self.q, np.array([y for _, y in pairs])).antiderivative()

    def mean_over(self, lo, hi):
        return float(self.f(hi) - self.f(lo)) / (hi - lo)


def bd_percent(anchor: Antiderivative, test: Antiderivative) -> float:
    lo = max(anchor.q[0], test.q[0])
    hi = min(anchor.q[-1], test.q[-1])
    d = test.mean_over(lo, hi) - anchor.mean_over(lo, hi)
    return 100.0 * (10.0 ** d - 1.0)


class BdOracle:
    """Own BD reports against one anchor curve set, anchor integrals built once."""

    def __init__(self, anchor_curves: dict):
        self.anchor = {
            (s, name): Antiderivative(points, cost, quality)
            for s, points in anchor_curves.items()
            for name, cost, quality in FIELDS
        }

    def report(self, sequence, points) -> dict[str, float]:
        return {
            name: bd_percent(self.anchor[(sequence, name)], Antiderivative(points, cost, quality))
            for name, cost, quality in FIELDS
        }


def model_curves(model, mask) -> dict:
    return {s: [model_point(model, mask, s, qp) for qp in QPS] for s in SEQUENCES}


def flip(mask: str, indices) -> str:
    value = int(mask, 16)
    for j in indices:
        value ^= 1 << j
    return f"{value:0{len(mask)}X}"


def sweep_front(points):
    """Pareto front of (bdr, bdde) pairs by sort-and-sweep, ascending bdr."""
    front, best = [], math.inf
    for bdr, bdde in sorted(set(points)):
        if bdde < best:
            front.append((bdr, bdde))
            best = bdde
    return front


def read_pairs(text: str):
    """(bdr, bdde) floats of a points/front CSV, skipping comments and the header."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != "bdr,bdde":
        return None
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


# ---------------------------------------------------------------- dse


def check_dse(doc: dict, model: dict, strategy: str, max_iter: int, front_csv: str) -> list[str]:
    """Greedy invariants, BD spot checks against the model and the front of one walk."""
    errors: list[str] = []
    config = doc["config"]
    expected_config = {
        "strategy": strategy, "sequences": list(SEQUENCES), "qps": list(QPS),
        "max_iterations": max_iter, "anchor": ANCHOR_MASK, "quality_axis": "vmaf",
    }
    for key, value in expected_config.items():
        if config.get(key) != value:
            errors.append(f"config {key} is {config.get(key)!r}, expected {value!r}")
    evaluated = doc["evaluated"]
    energy_only, one_policy = strategy[0] == "e", strategy[1] == "1"

    def score(report):
        return report["bdde_vmaf"] if energy_only else report["bdde_vmaf"] + report["bdr_vmaf"]

    reference, seen, visited = ANCHOR_MASK, {ANCHOR_MASK}, {ANCHOR_MASK}
    previous_score = math.inf
    iterations = doc["iterations"]
    for number, it in enumerate(iterations, start=1):
        where = f"iteration {number}"
        if it["reference"] != reference:
            errors.append(f"{where}: reference {it['reference']} does not continue the walk")
            return errors
        if reference not in evaluated:
            errors.append(f"{where}: reference {reference} was never evaluated")
            return errors
        visited.add(reference)  # an All-policy reference is a multi-flip profile
        reference_score = score(evaluated[reference])
        if it["reference_score"] != reference_score:
            errors.append(f"{where}: reference score disagrees with its report")
        # Flipping every improving tool at once can overshoot, so only the
        # one-flip policy promises strictly decreasing reference scores.
        if one_policy and not reference_score < previous_score:
            errors.append(f"{where}: reference score {reference_score} does not decrease")
        previous_score = reference_score
        if len(it["candidates"]) != TOOLS:
            errors.append(f"{where}: {len(it['candidates'])} candidates, expected {TOOLS}")
        improving = []
        for cand in it["candidates"]:
            mask = cand["ctp"]
            visited.add(mask)
            if mask != flip(reference, [cand["tool_index"]]):
                errors.append(f"{where}: candidate {mask} is not a single flip of {reference}")
            report = evaluated.get(mask)
            if report is None or cand["report"] != report:
                errors.append(f"{where}: candidate {mask} report differs from evaluated")
                continue
            cand_score = score(report)
            if cand["score"] != cand_score or cand["improved"] != (cand_score < reference_score):
                errors.append(f"{where}: candidate {mask} score or improved flag is wrong")
            if cand_score < reference_score:
                improving.append((cand_score, cand["tool_index"], cand["tool"]))
        if one_policy:
            chosen = [min(improving)] if improving else []
        else:
            chosen = sorted(improving, key=lambda c: c[1])
        if it["flipped_tools"] != [c[2] for c in chosen]:
            errors.append(f"{where}: flipped {it['flipped_tools']}, greedy choice is "
                          f"{[c[2] for c in chosen]}")
        next_reference = flip(reference, [c[1] for c in chosen])
        if it["next_reference"] != next_reference:
            errors.append(f"{where}: next reference {it['next_reference']} != {next_reference}")
        if next_reference in seen and number < len(iterations):
            errors.append(f"{where}: walk went on after a repeated reference")
        seen.add(next_reference)
        reference = next_reference

    reason = doc["termination_reason"]
    last = iterations[-1] if iterations else None
    if reason == "repeated-reference":
        if last is None or last["next_reference"] not in {ANCHOR_MASK} | {
            it["reference"] for it in iterations
        }:
            errors.append("terminated as repeated-reference without a repeat")
        elif one_policy and last["flipped_tools"]:
            errors.append("one-flip walk ended in a cycle instead of a local minimum")
        elif not last["flipped_tools"]:
            terminal_score = score(evaluated[last["reference"]])
            for j in range(TOOLS):
                neighbour = evaluated.get(flip(last["reference"], [j]))
                if neighbour is None or score(neighbour) < terminal_score:
                    errors.append(f"terminal is not a one-flip local minimum (tool {j})")
                    break
    elif reason == "max-iterations":
        if len(iterations) != max_iter:
            errors.append(f"max-iterations after {len(iterations)} of {max_iter} iterations")
    else:
        errors.append(f"unknown termination reason {reason!r}")
    if doc["terminal_reference"] != reference:
        errors.append(f"terminal {doc['terminal_reference']} is not the walk's end {reference}")
    if set(evaluated) != visited:
        errors.append(f"evaluated holds {len(evaluated)} profiles, the walk visited {len(visited)}")

    anchor_report = evaluated.get(ANCHOR_MASK, {})
    for name, _, _ in FIELDS:
        if not abs(anchor_report.get(name, math.nan)) <= 1e-9:
            errors.append(f"anchor self-BD {name} is {anchor_report.get(name)!r}, not 0")
    oracle = BdOracle(model_curves(model, ANCHOR_MASK))
    masks = sorted(evaluated)
    sample = random.Random(f"bd-sample-{strategy}").sample(masks, min(BD_SAMPLE, len(masks)))
    for mask in sorted(set(sample) | {doc["terminal_reference"]} & set(evaluated)):
        curves = model_curves(model, mask)
        per_sequence = [oracle.report(s, curves[s]) for s in SEQUENCES]
        for name, _, _ in FIELDS:
            expected = sum(r[name] for r in per_sequence) / len(per_sequence)
            if not abs(evaluated[mask][name] - expected) <= BD_TOLERANCE:
                errors.append(f"{mask} {name} = {evaluated[mask][name]!r}, "
                              f"oracle gives {expected!r}")

    front = read_pairs(front_csv)
    expected_front = sweep_front((r["bdr_vmaf"], r["bdde_vmaf"]) for r in evaluated.values())
    if front != expected_front:
        errors.append("front.csv differs from the sort-and-sweep front of evaluated")
    return errors


def check_same_walk(doc: dict, expected: dict) -> list[str]:
    """An external walk must retrace the synthetic one: same steps, BD within 1e-9."""
    errors = []
    for key in ("terminal_reference", "termination_reason"):
        if doc[key] != expected[key]:
            errors.append(f"{key} {doc[key]!r}, synthetic walk gives {expected[key]!r}")
    steps = [(it["reference"], it["flipped_tools"], it["next_reference"]) for it in doc["iterations"]]
    want = [(it["reference"], it["flipped_tools"], it["next_reference"])
            for it in expected["iterations"]]
    if steps != want:
        errors.append("iterations differ from the synthetic walk")
    if set(doc["evaluated"]) != set(expected["evaluated"]):
        errors.append("evaluated profiles differ from the synthetic walk")
        return errors
    for mask, report in expected["evaluated"].items():
        for name, _, _ in FIELDS:
            if not abs(doc["evaluated"][mask][name] - report[name]) <= WALK_TOLERANCE:
                errors.append(f"{mask} {name} differs from the synthetic walk by more than 1e-9")
                return errors
    return errors


def check_jobs(log_text: str, doc: dict) -> list[str]:
    """Every (profile, sequence, qp) of the walk ran exactly once as a child job."""
    jobs = [tuple(line.split(",")) for line in log_text.splitlines() if line]
    expected = {(m, s, str(q)) for m in doc["evaluated"] for s in SEQUENCES for q in QPS}
    errors = []
    if len(jobs) != len(set(jobs)):
        errors.append(f"{len(jobs) - len(set(jobs))} child jobs ran more than once")
    if set(jobs) != expected:
        errors.append(f"child jobs cover {len(set(jobs))} of {len(expected)} expected triples")
    return errors


# ---------------------------------------------------------------- tables

_NUMBER = r"(-?\d+\.\d\d)"


def check_bd(stdout: str, rows, test_masks) -> list[str]:
    """Every per-sequence and aggregate row of `ctp bd` against the own recomputation."""
    curves: dict[tuple[str, str], list] = {}
    for mask, sequence, _qp, rate, psnr, vmaf, samples in rows:
        curves.setdefault((mask, sequence), []).append(
            (rate, psnr, vmaf, sum(samples) / len(samples))
        )
    sequences = sorted({s for m, s in curves if m == ANCHOR_MASK})
    oracle = BdOracle({s: curves[(ANCHOR_MASK, s)] for s in sequences})
    columns = ("bdr_vmaf", "bdde_vmaf", "bdr_psnr", "bdde_psnr")
    expected_lines = []
    for mask in test_masks:
        reports = [oracle.report(s, curves[(mask, s)]) for s in sequences]
        for sequence, report in zip(sequences, reports):
            expected_lines.append((mask, sequence, [report[c] for c in columns]))
        expected_lines.append(
            (mask, "aggregate", [sum(r[c] for r in reports) / len(reports) for c in columns])
        )
    lines = stdout.splitlines()[2:]
    if len(lines) != len(expected_lines):
        return [f"bd printed {len(lines)} rows, expected {len(expected_lines)}"]
    errors = []
    row = re.compile(r"^(\S+)\s+(\S+)" + r"\s+" + r"\s+".join([_NUMBER] * 4) + r"$")
    for line, (mask, sequence, values) in zip(lines, expected_lines):
        match = row.match(line)
        if match is None or match.group(1) != mask or match.group(2) != sequence:
            errors.append(f"bd row {line!r} is not {mask} {sequence}")
            continue
        printed = [float(v) for v in match.groups()[2:]]
        if any(not abs(p - v) <= PRINT_TOLERANCE for p, v in zip(printed, values)):
            errors.append(f"bd row {line!r} differs from the oracle {values}")
    return errors[:20]


def check_pareto(stdout: str, points_csv: str, front_csv: str, points, lbe_threshold=5.0):
    """Front file, front size and EE/EBE/LBE picks against a sort-and-sweep front."""
    errors = []
    front = sweep_front(points)
    if read_pairs(points_csv) != points:
        errors.append("points.csv does not hold the input points in order")
    if read_pairs(front_csv) != front:
        errors.append("front.csv differs from the sort-and-sweep front")
    lines = stdout.splitlines()
    header = f"front {len(front)} of {len(points)} points (axis vmaf)"
    if not lines or lines[0] != header:
        errors.append(f"first line {lines[:1]!r}, expected {header!r}")
    pick = re.compile(r"^\s*(EE|EBE|)\s+(\S+)\s+bdr\s+" + _NUMBER + r"\s+bdde\s+" + _NUMBER + "$")
    ee = min(points, key=lambda p: (p[1], p[0]))
    ebe = min(points, key=lambda p: (p[1] + p[0], p[0]))
    lbe = [p for p in front if p[0] < lbe_threshold]
    expected = [("EE", ee), ("EBE", ebe)] + [("", p) for p in lbe]
    picked = [pick.match(line) for line in lines[1:3] + lines[4:]]
    if len(picked) != len(expected) or not re.match(rf"^LBE\s+{len(lbe)} profiles", lines[3]):
        errors.append(f"expected EE, EBE and {len(lbe)} LBE lines")
        return errors
    for match, (tag, (bdr, bdde)) in zip(picked, expected):
        if (match is None or match.group(1) != tag or match.group(2) != "-"
                or not abs(float(match.group(3)) - bdr) <= PRINT_TOLERANCE
                or not abs(float(match.group(4)) - bdde) <= PRINT_TOLERANCE):
            errors.append(f"{tag or 'LBE'} pick should be ({bdr}, {bdde})")
    return errors
