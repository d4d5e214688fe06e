"""Command-line entry points: show, dse, bd, pareto.

All commands are pipe-friendly: machine output goes to files, diagnostics
to stderr, and exit codes are stable (0 ok, 2 config error, 3 measurement
miss, 4 evaluator/process failure). Configuration comes only from flags;
environment variables are never read, so a run is fully described by its
manifest and reruns with equal manifests are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .curves import BdReport, QualityAxis, aggregate_reports, bd_report
from .engine import (
    DEFAULT_MAX_ITERATIONS,
    STRATEGIES,
    DseConfig,
    parse_strategy,
    report_from_dict,
    result_to_document,
    run_dse,
)
from .errors import ConfigError, CtpDseError, MeasurementMissError
from .evaluators import (
    CachedTableEvaluator,
    EvaluationRequest,
    ExternalCommandEvaluator,
    SyntheticModelEvaluator,
    SyntheticModelParams,
    ingest_measurements,
)
from .manifest import build_manifest, canonical_json, file_digest, manifest_digest, registry_digest
from .pareto import (
    DEFAULT_LBE_THRESHOLD,
    ProfilePoint,
    SelectionCriteria,
    read_points_csv,
    select_profiles,
    write_plot_data,
)
from .profiles import default_ctp, default_registry, load_registry, parse_ctp, serialize_ctp

DEFAULT_QPS = (22, 27, 32, 37)  # JVET common-test-condition convention
DEFAULT_SYNTH_SEQUENCES = ("s01", "s02")


def _pct(value: float) -> str:
    return f"{value:.2f}"


def _load_registry(args):
    if args.registry:
        return load_registry(args.registry)
    return default_registry()


def _split_csv(text: str) -> tuple[str, ...]:
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    if not items:
        raise ConfigError(f"empty list: {text!r}")
    return items


def _parse_qps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(q) for q in _split_csv(text))
    except ValueError:
        raise ConfigError(f"qps must be integers, got {text!r}") from None


def _profile_points(reports, axis: QualityAxis) -> list[ProfilePoint]:
    """One (BDR, BDDE) point on ``axis`` per (mask, report) pair."""
    return [ProfilePoint(*report.pair(axis), label=mask) for mask, report in reports]


def cmd_show(args) -> int:
    registry = _load_registry(args)
    if args.profile:
        profile = parse_ctp(args.profile, registry)
    else:
        profile = default_ctp(registry)
    enabled = sum(profile.bits)
    print(f"registry {len(registry)} tools  digest {registry_digest(registry)}")
    print(f"profile {serialize_ctp(profile)}  ({enabled} of {len(registry)} tools enabled)")
    print(f"{'bit':>3}  {'tool':<10} {'category':<15} state")
    for i, (tool, bit) in enumerate(zip(registry.tools, profile.bits)):
        print(f"{i:>3}  {tool.name:<10} {tool.category:<15} {'on' if bit else 'off'}")
    return 0


def _table_inputs(args, anchor):
    """Ingest ``--measurements``; sequences and qps default to the anchor's rows."""
    table = ingest_measurements(args.measurements)
    for line in table.diagnostics:
        print(f"measurement: {line}", file=sys.stderr)
    mask = serialize_ctp(anchor)
    sequences = _split_csv(args.sequences) if args.sequences else table.sequences_for(mask)
    if not sequences:
        raise ConfigError(
            f"measurement table has no rows for anchor {mask}; pass --sequences explicitly"
        )
    qps = _parse_qps(args.qps) if args.qps else table.qps_for(mask, sequences[0])
    if not qps:
        raise ConfigError(
            f"measurement table has no qps for anchor {mask} on "
            f"{sequences[0]!r}; pass --qps explicitly"
        )
    return table, sequences, qps


def _resolve_run_inputs(args, registry, anchor):
    """Build the evaluator plus the effective sequence/qp lists."""
    backend = args.backend
    sequences = _split_csv(args.sequences) if args.sequences else None
    qps = _parse_qps(args.qps) if args.qps else None
    inputs: dict[str, str] = {}

    if backend == "cached":
        if not args.measurements:
            raise ConfigError("--backend cached requires --measurements")
        inputs["measurements"] = file_digest(args.measurements)
        table, sequences, qps = _table_inputs(args, anchor)
        return CachedTableEvaluator(table), sequences, qps, inputs

    if backend == "synthetic":
        sequences = sequences or DEFAULT_SYNTH_SEQUENCES
        qps = qps or DEFAULT_QPS
        params = SyntheticModelParams.random(registry, sequences, qps, seed=args.seed)
        return SyntheticModelEvaluator(params), sequences, qps, inputs

    if backend == "external":
        if not args.command_template:
            raise ConfigError("--backend external requires --command-template")
        if sequences is None:
            raise ConfigError("--backend external requires --sequences")
        qps = qps or DEFAULT_QPS
        evaluator = ExternalCommandEvaluator(
            args.command_template, max_parallel=args.max_parallel
        )
        return evaluator, sequences, qps, inputs

    raise ConfigError(f"unknown backend {backend!r}")


def _write_summary(path, digest, config, args, result, selection) -> None:
    lines = [f"# manifest: {digest}"]
    lines.append(
        f"strategy {config.strategy}  axis {config.quality_axis.value}  "
        f"backend {args.backend}  anchor {serialize_ctp(config.anchor)}"
    )
    lines.append(
        f"sequences {','.join(config.sequences)}  "
        f"qps {','.join(str(q) for q in config.qps)}  "
        f"max-iter {config.max_iterations}"
    )
    lines.append("")
    lines.append(f"{'iter':>4}  {'reference':<10} {'score':>9}  {'flips':<24} next")
    for log in result.logs:
        flips = ",".join(log.reference.registry.tools[j].name for j in log.flipped_tools)
        lines.append(
            f"{log.index:>4}  {serialize_ctp(log.reference):<10} "
            f"{_pct(log.reference_score):>9}  {flips or '(none)':<24} "
            f"{serialize_ctp(log.next_reference)}"
        )
    lines.append("")
    lines.append(
        f"terminated after {len(result.logs)} iterations: "
        f"{result.termination_reason.value}"
    )
    bdr, bdde = result.terminal_report().pair(config.quality_axis)
    lines.append(
        f"terminal {serialize_ctp(result.terminal_reference)}  "
        f"BDR {_pct(bdr)}  BDDE {_pct(bdde)}"
    )
    lines.append(f"selection (lbe threshold {_pct(args.lbe_threshold)}%):")
    lines.append(f"  EE   {selection.ee.label}  bdr {_pct(selection.ee.bdr)}  "
                 f"bdde {_pct(selection.ee.bdde)}")
    lines.append(f"  EBE  {selection.ebe.label}  bdr {_pct(selection.ebe.bdr)}  "
                 f"bdde {_pct(selection.ebe.bdde)}")
    lines.append(f"  LBE  {len(selection.lbe)} profiles:")
    for point in selection.lbe:
        lines.append(f"    {point.label}  bdr {_pct(point.bdr)}  bdde {_pct(point.bdde)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_dse(args) -> int:
    registry = _load_registry(args)
    anchor = parse_ctp(args.anchor, registry) if args.anchor else default_ctp(registry)
    objective, flip_policy = parse_strategy(args.strategy)
    evaluator, sequences, qps, inputs = _resolve_run_inputs(args, registry, anchor)
    config = DseConfig(
        objective=objective,
        flip_policy=flip_policy,
        anchor=anchor,
        sequences=tuple(sequences),
        qps=tuple(qps),
        quality_axis=QualityAxis(args.axis),
        max_iterations=args.max_iter,
    )
    if args.registry:
        inputs["registry"] = file_digest(args.registry)
    manifest = build_manifest(
        "dse",
        {
            "strategy": config.strategy,
            "axis": config.quality_axis.value,
            "backend": args.backend,
            "anchor": serialize_ctp(anchor),
            "sequences": list(config.sequences),
            "qps": list(config.qps),
            "max_iterations": config.max_iterations,
            "lbe_threshold": args.lbe_threshold,
            "seed": args.seed,
            "registry_digest": registry_digest(registry),
            "command_template": args.command_template,
        },
        inputs,
    )
    digest = manifest_digest(manifest)
    # The last checks before the walk, so a bad threshold or --out costs no evaluation.
    criteria = SelectionCriteria(args.lbe_threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = run_dse(config, evaluator)

    (out / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8")
    document = {"manifest": manifest, **result_to_document(result, config)}
    (out / "result.json").write_text(canonical_json(document), encoding="utf-8")
    points = _profile_points(
        sorted(((serialize_ctp(c), r) for c, r in result.evaluated.items()),
               key=lambda item: item[0]),
        config.quality_axis,
    )
    selection = select_profiles(points, criteria)
    write_plot_data(points, selection.front, out, comment=f"manifest: {digest}")
    _write_summary(out / "summary.txt", digest, config, args, result, selection)

    bdr, bdde = result.terminal_report().pair(config.quality_axis)
    print(
        f"terminal {serialize_ctp(result.terminal_reference)}  "
        f"bdr {_pct(bdr)}  bdde {_pct(bdde)}  "
        f"({result.termination_reason.value} after {len(result.logs)} iterations)"
    )
    print(f"wrote {out / 'result.json'}")
    return 0


def cmd_bd(args) -> int:
    registry = _load_registry(args)
    anchor = parse_ctp(args.anchor, registry) if args.anchor else default_ctp(registry)
    table, sequences, qps = _table_inputs(args, anchor)
    EvaluationRequest(anchor, tuple(sequences), tuple(qps))
    anchor_mask = serialize_ctp(anchor)

    # ``--axis both`` prints the VMAF columns before the PSNR ones.
    axes = ([QualityAxis.VMAF, QualityAxis.PSNR] if args.axis == "both"
            else [QualityAxis(args.axis)])

    def cells(report: BdReport) -> str:
        return "".join(f" {_pct(value):>10}" for axis in axes for value in report.pair(axis))

    anchor_curves = {s: table.curve(anchor_mask, s, qps) for s in sequences}
    header = f"{'ctp':<10} {'sequence':<16}" + "".join(
        f" {label:>10}" for axis in axes for label in (f"BDR-{axis.name}", f"BDDE-{axis.name}")
    )
    print(f"anchor {anchor_mask}  sequences {','.join(sequences)}  "
          f"qps {','.join(str(q) for q in qps)}")
    print(header)
    for text in args.test:
        test = parse_ctp(text, registry)
        mask = serialize_ctp(test)
        reports = []
        for sequence in sequences:
            test_curve = table.curve(mask, sequence, qps)
            report = bd_report(anchor_curves[sequence], test_curve)
            reports.append(report)
            print(f"{mask:<10} {sequence:<16}" + cells(report))
        aggregate = aggregate_reports(reports)
        print(f"{mask:<10} {'aggregate':<16}" + cells(aggregate))
        for warning in aggregate.warnings:
            print(f"warning: {mask}: {warning}", file=sys.stderr)
    return 0


def cmd_pareto(args) -> int:
    source = Path(args.points)
    if args.out:
        target, own = Path(args.out).resolve(), source.resolve()
        if own in (target, *(target / n for n in ("points.csv", "front.csv", "manifest.json"))):
            raise ConfigError(f"--out {args.out} would overwrite the input {args.points}")
    if source.is_dir():
        result_path = source / "result.json"
        if not result_path.is_file():
            raise ConfigError(f"{source} is a directory but contains no result.json")
        document = json.loads(result_path.read_text(encoding="utf-8"))
        axis = QualityAxis(args.axis or document["config"]["quality_axis"])
        points = _profile_points(
            ((mask, report_from_dict(doc)) for mask, doc in document["evaluated"].items()),
            axis,
        )
    else:
        points = read_points_csv(source)
        axis = QualityAxis(args.axis or "vmaf")
    if not points:
        raise ConfigError(f"{source}: no points to select from")
    criteria = SelectionCriteria(args.lbe_threshold)
    selection = select_profiles(points, criteria)

    manifest = build_manifest(
        "pareto",
        {
            "axis": axis.value,
            "lbe_threshold": args.lbe_threshold,
            "source": source.name,
        },
        {"points": file_digest(source if source.is_file() else source / "result.json")},
    )
    digest = manifest_digest(manifest)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8")
        write_plot_data(points, selection.front, out, comment=f"manifest: {digest}")

    def _line(tag: str, point: ProfilePoint) -> str:
        label = point.label or "-"
        return f"{tag:<4} {label:<12} bdr {_pct(point.bdr):>8}  bdde {_pct(point.bdde):>8}"

    print(f"front {len(selection.front)} of {len(points)} points (axis {axis.value})")
    print(_line("EE", selection.ee))
    print(_line("EBE", selection.ebe))
    print(f"LBE  {len(selection.lbe)} profiles with bdr < {_pct(criteria.lbe_bdr_threshold)}%:")
    for point in selection.lbe:
        print("  " + _line("", point))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctp",
        description="Explore coding-tool profiles: greedy search, BD metrics, Pareto selection.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="print a registry and a profile")
    show.add_argument("--registry", help="registry file (default: shipped 30-tool registry)")
    group = show.add_mutually_exclusive_group()
    group.add_argument("--default", action="store_true",
                       help="show the registry's default (anchor) profile")
    group.add_argument("--profile", help="profile as hex mask or off:NAME,...")
    show.set_defaults(func=cmd_show)

    dse = sub.add_parser("dse", help="run the greedy design-space exploration")
    dse.add_argument("--strategy", required=True, choices=tuple(STRATEGIES))
    dse.add_argument("--axis", choices=("psnr", "vmaf"), default="vmaf")
    dse.add_argument("--backend", required=True, choices=("cached", "synthetic", "external"))
    dse.add_argument("--measurements", help="measurement CSV (cached backend)")
    dse.add_argument("--registry")
    dse.add_argument("--anchor", help="anchor profile (default: registry defaults)")
    dse.add_argument("--sequences", help="comma-separated sequence names")
    dse.add_argument("--qps", help="comma-separated qps (default 22,27,32,37)")
    dse.add_argument("--seed", type=int, default=0, help="synthetic model seed")
    dse.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)
    dse.add_argument("--lbe-threshold", type=float, default=DEFAULT_LBE_THRESHOLD)
    dse.add_argument("--command-template",
                     help="external backend command with {sequence} {qp} {ctp_mask} {out}")
    dse.add_argument("--max-parallel", type=int, default=1,
                     help="external backend: most child jobs running at once "
                          "(energy metering wants 1)")
    dse.add_argument("--out", required=True, help="output directory")
    dse.set_defaults(func=cmd_dse)

    bd = sub.add_parser("bd", help="BD table of test profiles against an anchor")
    bd.add_argument("--anchor", help="anchor profile (default: registry defaults)")
    bd.add_argument("--test", action="append", required=True,
                    help="test profile; repeatable")
    bd.add_argument("--measurements", required=True)
    bd.add_argument("--registry")
    bd.add_argument("--axis", choices=("psnr", "vmaf", "both"), default="both")
    bd.add_argument("--sequences")
    bd.add_argument("--qps")
    bd.set_defaults(func=cmd_bd)

    pareto = sub.add_parser("pareto", help="Pareto front and EE/EBE/LBE selection")
    pareto.add_argument("--points", required=True,
                        help="points CSV or a dse output directory")
    pareto.add_argument("--axis", choices=("psnr", "vmaf"),
                        help="BD axis when reading a result directory")
    pareto.add_argument("--lbe-threshold", type=float, default=DEFAULT_LBE_THRESHOLD)
    pareto.add_argument("--out", help="directory for points/front CSVs")
    pareto.set_defaults(func=cmd_pareto)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the diagnostic
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except MeasurementMissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CtpDseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
