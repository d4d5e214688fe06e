"""Command-line entry points: show, dse, bd, pareto.

All commands are pipe-friendly: machine output goes to files, diagnostics
to stderr, and exit codes are stable (0 ok, 1 standard output closed, 2
config error, 3 measurement miss, 4 evaluator/process failure). An error
line names the profile it is about once. Configuration comes only from flags;
environment variables are never read, so a run is fully described by its
manifest and reruns with equal manifests are byte-identical.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
from pathlib import Path

from . import __version__
from .curves import BdReport, PreparedAnchor, QualityAxis, aggregate_reports, bd_report
from .engine import (
    DEFAULT_MAX_ITERATIONS,
    STRATEGIES,
    DseConfig,
    parse_strategy,
    result_to_document,
    run_dse,
)
from .errors import ConfigError, CtpDseError, MeasurementMissError
from .evaluators import (
    CachedTableEvaluator,
    ExternalCommandEvaluator,
    SyntheticModelEvaluator,
    SyntheticModelParams,
    check_qps,
    check_sequences,
    ingest_measurements,
)
from .manifest import build_manifest, canonical_json, file_digest, manifest_digest, registry_digest
from .pareto import (
    DEFAULT_LBE_THRESHOLD,
    ProfilePoint,
    SelectionCriteria,
    points_csv,
    read_points_csv,
    select_profiles,
)
from .profiles import default_ctp, default_registry, load_registry, parse_ctp, serialize_ctp

DEFAULT_QPS = (22, 27, 32, 37)  # JVET common-test-condition convention
DEFAULT_SYNTH_SEQUENCES = ("s01", "s02")


def _pct(value: float) -> str:
    return f"{value:.2f}"


def _load_registry(args):
    if args.registry is not None:
        return load_registry(args.registry)
    return default_registry()


def _split_csv(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(","))


def _parse_qps(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(q) for q in _split_csv(text))
    except ValueError:
        raise ConfigError(f"qps must be integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _non_empty(text: str) -> str:
    """A path or template flag's value: an empty one is an error, not ``.`` or a missing flag."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _check_out(text: str) -> Path:
    """``--out`` must be missing or an empty directory; this creates nothing."""
    out = Path(text)
    if not out.exists():
        return out
    if not out.is_dir():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), text)
    if any(out.iterdir()):
        raise ConfigError(f"--out {text} is not empty; pass a new or empty directory")
    return out


def _write_outputs(out: Path, texts: dict[str, str]) -> None:
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8")


def _document_points(document: dict, axis: QualityAxis) -> list[ProfilePoint]:
    """One (BDR, BDDE) point on ``axis`` per evaluated profile of a result document, in its order.

    ``ctp dse`` renders a run's points and ``ctp pareto RUN`` reads them back through this one
    function, so both get the same points in the same (mask) order.
    """
    return [ProfilePoint(*BdReport.from_dict(doc).pair(axis), label=mask)
            for mask, doc in document["evaluated"].items()]


def cmd_show(args) -> int:
    registry = _load_registry(args)
    if args.profile is not None:
        profile = parse_ctp(args.profile, registry)
    else:
        profile = default_ctp(registry)
    mask = profile.mask
    enabled = mask.bit_count()
    print(f"registry {len(registry)} tools  digest {registry_digest(registry)}")
    print(f"profile {serialize_ctp(profile)}  ({enabled} of {len(registry)} tools enabled)")
    print(f"{'bit':>3}  {'tool':<10} {'category':<15} state")
    for i, tool in enumerate(registry.tools):
        print(f"{i:>3}  {tool.name:<10} {tool.category:<15} {'on' if mask >> i & 1 else 'off'}")
    return 0


def _run_setup(args):
    """Checked ``--sequences`` and ``--qps`` (each None when absent), the registry and the anchor.

    The flags are checked before the registry is read, and the registry before the anchor.
    """
    sequences = _split_csv(args.sequences) if args.sequences is not None else None
    qps = _parse_qps(args.qps) if args.qps is not None else None
    if sequences is not None:
        check_sequences(sequences)
    if qps is not None:
        check_qps(qps)
    registry = _load_registry(args)
    anchor = parse_ctp(args.anchor, registry) if args.anchor is not None else default_ctp(registry)
    return sequences, qps, registry, anchor


def _table_inputs(args, anchor, sequences, qps):
    """Ingest ``--measurements``; sequences and qps default to the anchor's rows.

    Every sequence must have anchor rows. Without ``--qps``, the qps are the anchor's qps,
    which must be the same on every sequence.
    """
    table = ingest_measurements(args.measurements)
    # One write: stderr is line-buffered, or unbuffered under -u, so a print costs one or two.
    sys.stderr.write("".join(f"measurement: {line}\n" for line in table.diagnostics))
    mask = serialize_ctp(anchor)
    ladders = table.qps_by_sequence(mask)
    sequences = sequences or tuple(ladders)
    if not sequences:
        raise ConfigError(f"measurement table has no rows for anchor {mask}")
    for sequence in sequences:
        if sequence not in ladders:
            raise ConfigError(f"measurement table has no rows for anchor {mask} on {sequence!r}")
    if not qps:
        qps = ladders[sequences[0]]
        for sequence in sequences:
            if ladders[sequence] != qps:
                raise ConfigError(
                    f"anchor {mask} has qps {','.join(map(str, qps))} on {sequences[0]!r} but "
                    f"{','.join(map(str, ladders[sequence]))} on {sequence!r}; "
                    f"pass --qps explicitly"
                )
        check_qps(qps)
    return table, sequences, qps


def _resolve_run_inputs(args, registry, anchor, sequences, qps):
    """Build the evaluator plus the effective sequence/qp lists."""
    inputs: dict[str, str] = {}

    if args.backend == "cached":
        if args.measurements is None:
            raise ConfigError("--backend cached requires --measurements")
        inputs["measurements"] = file_digest(args.measurements)
        table, sequences, qps = _table_inputs(args, anchor, sequences, qps)
        return CachedTableEvaluator(table), sequences, qps, inputs

    if args.backend == "synthetic":
        sequences = sequences or DEFAULT_SYNTH_SEQUENCES
        qps = qps or DEFAULT_QPS
        params = SyntheticModelParams.random(registry, sequences, qps, seed=args.seed)
        return SyntheticModelEvaluator(params), sequences, qps, inputs

    # argparse's choices leave only the external backend.
    if args.command_template is None:
        raise ConfigError("--backend external requires --command-template")
    if sequences is None:
        raise ConfigError("--backend external requires --sequences")
    evaluator = ExternalCommandEvaluator(args.command_template, max_parallel=args.max_parallel)
    return evaluator, sequences, qps or DEFAULT_QPS, inputs


def _render_run(document: dict) -> tuple[dict[str, str], str]:
    """A finished run's five files and its ``terminal …`` line, from its result document alone.

    The document embeds the run's manifest, whose config holds every setting rendered here.
    """
    manifest = document["manifest"]
    run = manifest["config"]
    comment = f"manifest: {manifest_digest(manifest)}"
    points = _document_points(document, QualityAxis(run["axis"]))
    selection = select_profiles(points, SelectionCriteria(run["lbe_threshold"]))
    terminal = next(p for p in points if p.label == document["terminal_reference"])
    iterations = document["iterations"]
    reason = document["termination_reason"]

    lines = [f"# {comment}"]
    lines.append(
        f"strategy {run['strategy']}  axis {run['axis']}  "
        f"backend {run['backend']}  anchor {run['anchor']}"
    )
    lines.append(
        f"sequences {','.join(run['sequences'])}  "
        f"qps {','.join(str(q) for q in run['qps'])}  "
        f"max-iter {run['max_iterations']}"
    )
    lines.append("")
    lines.append(f"{'iter':>4}  {'reference':<10} {'score':>9}  {'flips':<24} next")
    for it in iterations:
        lines.append(
            f"{it['index']:>4}  {it['reference']:<10} "
            f"{_pct(it['reference_score']):>9}  {','.join(it['flipped_tools']) or '(none)':<24} "
            f"{it['next_reference']}"
        )
    lines.append("")
    lines.append(f"terminated after {len(iterations)} iterations: {reason}")
    lines.append(f"terminal {terminal.label}  BDR {_pct(terminal.bdr)}  BDDE {_pct(terminal.bdde)}")
    lines.append(f"selection (lbe threshold {_pct(run['lbe_threshold'])}%):")
    lines.append(f"  EE   {selection.ee.label}  bdr {_pct(selection.ee.bdr)}  "
                 f"bdde {_pct(selection.ee.bdde)}")
    lines.append(f"  EBE  {selection.ebe.label}  bdr {_pct(selection.ebe.bdr)}  "
                 f"bdde {_pct(selection.ebe.bdde)}")
    lines.append(f"  LBE  {len(selection.lbe)} profiles:")
    for point in selection.lbe:
        lines.append(f"    {point.label}  bdr {_pct(point.bdr)}  bdde {_pct(point.bdde)}")
    files = {
        "manifest.json": canonical_json(manifest),
        "result.json": canonical_json(document),
        "points.csv": points_csv(points, comment),
        "front.csv": points_csv(selection.front, comment),
        "summary.txt": "\n".join(lines) + "\n",
    }
    stdout = (f"terminal {terminal.label}  bdr {_pct(terminal.bdr)}  bdde {_pct(terminal.bdde)}  "
              f"({reason} after {len(iterations)} iterations)")
    return files, stdout


def cmd_dse(args) -> int:
    out = _check_out(args.out)
    SelectionCriteria(args.lbe_threshold)  # checked before the walk, rendered from the manifest
    sequences, qps, registry, anchor = _run_setup(args)
    objective, flip_policy = parse_strategy(args.strategy)
    evaluator, sequences, qps, inputs = _resolve_run_inputs(args, registry, anchor,
                                                            sequences, qps)
    config = DseConfig(
        objective=objective,
        flip_policy=flip_policy,
        anchor=anchor,
        sequences=tuple(sequences),
        qps=tuple(qps),
        quality_axis=QualityAxis(args.axis),
        max_iterations=args.max_iter,
    )
    if args.registry is not None:
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
    # Created only once every check has passed, so a config error leaves no directory.
    out.mkdir(parents=True, exist_ok=True)

    body = run_dse(config, evaluator)

    files, terminal = _render_run({"manifest": manifest, **result_to_document(body, config)})
    _write_outputs(out, files)
    print(terminal)
    print(f"wrote {out / 'result.json'}")
    return 0


def cmd_bd(args) -> int:
    sequences, qps, registry, anchor = _run_setup(args)
    tests = [parse_ctp(text, registry) for text in args.test]
    table, sequences, qps = _table_inputs(args, anchor, sequences, qps)
    anchor_mask = serialize_ctp(anchor)

    # ``--axis both`` prints the VMAF columns before the PSNR ones.
    axes = ([QualityAxis.VMAF, QualityAxis.PSNR] if args.axis == "both"
            else [QualityAxis(args.axis)])

    def cells(report: BdReport) -> str:
        return "".join(f" {_pct(value):>10}" for axis in axes for value in report.pair(axis))

    header = f"{'ctp':<10} {'sequence':<16}" + "".join(
        f" {label:>10}" for axis in axes for label in (f"BDR-{axis.name}", f"BDDE-{axis.name}")
    )
    # An error carries the profile whose curves or report it is about: the
    # anchor's until the first test starts, then each test's.
    failed = anchor
    try:
        anchors = {s: PreparedAnchor(table.curve(anchor_mask, s, qps)) for s in sequences}
        print(f"anchor {anchor_mask}  sequences {','.join(sequences)}  "
              f"qps {','.join(str(q) for q in qps)}")
        print(header)
        for test in tests:
            failed = test
            mask = serialize_ctp(test)
            reports = []
            for sequence in sequences:
                report = bd_report(anchors[sequence], table.curve(mask, sequence, qps))
                reports.append(report)
                print(f"{mask:<10} {sequence:<16}" + cells(report))
            aggregate = aggregate_reports(reports)
            print(f"{mask:<10} {'aggregate':<16}" + cells(aggregate))
            for warning in aggregate.warnings:
                print(f"warning: {mask}: {warning}", file=sys.stderr)
    except CtpDseError as exc:
        exc.failed_ctp = failed
        raise
    return 0


def _result_points(path: Path, axis_flag: str | None):
    """The points of a ``ctp dse`` result.json, on ``axis_flag`` or the run's own axis."""
    try:
        document = json.loads(path.read_text(encoding="utf-8-sig"))
        axis = QualityAxis(axis_flag or document["config"]["quality_axis"])
        return _document_points(document, axis), axis
    except KeyError as exc:
        raise ConfigError(f"{path}: not a ctp dse result, no key {exc}") from None
    except (AttributeError, ConfigError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a ctp dse result: {exc}") from None


def cmd_pareto(args) -> int:
    out = _check_out(args.out) if args.out is not None else None
    criteria = SelectionCriteria(args.lbe_threshold)
    source = Path(args.points)
    if source.is_dir():
        result_path = source / "result.json"
        if not result_path.is_file():
            raise ConfigError(f"{source} is a directory but contains no result.json")
        points, axis = _result_points(result_path, args.axis)
    else:
        points = read_points_csv(source)
        axis = QualityAxis(args.axis or "vmaf")
    if not points:
        raise ConfigError(f"{source}: no points to select from")
    selection = select_profiles(points, criteria)

    if out is not None:
        manifest = build_manifest(
            "pareto",
            {
                "axis": axis.value,
                "lbe_threshold": args.lbe_threshold,
                "source": source.name,
            },
            {"points": file_digest(source if source.is_file() else source / "result.json")},
        )
        comment = f"manifest: {manifest_digest(manifest)}"
        out.mkdir(parents=True, exist_ok=True)
        _write_outputs(out, {
            "manifest.json": canonical_json(manifest),
            "points.csv": points_csv(points, comment),
            "front.csv": points_csv(selection.front, comment),
        })

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
    dse.add_argument("--measurements", type=_non_empty, help="measurement CSV (cached backend)")
    dse.add_argument("--registry")
    dse.add_argument("--anchor", help="anchor profile (default: registry defaults)")
    dse.add_argument("--sequences", help="comma-separated sequence names")
    dse.add_argument("--qps", help="comma-separated qps (default 22,27,32,37)")
    dse.add_argument("--seed", type=int, default=0, help="synthetic model seed")
    dse.add_argument("--max-iter", type=_positive_int, default=DEFAULT_MAX_ITERATIONS)
    dse.add_argument("--lbe-threshold", type=float, default=DEFAULT_LBE_THRESHOLD)
    dse.add_argument("--command-template", type=_non_empty,
                     help="external backend command with {sequence} {qp} {ctp_mask} {out}")
    dse.add_argument("--max-parallel", type=_positive_int, default=1,
                     help="external backend: most child jobs running at once "
                          "(energy metering wants 1)")
    dse.add_argument("--out", required=True, type=_non_empty,
                     help="new or empty output directory")
    dse.set_defaults(func=cmd_dse)

    bd = sub.add_parser("bd", help="BD table of test profiles against an anchor")
    bd.add_argument("--anchor", help="anchor profile (default: registry defaults)")
    bd.add_argument("--test", action="append", required=True,
                    help="test profile; repeatable")
    bd.add_argument("--measurements", required=True, type=_non_empty)
    bd.add_argument("--registry")
    bd.add_argument("--axis", choices=("psnr", "vmaf", "both"), default="both")
    bd.add_argument("--sequences")
    bd.add_argument("--qps")
    bd.set_defaults(func=cmd_bd)

    pareto = sub.add_parser("pareto", help="Pareto front and EE/EBE/LBE selection")
    pareto.add_argument("--points", required=True, type=_non_empty,
                        help="points CSV or a dse output directory")
    pareto.add_argument("--axis", choices=("psnr", "vmaf"),
                        help="BD axis when reading a result directory")
    pareto.add_argument("--lbe-threshold", type=float, default=DEFAULT_LBE_THRESHOLD)
    pareto.add_argument("--out", type=_non_empty,
                        help="new or empty directory for points/front CSVs")
    pareto.set_defaults(func=cmd_pareto)

    return parser


def _error(exc: Exception) -> None:
    """One ``error:`` line; a failure on one profile's curves or report names the profile."""
    failed = getattr(exc, "failed_ctp", None)
    where = f"profile {serialize_ctp(failed)}: " if failed is not None else ""
    print(f"error: {where}{exc}", file=sys.stderr)


def main(argv=None) -> int:
    # The imports' objects live until exit; frozen, no later collection walks them, nor those at
    # exit (about 10 ms a process). Cost: a reference cycle made before this is never freed.
    gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the diagnostic
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        # Flushed inside the try, so that a closed standard output raises here, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of standard output has gone. Standard output now points at
        # the null device, so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MeasurementMissError as exc:
        _error(exc)
        return 3
    except (ConfigError, OSError) as exc:
        _error(exc)
        return 2
    except CtpDseError as exc:
        _error(exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
