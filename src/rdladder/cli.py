"""Command-line entry points.

Subcommands: ``train`` (fit a model from measurements), ``verify-paper``
(check the built-in model's derived tables against their published
reference values), ``recommend`` (per-GOP advice from a measurement
file), ``plotdata`` (curve and marker samples for external plotting) and
``serve`` (the advisory HTTP endpoint).

Exit codes: 0 success, 1 validation/input error, 2 internal error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .clustering import BitrateGrid, ClusterModelSet, train_details
from .decision import (
    OPERATING_RANGE,
    DecisionConfig,
    DecisionTables,
    Modes,
    ObservationBatch,
    check_target,
    gather_groups,
)
from .errors import RDLadderError, ValidationError
from .ingest import builtin_model, load_model, parse_measurements, save_model
from .rd_model import eval_cubic

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_VERIFY = 3

PLOT_STEP = 0.05


def _parse_grid(spec: str) -> BitrateGrid:
    """Grid flag: either 'lo:hi:count' (linear spacing) or an explicit
    comma-separated bitrate list."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid spec {spec!r} must be lo:hi:count or a comma list")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ValidationError(f"grid spec {spec!r}: bad number") from None
        return BitrateGrid.linspace(lo, hi, count)
    try:
        return BitrateGrid(tuple(float(p) for p in spec.split(",") if p.strip()))
    except ValueError:
        raise ValidationError(f"grid spec {spec!r}: bad number") from None


def _load_model_source(args) -> ClusterModelSet:
    if getattr(args, "paper_model", False):
        return builtin_model()
    return load_model(Path(args.model).read_text(encoding="utf-8"))


def _decision_config(args) -> DecisionConfig:
    return DecisionConfig(vl_psnr=args.vl_psnr, nzs_slope=args.nzs_slope)


def _observations(mset, model_set) -> ObservationBatch:
    """The batch to advise: one observation per GOP, in the order GOPs
    first appear, taken at the highest tier it was measured at that the
    model also knows."""
    best: dict[str, int | None] = {}  # gop_id -> group of that tier
    for g, (gop_id, tier) in enumerate(mset.groups):
        current = best.setdefault(gop_id, None)
        if model_set.has_tier(tier) and (current is None or tier > mset.groups[current][1]):
            best[gop_id] = g
    for gop_id, g in best.items():
        if g is None:
            raise ValidationError(f"gop {gop_id!r}: no measured tier is present in the model")
    groups = list(best.values())
    rows, offsets = gather_groups(mset.offsets, groups)
    return ObservationBatch(
        gop_ids=list(best),
        tiers=[mset.groups[g][1] for g in groups],
        offsets=offsets,
        bitrates=mset.bitrates[rows],
        psnr=mset.psnr[rows],
        errors=[None] * len(groups),
    )


def cmd_train(args) -> int:
    text = Path(args.measurements).read_text(encoding="utf-8")
    mset = parse_measurements(text, source=args.measurements)
    grid = _parse_grid(args.grid) if args.grid else BitrateGrid.default()
    model_set, result = train_details(mset, grid, k=args.k, seed=args.seed)

    Path(args.out).write_text(save_model(model_set), encoding="utf-8")
    gops = len({gop_id for gop_id, _ in mset.groups})
    print(
        f"clustered {len(result.labels)} of {gops} GOPs (measured at every tier): "
        f"inertia {result.inertia:.6f} over {result.n_iter} iterations"
    )
    print(f"model written to {args.out}")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    from .verify import all_passed, render_report, verify_rows

    rows = verify_rows(_decision_config(args))
    if args.format == "json":
        print(json.dumps([row.__dict__ for row in rows], indent=2))
    else:
        print(render_report(rows))
    return EXIT_OK if all_passed(rows) else EXIT_VERIFY


def cmd_recommend(args) -> int:
    model_set = _load_model_source(args)
    cfg = _decision_config(args)
    modes = Modes.parse(args.modes)
    if not modes.any_enabled:
        raise ValidationError("at least one mode must be enabled (--modes)")
    check_target(args.target_bitrate)
    text = Path(args.measurements).read_text(encoding="utf-8")
    mset = parse_measurements(text, source=args.measurements)
    if len(mset) == 0:
        raise ValidationError(f"{args.measurements}: no measurement rows")

    advice = DecisionTables(model_set, cfg).advise(
        _observations(mset, model_set), args.target_bitrate, modes
    )
    if args.format == "json":  # the bytes the service answers with
        print(advice.encode().decode())
        return EXIT_OK
    document = advice.document()
    report = document["savings"]
    if args.format == "csv":
        print("gop_id,cluster,tier,target_bitrate_mbps,proposed_bitrate_mbps,predicted_psnr_db,modes_applied")
        for rec in document["recommendations"]:
            if "error" in rec:
                print(f"# {rec['gop_id']}: {rec['error']}")
            else:
                modes_applied = "+".join(rec["modes_applied"])
                print(
                    f"{rec['gop_id']},{rec['cluster']},{rec['tier']},{rec['target_bitrate']:.3f},"
                    f"{rec['proposed_bitrate']:.3f},{rec['predicted_psnr']:.2f},{modes_applied}"
                )
        if report is not None:
            print(f"# total_target={report['total_target']:.3f}")
            print(f"# total_proposed={report['total_proposed']:.3f}")
            print(f"# saving_percent={report['saving_percent']:.3f}")
    else:
        for rec in document["recommendations"]:
            if "error" in rec:
                print(f"{rec['gop_id']}: ERROR {rec['error']}")
            else:
                print(
                    f"{rec['gop_id']}: cluster {rec['cluster']}, {rec['tier']}, "
                    f"{rec['target_bitrate']:.3f} -> {rec['proposed_bitrate']:.3f} Mbps, "
                    f"predicted {rec['predicted_psnr']:.2f} dB ({rec['rationale']})"
                )
        if report is not None:
            print(
                f"total {report['total_target']:.3f} -> {report['total_proposed']:.3f} Mbps, "
                f"saving {report['saving_percent']:.2f}%"
            )
    return EXIT_OK


def cmd_plotdata(args) -> int:
    model_set = _load_model_source(args)
    cfg = _decision_config(args)
    if args.cluster == "all":
        clusters = list(model_set.clusters)
    else:
        try:
            index = int(args.cluster)
        except ValueError:
            raise ValidationError(f"--cluster must be an index or 'all', got {args.cluster!r}") from None
        if index not in model_set.clusters:
            raise ValidationError(f"unknown cluster index {index}")
        clusters = [index]

    lo, hi = OPERATING_RANGE
    steps = int((hi - lo) / PLOT_STEP + 1e-9) + 1
    bitrates = [lo + PLOT_STEP * i for i in range(steps)]

    tables = DecisionTables(model_set, cfg)

    print("record,cluster,tier,bitrate_mbps,psnr_db")
    for cluster in clusters:
        for tier in model_set.tiers:
            model = model_set.model(cluster, tier)
            for r in bitrates:
                print(f"curve,{cluster},{tier.name},{r:.6g},{eval_cubic(model, r):.6g}")
        ladder = tables.ladders[cluster]
        for bp, left, right in zip(ladder.breakpoints, ladder.tiers, ladder.tiers[1:]):
            psnr = eval_cubic(model_set.model(cluster, right), bp)
            print(f"knee,{cluster},{left.name}/{right.name},{bp:.6g},{psnr:.6g}")
        for tier in model_set.tiers:
            threshold = tables.vl[(cluster, tier)]
            if threshold is not None:
                print(f"vl_threshold,{cluster},{tier.name},{threshold:.6g},{cfg.vl_psnr:.6g}")
            interval = tables.nzs[(cluster, tier)]
            if interval is not None:
                model = model_set.model(cluster, tier)
                for record, r in zip(("nzs_low", "nzs_high"), interval):
                    print(f"{record},{cluster},{tier.name},{r:.6g},{eval_cubic(model, r):.6g}")
    return EXIT_OK


def cmd_serve(args) -> int:
    # Imported here so that the other commands do not load signal or the
    # service.
    import signal

    from .service import make_server

    model_set = _load_model_source(args)
    cfg = _decision_config(args)
    host, _, port_s = args.bind.rpartition(":")
    if not host or not port_s:
        raise ValidationError(f"--bind must be HOST:PORT, got {args.bind!r}")
    try:
        port = int(port_s)
    except ValueError:
        raise ValidationError(f"--bind port {port_s!r} is not an integer") from None
    try:
        server = make_server(model_set, host, port, cfg, quiet=False)
    except (OSError, OverflowError) as exc:  # OverflowError: port outside 0-65535
        raise ValidationError(f"cannot bind {args.bind}: {exc}") from None
    # Ctrl-C and SIGTERM stop the server: it stops accepting, finishes
    # the requests in flight and returns. Set before the address is
    # printed, which is when clients may come.
    previous = {sig: signal.signal(sig, lambda signum, frame: server.stop())
                for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        print(f"advisory endpoint on http://{host}:{server.server_address[1]}/v1/recommend",
              flush=True)
        server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.server_close()
    return EXIT_OK


def _add_model_source(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="path to a model file")
    group.add_argument(
        "--paper-model", action="store_true",
        help="use the built-in reference model instead of a model file",
    )


def _add_decision_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--vl-psnr", type=float, default=40.0,
                        help="visually-lossless quality target in dB (default 40)")
    parser.add_argument("--nzs-slope", type=float, default=0.1,
                        help="near-zero-slope threshold in dB/Mbps (default 0.1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdladder",
        description="Parametric R-D transcoding model: train, verify, recommend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a cluster model from a measurement CSV")
    p.add_argument("measurements", help="measurement CSV path")
    p.add_argument("--out", required=True, help="output model file path")
    p.add_argument("--k", type=int, default=6, help="number of clusters (default 6)")
    p.add_argument("--seed", type=int, default=42, help="clustering seed (default 42)")
    p.add_argument("--grid", help="bitrate grid, lo:hi:count or comma list (default 0.2:6:10)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "verify-paper",
        help="check the built-in model's derived tables against published reference values",
    )
    p.add_argument("--format", choices=("human", "json"), default="human")
    _add_decision_flags(p)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("recommend", help="per-GOP transcoding recommendations")
    _add_model_source(p)
    p.add_argument("measurements", help="measurement CSV path")
    p.add_argument("--target-bitrate", type=float, required=True,
                   help="target transcoding bitrate in Mbps")
    p.add_argument("--modes", default="trans_size,vl,nzs",
                   help="comma list of trans_size,vl,nzs (default all)")
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")
    _add_decision_flags(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("plotdata", help="emit curve samples and markers as CSV")
    _add_model_source(p)
    p.add_argument("--cluster", default="all", help="cluster index or 'all' (default all)")
    _add_decision_flags(p)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("serve", help="run the advisory HTTP endpoint")
    _add_model_source(p)
    p.add_argument("--bind", default="127.0.0.1:8080", help="HOST:PORT (default 127.0.0.1:8080)")
    _add_decision_flags(p)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are input errors here.
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except RDLadderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # The reader went away (`| head`): there is no one left to answer.
        # Point stdout at devnull so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
