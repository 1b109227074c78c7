"""Command-line interface: regenerate any figure of the paper.

Examples
--------
::

    repro list
    repro run fig4a --scale smoke
    repro run fig3a fig3b --scale paper --out results/
    repro run fig6a --invariants
    repro all --scale smoke
    repro availability --scale smoke --loss 0 0.05 --replication 1 2
    repro chaos --smoke --seed 0
    repro durability --smoke --seed 0
    repro durability --policies replication:2 erasure:2+1 --systems LORM
    repro tail --smoke --seed 0
    repro hotspot --smoke --seed 0
    repro hotspot --systems SWORD --zipf-s 0 1.1 --out results/
    repro tradeoff --smoke --seed 0
    repro tradeoff --overlays singlehop record:f4 --out results/
    repro trace --system maan --overlay singlehop --format jsonl
    repro check --systems all --seed 0
    repro bench --smoke --seed 0
    repro bench compare benchmarks/baseline.json BENCH_20260805T120000Z.json
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from collections.abc import Callable, Sequence
from typing import NamedTuple

from repro.experiments.config import PAPER_CONFIG, SMOKE_CONFIG, ExperimentConfig
from repro.experiments.gates import verdict
from repro.experiments.runner import FIGURES, run_all_figures, run_figure

__all__ = ["main", "build_parser"]

_SCALES = {"paper": PAPER_CONFIG, "smoke": SMOKE_CONFIG}


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Shen & Xu (ICPP 2009): DHT algorithms for "
            "range-query and multi-attribute resource discovery in grids."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available figures")

    run_p = sub.add_parser("run", help="run one or more figures")
    run_p.add_argument("figures", nargs="+", choices=sorted(FIGURES), metavar="FIGURE")
    _add_common(run_p)
    _add_parallel(run_p)

    all_p = sub.add_parser("all", help="run every figure")
    _add_common(all_p)
    _add_parallel(all_p)

    avail_p = sub.add_parser(
        "availability",
        help="query completeness under message loss x replication",
    )
    _add_common(avail_p)
    avail_p.add_argument(
        "--loss",
        type=float,
        nargs="+",
        default=None,
        metavar="RATE",
        help="message-loss rates to sweep (e.g. --loss 0 0.05 0.1)",
    )
    avail_p.add_argument(
        "--replication",
        type=int,
        nargs="+",
        default=None,
        metavar="R",
        help="replication factors to sweep (e.g. --replication 1 2 3)",
    )
    avail_p.add_argument(
        "--queries",
        type=int,
        default=None,
        help="multi-attribute queries per (loss, replication) cell",
    )

    _add_gated(
        sub,
        "chaos",
        "seeded chaos-timeline demo: partition heal + crash burst "
        "under budgeted maintenance; exits non-zero unless every system "
        "reconverges (and the budget=0 control does NOT)",
    )

    durability_p = _add_gated(
        sub,
        "durability",
        "redundancy-policy sweep: successor/symmetric replication and "
        "erasure coding through chaos timelines, reporting pieces lost, "
        "data time-to-recover and repair bandwidth per policy; exits "
        "non-zero unless every cell recovers its surviving data",
    )
    durability_p.add_argument(
        "--policies",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="policy specs to sweep: replication:R | symmetric:R | "
        "erasure:K+M, optionally @successor/@symmetric "
        "(default: replication:2 symmetric:2 erasure:2+1)",
    )
    durability_p.add_argument(
        "--systems",
        nargs="+",
        default=None,
        metavar="SYSTEM",
        help="systems to subject to the sweep (default: LORM Mercury)",
    )
    durability_p.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        choices=["demo", "crash-storm"],
        help="chaos timelines to run (default: both)",
    )

    hotspot_p = _add_gated(
        sub,
        "hotspot",
        "load-balance sweep under zipf-skewed popularity: per-node "
        "serve-load imbalance (max/mean, Gini, top-5 share) per system x "
        "zipf-s x mitigation (none / salted roots / dynamic replication); "
        "exits non-zero unless the best mitigation cuts SWORD's imbalance "
        ">= 2x at the highest s with byte-identical answers and hop "
        "counts within the structural ceilings",
    )
    hotspot_p.add_argument(
        "--systems",
        nargs="+",
        default=None,
        metavar="SYSTEM",
        help="systems to sweep (default: LORM Mercury SWORD MAAN; "
        "mitigations apply to SWORD and MAAN)",
    )
    hotspot_p.add_argument(
        "--zipf-s",
        type=float,
        nargs="+",
        default=None,
        metavar="S",
        help="zipf exponents to sweep (e.g. --zipf-s 0 0.8 1.1)",
    )
    hotspot_p.add_argument(
        "--queries",
        type=int,
        default=None,
        help="measured multi-attribute queries per cell",
    )
    hotspot_p.add_argument(
        "--salts",
        type=int,
        default=None,
        help="salted roots per attribute (S) for the salt mitigation",
    )

    tradeoff_p = _add_gated(
        sub,
        "tradeoff",
        "lookup-vs-maintenance sweep across routing tiers (chord / "
        "record:f<N> randomized-Chord / singlehop full-membership) x "
        "maintenance budget (zero/default/unlimited), common random "
        "numbers; exits non-zero unless single-hop means <= 1.05 hops at "
        "unlimited budget (trace-oracle verified) and ReCord hops fall "
        "strictly with the fan-out",
    )
    tradeoff_p.add_argument(
        "--systems",
        nargs="+",
        default=None,
        metavar="SYSTEM",
        help="systems to sweep (default: LORM Mercury SWORD MAAN)",
    )
    tradeoff_p.add_argument(
        "--overlays",
        nargs="+",
        default=None,
        metavar="POINT",
        help="overlay points to sweep: chord, record:f<N>, singlehop "
        "(default: all configured points)",
    )
    tradeoff_p.add_argument(
        "--queries",
        type=int,
        default=None,
        help="measured point queries per overlay x budget cell",
    )
    tradeoff_p.add_argument(
        "--churn-events",
        type=int,
        default=None,
        help="churn events (leave/join alternating) per cell",
    )
    tradeoff_p.add_argument(
        "--fanouts",
        type=int,
        nargs="+",
        default=None,
        metavar="H",
        help="ReCord per-level fan-outs to sweep (e.g. --fanouts 1 4 16)",
    )

    tail_p = _add_gated(
        sub,
        "tail",
        "tail-latency sweep under gray failures: p50/p99/p99.9 "
        "response time vs slow-node fraction x requester policy "
        "(fixed/adaptive/hedged timeouts); exits non-zero unless the "
        "hedged policy cuts p99 >= 2x vs fixed on LORM and SWORD, meets "
        "the p99 SLO and keeps hedge overhead bounded",
    )
    tail_p.add_argument(
        "--fractions",
        type=float,
        nargs="+",
        default=None,
        metavar="F",
        help="slow-node fractions to sweep (e.g. --fractions 0 0.05 0.1)",
    )
    tail_p.add_argument(
        "--queries",
        type=int,
        default=None,
        help="measured multi-attribute queries per cell",
    )
    tail_p.add_argument(
        "--slo-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="p99 response-time SLO the hedged policy must meet",
    )

    scale_p = sub.add_parser(
        "scale",
        help="n-scaling sweep on the compact array core: hops and "
        "maintenance messages at 100k-1M nodes with wall-clock and peak "
        "memory per point; exits non-zero when a --budget is exceeded",
    )
    scale_p.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="paper",
        help="paper = 100k-1M nodes (default); smoke = small, CI-fast",
    )
    _add_smoke(scale_p)
    scale_p.add_argument(
        "--seed", type=int, default=None, help="override the master seed"
    )
    scale_p.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="populations to sweep (e.g. --sizes 100000 1000000)",
    )
    scale_p.add_argument(
        "--queries",
        type=int,
        default=None,
        help="routed lookups measured per population point",
    )
    scale_p.add_argument(
        "--churn-events",
        type=int,
        default=None,
        help="churn events (join/leave/fail round-robin) measured per point",
    )
    scale_p.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="fail (exit 1) when the whole sweep takes longer than this",
    )
    scale_p.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="fail (exit 1) when any point's peak traced memory exceeds "
        "this many MB (peak RSS is reported alongside)",
    )
    scale_p.add_argument(
        "--out", default=None, help="directory for CSV/text/JSON output"
    )
    scale_p.add_argument(
        "--parallel",
        nargs="?",
        type=int,
        const=0,
        default=None,
        metavar="WORKERS",
        help="shard population points over worker processes (results are "
        "identical to a serial run; WORKERS defaults to the CPU count)",
    )

    bench_p = sub.add_parser(
        "bench",
        help="wall-clock benchmark: time overlay/system hot paths into a "
        "schema-versioned BENCH_<timestamp>.json, or compare two reports",
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=False)
    bench_p.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="smoke",
        help="paper = Section V parameters; smoke = laptop-fast (default)",
    )
    _add_smoke(bench_p)
    bench_p.add_argument(
        "--seed", type=int, default=None, help="override the master seed"
    )
    bench_p.add_argument(
        "--profile",
        choices=["micro", "macro", "figures", "all"],
        default="all",
        help="op groups to time (default: all)",
    )
    bench_p.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override every op's timed repeat count",
    )
    bench_p.add_argument(
        "--out",
        default=".",
        help="output JSON file, or a directory for BENCH_<timestamp>.json "
        "(default: current directory)",
    )
    compare_p = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json reports; exits non-zero when any op "
        "regresses beyond the threshold (calibration-normalised p50)",
    )
    compare_p.add_argument("baseline", help="baseline BENCH_*.json")
    compare_p.add_argument("current", help="current BENCH_*.json")
    compare_p.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative p50 regression tolerance (default: 0.25 = +25%%)",
    )

    trace_p = sub.add_parser(
        "trace",
        help="replay a seeded multi-attribute query with hop-level span "
        "tracing on and print the trace (tree, JSONL or Chrome "
        "trace_event JSON); deterministic for a given seed",
    )
    trace_p.add_argument(
        "--system",
        required=True,
        choices=["lorm", "mercury", "sword", "maan"],
        help="which discovery system to trace",
    )
    trace_p.add_argument(
        "--overlay",
        default=None,
        metavar="OVERLAY",
        help="routing substrate: chord, cycloid (LORM only), singlehop, "
        "record (default: the system's native substrate)",
    )
    trace_p.add_argument(
        "--fanout",
        type=int,
        default=2,
        help="ReCord per-level finger fan-out (--overlay record only)",
    )
    trace_p.add_argument(
        "--seed", type=int, default=0, help="replay seed (default: 0)"
    )
    trace_p.add_argument(
        "--queries", type=int, default=1,
        help="multi-attribute queries to replay (default: 1)",
    )
    trace_p.add_argument(
        "--attributes", type=int, default=2,
        help="attributes per query (default: 2)",
    )
    trace_p.add_argument(
        "--kind",
        choices=["point", "range", "at-least"],
        default="range",
        help="per-attribute constraint shape (default: range)",
    )
    trace_p.add_argument(
        "--loss", type=float, default=0.0,
        help="seeded per-message loss rate; > 0 adds fault annotations "
        "(drop/retry/timeout/failover) to the spans",
    )
    trace_p.add_argument(
        "--format",
        choices=["tree", "jsonl", "chrome"],
        default="tree",
        help="tree = human-readable; jsonl = one span per line; "
        "chrome = chrome://tracing / Perfetto trace_event JSON",
    )
    trace_p.add_argument(
        "--out", default=None,
        help="write the trace to a file instead of stdout",
    )

    report_p = sub.add_parser(
        "report", help="assemble results/REPORT.md from existing artifacts"
    )
    report_p.add_argument(
        "--out", default="results", help="results directory (default: results/)"
    )

    check_p = sub.add_parser(
        "check",
        help="differential/invariant correctness check (oracle replay + "
        "guarded churn storm); exits non-zero on any divergence",
    )
    check_p.add_argument(
        "--systems",
        nargs="+",
        default=["all"],
        metavar="SYSTEM",
        help="systems to check: all (default) or any of LORM Mercury SWORD MAAN",
    )
    check_p.add_argument(
        "--seed", type=int, default=0, help="harness seed (default: 0)"
    )
    check_p.add_argument(
        "--queries", type=int, default=45,
        help="queries in the fault-free differential replay",
    )
    check_p.add_argument(
        "--churn-events", type=int, default=40,
        help="events in the guarded churn storm",
    )
    return parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="smoke",
        help="paper = Section V parameters (n=2048, m=200, k=500); "
        "smoke = same shape, laptop-fast (default)",
    )
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--out", default=None, help="directory for CSV/text output")
    p.add_argument(
        "--lph",
        choices=["cdf", "linear"],
        default=None,
        help="override the locality-preserving hash flavour",
    )
    p.add_argument(
        "--invariants",
        action="store_true",
        help="validate overlay invariants and directory conservation after "
        "every churn event (aborts at the first violation)",
    )


def _add_smoke(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--smoke",
        action="store_true",
        help="alias for --scale smoke (deterministic CI entry point)",
    )


def _add_gated(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A gated subcommand's parser: the common flags plus ``--smoke``."""
    p = sub.add_parser(name, help=help)
    _add_common(p)
    _add_smoke(p)
    return p


def _add_parallel(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--parallel",
        nargs="?",
        type=int,
        const=0,
        default=None,
        metavar="WORKERS",
        help="fan figures out over worker processes (opt-in; figures no "
        "longer share service bundles, so total CPU rises while "
        "wall-clock drops; WORKERS defaults to the CPU count)",
    )


#: Flags every config-driven command shares -> the config field they set.
_COMMON_FIELDS = {"seed": "seed", "lph": "lph_kind", "invariants": "validate_invariants"}

_AVAILABILITY_FIELDS = {
    "loss": "loss_rates",
    "replication": "availability_replications",
    "queries": "num_availability_queries",
}


def _config_from(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    fields: dict[str, str] | None = None,
) -> ExperimentConfig:
    """The ``--scale`` config with every given flag in ``_COMMON_FIELDS``
    and ``fields`` (argparse dest -> config field) applied.

    An invalid value is a clean ``parser.error`` (exit 2) raised before
    any work starts, never a traceback.
    """
    overrides = {}
    for dest, name in {**_COMMON_FIELDS, **(fields or {})}.items():
        value = getattr(args, dest, None)
        if value is not None and value is not False:
            overrides[name] = tuple(value) if isinstance(value, list) else value
    config = _SCALES[args.scale]
    try:
        return config.scaled(**overrides) if overrides else config
    except ValueError as exc:
        parser.error(str(exc))


def _check_args(parser: argparse.ArgumentParser, *checks: tuple[bool, str]) -> None:
    """``parser.error`` (exit 2) on the first failed ``(ok, message)``
    check — flag validation for the commands that build no config."""
    for ok, message in checks:
        if not ok:
            parser.error(message)


def _resolved(parser: argparse.ArgumentParser, resolve, names):
    """``resolve(names)`` from the system/overlay registry, or a clean
    ``parser.error`` (exit 2, valid choices listed) instead of a traceback."""
    try:
        return resolve(names)
    except ValueError as exc:
        parser.error(str(exc))


def _no_kwargs(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    return {}


def _systems_kwargs(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    from repro.experiments.common import resolve_systems

    return {"systems": resolve_systems(args.systems)} if args.systems else {}


def _durability_kwargs(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    from repro.experiments.durability import DEFAULT_SCENARIOS
    from repro.sim.durability import parse_policy

    kwargs = _systems_kwargs(args, config)
    if args.policies:
        kwargs["policies"] = tuple(parse_policy(spec) for spec in args.policies)
    if args.scenarios:
        kwargs["scenarios"] = tuple(
            s for s in DEFAULT_SCENARIOS if s.name in args.scenarios
        )
    return kwargs


def _tradeoff_kwargs(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    from repro.experiments.tradeoff import select_points

    kwargs = _systems_kwargs(args, config)
    if args.overlays:
        select_points(config, args.overlays)  # unknown labels raise here
        kwargs["overlays"] = tuple(args.overlays)
    return kwargs


def _scale_kwargs(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    return {
        "parallel": args.parallel is not None,
        "max_workers": args.parallel or None,
        "budget_seconds": args.budget_seconds,
        "budget_mb": args.budget_mb,
    }


class GatedCommand(NamedTuple):
    """One gated subcommand: what it runs and which flags feed it."""

    command: str
    #: ``module:function`` of the run function, imported when it runs.
    run: str
    #: argparse dest -> the ExperimentConfig field it overrides.
    fields: dict[str, str]
    #: The run function's keyword arguments, built from the flags; names
    #: (systems, overlays, policies) are validated here, before any work.
    kwargs: Callable[[argparse.Namespace, ExperimentConfig], dict] = _no_kwargs


#: Every gated subcommand.  Each run returns a result whose ``gates()``
#: decide its verdict line, the stderr summary and the exit code.
GATED_COMMANDS = (
    GatedCommand("chaos", "repro.experiments.recovery:run_chaos_demo", {}),
    GatedCommand(
        "durability", "repro.experiments.durability:run_durability", {},
        _durability_kwargs,
    ),
    GatedCommand(
        "hotspot",
        "repro.experiments.hotspot:run_hotspot",
        {"zipf_s": "hotspot_zipf_s", "queries": "hotspot_queries",
         "salts": "hotspot_salts"},
        _systems_kwargs,
    ),
    GatedCommand(
        "tradeoff",
        "repro.experiments.tradeoff:run_tradeoff",
        {"queries": "tradeoff_queries", "churn_events": "tradeoff_churn_events",
         "fanouts": "tradeoff_fanouts"},
        _tradeoff_kwargs,
    ),
    GatedCommand(
        "tail",
        "repro.experiments.tail:run_tail",
        {"fractions": "tail_slow_fractions", "queries": "tail_queries",
         "slo_p99": "tail_slo_p99"},
    ),
    GatedCommand(
        "scale",
        "repro.experiments.scale:run_scale",
        {"sizes": "scale_sizes", "queries": "scale_queries",
         "churn_events": "scale_churn_events"},
        _scale_kwargs,
    ),
)


def _run_gated(
    parser: argparse.ArgumentParser, gated: GatedCommand, args: argparse.Namespace
) -> int:
    """Validate, run, render, summarise, save; exit 0 only if every gate passed."""
    if args.smoke:
        args.scale = "smoke"
    config = _config_from(parser, args, gated.fields)
    try:
        kwargs = gated.kwargs(args, config)
    except ValueError as exc:
        parser.error(str(exc))
    module, name = gated.run.split(":")
    run = getattr(importlib.import_module(module), name)
    started = time.perf_counter()
    result = run(config, **kwargs)
    print(result.render())
    elapsed = time.perf_counter() - started
    outcome = verdict(result.gates())
    print(
        f"[{args.scale} scale, seed {config.seed}] {args.command}: {outcome} "
        f"in {elapsed:.1f}s",
        file=sys.stderr,
    )
    if args.out:
        result.save(args.out)
        print(f"results written to {args.out}/", file=sys.stderr)
    return 0 if outcome == "ok" else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for figure_id in sorted(FIGURES):
            doc = (FIGURES[figure_id].__doc__ or "").strip().splitlines()[0]
            print(f"{figure_id:7s} {doc}")
        return 0

    if args.command == "bench":
        if getattr(args, "bench_command", None) == "compare":
            from repro.bench import compare_reports
            from repro.bench.report import BenchReport

            result = compare_reports(
                BenchReport.load(args.baseline),
                BenchReport.load(args.current),
                threshold=args.threshold,
            )
            print(result.render())
            return 0 if result.ok else 1

        from repro.bench import run_bench

        if args.smoke:
            args.scale = "smoke"
        _check_args(parser, (
            args.repeats is None or args.repeats >= 1,
            f"--repeats must be >= 1, got {args.repeats}",
        ))
        config = _config_from(parser, args)
        started = time.perf_counter()
        bench_report = run_bench(
            config,
            scale=args.scale,
            profile=args.profile,
            repeats=args.repeats,
            progress=lambda msg: print(msg, file=sys.stderr),
        )
        print(bench_report.render())
        path = bench_report.save(args.out)
        elapsed = time.perf_counter() - started
        print(
            f"[{args.scale} scale, seed {config.seed}] benched in "
            f"{elapsed:.1f}s -> {path}",
            file=sys.stderr,
        )
        return 0

    gated = next((g for g in GATED_COMMANDS if g.command == args.command), None)
    if gated is not None:
        return _run_gated(parser, gated, args)

    if args.command == "trace":
        from repro.experiments.common import resolve_overlay
        from repro.obs.export import render_tree, traces_to_chrome, traces_to_jsonl
        from repro.obs.replay import TRACE_CONFIG, replay_queries
        from repro.workloads.generator import QueryKind

        overlay = (
            _resolved(parser, resolve_overlay, args.overlay)
            if args.overlay is not None else None
        )
        max_attributes = TRACE_CONFIG.num_attributes
        _check_args(
            parser,
            (args.seed >= 0, f"--seed must be >= 0, got {args.seed}"),
            (args.queries >= 1, f"--queries must be >= 1, got {args.queries}"),
            (
                1 <= args.attributes <= max_attributes,
                f"--attributes must be in [1, {max_attributes}], got {args.attributes}",
            ),
            (args.fanout >= 1, f"--fanout must be >= 1, got {args.fanout}"),
            (0.0 <= args.loss < 1.0, f"--loss must be in [0, 1), got {args.loss:g}"),
        )
        started = time.perf_counter()
        _, traces = replay_queries(
            args.system,
            seed=args.seed,
            num_queries=args.queries,
            num_attributes=args.attributes,
            kind=QueryKind(args.kind),
            loss=args.loss,
            overlay=overlay,
            fanout=args.fanout,
        )
        if args.format == "jsonl":
            text = traces_to_jsonl(traces)
        elif args.format == "chrome":
            text = traces_to_chrome(traces)
        else:
            text = "\n".join(render_tree(t) for t in traces)
            if text:
                text += "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(text)
        elapsed = time.perf_counter() - started
        hops = sum(t.hop_count() for t in traces)
        print(
            f"[{args.system}, seed {args.seed}] {len(traces)} trace(s), "
            f"{hops} hops in {elapsed:.1f}s",
            file=sys.stderr,
        )
        return 0

    if args.command == "report":
        from repro.experiments.consolidate import write_report

        path = write_report(args.out)
        print(f"wrote {path}")
        return 0

    if args.command == "check":
        from repro.experiments.common import resolve_systems
        from repro.testing.differential import ALL_SYSTEMS, run_check

        systems = (
            ALL_SYSTEMS
            if "all" in args.systems
            else _resolved(parser, resolve_systems, args.systems)
        )
        _check_args(
            parser,
            (args.seed >= 0, f"--seed must be >= 0, got {args.seed}"),
            (args.queries >= 1, f"--queries must be >= 1, got {args.queries}"),
            (
                args.churn_events >= 0,
                f"--churn-events must be >= 0, got {args.churn_events}",
            ),
        )
        started = time.perf_counter()
        report = run_check(
            systems=systems,
            seed=args.seed,
            num_queries=args.queries,
            churn_events=args.churn_events,
        )
        print(report.render())
        elapsed = time.perf_counter() - started
        print(f"[seed {args.seed}] checked in {elapsed:.1f}s", file=sys.stderr)
        return 0 if report.ok else 1

    config = _config_from(
        parser, args, _AVAILABILITY_FIELDS if args.command == "availability" else None
    )
    started = time.perf_counter()
    if args.command == "availability":
        result = run_figure("availability", config, save_dir=args.out)
        print(result.render())
        print()
    elif args.command == "all":
        if args.parallel is not None:
            from repro.experiments.runner import run_figures_parallel

            results = run_figures_parallel(
                sorted(FIGURES), config, save_dir=args.out,
                max_workers=args.parallel or None,
            )
        else:
            results = run_all_figures(config, save_dir=args.out)
        for figure_id in sorted(results):
            print(results[figure_id].render())  # type: ignore[attr-defined]
            print()
    else:
        if args.parallel is not None:
            from repro.experiments.runner import run_figures_parallel

            results = run_figures_parallel(
                args.figures, config, save_dir=args.out,
                max_workers=args.parallel or None,
            )
            for figure_id in args.figures:
                print(results[figure_id].render())  # type: ignore[attr-defined]
                print()
        else:
            for figure_id in args.figures:
                result = run_figure(figure_id, config, save_dir=args.out)
                print(result.render())
                print()
    elapsed = time.perf_counter() - started
    print(f"[{args.scale} scale, seed {config.seed}] done in {elapsed:.1f}s", file=sys.stderr)
    if args.out:
        print(f"results written to {args.out}/", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
