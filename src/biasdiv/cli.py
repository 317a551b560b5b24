"""Command-line entry points.

Subcommands: `probe` (train + measure bias), `diversify` (emit a
diversified training set), `baseline` (emit resampled training sets),
`experiment` (full multi-repeat comparison) and `ablate` (the synth-only
and delete-only variants against the reference). Exit codes: 0 success,
2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .data import save_csv
from .diversify import save_diversify_report
from .errors import BiasdivError, ConfigError, DataError, InfeasibleError, NeighborError
from .harness import (ABLATION_APPROACHES, BASELINE_APPROACHES, baseline_source,
                      diversified_set, emit_report, label_column_name,
                      load_experiment_config, load_split, reference_probe,
                      resampled_set, run_experiment, validation_summary)
from .probe import format_level, save_probe_report, write_counterexamples_csv

# `diversify --mode`: the diversify approach whose training set it writes
_MODES = {"full": "diversified", "synth-only": "synth_only", "delete-only": "delete_only"}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="path to a JSON config file")
    sub.add_argument("--out", default=None, help="output directory "
                     "(default: the config's out_dir)")
    sub.add_argument("--seed", type=int, default=None, help="master seed override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasdiv",
        description="Detect robustness bias in small ReLU classifiers and "
                    "compare dataset-diversification against resampling baselines.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("probe", help="train a reference net and measure its bias")
    _add_common(p)

    p = subs.add_parser("diversify", help="emit a diversified training set")
    _add_common(p)
    p.add_argument("--mode", choices=sorted(_MODES), default="full")

    p = subs.add_parser("baseline", help="emit resampled training sets")
    _add_common(p)
    p.add_argument("--method", choices=list(BASELINE_APPROACHES), default=None,
                   help="one resampler (default: all four)")

    for name, blurb in (("experiment", "run the full multi-repeat comparison"),
                        ("ablate", "compare synth-only and delete-only to the reference")):
        p = subs.add_parser(name, help=blurb)
        _add_common(p)
        p.add_argument("--repeats", type=int, default=None, help="repeat count override")
        p.add_argument("--no-svg", action="store_true", help="skip the box plot")

    return parser


def _load_config(args):
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "repeats", None) is not None:
        if args.repeats < 1:
            raise ConfigError("--repeats must be >= 1")
        cfg = replace(cfg, repeats=args.repeats)
    out_dir = Path(args.out if args.out is not None else cfg.out_dir)
    return cfg, out_dir


def _cmd_probe(args) -> int:
    cfg, out = _load_config(args)
    train_ds, test_ds = load_split(cfg)
    leg, probe = reference_probe(cfg, train_ds, test_ds)
    out.mkdir(parents=True, exist_ok=True)
    save_probe_report(probe, out / "probe_report.json", class_names=test_ds.class_names)
    write_counterexamples_csv(probe, out / "counterexamples.csv", test_ds.feature_names)
    gate = " (below the accuracy gate)" if leg.accuracy_flag else ""
    print(f"b_r={probe.b_r:.4f} delta_x_max={format_level(probe.delta_x_max)} "
          f"train_acc={leg.train_accuracy:.3f} test_acc={leg.test_accuracy:.3f}{gate}")
    print(f"wrote {out / 'probe_report.json'} and {out / 'counterexamples.csv'}")
    return 0


def _cmd_diversify(args) -> int:
    cfg, out = _load_config(args)
    train_ds, test_ds = load_split(cfg)
    _, probe = reference_probe(cfg, train_ds, test_ds)
    dd = diversified_set(cfg, train_ds, probe, _MODES[args.mode])
    out.mkdir(parents=True, exist_ok=True)
    save_csv(dd.dataset, out / "diversified.csv",
             label_column=label_column_name(cfg.dataset))
    save_diversify_report(dd, out / "diversify_report.json")
    print(f"rows {train_ds.n} -> {dd.dataset.n}; {validation_summary(dd.validation)}")
    print(f"wrote {out / 'diversified.csv'} and {out / 'diversify_report.json'}")
    return 0


def _cmd_baseline(args) -> int:
    cfg, out = _load_config(args)
    train_ds, _ = load_split(cfg)
    n_source = baseline_source(cfg, train_ds).n
    out.mkdir(parents=True, exist_ok=True)
    methods = [args.method] if args.method else list(BASELINE_APPROACHES)
    for method in methods:
        try:
            ds = resampled_set(cfg, train_ds, method)
        except (InfeasibleError, NeighborError) as exc:
            print(f"{method}: infeasible ({exc})")
            continue
        save_csv(ds, out / f"{method}.csv", label_column=label_column_name(cfg.dataset))
        print(f"{method}: {n_source} -> {ds.n} rows, wrote {out / (method + '.csv')}")
    return 0


def _print_summary(report) -> None:
    for a in report.approaches:
        agg = report.aggregates[a]
        if agg.mean is None:
            print(f"{a:>12}  infeasible in all {report.repeats} repeat(s)")
            continue
        extras = []
        if agg.infeasible:
            extras.append(f"{agg.infeasible} infeasible")
        if agg.flagged:
            extras.append(f"{agg.flagged} below accuracy gate")
        suffix = f"  [{', '.join(extras)}]" if extras else ""
        print(f"{a:>12}  mean={agg.mean:.4f} std={agg.std:.4f} "
              f"min={agg.min:.4f} max={agg.max:.4f}{suffix}")


def _cmd_experiment(args, approaches=None) -> int:
    cfg, out = _load_config(args)
    if approaches is not None:
        cfg = replace(cfg, approaches=approaches)
    report = run_experiment(cfg)
    paths = emit_report(report, out, svg=not args.no_svg)
    _print_summary(report)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return 0


def _cmd_ablate(args) -> int:
    return _cmd_experiment(args, approaches=ABLATION_APPROACHES)


_COMMANDS = {"probe": _cmd_probe, "diversify": _cmd_diversify,
             "baseline": _cmd_baseline, "experiment": _cmd_experiment,
             "ablate": _cmd_ablate}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except BiasdivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
