"""Command-line interface.

    rmtgaps verify <suite> [options]      deterministic identity suites
    rmtgaps experiment <kind> [options]   seeded Monte Carlo experiments
    rmtgaps sample [options]              raw spectra export

Configuration comes from an optional JSON file (--config) overridden by
explicit flags; the merged config is echoed into every output header so a
run can be reproduced from its own artifacts.  Exit codes: 0 success,
1 statistical or verification failure, 2 usage error, 3 internal error.
An ``OSError`` is a usage error only where ``--config`` is read or the
output directory is made; elsewhere it is an internal error.

``verify`` runs on numpy alone and never loads scipy.  The Monte Carlo
commands load ``scipy.linalg`` with their first tridiagonal draw and
``scipy.special`` with their first fit (KS test, gap-law CDF or chi-square),
and never ``scipy.stats``; so no command pays for these imports at start-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback
from pathlib import Path

from . import __version__, experiments, loggas, reports, verify

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

def _interval(text: str):
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("interval must be 'lo,hi'") from exc
    return (lo, hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rmtgaps", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"rmtgaps {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a deterministic verification suite")
    suites = verify.SUITES
    pv.add_argument("suite", choices=suites, help="; ".join(f"{k}: {s.help}" for k, s in suites.items()))
    readers = ", ".join(k for k, s in suites.items() if "n_max" in s.options)
    pv.add_argument("--n-max", type=int, default=None, help=f"largest system size ({readers})")
    pv.add_argument("--cases", type=int, default=None, help="random cases per check")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out", default=None, help="output directory for CSV/JSON reports")
    pv.add_argument("--reproducible", action="store_true")

    pe = sub.add_parser("experiment", help="run a seeded Monte Carlo experiment")
    pe.add_argument("kind", choices=experiments.KINDS)
    _add_config_flags(pe)

    ps = sub.add_parser("sample", help="write raw spectra as CSV")
    _add_config_flags(ps)

    return parser


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="JSON config file; flags override it")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument(
        "--seed", type=int, default=None, dest="base_seed", metavar="SEED", help="base seed"
    )
    sub.add_argument("--interval", type=_interval, default=None, metavar="LO,HI")
    sub.add_argument("--k-max", type=int, default=None)
    sub.add_argument("--j-max", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--out", default=None, dest="out_dir", metavar="OUT", help="output directory")
    sub.add_argument("--sampler", choices=("dense", "tridiagonal"), default=None)
    sub.add_argument("--scaling", choices=("unit", "nscaled"), default=None)
    sub.add_argument("--c0", type=float, default=None, help="window top for successive-gaps")
    sub.add_argument("--reproducible", action="store_true", default=None)


def _merge_config(args, kind: str) -> experiments.ExperimentConfig:
    fields = [f.name for f in dataclasses.fields(experiments.ExperimentConfig)]
    base = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # unreadable, not JSON, or not text
            raise UsageError(str(exc)) from exc
        if not isinstance(base, dict):
            raise UsageError("--config must hold a JSON object")
        unknown = sorted(set(base) - set(fields))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    base["kind"] = kind
    # each config flag's dest is the field it sets; an absent flag is None
    for name in fields:
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value
    try:
        return experiments.ExperimentConfig(**base)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    for flag, name in (("--n-max", "n_max"), ("--cases", "cases")):
        if getattr(args, name) is not None and name not in verify.SUITES[args.suite].options:
            raise UsageError(f"{flag} does not apply to suite {args.suite}")
    options = {"seed": args.seed}
    if args.n_max is not None:
        if not 2 <= args.n_max <= loggas.MAX_PFAFFIAN_N:
            raise UsageError(f"--n-max must be in 2..{loggas.MAX_PFAFFIAN_N}")
        options["n_max"] = args.n_max
    if args.cases is not None:
        if args.cases < 1:
            raise UsageError("--cases must be positive")
        options["cases"] = args.cases

    if args.out:
        _make_out_dir(args.out)
    t0 = time.perf_counter()
    result = verify.run_suite(args.suite, options)
    wall = None if args.reproducible else time.perf_counter() - t0

    for check, value, threshold, ok in result.rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {check}: value={value!r} threshold={threshold!r}")
    print(f"suite {args.suite}: {'PASS' if result.passed else 'FAIL'}")

    if args.out:
        out = Path(args.out)
        config = {"command": "verify", "suite": args.suite, "base_seed": args.seed, **options}
        csv = out / f"verify_{args.suite}.csv"
        reports.write_csv(csv, config, __version__, result.header, result.table, args.reproducible)
        payload = experiments.RunReport(
            command="verify",
            kind=args.suite,
            config=config,
            results={
                "checks": [dict(zip(verify.CHECK_HEADER, row)) for row in result.rows],
                "max_error": result.max_error(),
            },
            passed=result.passed,
            wall_clock_seconds=wall,
        )
        reports.write_json(out / f"verify_{args.suite}.json", payload.to_dict())
    return EXIT_OK if result.passed else EXIT_FAILURE


def _cmd_experiment(args) -> int:
    cfg = _merge_config(args, args.kind)
    _make_out_dir(cfg.out_dir)
    report = experiments.run_experiment(cfg)
    print(json.dumps(report.results, sort_keys=True, indent=2, default=reports._jsonify))
    print(f"experiment {cfg.kind}: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_FAILURE


def _cmd_sample(args) -> int:
    cfg = _merge_config(args, "sample")
    _make_out_dir(cfg.out_dir)
    path = experiments.write_spectra_csv(cfg)
    print(f"wrote {path}")
    return EXIT_OK


class UsageError(Exception):
    """Bad input from the command line or a config file: exit code 2."""


def _make_out_dir(path: str) -> None:
    # the one place besides --config where an OSError is the user's input at fault;
    # anywhere else (a full disk mid-run, a failed fork) it is an internal error
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"verify": _cmd_verify, "experiment": _cmd_experiment, "sample": _cmd_sample}
    try:
        return commands[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
