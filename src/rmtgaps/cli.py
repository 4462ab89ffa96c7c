"""Command-line interface.

    rmtgaps verify <suite> [options]      deterministic identity suites
    rmtgaps experiment <kind> [options]   seeded Monte Carlo experiments
    rmtgaps sample [options]              raw spectra export

Configuration comes from an optional JSON file (--config) overridden by
explicit flags.  A flag or config key the kind (or ``sample``) does not read,
as each flag's help lists, is a usage error; so is a config ``kind`` other
than the command's, and a ``verify`` option outside ``verify.OPTION_BOUNDS``.
Every output header echoes the kind, the base seed and the fields the kind
reads, or the suite and the options it reads, so a run can be reproduced from
its own artifacts.
Exit codes: 0 success, 1 statistical or verification failure, 2 usage error,
3 internal error.
An ``OSError`` is a usage error only where ``--config`` is read or the
output directory is made; elsewhere it is an internal error.

``verify`` and ``experiment`` both write through ``reports.RunReport.write``.
A results key ending in ``passed`` is a gate (a verify report lists each
check row as one); a run passes, and exits 0, when all its gates do.

``verify`` runs on numpy alone and never loads scipy.  The Monte Carlo
commands solve their tridiagonal matrices with numpy's own LAPACK and load
``scipy.special`` with their first fit (KS test, gap-law CDF or chi-square),
and never ``scipy.stats``; so no command pays for these imports at start-up.

Every command runs numpy's OpenBLAS on one thread per process, pool workers
included, unless ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` is set: the user's count wins (see the ``rmtgaps``
package).  The artifacts are the same bytes at any thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import traceback
from pathlib import Path

from . import __version__, experiments, reports, verify

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

    def read_by(option: str) -> str:
        return "read by " + ", ".join(k for k, s in suites.items() if option in s.options)

    pv.add_argument("--n-max", type=int, default=None, help=f"largest system size, {read_by('n_max')}")
    pv.add_argument("--cases", type=int, default=None, help=f"random cases per check, {read_by('cases')}")
    pv.add_argument("--seed", type=int, default=0, dest="base_seed", help=f"base seed, {read_by('base_seed')}")
    pv.add_argument("--out", default=None, help="output directory for CSV/JSON reports")
    pv.add_argument("--reproducible", action="store_true")

    pe = sub.add_parser("experiment", help="run a seeded Monte Carlo experiment")
    pe.add_argument("kind", choices=experiments.KINDS)
    _add_config_flags(pe, experiments.KINDS)

    ps = sub.add_parser("sample", help="write raw spectra as CSV")
    _add_config_flags(ps, ("sample",))

    return parser


def _add_config_flags(sub: argparse.ArgumentParser, kinds) -> None:
    def read_by(name: str) -> str:
        """The kinds that read config field ``name``: any other exits 2 on its flag."""
        readers = [k for k in kinds if name in experiments.DECLARED[k].reads]
        return "read by " + ("every kind" if len(readers) == len(kinds) > 1 else ", ".join(readers) or "none")

    sub.add_argument("--config", default=None, help="JSON config file; flags override it")
    sub.add_argument("--n", type=int, default=None, help=read_by("n"))
    sub.add_argument("--beta", type=float, default=None, help=read_by("beta"))
    sub.add_argument("--trials", type=int, default=None, help=read_by("trials"))
    sub.add_argument("--seed", type=int, default=None, dest="base_seed", metavar="SEED", help="base seed")
    sub.add_argument("--interval", type=_interval, default=None, metavar="LO,HI", help=read_by("interval"))
    sub.add_argument("--k-max", type=int, default=None, help=read_by("k_max"))
    sub.add_argument("--j-max", type=int, default=None, help=read_by("j_max"))
    sub.add_argument("--workers", type=int, default=None, help=f"pool size, at most {experiments.MAX_WORKERS}")
    sub.add_argument("--out", default=None, dest="out_dir", metavar="OUT", help="output directory")
    sub.add_argument("--sampler", choices=("dense", "tridiagonal"), default=None, help=read_by("sampler"))
    sub.add_argument("--scaling", choices=("unit", "nscaled"), default=None, help=read_by("scaling"))
    sub.add_argument("--c0", type=float, default=None, help=read_by("c0"))
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
    if base.setdefault("kind", kind) != kind:
        raise UsageError(f"--config holds kind {base['kind']!r}, not {kind!r}")
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
    options = {k: getattr(args, k) for k in ("base_seed", "n_max", "cases") if getattr(args, k) is not None}
    try:
        config = {"suite": args.suite, **verify.suite_options(args.suite, options)}
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.out:
        _make_out_dir(args.out)
    t0 = time.perf_counter()
    result = verify.run_suite(args.suite, options)
    wall = None if args.reproducible else time.perf_counter() - t0
    report = result.report(args.suite, config, wall)

    for check, value, threshold, ok in result.rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {check}: value={value!r} threshold={threshold!r}")
    print(f"suite {args.suite}: {'PASS' if report.passed else 'FAIL'}")
    if args.out:
        stem = f"verify_{args.suite}"
        report.write(args.out, stem, result.header, result.table, reproducible=args.reproducible)
    return EXIT_OK if report.passed else EXIT_FAILURE


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
