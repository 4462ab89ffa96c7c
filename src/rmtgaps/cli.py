"""Command-line interface.

    rmtgaps verify <suite> [options]      deterministic identity suites
    rmtgaps experiment <kind> [options]   seeded Monte Carlo experiments
    rmtgaps sample [options]              raw spectra export

Configuration comes from an optional JSON file (--config) overridden by
explicit flags; the merged config is echoed into every output header so a
run can be reproduced from its own artifacts.  Exit codes: 0 success,
1 statistical or verification failure, 2 usage error, 3 internal error.
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

_SUITE_HELP = {
    "pfaffian": "Pfaffian algebraic identities on random skew matrices",
    "hermite": "wave-function orthonormality, closed forms, Parseval",
    "lemma9": "partition-ratio identity 4^k G_{n-2k,k} / G_n = 1",
    "lemma10": "derivative-energy and pair-integral inequalities",
    "lemma12": "gap-window sandwich bounds by direct quadrature",
    "dpoly": "shifted determinant polynomial identities",
    "coefficients": "pairing coefficient tables against quadrature oracles",
}


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
    pv.add_argument("suite", choices=verify.SUITES, help="; ".join(f"{k}: {v}" for k, v in _SUITE_HELP.items()))
    pv.add_argument("--n-max", type=int, default=None, help="largest system size (lemma9)")
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
    sub.add_argument("--seed", type=int, default=None, help="base seed")
    sub.add_argument("--interval", type=_interval, default=None, metavar="LO,HI")
    sub.add_argument("--k-max", type=int, default=None)
    sub.add_argument("--j-max", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--sampler", choices=("dense", "tridiagonal"), default=None)
    sub.add_argument("--scaling", choices=("unit", "nscaled"), default=None)
    sub.add_argument("--c0", type=float, default=None, help="window top for successive-gaps")
    sub.add_argument("--reproducible", action="store_true")


_FLAG_TO_FIELD = {
    "n": "n",
    "beta": "beta",
    "trials": "trials",
    "seed": "base_seed",
    "interval": "interval",
    "k_max": "k_max",
    "j_max": "j_max",
    "workers": "workers",
    "out": "out_dir",
    "sampler": "sampler",
    "scaling": "scaling",
    "c0": "c0",
}


def _merge_config(args, kind: str) -> experiments.ExperimentConfig:
    base = {}
    if args.config:
        base = json.loads(Path(args.config).read_text())
        if not isinstance(base, dict):
            raise UsageError("--config must hold a JSON object")
        fields = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
        unknown = sorted(set(base) - fields)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    base["kind"] = kind
    for flag, name in _FLAG_TO_FIELD.items():
        value = getattr(args, flag, None)
        if value is not None:
            base[name] = value
    if args.reproducible:
        base["reproducible"] = True
    return experiments.ExperimentConfig(**base)


def _cmd_verify(args) -> int:
    options = {"seed": args.seed}
    if args.n_max is not None:
        if args.n_max < 2:
            raise UsageError("--n-max must be at least 2")
        options["n_max"] = args.n_max
    if args.cases is not None:
        if args.cases < 1:
            raise UsageError("--cases must be positive")
        options["cases"] = args.cases

    t0 = time.perf_counter()
    result = verify.run_suite(args.suite, options)
    wall = None if args.reproducible else time.perf_counter() - t0

    for check, value, threshold, ok in result.rows:
        print(f"[{'PASS' if ok else 'FAIL'}] {check}: value={value!r} threshold={threshold!r}")
    print(f"suite {args.suite}: {'PASS' if result.passed else 'FAIL'}")

    if args.out:
        out = Path(args.out)
        config = {"command": "verify", "suite": args.suite, "base_seed": args.seed, **options}
        if args.suite == "lemma9":
            header = ["n", "k", "ratio", "abs_error"]
            rows = result.table
        else:
            header = ["check", "value", "threshold", "passed"]
            rows = result.rows
        reports.write_csv(
            out / f"verify_{args.suite}.csv", config, __version__, header, rows, args.reproducible
        )
        payload = experiments.RunReport(
            command="verify",
            kind=args.suite,
            config=config,
            results={
                "checks": [
                    {"check": c, "value": v, "threshold": t, "passed": bool(ok)}
                    for c, v, t, ok in result.rows
                ],
                "max_error": result.max_error(),
            },
            passed=result.passed,
            wall_clock_seconds=wall,
        )
        reports.write_json(out / f"verify_{args.suite}.json", payload.to_dict())
    return EXIT_OK if result.passed else EXIT_FAILURE


def _cmd_experiment(args) -> int:
    cfg = _merge_config(args, args.kind)
    report = experiments.run_experiment(cfg)
    print(json.dumps(report.results, sort_keys=True, indent=2, default=reports._jsonify))
    print(f"experiment {cfg.kind}: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_FAILURE


def _cmd_sample(args) -> int:
    cfg = _merge_config(args, "sample")
    path = experiments.write_spectra_csv(cfg)
    print(f"wrote {path}")
    return EXIT_OK


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "sample":
            return _cmd_sample(args)
        parser.error(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
