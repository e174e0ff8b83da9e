"""Command-line front end.

    fso-ber run --preset case1 --methods exact,approx-new,mc --out results/
    fso-ber run --config link.cfg --sweep -4:16:0.5 --fec-threshold 3.84e-3
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import _PARSERS, PRESETS, parse_values, preset_config, read_config
from .errors import ConfigError
from .runner import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fso-ber",
        description="Average BER of an OOK free-space-optical link under weak "
                    "turbulence, pointing errors, and atmospheric loss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="Sweep BER curves, locate FEC crossings, write CSV + report.")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS),
                     help="Built-in operating point (shared bench parameters).")
    src.add_argument("--config", metavar="PATH", help="Key-value config file.")
    # each override's dest is the RunConfig field it sets; main parses it like a config key
    p_run.add_argument("--methods", dest="methods", metavar="LIST",
                       help="Comma list of exact,approx-new,approx-prev,mc "
                            "(default: exact,approx-new).")
    p_run.add_argument("--sweep", dest="sweep", metavar="LO:HI:STEP",
                       help="Power grid in dBm (default -4:16:0.5; at most 100000 points).")
    p_run.add_argument("--mc-trials", dest="mc_trials", metavar="N",
                       help="Monte Carlo trials, shared by every grid point.")
    p_run.add_argument("--seed", dest="seed", metavar="S", help="Master random seed.")
    p_run.add_argument("--fec-threshold", dest="fec_threshold", metavar="X",
                       help="BER threshold for crossings.")
    p_run.add_argument("--out", dest="output_path", metavar="DIR",
                       help="Output directory (default fso-ber-out).")
    p_run.add_argument("--workers", dest="workers", metavar="N",
                       help="Accepted for compatibility (N >= 1) and has no effect: "
                            "analytic points and Monte Carlo use the CPUs the process "
                            "may run on.")
    return parser


def _merge_negative_sweep(argv: list[str]) -> list[str]:
    """Join '--sweep -4:16:0.5' into '--sweep=-4:16:0.5' so argparse does not
    mistake the negative lower bound for an option."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--sweep" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--sweep={argv[i + 1]}")
            i += 2
            continue
        out.append(arg)
        i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_negative_sweep(argv))
    # the options are parsed and checked apart from the config source, as a
    # config file's keys are, so one pass reports the problems of both
    given, problems = parse_values({key: text for key, text in vars(args).items()
                                    if key in _PARSERS and text is not None})
    try:
        # a --config path is read as a file even when it is named like a preset
        config = preset_config(args.preset) if args.preset else read_config(args.config)
    except ConfigError as exc:
        problems = exc.problems + problems
    if problems:
        print(f"fso-ber: {ConfigError(problems)}", file=sys.stderr)
        return 2
    config = replace(config, **given)  # every value was checked above

    try:
        artifacts = run(config)
    except Exception as exc:
        print(f"fso-ber: run failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {artifacts.csv_path}")
    print(f"wrote {artifacts.report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
