"""Command-line entry point: loopfield run | fixtures | selftest."""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="loopfield",
        description="lattice Yang-Mills loop-equation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=None,
                       help="directory for CSV/JSON reports")

    p_fix = sub.add_parser("fixtures", help="regenerate golden fixtures")
    p_fix.add_argument("kind", choices=["loop-ops", "graphs", "char-tables", "all"])
    p_fix.add_argument("--out-dir", default="fixtures")

    sub.add_parser("selftest", help="run the exact-backend suite only")

    args = parser.parse_args(argv)
    from loopfield import harness
    if args.command == "run":
        return harness.run_experiment(args.config, out_dir=args.out_dir)
    if args.command == "fixtures":
        try:
            written = harness.emit_fixtures(args.kind, out_dir=args.out_dir)
        except harness.ConfigError as exc:
            print(f"config error: {exc}")
            return harness.EXIT_CONFIG
        for path in written:
            print(path)
        return 0
    return harness.selftest()


if __name__ == "__main__":
    sys.exit(main())
