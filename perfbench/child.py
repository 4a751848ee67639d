"""Child process of the benchmark: one fairgate CLI command, or the set-up probe.

    python3 child.py run [--spans FILE] -- <fairgate cli args>
    python3 child.py setup <csv> [<csv> ...]

``run`` calls ``fairgate.cli.main`` with the given arguments and exits with
its code; with ``--spans`` it first installs the span recorder and writes
the spans to FILE when the command ends. ``setup`` imports fairgate and
parses each CSV with ``fairgate.cli.load_csv``, which is what every command
pays before its own work. ``fairgate`` is found through PYTHONPATH.
"""

from __future__ import annotations

import sys


def _run(args: list[str]) -> int:
    spans = None
    if args[0] == "--spans":
        spans, args = args[1], args[2:]
    if args[0] != "--":
        raise SystemExit(f"usage: child.py run [--spans FILE] -- <cli args>, got {args[0]!r}")
    argv = args[1:]
    from fairgate import cli

    if spans is None:
        return cli.main(argv)
    import tracing

    recorder = tracing.install()
    try:
        return cli.main(argv)
    finally:
        recorder.dump(spans)


def _setup(paths: list[str]) -> int:
    import fairgate  # noqa: F401  (the package import is part of what is timed)
    from fairgate.cli import ColumnRoles, load_csv
    from workloads import SCORE_COL

    roles = ColumnRoles(group="group", label="label", score=SCORE_COL)
    for path in paths:
        load_csv(path, roles)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(_run(rest) if mode == "run" else _setup(rest))
