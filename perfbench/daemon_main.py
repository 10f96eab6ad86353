"""Run ``repro.cli serve``, optionally with layer spans recorded.

    python perfbench/daemon_main.py --socket PATH [--trace-out FILE]

With ``--trace-out`` the daemon's layer functions are wrapped (see
:func:`spans.instrument`) and the recorded spans are written to FILE as
JSON rows when the daemon has drained and stopped.  ``repro`` is
imported from ``PYTHONPATH``, which the benchmark points at the
checkout under test.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from repro.cli import main as cli_main

    tracer = None
    if args.trace_out:
        from spans import Tracer, instrument

        tracer = instrument(Tracer(auto_op=True), service=True)
        tracer.install()
    code = 0
    try:
        cli_main(["serve", "--socket", args.socket])
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        if tracer is not None:
            from spans import to_rows

            tracer.uninstall()
            with open(args.trace_out, "w") as fh:
                json.dump(to_rows(tracer.spans), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
