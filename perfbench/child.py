"""Run one qtop command in this interpreter and time it from inside.

    python3 perfbench/child.py --record OUT.json [--trace] -- <qtop arguments>

Imports ``qtop.cli`` (timed: ``import_s``), optionally installs the layer
spans of ``spans.py``, runs ``qtop.cli.main`` on the arguments (timed:
``main_s``) and writes both times, the spans and the missing targets to
OUT.json.  The report qtop prints goes to stdout as usual, and the exit
code is qtop's.  ``qtop`` must be importable (the caller sets PYTHONPATH).
"""

import argparse
import json
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter()
    import qtop.cli

    import_s = time.perf_counter() - start
    recorder = None
    entry = qtop.cli.main
    if args.trace:
        from spans import Recorder, install

        recorder = Recorder()
        entry = install(recorder)
    start = time.perf_counter()
    code = entry(argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    record = {
        "import_s": import_s,
        "main_s": main_s,
        "code": code,
        "spans": recorder.spans if recorder else [],
        "missing": sorted(recorder.missing) if recorder else [],
    }
    with open(args.record, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
