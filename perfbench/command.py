"""Run one invkge command in this fresh interpreter and report how it went.

    python3 perfbench/command.py [--spans FILE --tags JSON] -- <invkge arguments>

Every command of a benchmark round runs here, in a process of its own, as
``invkge`` typed on the command line would: with numpy's default BLAS
threading and glibc's default allocator, and with nothing left over from
earlier commands. ``invkge.cli.main`` is called in-process and timed alone;
the interpreter start-up and the imports before it are not part of the
command's wall time. With ``--spans`` the public functions of the program are
wrapped by :class:`spans.Tracer` and the spans, tagged with ``--tags``, are
written to FILE when the command ends.

The last line of standard output is one JSON object with the command's exit
code (``rc``, -1 for an exception out of the CLI), its wall time (``wall_s``)
and the process's peak RSS (``peak_rss_mb``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one invkge command and time it.")
    parser.add_argument("--spans", help="write the command's spans to this JSON file")
    parser.add_argument("--tags", default="{}", help="JSON object tagging every span")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import invkge.cli
    logging.basicConfig(level=logging.WARNING)
    tracer = None
    if args.spans:
        from spans import Tracer
        tracer = Tracer()
        tracer.tags = json.loads(args.tags)
        tracer.install()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = invkge.cli.main(argv)
    except SystemExit as exc:  # argparse's own exits
        rc = exc.code
    except Exception:  # a traceback out of the CLI is a failed command
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        Path(args.spans).write_text(json.dumps(tracer.rows()) + "\n", encoding="utf-8")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"rc": rc, "wall_s": wall, "peak_rss_mb": peak_rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
