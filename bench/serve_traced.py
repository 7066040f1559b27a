"""Run ``repro.cli`` with the benchmark's layer tracer installed.

Usage: ``python bench/serve_traced.py DUMP serve [serve options]``

On SIGTERM the server's layer totals, counters and job spans are
written to ``DUMP`` as JSON and the process exits at once, the way an
untraced server dies on SIGTERM.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    dump = Path(sys.argv[1])
    import repro.cli
    from repro.experiments.registry import list_experiments
    from workloads import import_experiments

    import_experiments(e.eid for e in list_experiments())
    tracer = Tracer()
    tracer.install()

    def on_term(signum, frame):
        dump.write_text(json.dumps(tracer.dump()))
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    return repro.cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
