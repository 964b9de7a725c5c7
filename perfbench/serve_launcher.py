"""Start ``repro serve`` with span recording around the layer calls.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py --spans <out.json> serve --port 0 ...

Everything after ``--spans <path>`` goes to the ``repro`` command line.  The
wrappers from :mod:`perfbench.tracing` are installed before the server
starts; when the server exits (SIGINT) the spans and the size of the
server's population cache are written to ``<out.json>``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.tracing import SpanRecorder  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: serve_launcher.py --spans <out.json> serve [options]", file=sys.stderr)
        return 2
    spans_path = Path(argv[1])
    from repro.cli import main as repro_main
    from repro.serve.batcher import CoalescingBatcher

    batchers: list[CoalescingBatcher] = []
    original_init = CoalescingBatcher.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        batchers.append(self)

    CoalescingBatcher.__init__ = recording_init
    recorder = SpanRecorder()
    recorder.install()
    recorder.active = True
    try:
        return repro_main(argv[2:])
    finally:
        recorder.active = False
        spans_path.write_text(
            json.dumps(
                {
                    "spans": recorder.export(),
                    "population_cache_entries": sum(
                        len(batcher.population_cache) for batcher in batchers
                    ),
                }
            ),
            encoding="utf-8",
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
