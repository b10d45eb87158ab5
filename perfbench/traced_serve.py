"""Run ``repro-pll`` with the serving layers wrapped in spans; write them at exit.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python perfbench/traced_serve.py SPANS.jsonl serve INDEX --async --port 0 ...

Everything after the span path is passed to the program's own command-line
entry point unchanged, so the traced server starts exactly like the
untraced one; only the wrapped functions differ.  The spans are kept in
memory and written to ``SPANS.jsonl`` after the server has drained.  The
size of the last index a dynamic server froze for serving goes, as JSON, to
the file :func:`served_sizes_path` names.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

from instrument import instrument_serving
from spans import SpanRecorder


def served_sizes_path(spans_path) -> Path:
    return Path(str(spans_path) + ".served.json")


def record_served_sizes(sizes: dict) -> None:
    """Note the size of each index the dynamic index freezes (the served snapshots)."""
    from repro.core.dynamic import DynamicPrunedLandmarkLabeling

    freeze = DynamicPrunedLandmarkLabeling.freeze

    @functools.wraps(freeze)
    def freeze_and_measure(self, *args, **kwargs):
        index = freeze(self, *args, **kwargs)
        sizes["index_bytes_per_vertex"] = (
            index.index_size_bytes() / index.label_set.num_vertices
        )
        return index

    DynamicPrunedLandmarkLabeling.freeze = freeze_and_measure


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    instrument_serving(recorder)
    sizes: dict = {}
    record_served_sizes(sizes)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.unpatch()
        recorder.dump(spans_path)
        served_sizes_path(spans_path).write_text(json.dumps(sizes), encoding="utf-8")
        if recorder.missing:
            print("untraced (not found): " + ", ".join(recorder.missing), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
