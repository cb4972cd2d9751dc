"""The benchmark's span tracer still finds every function it wraps.

``bench/spans.py`` times the program by replacing public names from
outside; a name a refactor renames or removes is only recorded as absent,
and its per-layer metric then reads 0. This test reads ``bench/`` and
changes nothing there.
"""

import importlib.util
from pathlib import Path

import rwdetect
import rwdetect.cli  # noqa: F401  (imports every module the tracer wraps)

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_wrap_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer(rwdetect)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == []
