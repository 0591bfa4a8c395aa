"""The benchmark's hooks still fit the package.

``bench/spans.py`` wraps public functions and methods by name for a run
and puts them back afterwards; a renamed or deleted name would only show
as a ``KeyError`` in ``bench/run.py --trace 1``.  This installs every hook
of the checked-out module and undoes them.
"""

import importlib.util
from pathlib import Path

from tailflow import flows, training

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_installs_and_undoes():
    spans = _load_spans()
    originals = (training.de_loss, flows.flow_log_prob, vars(flows.RqsArLayer)["inverse"])
    patches = spans.Patches()
    spans.install_accounting(patches, spans.Accounting())
    spans.install_tracing(patches, spans.Recorder())
    assert training.de_loss is not originals[0]
    patches.undo()
    assert (training.de_loss, flows.flow_log_prob, vars(flows.RqsArLayer)["inverse"]) \
        == originals
