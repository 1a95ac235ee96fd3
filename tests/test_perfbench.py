"""The benchmark's span tracer names only functions the program still defines."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize(
    "name, home, attr", [t[:3] for t in TARGETS], ids=[t[0] for t in TARGETS]
)
def test_span_target_resolves_to_callable(name, home, attr):
    # spans.install rebinds css_lab.<home>.<attr> and fails on a missing name
    module = importlib.import_module(f"css_lab.{home}")
    assert callable(getattr(module, attr, None)), f"{name}: css_lab.{home}.{attr} is gone"
