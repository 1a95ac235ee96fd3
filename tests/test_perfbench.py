"""The benchmark's span tracer names only functions the program still defines and calls."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


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


# install rebinds module attributes for the whole process, so each run gets its own
TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
from css_lab import cli
tracer = spans.Tracer()
spans.install(tracer)
cli.run_command(sys.argv[3], cli.parse_scenario(None, sys.argv[5:]), sys.argv[4])
print(json.dumps({name: span["calls"] for name, span in tracer.summary().items()}))
"""


@pytest.mark.parametrize(
    "command, overrides, spans",
    [
        (
            "theory-table",
            [],
            [
                "fusion.cfar_threshold",
                "theory.qfa_proposed",
                "theory.qd_rayleigh",
                "theory.qd_proposed_rayleigh",
                "harness.expected_rho",
            ],
        ),
        ("compare", ["trials=200"], ["harness.forced_rates"]),
        ("equivalence", ["trials=200"], ["harness.conventional_rate", "harness.forced_rates"]),
    ],
)
def test_traced_run_calls_each_layer(command, overrides, spans, tmp_path):
    # a function moved away from where a span looks it up is wrapped but never called
    argv = [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "perfbench")]
    run = subprocess.run([*argv, command, str(tmp_path), *overrides], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    calls = json.loads(run.stdout.splitlines()[-1])
    assert {name: calls[name] for name in spans if calls[name] == 0} == {}
