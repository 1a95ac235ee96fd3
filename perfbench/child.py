"""One measured css-lab invocation in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports css-lab from
the checkout's ``src`` directory, parses the scenario, optionally installs
the span tracer, times ``css_lab.cli.run_command`` and writes a JSON result:

    python3 perfbench/child.py --subcommand compare --out DIR --result FILE \
        [--set key=value]... [--trace]

``t_ready`` is ``time.monotonic()`` once the imports and the scenario parse
are done; the parent subtracts its own monotonic clock at spawn to get the
set-up time, interpreter start included.  ``maxrss_mb`` is the peak
resident set size when the run ends.  Only then is the calibration kernel
(``calibrate.py``) timed, so that its arrays never count in that peak; the
parent uses it to express both times in reference-machine seconds.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--subcommand", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--set", dest="overrides", action="append", default=[])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from css_lab import cli

    import calibrate

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"css_lab imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 4
    scenario = cli.parse_scenario(None, args.overrides)
    result = {
        "t_ready": time.monotonic(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    cli.run_command(args.subcommand, scenario, args.out, threads=1)
    result["wall_s"] = time.perf_counter() - start
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["kernel_s"] = calibrate.kernel_times()
    if tracer is not None:
        result["spans"] = tracer.summary()
        tracer.dump(Path(args.out) / "spans.npz")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
