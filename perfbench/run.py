#!/usr/bin/env python3
"""css-lab benchmark: end-to-end and per-layer metrics of the css-lab CLI.

Run from the repository root:

    python3 perfbench/run.py --workload compare-grid5 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all       # every workload, untraced then traced
    python3 perfbench/run.py --self-check         # tiny scenarios, every code path, under a minute

Every measured css-lab call runs ``css_lab.cli.run_command`` in a fresh
serial interpreter (``perfbench/child.py``, ``--threads 1``, BLAS/OpenMP
threads pinned to 1) that imports css-lab from this checkout's ``src``.

``--trace 0`` repeats the workload until ``--seconds`` is spent (at least
once) and reports ``wall_s`` (median run_command time), ``setup_s`` (median
fresh-process import plus scenario parse) and ``peak_rss_mb`` (largest
maximum resident set size of a run).  Both times are in reference seconds:
each interpreter also times a fixed kernel (``perfbench/calibrate.py``) and
its times are scaled by how fast the machine ran that kernel, so that a
shared machine's slow spells do not read as css-lab slowing down; the raw
times are printed and recorded too.  ``--trace 1`` runs the workload once
untraced and once with spans recorded around css-lab's public functions
(``perfbench/spans.py``) and reports the per-layer metrics, in raw seconds.

Every run's outputs are checked; a run that exits non-zero or fails a check
counts in ``failed``, and the error rate is ``failed / attempted``.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Run artifacts and records go to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
from workloads import DEFAULT_SEED, EQUIVALENCE_COUNTS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
DIGESTS = OUT / "digests.json"
REFERENCE = HERE / "reference.json"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "CSS_LAB_THREADS": "1",
}
RUN_LIMIT_S = 170.0  # a workload's children are killed past this, and count as failed

# css_lab.cli.CSV_COLUMNS as shipped, copied so that a changed header fails the check
CSV_COLUMNS = (
    "scenario_digest",
    "combiner",
    "scheme",
    "target_pfa",
    "lambda",
    "empirical_pfa",
    "empirical_pfa_ci",
    "empirical_pd",
    "empirical_pd_ci",
    "theory_pfa",
    "theory_pd",
    "trials",
    "seed",
)
RATE_COLUMNS = ("empirical_pfa", "empirical_pd", "theory_pfa", "theory_pd")
CI_COLUMNS = ("empirical_pfa_ci", "empirical_pd_ci")
MAX_PROBLEMS = 5  # per run, so one broken column does not flood the report

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

DRAW_LAYERS = ("harness.forced_rates", "harness.conventional_rate")
QUADRATURE_LAYERS = ("theory.qd_rayleigh", "theory.qd_proposed_rayleigh", "theory.marcum_q")
PER_LAYER = (
    ("harness.forced_rates.calls", "count"),
    ("harness.forced_rates.self_s", "s"),
    ("harness.forced_rates.cells", "count"),
    ("harness.forced_rates.ns_per_cell", "ns"),
    ("harness.conventional_rate.calls", "count"),
    ("harness.conventional_rate.self_s", "s"),
    ("harness.conventional_rate.cells", "count"),
    ("harness.cells_per_decision", "ratio"),
    ("harness.expected_rho.calls", "count"),
    ("harness.expected_rho.self_s", "s"),
    ("harness.roc_sweep.calls", "count"),
    ("harness.roc_sweep.self_s", "s"),
    ("harness.draw_share", "fraction"),
    ("theory.qd_rayleigh.calls", "count"),
    ("theory.qd_rayleigh.self_s", "s"),
    ("theory.qd_proposed_rayleigh.calls", "count"),
    ("theory.qd_proposed_rayleigh.self_s", "s"),
    ("theory.marcum_q.calls", "count"),
    ("theory.marcum_q.self_s", "s"),
    ("theory.qfa_approx.calls", "count"),
    ("theory.qfa_proposed.calls", "count"),
    ("theory.quadrature_share", "fraction"),
    ("fusion.cfar_threshold.calls", "count"),
    ("fusion.cfar_threshold.self_s", "s"),
    ("cli.run_command.self_s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
)
# layers whose self time is reported; the rest of the traced time is unattributed_s
SELF_TIMED = tuple(name[: -len(".self_s")] for name, _ in PER_LAYER if name.endswith(".self_s"))


@dataclass
class Child:
    """One interpreter started by the benchmark and what its run left behind."""

    label: str
    problems: list[str] = field(default_factory=list)
    raw_setup_s: float | None = None
    raw_wall_s: float | None = None
    speed: float | None = None  # reference seconds per measured second, from calibrate.py
    setup_s: float | None = None  # in reference seconds, like wall_s
    wall_s: float | None = None
    maxrss_mb: float | None = None
    result: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # csv digest, bytes, decisions, AUCs


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "css_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def spawn(
    workload: Workload,
    overrides: tuple[str, ...],
    out_dir: Path,
    label: str,
    deadline: float,
    *,
    trace: bool = False,
) -> Child:
    child = Child(label=label)
    out_dir.mkdir(parents=True)
    result_path = out_dir / "result.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--subcommand",
        workload.subcommand,
        "--out",
        str(out_dir),
        "--result",
        str(result_path),
    ]
    for item in overrides:
        cmd += ["--set", item]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(SRC))
    with open(out_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.problems.append(f"killed after the {RUN_LIMIT_S:.0f} s limit")
            return child
        finally:
            proc.kill()  # no-op once it has exited; reaps it on a timeout or interrupt
            proc.wait()
    if code != 0:
        tail = (out_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        child.problems.append(f"exit code {code}: {' '.join(tail)}")
        return child
    child.result = json.loads(result_path.read_text())
    child.raw_setup_s = child.result["t_ready"] - spawned
    child.raw_wall_s = child.result["wall_s"]
    child.maxrss_mb = child.result["maxrss_mb"]
    child.speed = calibrate.scale(child.result["kernel_s"])
    child.setup_s = child.raw_setup_s * child.speed
    child.wall_s = child.raw_wall_s * child.speed
    try:
        problems, child.outputs = check_outputs(workload, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable artifacts: {exc!r}"]
    child.problems.extend(problems)
    return child


def _aucs(manifest: dict) -> dict:
    if "auc" in manifest:
        return dict(manifest["auc"])
    if "equivalence" in manifest:
        eq = manifest["equivalence"]
        aucs = {f"proposed:K={eq['proposed_num_crs']}": eq["proposed_auc"]}
        for k, auc in zip(eq["searched"], eq["conventional_aucs"]):
            aucs[f"conventional:K={k}"] = auc
        return aucs
    return {}


def check_outputs(workload: Workload, out_dir: Path) -> tuple[list[str], dict]:
    """Problems found in one run's artifacts, and the facts other checks need."""
    problems: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    data = (out_dir / manifest["outputs"][0]).read_bytes()
    lines = data.decode().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        problems.append("CSV header is not the fixed CSV_COLUMNS")
    rows = list(csv.reader(lines[1:]))
    if len(rows) != workload.expected_rows:
        problems.append(f"{len(rows)} CSV rows, expected {workload.expected_rows}")
    checked = RATE_COLUMNS + CI_COLUMNS if workload.empirical else ("theory_pfa", "theory_pd")
    decisions = 0
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(CSV_COLUMNS):
            problems.append(f"line {line_no}: {len(row)} fields")
            continue
        record = dict(zip(CSV_COLUMNS, row))
        for column in checked:
            try:
                value = float(record[column])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                problems.append(f"line {line_no}: {column}={record[column]!r} is not finite")
            elif column in RATE_COLUMNS and not 0.0 <= value <= 1.0:
                problems.append(f"line {line_no}: {column}={value} outside [0, 1]")
        decisions += 2 * int(record["trials"])  # one H0 and one H1 regime per row
    if workload.subcommand == "equivalence":
        searched = manifest["equivalence"]["searched"]
        if searched != list(EQUIVALENCE_COUNTS):
            problems.append(f"searched {len(searched)} sensor counts, expected all 48")
    outputs = {
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "csv_bytes": len(data),
        "decisions": decisions,
        "auc": _aucs(manifest),
    }
    return problems[:MAX_PROBLEMS], outputs


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def check_determinism(children: list[Child], digest_key: str) -> list[str]:
    """Fail runs whose CSV bytes differ from the first run's or an earlier set's."""
    notes = []
    ran = [c for c in children if c.outputs]
    if not ran:
        return notes
    store = _load_json(DIGESTS)
    expected = store.get(digest_key, ran[0].outputs["csv_sha256"])
    for c in ran:
        if c.outputs["csv_sha256"] != expected:
            c.problems.append("CSV bytes differ from another run of the same code and seed")
    if digest_key in store:
        notes.append("CSV bytes checked against an earlier set of the same code and seed")
    elif not any(c.problems for c in ran):
        store[digest_key] = expected
        OUT.mkdir(exist_ok=True)
        tmp = DIGESTS.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, DIGESTS)
    return notes


def compare_reference(workload: Workload, seed: int, first: Child) -> list[str]:
    """Report, without failing, a CSV that differs from the seed commit's bytes."""
    reference = _load_json(REFERENCE)
    entry = reference.get("workloads", {}).get(workload.name)
    if seed != reference.get("seed") or entry is None or not first.outputs:
        return []
    if first.outputs["csv_sha256"] == entry["csv_sha256"]:
        return ["CSV bytes equal the seed commit's reference"]
    notes = ["CSV bytes DIFFER from the seed commit's reference (reported, not failed)"]
    for curve, auc in first.outputs["auc"].items():
        before = entry["auc"].get(curve)
        if before is not None and before != auc:
            notes.append(f"  AUC {curve}: seed {before:.6f} -> now {auc:.6f}")
    return notes


def _layer(spans: dict, name: str) -> dict:
    return spans.get(name, {"calls": 0, "self_s": 0.0, "cells": 0})


def per_layer_metrics(traced: Child, untraced: Child) -> dict:
    spans = traced.result["spans"]
    wall = traced.raw_wall_s
    forced = _layer(spans, "harness.forced_rates")
    conventional = _layer(spans, "harness.conventional_rate")
    decisions = traced.outputs["decisions"]
    values = {
        "harness.forced_rates.cells": forced["cells"],
        "harness.forced_rates.ns_per_cell": (
            1e9 * forced["self_s"] / forced["cells"] if forced["cells"] else 0.0
        ),
        "harness.conventional_rate.cells": conventional["cells"],
        "harness.cells_per_decision": (
            (forced["cells"] + conventional["cells"]) / decisions if decisions else 0.0
        ),
        "harness.draw_share": sum(_layer(spans, n)["self_s"] for n in DRAW_LAYERS) / wall,
        "theory.quadrature_share": (
            sum(_layer(spans, n)["self_s"] for n in QUADRATURE_LAYERS) / wall
        ),
        "cli.csv_bytes": traced.outputs["csv_bytes"],
        "unattributed_s": wall - sum(_layer(spans, n)["self_s"] for n in SELF_TIMED),
        "trace_overhead_s": traced.wall_s - untraced.wall_s,  # both calibrated
    }
    for name, _unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name not in values and stat in ("calls", "self_s"):
            values[name] = _layer(spans, layer)[stat]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


@dataclass
class Measurement:
    workload: Workload
    seed: int
    trace: bool
    children: list[Child]
    metrics: dict
    notes: list[str]
    environment: dict

    @property
    def attempted(self) -> int:
        return len(self.children)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.children if c.problems)


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    size: str = "full",
) -> Measurement:
    """Run one workload the way one benchmark invocation does."""
    overrides = workload.overrides + (f"seed={seed}",)
    runs_dir = OUT / size / workload.name / f"trace{int(trace)}"
    shutil.rmtree(runs_dir, ignore_errors=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    load_before = os.getloadavg()
    children: list[Child] = []

    def start(label: str, **kwargs) -> Child:
        child = spawn(workload, overrides, runs_dir / label, label, deadline, **kwargs)
        children.append(child)
        return child

    if trace:
        untraced = start("untraced")
        traced = start("traced", trace=True)
    else:
        began = time.monotonic()
        while True:
            run = start(f"run-{len(children)}")
            spent = time.monotonic() - began
            per_run = spent / len(children)
            if run.problems or spent + per_run > seconds or time.monotonic() + per_run > deadline:
                break
    versions = next((c.result["versions"] for c in children if c.result), {})
    digest_key = "|".join((workload.name, *overrides, source_fingerprint(), *versions.values()))
    notes = check_determinism(children, digest_key)
    if not trace:
        notes += compare_reference(workload, seed, children[0])

    metrics: dict = {}
    if trace:
        if not traced.problems and not untraced.problems:
            if traced.outputs["csv_sha256"] != untraced.outputs["csv_sha256"]:
                traced.problems.append("traced CSV bytes differ from the untraced run's")
            else:
                notes.append("traced CSV bytes equal the untraced run's")
                metrics = per_layer_metrics(traced, untraced)
    else:
        ok = [c for c in children if not c.problems]
        if ok:
            metrics = {
                "wall_s": statistics.median(c.wall_s for c in ok),
                "setup_s": statistics.median(c.setup_s for c in ok),
                "peak_rss_mb": max(c.maxrss_mb for c in ok),
            }
            metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    environment = {
        **versions,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {"css_lab --threads": 1, **THREAD_ENV},
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    result = Measurement(workload, seed, trace, children, metrics, notes, environment)
    write_record(result, runs_dir)
    return result


def write_record(m: Measurement, runs_dir: Path) -> None:
    record = {
        "workload": m.workload.name,
        "why": m.workload.why,
        "predictions": list(m.workload.predictions),
        "seed": m.seed,
        "trace": int(m.trace),
        "environment": m.environment,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": m.metrics,
        "notes": m.notes,
        "children": [
            {
                "label": c.label,
                "setup_s": c.setup_s,
                "wall_s": c.wall_s,
                "raw_setup_s": c.raw_setup_s,
                "raw_wall_s": c.raw_wall_s,
                "speed": c.speed,
                "maxrss_mb": c.maxrss_mb,
                "problems": c.problems,
                **c.outputs,
            }
            for c in m.children
        ],
    }
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")


def report(m: Measurement) -> None:
    """Human-readable lines for one measurement."""
    env = m.environment
    print(
        f"== {m.workload.name}  seed={m.seed}  trace={int(m.trace)}  "
        f"python {env.get('python')}  numpy {env.get('numpy')}  scipy {env.get('scipy')}  "
        f"nproc {env['nproc']}  load {env['loadavg_before'][0]:.2f} -> "
        f"{env['loadavg_after'][0]:.2f}"
    )
    ok = [c for c in m.children if not c.problems]
    raw = {}
    if ok and not m.trace:
        raw = {
            "wall_s": statistics.median(c.raw_wall_s for c in ok),
            "setup_s": statistics.median(c.raw_setup_s for c in ok),
        }
        print(
            f"   {len(ok)} runs; machine speed {min(c.speed for c in ok):.3f}"
            f"..{max(c.speed for c in ok):.3f} reference s per measured s"
        )
    for name, metric in m.metrics.items():
        extra = f"  (median of n={len(ok)}; raw {raw[name]:.6g} s)" if name in raw else ""
        print(f"   {name:<36} {metric['value']:>14.6g} {metric['unit']}{extra}")
    rate = m.failed / m.attempted if m.attempted else 0.0
    print(f"   {'error_rate':<36} {rate:>14.6g} failed/attempted  ({m.failed}/{m.attempted})")
    for c in m.children:
        for problem in c.problems:
            print(f"   FAIL {c.label}: {problem}")
    for note in m.notes:
        print(f"   note: {note}")


def self_check() -> int:
    """Every workload and the traced path at a tiny size, plus the checks themselves."""
    failures = []
    declared = _load_json(ROOT / "BENCHMARK.json")
    for group, spec in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [m["name"] for m in declared.get(group, [])] != [name for name, _ in spec]:
            failures.append(f"BENCHMARK.json {group} names differ from run.py's")
    for base in WORKLOADS.values():
        workload = base.self_check()
        for trace in (False, True):
            m = measure(workload, DEFAULT_SEED, 0.0, trace, size="self-check")
            report(m)
            wanted = PER_LAYER if trace else END_TO_END
            if m.failed or set(m.metrics) != {name for name, _ in wanted}:
                failures.append(f"{workload.name} trace={int(trace)} did not pass")
        failures += _check_the_checks(workload)
    for failure in failures:
        print(f"SELF-CHECK FAIL: {failure}")
    print("self-check " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def _check_the_checks(workload: Workload) -> list[str]:
    """Corrupt a good run's artifacts and require the output checks to notice."""
    good = OUT / "self-check" / workload.name / "trace1" / "untraced"
    manifest = json.loads((good / "manifest.json").read_text())
    csv_name = manifest["outputs"][0]
    lines = (good / csv_name).read_text().splitlines(keepends=True)
    rate_col = CSV_COLUMNS.index("theory_pd")

    def set_rate(value: str) -> list[str]:
        fields = lines[1].rstrip("\n").split(",")
        fields[rate_col] = value
        return [lines[0], ",".join(fields) + "\n", *lines[2:]]

    corruptions = {
        "header": (["x" + lines[0], *lines[1:]], manifest),
        "missing row": (lines[:-1], manifest),
        "nan rate": (set_rate("nan"), manifest),
        "rate above 1": (set_rate("1.5"), manifest),
    }
    if "equivalence" in manifest:
        short = json.loads(json.dumps(manifest))
        short["equivalence"]["searched"] = short["equivalence"]["searched"][:-1]
        corruptions["fewer sensor counts"] = (lines, short)
    failures = []
    for what, (csv_lines, bad_manifest) in corruptions.items():
        bad = OUT / "self-check" / "corrupted" / workload.name
        shutil.rmtree(bad, ignore_errors=True)
        bad.mkdir(parents=True)
        (bad / csv_name).write_text("".join(csv_lines))
        (bad / "manifest.json").write_text(json.dumps(bad_manifest))
        if not check_outputs(workload, bad)[0]:
            failures.append(f"{workload.name}: output checks missed a {what}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps the interpreter it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "css_lab" / "cli.py").is_file():
        print(f"no css-lab sources at {SRC}; run from a css-lab checkout", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required unless --self-check is given")

    if args.workload != "all":
        m = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        report(m)
        summary = {
            "correct": m.failed == 0,
            "attempted": m.attempted,
            "failed": m.failed,
            "metrics": m.metrics,
        }
    else:
        results = []
        for workload in WORKLOADS.values():
            for trace in (False, True):
                results.append(measure(workload, args.seed, args.seconds, trace))
                report(results[-1])
        summary = {
            "correct": all(m.failed == 0 for m in results),
            "attempted": sum(m.attempted for m in results),
            "failed": sum(m.failed for m in results),
            "metrics": {
                f"{m.workload.name}.{name}": metric
                for m in results
                for name, metric in m.metrics.items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
