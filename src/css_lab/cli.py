"""Command-line front end: scenario files in, deterministic CSV/JSON artifacts out.

Scenario files are flat ``key = value`` documents (``#`` starts a comment);
``--set key=value`` overrides fields after the file is read.  Every run
writes a flat CSV with a fixed column order, a JSON manifest and a
standalone plot script that renders the ROC curves from the CSV.  Output
bytes are identical across repeated runs of the same resolved scenario; the
only timestamp lives in the manifest.  What may vary between machines and
runs (library versions, thread count, warnings) goes to ``run.json``.

Exit codes: 0 success, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy

from . import __version__
from .harness import (
    SCHEME_CONVENTIONAL,
    SCHEME_PROPOSED,
    RocCurve,
    RocPoint,
    Scenario,
    binomial_ci,
    equivalence_search,
    fmt,
    roc_sweep,
)
from .theory import CombinerKind, NumericError, closed_form_rates, expected_rho

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

SUBCOMMANDS = ("roc", "sweep-l", "sweep-k", "compare", "equivalence", "theory-table")
# subcommand -> (scenario field, values): dual-threshold curves across the values
SWEEPS = {"sweep-l": ("history_len", (5, 10, 15, 20)), "sweep-k": ("num_crs", (1, 3, 5, 7))}
EQUIVALENCE_PROPOSED_CRS = 3
EQUIVALENCE_K_RANGE = tuple(range(1, 49))


class ValidationError(ValueError):
    """Bad scenario file, override or field value; maps to exit code 2."""


# field name -> annotation; harness postpones annotations, so these are strings
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Scenario)}
_PARSERS = {"int": int, "float": float, "str": str}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    if key not in _FIELD_TYPES:
        raise ValidationError(f"unknown key {key!r}; valid keys: {', '.join(_FIELD_TYPES)}")
    try:
        if key == "combiner":
            names = sorted(k.value for k in CombinerKind)
            if raw.lower() not in names:
                raise ValueError(f"combiner must be one of {names}")
            return CombinerKind(raw.lower())
        if key == "pfa_grid":
            return tuple(float(part) for part in raw.split(",") if part.strip())
        return _PARSERS[_FIELD_TYPES[key]](raw)
    except ValueError as exc:
        raise ValidationError(f"field {key!r}: cannot parse {raw!r} ({exc})") from exc


def _parse_assignments(lines: Sequence[str], origin: str) -> dict:
    fields: dict = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ValidationError(f"{origin}:{lineno}: expected 'key = value', got {text!r}")
        fields[key.strip()] = _coerce(key.strip(), value)
    return fields


def parse_scenario(path: str | os.PathLike | None, overrides: Sequence[str] = ()) -> Scenario:
    """Build a validated Scenario from a key=value file plus overrides."""
    fields: dict = {}
    if path is not None:
        try:
            lines = Path(path).read_text().splitlines()
        except OSError as exc:
            raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
        fields.update(_parse_assignments(lines, str(path)))
    fields.update(_parse_assignments(list(overrides), "--set"))
    try:
        return Scenario(**fields)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _theory_table_rows(scenario: Scenario) -> list[str]:
    rows = []
    rhos = {SCHEME_CONVENTIONAL: 1.0, SCHEME_PROPOSED: expected_rho(scenario.theory_params())}
    blank = ("",) * 4  # no empirical columns
    for kind in (CombinerKind.SLC, CombinerKind.MRC, CombinerKind.SLS):
        sub = replace(scenario, combiner=kind)
        lams = sub.cfar_grid()
        columns = [
            (_row_template(sub, scheme), *closed_form_rates(sub.theory_params(rho), lams))
            for scheme, rho in rhos.items()
        ]
        for i, (target, lam) in enumerate(zip(sub.pfa_grid, lams)):
            for line, pfa, pd in columns:
                values = (fmt(target), fmt(lam), *blank, fmt(pfa[i]), fmt(pd[i]), "0")
                rows.append(line.format(",".join(values)))
    return rows


def _row_template(scenario: Scenario, scheme: str) -> str:
    """A CSV line in ``CSV_COLUMNS`` order, ``{}`` standing for the values target_pfa to trials."""
    return f"{scenario.digest()},{scenario.combiner.name},{scheme},{{}},{scenario.seed}"


def _curve_rows(curve: RocCurve) -> list[str]:
    line = _row_template(curve.scenario, curve.scheme)  # once: the digest hashes the scenario
    # RocPoint's fields run in CSV order, from target_pfa to trials
    floats = [f.name for f in dataclasses.fields(RocPoint)[:-1]]
    return [
        line.format(",".join([*(fmt(getattr(p, f)) for f in floats), str(p.trials)]))
        for p in curve.points
    ]


def _theory_gap(curve: RocCurve) -> dict:
    """Worst ``|empirical - theory| / CI`` over a curve's points, for pfa and for pd.

    CI is the point's 3-sigma binomial half-width.  It is zero where the
    empirical rate is exactly 0 or 1; such a point is measured in the
    half-width of a rate of one event in ``trials`` instead, the smallest
    nonzero CI at that trial count, so the gap stays finite and a theory
    value far from an empty or full count still shows.  Gaps are rounded to
    the CSV's 12 significant digits, so a last-bit change in a closed form
    that leaves the CSV as it is leaves the manifest as it is too.
    """
    n = curve.points[0].trials
    floor = binomial_ci(1.0 / n, n)

    def worst(triples) -> float:
        return float(fmt(max(abs(rate - theory) / (ci or floor) for rate, ci, theory in triples)))

    return {
        "combiner": curve.scenario.combiner.name,
        "scheme": curve.scheme,
        "num_crs": curve.scenario.num_crs,
        "history_len": curve.scenario.history_len,
        "pfa": worst((p.empirical_pfa, p.empirical_pfa_ci, p.theory_pfa) for p in curve.points),
        "pd": worst((p.empirical_pd, p.empirical_pd_ci, p.theory_pd) for p in curve.points),
    }


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
\"\"\"Render ROC curves from {csv_name} (generated alongside this script).\"\"\"

import csv
from collections import defaultdict

import matplotlib.pyplot as plt

series = defaultdict(list)
with open("{csv_name}", newline="") as fh:
    for row in csv.DictReader(fh):
        if not row["empirical_pfa"]:
            continue
        key = (row["combiner"], row["scheme"], row["scenario_digest"][:6])
        series[key].append((float(row["empirical_pfa"]), float(row["empirical_pd"])))

fig, ax = plt.subplots(figsize=(6, 5))
for (combiner, scheme, digest), pts in sorted(series.items()):
    pts.sort()
    ax.plot(*zip(*pts), marker="o", label=f"{{combiner}} {{scheme}} [{{digest}}]")
ax.plot([0, 1], [0, 1], ls=":", c="gray", lw=1)
ax.set_xlabel("probability of false alarm")
ax.set_ylabel("probability of detection")
ax.set_xlim(0, 1)
ax.set_ylim(0, 1)
ax.grid(alpha=0.3)
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig("roc.png", dpi=150)
print("wrote roc.png")
"""


def _write(path: Path, text: str) -> None:
    path.write_text(text, newline="\n")


def run_command(
    subcommand: str,
    scenario: Scenario,
    out_dir: str | os.PathLike,
    threads: int = 1,
) -> dict:
    """Dispatch one subcommand and write its artifacts; returns the manifest.

    Beside the byte-stable CSV and manifest, ``run.json`` records what may
    differ between runs of one scenario: the python, numpy and scipy
    versions, the thread count and the warnings raised.  The warnings are
    captured while the subcommand runs and re-emitted once it ends, so
    callers still see them.
    """
    if subcommand not in SUBCOMMANDS:
        raise ValidationError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            manifest = _write_artifacts(subcommand, scenario, out, threads)
        # re-emitted once per warning and place it was raised from, recorded once per message
        places = {(w.category, str(w.message), w.filename, w.lineno): w for w in caught}
        caught = list(places.values())
        messages = dict.fromkeys((w.category.__name__, str(w.message)) for w in caught)
        run = {
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "threads": threads,
            "warnings": [{"category": c, "message": m} for c, m in messages],
        }
        _write(out / "run.json", json.dumps(run, indent=2, sort_keys=True) + "\n")
    finally:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return manifest


def _write_artifacts(subcommand: str, scenario: Scenario, out: Path, threads: int) -> dict:
    """Run one subcommand and write its CSV, plot script and manifest; returns the manifest."""
    extras: dict = {}
    curves: list[RocCurve] = []
    if subcommand == "roc":
        curves.extend(roc_sweep(scenario, threads=threads))
        csv_name = "roc.csv"
    elif subcommand == "compare":
        curves.extend(roc_sweep(scenario, threads=threads, combiners=tuple(CombinerKind)))
        extras["auc"] = {f"{c.scenario.combiner.name}:{c.scheme}": c.auc for c in curves}
        csv_name = "compare.csv"
    elif subcommand in SWEEPS:
        field, values = SWEEPS[subcommand]
        for v in values:
            sweep = roc_sweep(replace(scenario, **{field: v}), threads)
            curves.extend(c for c in sweep if c.scheme == SCHEME_PROPOSED)
        extras[f"auc_by_{field}"] = {str(v): c.auc for v, c in zip(values, curves)}
        csv_name = subcommand.replace("-", "_") + ".csv"
    elif subcommand == "equivalence":
        proposed = replace(scenario, num_crs=EQUIVALENCE_PROPOSED_CRS)
        result = equivalence_search(proposed, EQUIVALENCE_K_RANGE, threads=threads)
        curves = [result.proposed_curve, *result.conventional_curves]
        extras["equivalence"] = {
            "k_match": result.k_match,
            "auc_gap": result.auc_gap,
            "proposed_auc": result.proposed_curve.auc,
            "proposed_auc_ci": result.proposed_curve.auc_ci,
            "proposed_num_crs": EQUIVALENCE_PROPOSED_CRS,
            "searched": [c.scenario.num_crs for c in result.conventional_curves],
            "conventional_aucs": [c.auc for c in result.conventional_curves],
            "conventional_auc_cis": [c.auc_ci for c in result.conventional_curves],
        }
        csv_name = "equivalence.csv"
    else:  # theory-table
        csv_name = "theory_table.csv"
    if curves:
        rows = [row for curve in curves for row in _curve_rows(curve)]
        extras["theory_gap"] = [_theory_gap(curve) for curve in curves]
    else:
        rows = _theory_table_rows(scenario)

    csv_path = out / csv_name
    _write(csv_path, "\n".join([",".join(CSV_COLUMNS)] + rows) + "\n")
    plot_path = out / "plot_roc.py"
    _write(plot_path, _PLOT_TEMPLATE.format(csv_name=csv_name))
    manifest = {
        "tool_version": __version__,
        "scenario_digest": scenario.digest(),
        "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [csv_name, "plot_roc.py"],
        **extras,
    }
    _write(out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="css-lab",
        description="Cooperative spectrum sensing experiments and analysis tables.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--scenario", help="path to a flat key=value scenario file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a scenario field (repeatable, applied after the file)",
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads for the H0 and H1 draws of each sweep (default 1)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(args.scenario, args.overrides)
        run_command(args.subcommand, scenario, args.out, threads=max(1, args.threads))
    except ValidationError as exc:
        json.dump({"error": {"type": "validation", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except NumericError as exc:
        json.dump({"error": {"type": "numeric", "message": str(exc)}}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
