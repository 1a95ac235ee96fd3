"""Command-line front end: parsing, artifacts, determinism, exit codes."""

import dataclasses
import hashlib
import json
import sys

import numpy as np
import pytest
import scipy

import ast
from pathlib import Path

from css_lab import cli, fusion, harness, theory
from css_lab.cli import (
    CSV_COLUMNS,
    SWEEPS,
    ValidationError,
    _theory_gap,
    main,
    parse_scenario,
    run_command,
)
from css_lab.harness import Scenario, roc_sweep
from css_lab.theory import CombinerKind, NumericError, cfar_threshold, expected_rho
from css_lab.theory import qd_proposed_rayleigh, qd_rayleigh
from css_lab.theory import qfa_approx, qfa_proposed


class TestParseScenario:
    def test_empty_file_gives_documented_defaults(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        sc = parse_scenario(path)
        assert sc.snr_db == -15.0
        assert sc.n_samples == 1000
        assert sc.num_crs == 7
        assert sc.history_len == 15
        assert sc.uncertainty_db == 1.0
        assert sc.combiner is CombinerKind.SLC
        assert sc.trials == 10000
        assert sc.channel_kind == "rayleigh"

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("num_crs = 3\nsnr_db = -12  # comment\n\n# full-line comment\n")
        sc = parse_scenario(path, overrides=["num_crs=5", "combiner=mrc"])
        assert sc.num_crs == 5
        assert sc.snr_db == -12.0
        assert sc.combiner is CombinerKind.MRC

    def test_invariant_violation_names_field(self, tmp_path):
        with pytest.raises(ValidationError, match="history_len"):
            parse_scenario(None, overrides=["history_len=1"])

    def test_unknown_key_lists_valid(self):
        with pytest.raises(ValidationError, match="valid keys"):
            parse_scenario(None, overrides=["bandwidth=5"])

    def test_same_file_same_digest(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("seed = 9\ntrials = 500\n")
        assert parse_scenario(path).digest() == parse_scenario(path).digest()

    def test_pfa_grid_parse(self):
        sc = parse_scenario(None, overrides=["pfa_grid=0.05,0.1,0.2"])
        assert sc.pfa_grid == (0.05, 0.1, 0.2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            parse_scenario(tmp_path / "absent.txt")


def _fast_scenario_file(tmp_path, **extra):
    lines = {"trials": 800, "seed": 5, "pfa_grid": "0.1,0.3", "n_samples": 200,
             "num_crs": 2, "history_len": 3}
    lines.update(extra)
    path = tmp_path / "scenario.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


class TestRunCommand:
    def test_roc_schema_and_determinism(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path))
        m1 = run_command("roc", scen, tmp_path / "a")
        m2 = run_command("roc", scen, tmp_path / "b")
        csv_a = (tmp_path / "a" / "roc.csv").read_bytes()
        csv_b = (tmp_path / "b" / "roc.csv").read_bytes()
        assert csv_a == csv_b
        header = csv_a.decode().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert m1["outputs"] == ["roc.csv", "plot_roc.py"]
        assert m1["scenario_digest"] == m2["scenario_digest"]

    def test_compare_covers_all_combiners_and_schemes(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path))
        run_command("compare", scen, tmp_path / "c")
        lines = (tmp_path / "c" / "compare.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        combiners = {r[1] for r in rows}
        schemes = {r[2] for r in rows}
        assert combiners == {"SLC", "MRC", "SLS"}
        assert schemes == {"conventional", "proposed"}
        assert len(rows) == 3 * 2 * len(scen.pfa_grid)

    def test_sweep_l_outputs_per_value(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path))
        manifest = run_command("sweep-l", scen, tmp_path / "l")
        assert set(manifest["auc_by_history_len"]) == {"5", "10", "15", "20"}

    def test_sweep_k_outputs_per_value(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path))
        manifest = run_command("sweep-k", scen, tmp_path / "k")
        assert set(manifest["auc_by_num_crs"]) == {"1", "3", "5", "7"}

    @pytest.mark.parametrize("command", ["sweep-l", "sweep-k"])
    def test_sweep_rows_are_the_proposed_rows_of_roc(self, command, tmp_path):
        # each value's rows are the dual-threshold rows of a roc run at that value
        field, values = SWEEPS[command]
        scen = parse_scenario(_fast_scenario_file(tmp_path, trials=300))
        manifest = run_command(command, scen, tmp_path / "s")
        name = command.replace("-", "_") + ".csv"
        rows = (tmp_path / "s" / name).read_text().splitlines()[1:]
        expected = []
        for v in values:
            sub = dataclasses.replace(scen, **{field: v})
            run_command("roc", sub, tmp_path / f"roc{v}")
            roc_rows = (tmp_path / f"roc{v}" / "roc.csv").read_text().splitlines()[1:]
            expected.extend(r for r in roc_rows if r.split(",")[2] == "proposed")
            assert manifest[f"auc_by_{field}"][str(v)] == roc_sweep(sub)[1].auc
        assert rows == expected

    def test_equivalence_manifest_records_search(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path, trials=400))
        manifest = run_command("equivalence", scen, tmp_path / "e")
        record = manifest["equivalence"]
        assert record["proposed_num_crs"] == 3
        assert record["searched"][0] == 1
        assert len(record["conventional_aucs"]) == len(record["searched"])
        # the curves across K share one draw, so each carries its own AUC half-width
        assert len(record["conventional_auc_cis"]) == len(record["searched"])
        assert all(ci > 0 for ci in record["conventional_auc_cis"])
        assert record["proposed_auc_ci"] > 0
        assert record["k_match"] == -1 or record["k_match"] in record["searched"]

    @pytest.mark.parametrize("command", ["roc", "compare", "sweep-l", "sweep-k", "equivalence"])
    def test_manifest_records_theory_gap(self, command, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path, trials=300))
        manifest = run_command(command, scen, tmp_path / "a")
        name = command.replace("-", "_") + ".csv"
        lines = (tmp_path / "a" / name).read_text().splitlines()[1:]
        rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in lines]
        gaps = manifest["theory_gap"]
        per_curve = len(scen.pfa_grid)
        assert len(gaps) * per_curve == len(rows)
        floor = 3.0 * np.sqrt((1 / 300) * (1 - 1 / 300) / 300)
        for i, gap in enumerate(gaps):
            curve = rows[i * per_curve : (i + 1) * per_curve]
            assert {r["combiner"] for r in curve} == {gap["combiner"]}
            assert {r["scheme"] for r in curve} == {gap["scheme"]}
            for rate in ("pfa", "pd"):
                expected = max(
                    abs(float(r[f"empirical_{rate}"]) - float(r[f"theory_{rate}"]))
                    / (float(r[f"empirical_{rate}_ci"]) or floor)
                    for r in curve
                )
                # the CSV carries 12 significant digits, and so does the gap
                assert gap[rate] == pytest.approx(expected, rel=1e-9)
                assert gap[rate] == float(f"{gap[rate]:.12g}")
        # deterministic: a second run writes the same manifest apart from started_at
        run_command(command, scen, tmp_path / "b")
        first, second = (
            [
                line
                for line in (tmp_path / d / "manifest.json").read_text().splitlines()
                if '"started_at"' not in line
            ]
            for d in ("a", "b")
        )
        assert first == second

    def test_theory_gap_measures_zero_ci_points_in_one_event_widths(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path, trials=300))
        curve = roc_sweep(scen)[0]
        empty = dataclasses.replace(
            curve.points[0], empirical_pfa=0.0, empirical_pfa_ci=0.0, theory_pfa=0.05
        )
        gap = _theory_gap(dataclasses.replace(curve, points=(empty,)))
        one_event = 3.0 * np.sqrt((1 / 300) * (1 - 1 / 300) / 300)
        assert gap["pfa"] == pytest.approx(0.05 / one_event, rel=1e-12)
        assert np.isfinite(gap["pd"])

    def test_theory_table_has_no_theory_gap(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path))
        assert "theory_gap" not in run_command("theory-table", scen, tmp_path / "t")

    def test_plot_script_compiles(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path))
        run_command("roc", scen, tmp_path / "p")
        source = (tmp_path / "p" / "plot_roc.py").read_text()
        compile(source, "plot_roc.py", "exec")

    def test_theory_table_double_evaluation(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path, n_samples=1000, num_crs=7,
                                                  history_len=15))
        run_command("theory-table", scen, tmp_path / "t")
        lines = (tmp_path / "t" / "theory_table.csv").read_text().splitlines()
        rho = expected_rho(scen.theory_params())
        count = 0
        for line in lines[1:]:
            row = dict(zip(CSV_COLUMNS, line.split(",")))
            from dataclasses import replace

            sub = replace(scen, combiner=CombinerKind[row["combiner"]])
            lam = float(row["lambda"])
            assert lam == pytest.approx(
                cfar_threshold(sub.theory_params(), float(row["target_pfa"])), rel=1e-11
            )
            if row["scheme"] == "conventional":
                pfa = qfa_approx(sub.theory_params(), lam)
                pd = qd_rayleigh(sub.theory_params(), lam)
            else:
                pfa = qfa_proposed(sub.theory_params(rho=rho), lam)
                pd = qd_proposed_rayleigh(sub.theory_params(rho=rho), lam)
            assert float(row["theory_pfa"]) == pytest.approx(pfa, abs=1e-9)
            assert float(row["theory_pd"]) == pytest.approx(pd, abs=1e-9)
            assert row["empirical_pfa"] == ""
            count += 1
        assert count == 3 * 2 * len(scen.pfa_grid)

    def test_unknown_subcommand(self, tmp_path):
        with pytest.raises(ValidationError):
            run_command("render", Scenario(trials=100, seed=1), tmp_path)

    def test_compare_shares_the_slc_and_sls_draws(self, tmp_path, monkeypatch):
        calls = []
        original = harness.forced_rates

        def counted(*args, **kwargs):
            calls.append(kwargs.get("combiners"))
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "forced_rates", counted)
        run_command("compare", parse_scenario(_fast_scenario_file(tmp_path)), tmp_path / "c")
        # per hypothesis: one call for all three combiners
        assert calls == [tuple(CombinerKind)] * 2

    @pytest.mark.parametrize("command", ["theory-table", "compare"])
    def test_one_dual_threshold_fading_average_per_combiner(self, command, tmp_path, monkeypatch):
        calls = []
        original = theory.qd_proposed_rayleigh

        def counted(p, lam):
            calls.append((p.kind, np.shape(lam)))
            return original(p, lam)

        monkeypatch.setattr(theory, "qd_proposed_rayleigh", counted)
        scen = parse_scenario(_fast_scenario_file(tmp_path))
        run_command(command, scen, tmp_path / "q")
        # each curve's whole threshold grid in one call, the fixed-threshold curve's at rho = 1
        grid = (len(scen.pfa_grid),)
        assert calls == [(kind, grid) for kind in CombinerKind for _scheme in range(2)]

    @pytest.mark.parametrize("command", ["theory-table", "compare"])
    def test_one_cfar_call_per_grid_one_pfa_call_per_curve(self, command, tmp_path, monkeypatch):
        calls = {"cfar_threshold": [], "qfa_proposed": []}
        for name, record in calls.items():
            original = getattr(theory, name)

            def counted(p, grid, original=original, record=record):
                record.append((p.kind, np.shape(grid)))
                return original(p, grid)

            for module in (cli, fusion, harness, theory):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        scen = parse_scenario(_fast_scenario_file(tmp_path))
        run_command(command, scen, tmp_path / "q")
        grid = (len(scen.pfa_grid),)
        assert calls["cfar_threshold"] == [(kind, grid) for kind in CombinerKind]
        assert calls["qfa_proposed"] == [(kind, grid) for kind in CombinerKind for _ in range(2)]

    def test_compare_writes_run_record(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path, trials=300))
        manifest = run_command("compare", scen, tmp_path / "r", threads=2)
        assert manifest["outputs"][0] == "compare.csv"
        assert "run.json" not in manifest["outputs"]
        record = json.loads((tmp_path / "r" / "run.json").read_text())
        assert set(record) == {"versions", "threads", "warnings"}
        assert record["versions"] == {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        }
        assert record["threads"] == 2
        assert record["warnings"] == []

    def test_run_record_lists_warnings_and_callers_still_see_them(self, tmp_path):
        scen = parse_scenario(_fast_scenario_file(tmp_path, trials=50))
        with pytest.warns(UserWarning, match="only 50 trials"):
            run_command("compare", scen, tmp_path / "w")
        record = json.loads((tmp_path / "w" / "run.json").read_text())
        message = "only 50 trials; confidence intervals will be wide"
        assert record["warnings"] == [{"category": "UserWarning", "message": message}]

    def test_run_record_lists_small_n_once(self, tmp_path):
        # the CFAR inversion and the Gaussian forms raise it from different places
        scen = parse_scenario(None, ["n_samples=64", "pfa_grid=0.1,0.2"])
        with pytest.warns(UserWarning, match="N=64 is small"):
            run_command("theory-table", scen, tmp_path / "n")
        record = json.loads((tmp_path / "n" / "run.json").read_text())
        message = "N=64 is small; Gaussian approximations may be inaccurate"
        assert record["warnings"] == [{"category": "UserWarning", "message": message}]


GOLDEN_SHA256 = {
    "compare": "493cf05c353f569bf56f1b23d2e81dc2685b17e1f350e630a0a529dcfef8c351",
    "equivalence": "3824cf44f147b93f8f15a93641fbf47791e992ed3c43eb3c2dbb3300dcb12f67",
    "roc": "64ebc68eadd1aa131932d0f15a8b6df7dae866de90ad9eb1cdcf30906d85faef",
    "sweep-k": "c713c15fc1667c2c66c7f223d43bde3c76795a52d388ddc74e3c7ef8d56bb572",
    "sweep-l": "c36a6139de2b9f5a0a3a23c95bb3ec3b0a67174381480d67e7eee78ff6e82d8e",
    "theory-table": "2505eb709d81fc87f94e0569c6168d90f77e92bc6678c97f5d65654f5ecc4784",
    "compare-awgn": "3cbde561f24186537214f09d92881c884b468f375b86973e8f99e910094302b2",
    "theory-table-awgn": "00945c329a9d8114a1021e3d54a1f6935e322d746949e1f732135d37d3babb58",
    "theory-table-k48-n64": "f36bdb829929a2e8d516dc845b20b52d6586d379ac95ddcfba7d16188984de7f",
    "compare-k9": "0513f87bc23945f9eb1e515a4a5f0d4cff6ac25cc91d5c35013c260c93f41e7a",
    "equivalence-mrc": "5522733720401438e52af565897878f2c634127cc727e42985f424adad11e2b8",
    "compare-u0": "d51371639dbce4633dd5f5537cdee430f33d9f9e05e785cacff43ec82bb7c63b",
    "theory-table-u0": "d5acd2e441c1982961407cac23cfe3a5119aa66d5de7eda554c304415638b156",
}
# manifest bytes without the started_at line: they pin what no CSV carries, such as
# the per-curve AUCs, the equivalence search's AUC half-widths and the theory gaps
GOLDEN_MANIFEST_SHA256 = {
    "compare": "e1e6dc8dd1987e9826e328f6af67cce896c52569750f3bfa32f664e1fe76a71b",
    "equivalence": "2853fab193b04da5e39089eb06961e830fdc330a344503c69b2991faa7436171",
    "roc": "be9eb287d915276d4b8cf805ed3e4892e001663ccab01c86286a5eaee0239770",
    "sweep-k": "97e23650b34219deba638d2950ab34a632fbecde8f1d336e8bb1b580c4784ad4",
    "sweep-l": "45ef39e6008a039eaf512c0aa05e25797fcef81ae5e8575a9d514523ab6a4bc6",
    "theory-table": "4ab8d8c505d9b1a3ee222f61d017287159d403680f981aa1d922da347e157169",
    "compare-awgn": "4e31ffb18c94ee97698215fc73190aba9ace3a06ecf50cfb5a017e73f2341966",
    "theory-table-awgn": "a28139694eb617cb455f87804755051039620d56fa0f35c899ed44becde4b685",
    "theory-table-k48-n64": "00808eccd7719ecbbfd5fc531f78fef0a734ad4d15422e125c9cb1edaace4c32",
    "compare-k9": "548dabc42bc3a6ab51b342e5219a1d56a2e5745509e70ea06a41bd6599a9af5c",
    "equivalence-mrc": "10a03e8c1cb4900d3862939ee09ed21c492d8ea489138c3af3e713ef871d7802",
    "compare-u0": "86d845fd0a58f4164f541aa7c9ef9374fa76de4b5439121adda49a90d04e0643",
    "theory-table-u0": "59aaf8c2cbe537df2a26da315521a3f2e53e28d44db524bbd8b361c078772cc7",
}
# case -> (subcommand, overrides) for the cases that are not a plain subcommand: the
# AWGN closed forms, the SLS per-branch CFAR inversion at K = 48 with N below the
# Gaussian warning floor, full reads of more than 7 sensors (where the sensor-order
# sum and numpy's pairwise sum differ in the last bits), MRC sensor-prefix reads, and
# no uncertainty, where both schemes' curves take the closed forms' rho = 1 exits
GOLDEN_CASES = {
    "compare-awgn": ("compare", ["channel_kind=awgn"]),
    "theory-table-awgn": ("theory-table", ["channel_kind=awgn"]),
    "theory-table-k48-n64": ("theory-table", ["num_crs=48", "n_samples=64"]),
    "compare-k9": ("compare", ["num_crs=9"]),
    "equivalence-mrc": ("equivalence", ["combiner=mrc"]),
    "compare-u0": ("compare", ["uncertainty_db=0"]),
    "theory-table-u0": ("theory-table", ["uncertainty_db=0"]),
}


@pytest.mark.skipif(
    not (np.__version__.startswith("2.4.") and scipy.__version__.startswith("1.17.")),
    reason="golden digests recorded with numpy 2.4.x and scipy 1.17.x; Generator "
    "streams are not promised stable across versions",
)
@pytest.mark.parametrize("command", sorted(GOLDEN_SHA256))
def test_golden_csv_digest(command, tmp_path):
    # pins the bytes of the draw kernel, the decision rules and the fading averages
    subcommand, extra = GOLDEN_CASES.get(command, (command, []))
    scen = parse_scenario(None, overrides=["trials=300", "pfa_grid=0.0935,0.286", *extra])
    run_command(subcommand, scen, tmp_path)
    name = subcommand.replace("-", "_") + ".csv"
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN_SHA256[command]
    lines = (tmp_path / "manifest.json").read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if '"started_at"' not in line)
    assert hashlib.sha256(kept.encode()).hexdigest() == GOLDEN_MANIFEST_SHA256[command]


MODULES = sorted(path.stem for path in Path(harness.__file__).parent.glob("*.py"))


def _css_lab_imports(module):
    source = Path(harness.__file__).with_name(f"{module}.py").read_text()
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("css_lab"))
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_imports_no_private_name_of_another_module(module):
    # every module uses the other modules' public names only
    private = [
        f"{home}.{name}"
        for home, name in _css_lab_imports(module)
        if name.startswith("_") and not name.endswith("__")
    ]
    assert private == []


def test_theory_is_a_leaf_that_owns_the_null_model():
    # the analysis layer imports nothing of css_lab; fusion re-binds its two names
    assert _css_lab_imports("theory") == []
    assert fusion.CombinerKind is theory.CombinerKind
    assert fusion.cfar_threshold is theory.cfar_threshold


class TestMain:
    def test_success_exit_zero(self, tmp_path):
        scen = _fast_scenario_file(tmp_path)
        rc = main(["roc", "--scenario", str(scen), "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_validation_exit_two(self, tmp_path, capsys):
        rc = main(["roc", "--set", "history_len=1", "--out", str(tmp_path / "bad")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"

    @pytest.mark.parametrize(
        "override",
        [
            "snr_db=nan",
            "snr_db=inf",
            "uncertainty_db=nan",
            "uncertainty_db=inf",
            "snr_db=4000",  # the linear SNR overflows
            "snr_db=-4000",  # the linear SNR underflows to 0
            "uncertainty_db=4000",  # the linear half-width overflows
            "pfa_grid=5e-324",  # SLS's per-branch CFAR rate underflows to 0
        ],
    )
    def test_non_finite_value_exits_two(self, override, tmp_path, capsys):
        rc = main(["roc", "--set", override, "--set", "trials=200", "--out", str(tmp_path / "nf")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert override.split("=")[0] in err["message"]

    def test_vanishing_snr_exits_zero(self, tmp_path):
        # the conventional Rayleigh series at its point-mass limit
        out = str(tmp_path / "v")
        assert main(["roc", "--set", "snr_db=-200", "--set", "trials=200", "--out", out]) == 0

    @pytest.mark.parametrize("command", ["roc", "compare", "theory-table"])
    @pytest.mark.parametrize("snr_db", ["150", "3000"])
    def test_huge_snr_exits_zero(self, command, snr_db, tmp_path):
        # the dual-threshold fading average takes Marcum Q far past the evaluator's range
        out = str(tmp_path / "h")
        args = [command, "--set", f"snr_db={snr_db}", "--set", "trials=200", "--out", out]
        assert main(args) == 0
        # the H1 variance overflows here, but only where both Marcum tails are exactly 1
        assert json.loads((tmp_path / "h" / "run.json").read_text())["warnings"] == []

    def test_removed_pu_model_key_exits_two(self, tmp_path, capsys):
        # a scenario that still sets the removed PU model fails loudly, not silently
        rc = main(["roc", "--set", "pu_model=forced_h1", "--out", str(tmp_path / "pu")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert "unknown key 'pu_model'" in err["message"]
        valid = err["message"].split("valid keys: ", 1)[1].split(", ")
        assert valid == [f.name for f in dataclasses.fields(Scenario)]
        assert not (tmp_path / "pu").exists()

    def test_numeric_exit_three(self, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericError("quadrature diverged")

        monkeypatch.setattr("css_lab.cli.roc_sweep", explode)
        scen = _fast_scenario_file(tmp_path)
        rc = main(["roc", "--scenario", str(scen), "--out", str(tmp_path / "n")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "numeric"

    def test_non_integer_threads_env_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CSS_LAB_THREADS", "two")
        rc = main(["roc", "--set", "trials=100", "--out", str(tmp_path / "badt")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "validation"
        assert "CSS_LAB_THREADS" in err["message"]
        assert not (tmp_path / "badt").exists()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CSS_LAB_THREADS", "2")
        scen = _fast_scenario_file(tmp_path)
        rc = main(["roc", "--scenario", str(scen), "--out", str(tmp_path / "envt")])
        assert rc == 0
        # identical artifacts regardless of thread count
        monkeypatch.setenv("CSS_LAB_THREADS", "1")
        rc = main(["roc", "--scenario", str(scen), "--out", str(tmp_path / "env1")])
        assert rc == 0
        assert (tmp_path / "envt" / "roc.csv").read_bytes() == (
            tmp_path / "env1" / "roc.csv"
        ).read_bytes()
