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
from css_lab.theory import qfa_exact, qfa_proposed


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

    def test_default_compare_without_uncertainty_is_within_one_ci(self, tmp_path):
        # at nominal noise every curve's exact theory columns track its draws, pfa too
        manifest = run_command("compare", parse_scenario(None, ["uncertainty_db=0"]), tmp_path)
        gaps = manifest["theory_gap"]
        assert len(gaps) == 2 * len(CombinerKind)
        assert max(max(gap["pfa"], gap["pd"]) for gap in gaps) <= 1.0, gaps

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
                pfa = qfa_exact(sub.theory_params(), lam)
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

        def counted(scenario, h1, lams, rng, combiners):
            calls.append(combiners)
            return original(scenario, h1, lams, rng, combiners)

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

    def test_small_n_warning_names_a_caller_outside_the_analysis_layer(self, tmp_path):
        # the closed forms call one another, so the warning climbs past every theory frame
        scen = parse_scenario(None, ["n_samples=64"])
        with pytest.warns(UserWarning, match="N=64 is small") as record:
            run_command("theory-table", scen, tmp_path)
        assert "theory.py" not in {Path(w.filename).name for w in record}


GOLDEN_SHA256 = {
    "compare": "28c9e2a29f76165e63a8c978b8cf88de3ce7a26d6a390ccd3dee4a87f75386f4",
    "equivalence": "6d8493889b791860d0e32308f962cc8c7d92b4d451d46d3ccb48b0988f0cde06",
    "roc": "f127e064faff823fd9b725252a9c5d4a57bd324b7b842234af7d898ff6271204",
    "sweep-k": "80469d63cfe223aad9457974d0c4e70eb1daf599b047578e509090ee74d14236",
    "sweep-l": "973a874879c42e867c86bdb222ec0b9a26fd9caa633988323d667484ae577e66",
    "theory-table": "6b9b84920f5fa20e54ce219310e87ee98256c56b8095c2b0f957f494e57c9ba5",
    "compare-awgn": "f89a11ce97868ed7018ea8efb12c2cf449c583e33ac0411a1547d9089f2e458d",
    "theory-table-awgn": "afb35b95b2e3e4476053a9c3f6b5138477007a920eb6f39ace29c73ad1284577",
    "theory-table-k48-n64": "99ed35865c2f5e2d3977b14575c91476ccee62fe2e5ad22644fe0642d49e692e",
    "compare-k9": "f9d8199bb839be7cecbb30f4dc6d363536cc0437c2033cd9201f030380521b15",
    "equivalence-mrc": "eb634be71ed7ebe775632e0f1ec60af9e65efb613d6439e9d67071c92b27dc31",
    "compare-u0": "6882a563c8e64d98eeaa26af69ee7598c2cbbca78b6e264d5cbab915ddeaa99e",
    "theory-table-u0": "9b174917d9e55a7ccb65fcd609c86781426cb1d71a6e76647433762312291d3e",
    "compare-t2000": "490a735327522df276c4caaf120ee9def0ae802829c253756515a2584584b56d",
    "equivalence-t2000": "8626b25bf6209096582ca5c3d4bc5e60bdfe648678bf8ed36545ccd661ce5489",
}
# manifest bytes without the started_at line: they pin what no CSV carries, such as
# the per-curve AUCs, the equivalence search's AUC half-widths and the theory gaps
GOLDEN_MANIFEST_SHA256 = {
    "compare": "925069dd9de69d8ff3f99d6c9c93598bcbac5bf8caf668b0fb1def051d2950f5",
    "equivalence": "d2cdff43b11d74429742c9aeea7337b0cde93ebf3bb046a2e7bbf85573b779a3",
    "roc": "b92a3b748caeb1c73d22ede2b565a5daef1c641daa88675bd88ba3ca5dea257b",
    "sweep-k": "24713518e12935664eca90c72e7ca59027f2e26bdb6f2021b1c3cfc2e0dfa207",
    "sweep-l": "c362018b07cc0a2ce078f9e17ec171a576e244393a216671523f4455881a1a1f",
    "theory-table": "4ab8d8c505d9b1a3ee222f61d017287159d403680f981aa1d922da347e157169",
    "compare-awgn": "c568a78d214a2314a4980b666e0815511832fb100ec3833379a89fa924585421",
    "theory-table-awgn": "a28139694eb617cb455f87804755051039620d56fa0f35c899ed44becde4b685",
    "theory-table-k48-n64": "00808eccd7719ecbbfd5fc531f78fef0a734ad4d15422e125c9cb1edaace4c32",
    "compare-k9": "616603c26befd79dd1ce36c89598b477c897067c7e33d7f83f2cdbc23476dd0c",
    "equivalence-mrc": "7daa5f25e5f9b40f5dce6d07b5fd429120c5caae18fe653cef9055f18031e418",
    "compare-u0": "718801165026d4dbe5c4fbccc373b0fd3e8da77fe130e63dd210135fce0a6543",
    "theory-table-u0": "59aaf8c2cbe537df2a26da315521a3f2e53e28d44db524bbd8b361c078772cc7",
    "compare-t2000": "b4b5415ef9e86d9169bb3eb282d45e476f1c57d6ed5d96f8f892268b11b31c58",
    "equivalence-t2000": "6f21004c8a807e7917a5575459dc2adf02154738a61fa00657ff8fb74e4befa0",
}
# case -> (subcommand, overrides) for the cases that are not a plain subcommand: the
# AWGN closed forms, the SLS per-branch CFAR inversion at K = 48 with N below the
# Gaussian warning floor, full reads of more than 7 sensors (where the sensor-order
# sum and numpy's pairwise sum differ in the last bits), MRC sensor-prefix reads,
# no uncertainty, where both schemes' curves take the closed forms' rho = 1 exits, and
# 2000 trials, which the draw takes in several blocks per hypothesis (300 fit in one),
# each block on streams of its own
GOLDEN_CASES = {
    "compare-awgn": ("compare", ["channel_kind=awgn"]),
    "theory-table-awgn": ("theory-table", ["channel_kind=awgn"]),
    "theory-table-k48-n64": ("theory-table", ["num_crs=48", "n_samples=64"]),
    "compare-k9": ("compare", ["num_crs=9"]),
    "equivalence-mrc": ("equivalence", ["combiner=mrc"]),
    "compare-u0": ("compare", ["uncertainty_db=0"]),
    "theory-table-u0": ("theory-table", ["uncertainty_db=0"]),
    "compare-t2000": ("compare", ["trials=2000"]),
    "equivalence-t2000": ("equivalence", ["trials=2000"]),
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
        # the conventional Rayleigh tail at its point-mass limit
        out = str(tmp_path / "v")
        assert main(["roc", "--set", "snr_db=-200", "--set", "trials=200", "--out", out]) == 0

    @pytest.mark.parametrize("command", ["roc", "compare", "theory-table"])
    @pytest.mark.parametrize("snr_db", ["20", "40", "60", "150", "3000"])
    def test_huge_snr_exits_zero(self, command, snr_db, tmp_path):
        # the dual-threshold fading average takes Marcum Q far past the evaluator's range; from
        # 20 dB a cosine tail of the conventional SLS average would not converge
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

    def test_non_integer_threads_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roc", "--threads", "two", "--out", str(tmp_path / "badt")])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "badt").exists()

    def test_threads_flag(self, tmp_path):
        scen = _fast_scenario_file(tmp_path)
        for threads in ("2", "1"):
            argv = ["roc", "--scenario", str(scen), "--threads", threads]
            assert main([*argv, "--out", str(tmp_path / threads)]) == 0
        # identical artifacts regardless of thread count, one thread by default
        assert main(["roc", "--scenario", str(scen), "--out", str(tmp_path / "d")]) == 0
        assert json.loads((tmp_path / "d" / "run.json").read_text())["threads"] == 1
        roc = [(tmp_path / d / "roc.csv").read_bytes() for d in ("2", "1", "d")]
        assert roc[0] == roc[1] == roc[2]
