import csv
import io
import json
import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import singlerail
from singlerail.cli import fmt, main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(kwargs), encoding="utf-8")
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


class TestConfigHandling:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(["yield", "--config", "/no/such/file.json"], capsys)
        assert code == 1
        assert "config error" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(["yield", "--config", str(path)], capsys)
        assert code == 1
        assert "not valid JSON" in err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_cubed=0.5)
        code, _, err = run_cli(["yield", "--config", cfg], capsys)
        assert code == 1
        assert "unknown config keys" in err

    def test_alpha_sq_domain(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=1.5)
        code, _, err = run_cli(["yield", "--config", cfg], capsys)
        assert code == 1
        assert "alpha_sq" in err

    def test_bad_rounds_type(self, tmp_path, capsys):
        cfg = write_config(tmp_path, rounds=2.5)
        code, _, err = run_cli(["yield", "--config", cfg], capsys)
        assert code == 1

    def test_bad_format_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, format="xml")
        code, _, err = run_cli(["yield", "--config", cfg], capsys)
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1

    def test_rounds_above_oracle_cap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.3, rounds=17)
        code, out, err = run_cli(["yield", "--config", cfg], capsys)
        assert code == 1
        assert out == ""
        assert "config error" in err and "rounds" in err

    @pytest.mark.parametrize("command", ["yield", "swap-chain"])
    def test_trials_on_command_that_samples_nothing(self, tmp_path, capsys, command):
        code, out, err = run_cli([command, "--trials", "1000", "--seed", "3"], capsys)
        assert code == 1
        assert out == ""
        assert "config error" in err and "trials" in err
        cfg = write_config(tmp_path, alpha_sq=0.3, trials=1)
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 1
        assert "trials" in err

    @pytest.mark.parametrize("key", ["theta_ab", "qnd_theta"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, alpha_sq=0.3, **{key: value})
        code, out, err = run_cli(["concentrate", "--config", cfg], capsys)
        assert code == 1
        assert out == ""
        assert "config error" in err and key in err

    def test_alpha_sq_key_must_print_inside_unit_interval(self, tmp_path, capsys):
        # 0.9999999999999999 < 1, but its 15-digit key prints as 1
        cfg = write_config(tmp_path, alpha_sq=[0.5, 0.9999999999999999])
        code, out, err = run_cli(["yield", "--config", cfg], capsys)
        assert code == 1
        assert out == ""
        assert "config error" in err and "alpha_sq" in err

    def test_alpha_sq_keys_must_name_one_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=[0.3, 0.30000000000000004])
        code, out, err = run_cli(["yield", "--config", cfg], capsys)
        assert code == 1
        assert out == ""
        assert "config error" in err and "0.30000000000000004" in err
        # an exact repeat prints the same rows twice and stays accepted
        cfg = write_config(tmp_path, alpha_sq=[0.3, 0.3], rounds=2)
        code, out, _ = run_cli(["yield", "--config", cfg], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[:3] == rows[3:]

    def test_qnd_theta_accepts_pi_literal(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.8, rounds=2, qnd_theta="pi")
        code, out, _ = run_cli(["concentrate", "--config", cfg], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[1]["success_prob"]) == pytest.approx(32 / 289, abs=1e-12)

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.5, format="csv", trials=0)
        code, out, _ = run_cli(["yield", "--config", cfg, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["format"] == "json"

    def test_defaults_without_config(self, capsys):
        code, out, _ = run_cli(["yield"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        # default grid is the single balanced point, three rounds plus total
        assert [r["round"] for r in rows] == ["1", "2", "3", "total"]
        assert float(rows[0]["y_formula"]) == pytest.approx(0.25, abs=1e-12)


class TestGenerate:
    def test_symmetric_and_asymmetric_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, p_a=[0.01, 0.016], p_b=[0.01, 0.004])
        code, out, _ = run_cli(["generate", "--config", cfg], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p_a", "p_b", "herald_prob", "alpha_sq", "beta_sq", "phase"]
        assert float(rows[0]["alpha_sq"]) == pytest.approx(0.5)
        assert float(rows[1]["alpha_sq"]) == pytest.approx(0.8)
        assert float(rows[1]["herald_prob"]) == pytest.approx(0.01)

    def test_trials_add_stochastic_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, p_a=0.01, p_b=0.01, trials=5000)
        code, out, _ = run_cli(["generate", "--config", cfg], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header[-2:] == ["herald_freq", "herald_stderr"]
        freq = float(rows[0]["herald_freq"])
        assert abs(freq - 0.01) < 5 * math.sqrt(0.01 * 0.99 / 5000)

    def test_trials_draw_in_bounded_memory(self, tmp_path, capsys):
        trials = 2**23
        p_a = [0.01, 0.3]
        # one-shot reference, drawn before tracing starts
        rng = np.random.default_rng(7)
        freqs = [
            fmt(np.count_nonzero(rng.random(trials) < (pa + 0.01) / 2) / trials)
            for pa in p_a
        ]
        cfg = write_config(tmp_path, p_a=p_a, p_b=0.01, trials=trials, seed=7)
        tracemalloc.start()
        try:
            code, out, _ = run_cli(["generate", "--config", cfg], capsys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 32 * 2**20
        _, rows = parse_csv(out)
        assert [r["herald_freq"] for r in rows] == freqs

    def test_grid_length_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, p_a=[0.01, 0.02, 0.03], p_b=[0.01, 0.02])
        code, _, err = run_cli(["generate", "--config", cfg], capsys)
        assert code == 1


class TestSwapChain:
    def test_closed_form_column(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=[0.5, 0.8], swap_depth=5)
        code, out, _ = run_cli(["swap-chain", "--config", cfg], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 10
        assert all(r["closed_form_check"] == "pass" for r in rows)

    def test_balanced_ratio_stays_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.5, swap_depth=3)
        code, out, _ = run_cli(["swap-chain", "--config", cfg], capsys)
        _, rows = parse_csv(out)
        assert all(float(r["entanglement_ratio"]) == pytest.approx(1.0) for r in rows)

    def test_degradation_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.8, swap_depth=1)
        code, out, _ = run_cli(["swap-chain", "--config", cfg], capsys)
        _, rows = parse_csv(out)
        assert float(rows[0]["entanglement_ratio"]) == pytest.approx(1 / 16, abs=1e-12)

    def test_beta_underflow_is_not_a_crash(self, tmp_path, capsys):
        # beta underflows to 0 after ~80 swaps at alpha_sq 0.7
        cfg = write_config(tmp_path, alpha_sq=0.7, swap_depth=120)
        code, out, _ = run_cli(["swap-chain", "--config", cfg], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 120
        assert all(r["closed_form_check"] == "pass" for r in rows)
        assert float(rows[-1]["entanglement_ratio"]) == 0.0
        assert float(rows[-1]["alpha_sq_n"]) == 1.0


class TestConcentrate:
    def test_success_probability_column(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.8, rounds=1)
        code, out, _ = run_cli(["concentrate", "--config", cfg], capsys)
        _, rows = parse_csv(out)
        assert float(rows[0]["success_prob"]) == pytest.approx(0.32, abs=1e-12)

    def test_balanced_first_round_yield(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.5, rounds=1)
        code, out, _ = run_cli(["concentrate", "--config", cfg], capsys)
        _, rows = parse_csv(out)
        assert float(rows[0]["y_formula"]) == pytest.approx(0.25, abs=1e-12)

    def test_total_footer_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.8, rounds=3)
        code, out, _ = run_cli(["concentrate", "--config", cfg], capsys)
        _, rows = parse_csv(out)
        total = rows[-1]
        assert total["round"] == "total"
        per_round = [float(r["y_oracle"]) for r in rows[:-1]]
        assert float(total["y_oracle"]) == pytest.approx(sum(per_round), abs=1e-12)

    def test_discrepancies_reported_with_both_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.5, rounds=3)
        code, out, _ = run_cli(["concentrate", "--config", cfg], capsys)
        assert code == 0  # documented discrepancies are not failures
        _, rows = parse_csv(out)
        round3 = rows[2]
        assert round3["formula_check"] == "documented-discrepancy"
        assert round3["y_formula"] != round3["y_oracle"]
        assert float(round3["y_formula"]) == pytest.approx(3 / 128, abs=1e-12)
        assert float(round3["y_oracle"]) == pytest.approx(1 / 64, abs=1e-12)

    def test_monte_carlo_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.8, rounds=2, trials=50_000, seed=4)
        code, out, _ = run_cli(["concentrate", "--config", cfg], capsys)
        _, rows = parse_csv(out)
        first = rows[0]
        est, err = float(first["y_mc"]), float(first["y_mc_stderr"])
        assert abs(est - 0.16) < 4 * err


class TestProbeAngle:
    # every yield column describes the probe the config names

    def test_resolved_probe_recycles_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.3, rounds=3, qnd_theta=1.0, trials=1000)
        code, out, _ = run_cli(["concentrate", "--config", cfg], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[-1]["y_oracle"]) == pytest.approx(0.21, abs=1e-12)
        for row in rows[1:3]:
            for key in ("success_prob", "y_formula", "y_oracle", "y_mc"):
                assert float(row[key]) == 0.0, (row["round"], key)

    def test_probe_without_one_photon_class_keeps_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.3, rounds=3, qnd_theta=0.0, trials=1000)
        code, out, _ = run_cli(["concentrate", "--config", cfg], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            for key in ("success_prob", "y_formula", "y_oracle", "y_cumulative_oracle", "y_mc"):
                if row[key] != "":
                    assert float(row[key]) == 0.0, (row["round"], key)


# pinned output bytes; a change to them must be deliberate and documented
GOLDEN_CASES = [
    (
        "concentrate",
        {"alpha_sq": [0.05, 0.3, 0.5, 0.8, 0.97], "rounds": 5, "trials": 20000, "seed": 7},
        "concentrate_pi_trials.csv",
    ),
    (
        "concentrate",
        {
            "alpha_sq": [0.15, 0.6, 0.9],
            "theta_ab": 0.4,
            "rounds": 4,
            "trials": 50000,
            "seed": 11,
            "format": "json",
        },
        "concentrate_pi_trials.json",
    ),
    ("yield", {"alpha_sq": [0.2, 0.5, 0.7], "rounds": 8}, "yield_rounds8.csv"),
    ("yield", {"alpha_sq": [0.3, 0.49, 0.93], "rounds": 12}, "yield_rounds12.csv"),
    (
        "swap-chain",
        {"alpha_sq": 0.3, "swap_depth": 40, "format": "json"},
        "swap_chain_depth40.json",
    ),
    (
        "generate",
        {"p_a": [0.01, 0.016], "p_b": [0.01, 0.004], "trials": 5000, "seed": 3},
        "generate_trials.csv",
    ),
]


@pytest.mark.parametrize("command,config,golden", GOLDEN_CASES, ids=[c[2] for c in GOLDEN_CASES])
def test_golden_output(tmp_path, capsys, command, config, golden):
    cfg = write_config(tmp_path, **config)
    code, out, _ = run_cli([command, "--config", cfg], capsys)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def test_concentrate_walks_each_point_round_once(tmp_path, capsys, monkeypatch):
    original = singlerail.protocols.concentration_round
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # patch every binding, so a second walk from any module is counted
    for module in (singlerail.protocols, singlerail.analytics, singlerail.cli):
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    cfg = write_config(tmp_path, alpha_sq=[0.2, 0.5, 0.8], rounds=4, trials=1000)
    code, _, _ = run_cli(["concentrate", "--config", cfg], capsys)
    assert code == 0
    assert len(calls) == 3 * 4


class TestOutputEncoding:
    def test_csv_json_value_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=[0.5, 0.8], rounds=3)
        code, csv_text, _ = run_cli(["yield", "--config", cfg], capsys)
        code, json_text, _ = run_cli(["yield", "--config", cfg, "--format", "json"], capsys)
        header, csv_rows = parse_csv(csv_text)
        json_rows = json.loads(json_text)["rows"]
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for key in header:
                if c[key] == "":
                    assert j[key] is None
                elif isinstance(j[key], str):
                    assert c[key] == j[key]
                else:
                    assert float(c[key]) == j[key]

    def test_number_formatting_is_15_significant_digits(self):
        assert fmt(1 / 3) == "0.333333333333333"
        assert fmt(0.25) == "0.25"
        assert fmt(1e-30) == "1e-30"

    def test_output_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.8, rounds=2)
        out_path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            ["yield", "--config", cfg, "--output", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""
        text = out_path.read_text(encoding="utf-8")
        assert text.startswith("alpha_sq,round,")
        assert text.endswith("\n")

    def test_output_into_missing_directory(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(["yield", "--output", str(out_path)], capsys)
        assert code == 1
        assert out == ""
        assert "config error: cannot write output" in err
        assert not out_path.exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=[0.5, 0.8], rounds=3, trials=10_000, seed=12)
        outs = []
        for name in ("one.csv", "two.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(
                ["concentrate", "--config", cfg, "--output", str(path)], capsys
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_json_echoes_resolved_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.8, rounds=4, seed=3)
        code, out, _ = run_cli(["yield", "--config", cfg, "--format", "json"], capsys)
        doc = json.loads(out)
        assert doc["config"]["alpha_sq"] == [0.8]
        assert doc["config"]["rounds"] == 4
        assert doc["config"]["seed"] == 3
        assert doc["config"]["command"] == "yield"
        assert doc["summary"]["per_alpha"][0]["documented_discrepancies"] == 2


def test_console_entry_point_runs(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"alpha_sq": 0.8, "rounds": 2}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "singlerail.cli", "concentrate", "--config", str(cfg)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("alpha_sq,round,success_prob")
