import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import random
import stat
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import singlerail
from decimal import MAX_EMAX, MIN_EMIN, Context

from singlerail import cli
from singlerail.cli import (
    CLOSED_FORM_TOL,
    MAX_SWAP_DEPTH,
    _amplitude_ratio,
    _closed_form_ratios,
    _pair,
    fmt,
    main,
)
from singlerail.errors import ContractError
from singlerail.protocols import swap_chain_trace

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

    @pytest.mark.parametrize(
        "text",
        [
            b'{"rounds": 1' + b"0" * 5000 + b"}",  # past Python's 4300-digit str limit
            b'\xff{"rounds": 3}',  # not UTF-8
        ],
        ids=["integer-too-long-for-str", "not-utf-8"],
    )
    def test_unreadable_json_is_a_config_error(self, tmp_path, capsys, text):
        # written by hand: json.dumps writes neither
        path = tmp_path / "config.json"
        path.write_bytes(text)
        code, out, err = run_cli(["yield", "--config", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"config error: config file {str(path)!r} is not valid JSON")

    def test_non_number_in_a_list_is_pinned(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=[0.3, "x"])
        code, out, err = run_cli(["yield", "--config", cfg], capsys)
        assert (code, out, err) == (
            1,
            "",
            "config error: alpha_sq entries must be numbers, got 'x'\n",
        )

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

    @pytest.mark.parametrize(
        "command,key,value,message",
        [
            ("yield", "rounds", 0, "rounds must be >= 1, got 0"),
            ("yield", "rounds", 17, "rounds must be <= 16, got 17"),
            ("yield", "rounds", 1.5, "rounds must be an integer, got 1.5"),
            ("yield", "rounds", True, "rounds must be an integer, got True"),
            ("swap-chain", "swap_depth", 0, "swap_depth must be >= 1, got 0"),
            ("concentrate", "trials", -1, "trials must be >= 0, got -1"),
            ("concentrate", "seed", -1, "seed must be >= 0, got -1"),
        ],
    )
    def test_integer_errors_are_pinned(self, tmp_path, capsys, command, key, value, message):
        cfg = write_config(tmp_path, **{key: value})
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert (code, out, err) == (1, "", f"config error: {message}\n")

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

    @pytest.mark.parametrize("command", ["yield", "swap-chain"])
    def test_seed_on_command_that_samples_nothing(self, tmp_path, capsys, command):
        code, out, err = run_cli([command, "--seed", "3"], capsys)
        assert code == 1
        assert out == ""
        assert "config error" in err and "seed" in err
        cfg = write_config(tmp_path, alpha_sq=0.3, seed=1)
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 1
        assert "seed" in err
        cfg = write_config(tmp_path, alpha_sq=0.3, seed=0)
        code, _, _ = run_cli([command, "--config", cfg], capsys)
        assert code == 0

    @pytest.mark.parametrize(
        "command,trials",
        [("concentrate", 100000000000000000000), ("generate", 2**30 + 1)],
    )
    def test_trials_above_cap(self, capsys, command, trials):
        code, out, err = run_cli([command, "--trials", str(trials)], capsys)
        assert code == 1
        assert out == ""
        assert "config error" in err and "trials" in err

    @pytest.mark.parametrize("depth", [MAX_SWAP_DEPTH + 1, 10**12])
    def test_swap_depth_above_cap(self, tmp_path, capsys, depth):
        cfg = write_config(tmp_path, alpha_sq=0.3, swap_depth=depth)
        t0 = time.perf_counter()
        code, out, err = run_cli(["swap-chain", "--config", cfg], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert out == ""
        assert "config error" in err and "swap_depth" in err

    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("concentrate", "alpha_sq", [0.3, 10**400]),
            ("concentrate", "theta_ab", 10**400),
            ("concentrate", "qnd_theta", 10**400),
            ("generate", "p_a", 10**400),
        ],
        ids=["alpha_sq", "theta_ab", "qnd_theta", "p_a"],
    )
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, **{key: value})
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 1
        assert out == ""
        assert "config error" in err and key in err

    @pytest.mark.parametrize("key", ["theta_ab", "qnd_theta"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, alpha_sq=0.3, **{key: value})
        code, out, err = run_cli(["concentrate", "--config", cfg], capsys)
        assert code == 1
        assert out == ""
        assert "config error" in err and key in err

    @pytest.mark.parametrize("command", ["concentrate", "yield"])
    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_probe_angle_whose_phase_overflows(self, tmp_path, capsys, command, value):
        cfg = write_config(tmp_path, alpha_sq=0.3, qnd_theta=value)
        code, out, err = run_cli([command, "--config", cfg], capsys)
        message = f"probe angle {value!r}: phase at 2 photons overflows"
        assert (code, out, err) == (1, "", f"config error: {message}\n")

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


class TestParserIsBuiltOnce:
    """``main`` reuses one parser per process; no call may see another's flags."""

    def test_reused_parser_matches_a_fresh_one(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, alpha_sq=[0.3, 0.8], rounds=2)
        argvs = [
            ["yield", "--config", cfg],
            ["yield", "--config", cfg, "--bogus"],
            ["concentrate", "--config", cfg, "--trials", "1000", "--seed", "7"],
            ["concentrate", "--config", cfg],
            ["yield", "--config", cfg],
        ]
        cli._parser.cache_clear()
        reused = [run_cli(argv, capsys) for argv in argvs]
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, len(argvs) - 1)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_cli(argv, capsys) for argv in argvs]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 1, 0, 0, 0]
        assert "--bogus" in reused[1][2]
        assert reused[4] == reused[0]
        assert "y_mc" in parse_csv(reused[2][1])[0]
        assert "y_mc" not in parse_csv(reused[3][1])[0]

    def test_flags_do_not_stick_to_the_cached_parser(self):
        cli._parser().parse_args(["concentrate", "--trials", "5", "--seed", "3"])
        args = cli._parser().parse_args(["concentrate"])
        assert (args.trials, args.seed, args.config, args.format) == (None,) * 4
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()


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

    def test_one_p_a_is_broadcast_over_p_b(self, tmp_path, capsys):
        cfg = write_config(tmp_path, p_a=0.016, p_b=[0.01, 0.004])
        code, out, _ = run_cli(["generate", "--config", cfg], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert [(r["p_a"], r["p_b"]) for r in rows] == [
            ("0.016", "0.01"),
            ("0.016", "0.004"),
        ]

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
        # every nonzero amplitude is kept, so the ratio follows the closed
        # form (beta_sq / alpha_sq) ** (n + 1) far below 1e-15
        cfg = write_config(tmp_path, alpha_sq=0.7, swap_depth=120)
        code, out, _ = run_cli(["swap-chain", "--config", cfg], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 120
        assert all(r["closed_form_check"] == "pass" for r in rows)
        assert float(rows[-1]["entanglement_ratio"]) == pytest.approx(
            (3 / 7) ** 121, rel=1e-9, abs=0.0
        )
        # at alpha_sq 0.99 |beta|**2 underflows after n = 161 and beta
        # itself reaches exactly 0 before n = 400: the ratio reads 0
        cfg = write_config(tmp_path, alpha_sq=0.99, swap_depth=400)
        code, out, _ = run_cli(["swap-chain", "--config", cfg], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 400
        assert all(r["closed_form_check"] == "pass" for r in rows)
        ratios = [float(r["entanglement_ratio"]) for r in rows]
        assert ratios[160] > 0.0
        assert set(ratios[161:]) == {0.0}
        assert float(rows[-1]["alpha_sq_n"]) == 1.0


    def test_reference_is_exact_near_balance_up_to_the_depth_cap(self):
        # the ratio of the pair's exact weights, alpha**2 and re**2 + im**2
        # of its float coefficients, to a 120-digit power, rounded once;
        # 40 digits carried over 10**5 products round to the same float
        ctx = Context(prec=120, Emin=MIN_EMIN, Emax=MAX_EMAX)
        rng = random.Random(20260819)
        near = [0.5 - 10 ** -rng.uniform(1, 9) for _ in range(3)]
        cases = [(x, 0.0) for x in (*near, 0.5 + 10 ** -rng.uniform(1, 9))]
        cases += [(0.500000962, 0.3), (0.49999999, 1.1), (0.5 - 1e-7, -2.5)]
        for alpha_sq, theta_ab in cases:
            pair = _pair(alpha_sq, theta_ab)
            got = list(_closed_form_ratios(pair, MAX_SWAP_DEPTH))
            alpha, re, im = map(
                ctx.create_decimal_from_float,
                (pair.alpha, pair.beta.real, pair.beta.imag),
            )
            b_sq = ctx.add(ctx.multiply(re, re), ctx.multiply(im, im))
            lo, hi = sorted((ctx.multiply(alpha, alpha), b_sq))
            ratio = ctx.sqrt(ctx.divide(lo, hi))
            assert len(got) == MAX_SWAP_DEPTH
            for n in (1, 2, 17, 1000, 18540, 27181, 60000, MAX_SWAP_DEPTH):
                assert got[n - 1] == float(ctx.to_sci_string(ctx.power(ratio, n + 1)))

    def test_deep_near_balanced_chain_passes(self, tmp_path, capsys):
        # a float power of the rounded base ratio drifted past
        # CLOSED_FORM_TOL here from n = 18540 on, and the run exited 2
        cfg = write_config(tmp_path, alpha_sq=0.499999038, swap_depth=20000)
        code, out, err = run_cli(["swap-chain", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 20000
        assert {r["closed_form_check"] for r in rows} == {"pass"}

    @pytest.mark.parametrize(
        "alpha_sq,theta_ab",
        [
            (0.49999999, 0.0),
            # with a phase a reference built on the rounded modulus
            # abs(beta) drifted past CLOSED_FORM_TOL (from n = 19874 and
            # n = 15881), though the simulation stays on the exact ratio
            (0.500000962, 0.3),
            (0.49999999, 1.1),
        ],
    )
    def test_simulation_stays_on_the_closed_form_at_depth(self, alpha_sq, theta_ab):
        pair = _pair(alpha_sq, theta_ab)
        trace = swap_chain_trace(pair, 20000)
        closed = _closed_form_ratios(pair, 20000)
        for link, ratio in zip(trace, closed):
            assert abs(_amplitude_ratio(link) - ratio) <= CLOSED_FORM_TOL * max(1.0, ratio)


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
    ("yield", {"alpha_sq": [1e-300, 0.3, 0.77], "rounds": 16}, "yield_rounds16.csv"),
    (
        "yield",
        {"alpha_sq": [5e-324, 0.5, 0.99999999999999], "rounds": 16},
        "yield_rounds16_edges.csv",
    ),
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
    # the walk enumerates each point's round once, and never takes the
    # record path of concentration_round
    calls = []
    for name in ("_round", "concentration_round"):
        original = getattr(singlerail.protocols, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        # patch every binding, so a second walk from any module is counted
        for module in (singlerail.protocols, singlerail.analytics, singlerail.cli):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    cfg = write_config(tmp_path, alpha_sq=[0.2, 0.5, 0.8], rounds=4, trials=1000)
    code, _, _ = run_cli(["concentrate", "--config", cfg], capsys)
    assert code == 0
    assert calls == ["_round"] * (3 * 4)


def test_the_columns_decide_the_work(tmp_path, capsys, monkeypatch):
    # a grid point is walked only for a table that prints success_prob, and
    # sampled, from that walk, only for one that prints y_mc
    def run(command, trials):
        cfg = write_config(tmp_path, alpha_sq=[0.2, 0.5, 0.8], rounds=3, trials=trials)
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 0, err
        return out

    cases = [
        ("concentrate", 0, ["iterate_concentration"] * 3),
        ("concentrate", 10, ["iterate_concentration", "monte_carlo_yield"] * 3),
        ("yield", 0, []),
    ]
    unwrapped = [run(command, trials) for command, trials, _ in cases]
    calls = []
    for name in ("iterate_concentration", "monte_carlo_yield"):
        original = getattr(cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    for (command, trials, want), out in zip(cases, unwrapped):
        calls.clear()
        assert run(command, trials) == out
        assert calls == want, (command, trials)


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

    @pytest.mark.parametrize("output", [[1, 2], True, {"a": 1}, 3], ids=repr)
    def test_output_that_is_not_a_string(
        self, tmp_path, capsys, monkeypatch, output
    ):
        # str() of the value would name a file such as "[1, 2]" or "True"
        cfg = write_config(tmp_path, alpha_sq=0.8, rounds=2, output=output)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["yield", "--config", cfg], capsys)
        assert (code, out) == (1, "")
        assert err == f"config error: output must be a string, got {output!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

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
        cfg = write_config(tmp_path, alpha_sq=0.8, rounds=4, trials=1000, seed=3)
        code, out, _ = run_cli(
            ["concentrate", "--config", cfg, "--format", "json"], capsys
        )
        doc = json.loads(out)
        assert doc["config"]["alpha_sq"] == [0.8]
        assert doc["config"]["rounds"] == 4
        assert doc["config"]["seed"] == 3
        assert doc["config"]["command"] == "concentrate"
        assert doc["summary"]["per_alpha"][0]["documented_discrepancies"] == 2

    def test_json_summary_keys_alpha_sq_as_the_rows_print_it(self, tmp_path, capsys):
        # the raw grid value has 17 digits, the rows print 15
        cfg = write_config(tmp_path, alpha_sq=[0.12345678901234568], rounds=2)
        code, out, _ = run_cli(["yield", "--config", cfg, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert {r["alpha_sq"] for r in doc["rows"]} == {0.123456789012346}
        assert [s["alpha_sq"] for s in doc["summary"]["per_alpha"]] == [0.123456789012346]


def _render_json_per_row(cfg, command, header, rows, summary, out):
    """The reference: ``render_json`` as one encoder call and one write a row."""
    config_echo = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cli.RunConfig)}
    config_echo["command"] = command
    head = {"config": {k: cli._jvalue(v) for k, v in config_echo.items()}}
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "rows": [')
    sep = "\n"
    for row in rows:
        text = cli._ROW_ENCODER.encode({key: cli._jvalue(row.get(key)) for key in header})
        out.write(sep + "    {\n      " + text[1:-1] + "\n    }")
        sep = ",\n"
    out.write("]" if sep == "\n" else "\n  ]")
    out.write("," + json.dumps({"summary": summary}, indent=2)[1:] + "\n")


class _Float(float):
    pass


#: a key the row leaves out, so ``row.get`` reads None
_ABSENT = object()
_B = cli._JSON_BLOCK
#: every kind of cell a table builder yields, with the floats and strings
#: that print oddly: subnormals, -0.0, inf, nan, subclasses of float, and
#: strings holding braces, commas, quotes, backslashes and newlines
_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([5e-324, 2.2250738585072014e-308, -0.0, math.inf, -math.inf]),
    st.floats().map(np.float64),
    st.floats().map(_Float),
    st.integers(),
    st.booleans(),
    st.none(),
    st.just(_ABSENT),
    st.text(),
    st.text(st.sampled_from(["}", "{", ",", '"', "\\", "\n", " ", ":", "é"])),
    st.just('x},\n      {"y": 1'),
)


def _cell(value) -> str:
    """The reference cell rule: "" for None, ``fmt`` of a float, ``str`` of the rest."""
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt(value)
    return str(value)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    header=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True),
    cells=st.lists(_CELLS, min_size=1, max_size=40),
    n=st.integers(0, 5),
)
@example(header=["x"], cells=[None], n=1)
@example(header=["x", "y"], cells=[_ABSENT, -0.0, math.nan, True, 7, 'a,"b"\n'], n=3)
@example(header=["x", "y"], cells=[np.float64(0.1), _Float(1 / 3), 5e-324, -math.inf, ""], n=3)
def test_csv_cells_follow_the_cell_rule(header, cells, n):
    # render_csv formats floats and leaves every other cell to csv.writer
    it = iter(cells * (n * len(header) // len(cells) + 1))
    rows = [{k: c for k, c in zip(header, it) if c is not _ABSENT} for _ in range(n)]
    got, want = io.StringIO(), io.StringIO()
    cli.render_csv(header, iter(rows), got)
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(row.get(key)) for key in header])
    assert got.getvalue() == want.getvalue()


class TestStreamedOutput:
    """Rows are written a block of ``_JSON_BLOCK`` at a time as they are
    built; a run that stops early leaves no partial ``--output`` file and
    an exit 1 writes no byte anywhere."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        n=st.sampled_from([0, 1, _B - 1, _B, _B + 1, 2 * _B + 1]),
        header=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True),
        cells=st.lists(_CELLS, min_size=1, max_size=40),
    )
    def test_block_edges_leave_no_trace_in_the_bytes(self, n, header, cells):
        # cells cycle through the rows, so every kind lands on both sides of an edge
        it = iter(cells * (n * len(header) // len(cells) + 1))
        rows = [{k: c for k, c in zip(header, it) if c is not _ABSENT} for _ in range(n)]
        cfg = cli.RunConfig(alpha_sq=[0.5])
        got, want = io.StringIO(), io.StringIO()
        cli.render_json(cfg, "yield", header, iter(rows), {"rows": n}, got)
        _render_json_per_row(cfg, "yield", header, iter(rows), {"rows": n}, want)
        out = got.getvalue()
        assert out == want.getvalue()
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize(
        "value", [1 / 3, 5e-324, -0.0, math.inf, math.nan, 1e300, 0.1 + 0.2], ids=repr
    )
    @pytest.mark.parametrize("kind", [float, np.float64, _Float])
    def test_cells_round_by_the_jvalue_rule(self, value, kind):
        # render_json rounds inline; _jvalue is the one definition of the rule
        cfg = cli.RunConfig(alpha_sq=[0.5])
        buf = io.StringIO()
        cli.render_json(cfg, "yield", ["x"], [{"x": kind(value)}], {}, buf)
        expected = cli._ROW_ENCODER.encode(cli._jvalue(kind(value)))
        assert f'"x": {expected}\n' in buf.getvalue()

    def test_a_swap_chain_across_block_edges_prints_the_per_row_bytes(self, tmp_path, capsys):
        # two points of _B + 1 rows: blocks straddle a block edge and the point edge
        cfg = write_config(tmp_path, alpha_sq=[0.3, 0.45], swap_depth=_B + 1)
        argv = ["swap-chain", "--config", cfg, "--format", "json"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        run = cli.resolve_config(cli.build_parser().parse_args(argv))
        summary = {}
        rows = cli.cmd_swap_chain(run, summary)
        header = next(rows)
        want = io.StringIO()
        _render_json_per_row(run, "swap-chain", header, rows, summary, want)
        assert out == want.getvalue()

    def test_a_block_of_rows_is_one_encode_call(self, tmp_path, capsys, monkeypatch):
        depth = _B + 5
        cfg = write_config(tmp_path, alpha_sq=[0.3, 0.45], swap_depth=depth)
        argv = ["swap-chain", "--config", cfg, "--format", "json"]
        code, plain, _ = run_cli(argv, capsys)
        assert code == 0
        blocks = []

        class Counting(json.JSONEncoder):
            def encode(self, o):
                blocks.append(len(o))
                return super().encode(o)

        encoder = cli._ROW_ENCODER
        separators = (encoder.item_separator, encoder.key_separator)
        monkeypatch.setattr(cli, "_ROW_ENCODER", Counting(separators=separators))
        assert run_cli(argv, capsys) == (0, plain, "")
        assert len(blocks) == math.ceil(2 * depth / _B)
        assert sum(blocks) == 2 * depth

    @staticmethod
    def _json_peak(tmp_path, alpha_sq, depth):
        cfg = write_config(tmp_path, alpha_sq=alpha_sq, swap_depth=depth)
        out = str(tmp_path / "table.json")
        argv = ["swap-chain", "--config", cfg, "--format", "json", "--output", out]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_a_second_point_adds_no_memory(self, tmp_path):
        # held rows grew by about 170 MB per point at MAX_SWAP_DEPTH, and a
        # list of the closed-form reference by about 0.6 MB per 18000 swaps
        depth = 20000
        # fills the plan caches for every ket support both chains reach
        warm = write_config(tmp_path, alpha_sq=[0.3, 0.4], swap_depth=4000)
        assert main(["swap-chain", "--config", warm, "--output", str(tmp_path / "w.csv")]) == 0
        shallow = self._json_peak(tmp_path, [0.3], 2000)
        one = self._json_peak(tmp_path, [0.3], depth)
        assert one <= 1.2 * shallow
        two = self._json_peak(tmp_path, [0.3, 0.4], depth)
        assert two <= 1.2 * one
        doc = json.loads((tmp_path / "table.json").read_text(encoding="utf-8"))
        assert len(doc["rows"]) == 2 * depth

    @pytest.mark.parametrize("command", ["generate", "swap-chain", "concentrate", "yield"])
    def test_json_bytes_equal_the_indented_document(self, tmp_path, capsys, command):
        config = {"p_a": [0.01, 0.02]} if command == "generate" else {"alpha_sq": [0.3, 0.8]}
        cfg = write_config(tmp_path, **config)
        code, out, _ = run_cli([command, "--config", cfg, "--format", "json"], capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_an_empty_table_prints_as_the_indented_document(self):
        buf = io.StringIO()
        cfg = cli.RunConfig(alpha_sq=[0.5])
        cli.render_json(cfg, "yield", ["alpha_sq"], iter(()), {"rows": 0}, buf)
        assert json.loads(buf.getvalue())["rows"] == []
        assert buf.getvalue() == json.dumps(json.loads(buf.getvalue()), indent=2) + "\n"

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_a_bad_later_grid_entry_writes_no_byte(self, tmp_path, capsys, to_file):
        # SourceParams refuses p_a 1.5: the whole grid is read before the
        # header is written, so the two valid rows before it never appear
        cfg = write_config(tmp_path, p_a=[0.01, 0.02, 1.5], p_b=0.01)
        out_path = tmp_path / "table.csv"
        argv = ["generate", "--config", cfg] + (["--output", str(out_path)] if to_file else [])
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == "config error: p_a must lie in (0, 1), got 1.5\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @staticmethod
    def _fail_mid_chain(monkeypatch, error=ContractError):
        chain = cli._swap_chain

        def failing(pair, n_swaps):
            for n, link in enumerate(chain(pair, n_swaps), start=1):
                if n == 500:
                    raise error("injected")
                yield link

        monkeypatch.setattr(cli, "_swap_chain", failing)

    @pytest.mark.parametrize("error", [ContractError, ZeroDivisionError])
    def test_an_error_mid_chain_leaves_no_file(self, tmp_path, capsys, monkeypatch, error):
        self._fail_mid_chain(monkeypatch, error)
        cfg = write_config(tmp_path, alpha_sq=0.3, swap_depth=1000)
        argv = ["swap-chain", "--config", cfg, "--output", str(tmp_path / "table.csv")]
        if error is ContractError:
            code, out, err = run_cli(argv, capsys)
            assert (code, out, err) == (2, "", "internal error: injected\n")
        else:
            with pytest.raises(error):
                main(argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_an_error_mid_table_leaves_whole_blocks_on_stdout(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg = write_config(tmp_path, alpha_sq=0.3, swap_depth=1000)
        argv = ["swap-chain", "--config", cfg, "--format", "json"]
        code, table, _ = run_cli(argv, capsys)
        assert code == 0
        self._fail_mid_chain(monkeypatch)
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (2, "internal error: injected\n")
        # rows 1-499 were built; the block the error cut short was not written
        assert table.startswith(out) and out.endswith("\n    }")
        assert out.count('"closed_form_check"') == 499 // _B * _B

    @pytest.mark.parametrize("fails", [False, True], ids=["whole", "mid-chain-error"])
    def test_an_existing_file_keeps_its_mode_and_is_replaced_only_when_whole(
        self, tmp_path, capsys, monkeypatch, fails
    ):
        cfg = write_config(tmp_path, alpha_sq=0.3, swap_depth=1000)
        code, table, _ = run_cli(["swap-chain", "--config", cfg], capsys)
        assert code == 0
        out_path = tmp_path / "table.csv"
        out_path.write_text("old\n", encoding="utf-8")
        out_path.chmod(0o640)
        if fails:
            self._fail_mid_chain(monkeypatch)
        code, out, _ = run_cli(["swap-chain", "--config", cfg, "--output", str(out_path)], capsys)
        assert (code, out) == ((2, "") if fails else (0, ""))
        assert out_path.read_text(encoding="utf-8") == ("old\n" if fails else table)
        assert out_path.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "table.csv"]

    def test_a_symlink_is_written_through_and_kept(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=0.3, swap_depth=50)
        code, table, _ = run_cli(["swap-chain", "--config", cfg], capsys)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n", encoding="utf-8")
        link.symlink_to(target)
        code, out, _ = run_cli(["swap-chain", "--config", cfg, "--output", str(link)], capsys)
        assert (code, out) == (0, "")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text(encoding="utf-8") == table
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["config.json", "link.csv", "target.csv"]

    def test_a_pipe_is_written_directly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, alpha_sq=[0.3, 0.4], swap_depth=500)
        code, table, _ = run_cli(["swap-chain", "--config", cfg], capsys)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        # a daemon: a run that never opens the pipe leaves the reader blocked
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        code, out, err = run_cli(["swap-chain", "--config", cfg, "--output", str(fifo)], capsys)
        reader.join(timeout=30)
        assert (code, out, err) == (0, "", "")
        assert received == [table.encode("utf-8")]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "pipe"]

    def test_a_closed_form_failure_keeps_the_whole_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "CLOSED_FORM_TOL", -1.0)
        cfg = write_config(tmp_path, alpha_sq=[0.3, 0.4], swap_depth=50)
        out_path = tmp_path / "table.csv"
        code, out, err = run_cli(["swap-chain", "--config", cfg, "--output", str(out_path)], capsys)
        assert (code, out, err) == (2, "", "closed-form cross-check failed\n")
        _, rows = parse_csv(out_path.read_text(encoding="utf-8"))
        assert len(rows) == 100 and {r["closed_form_check"] for r in rows} == {"fail"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "table.csv"]


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


def test_only_a_draw_imports_numpy(tmp_path):
    # a fresh interpreter: importing the CLI, a swap-chain run and a yield
    # run leave numpy unimported; a sampling concentrate run imports it
    (tmp_path / "config.json").write_text(json.dumps({"alpha_sq": 0.8, "rounds": 2}))
    (tmp_path / "trials.json").write_text(json.dumps({"alpha_sq": 0.8, "trials": 10}))
    script = """
import sys
import singlerail.cli as cli
seen = ["numpy" in sys.modules]
for command, config in (("swap-chain", "config"), ("yield", "config"), ("concentrate", "trials")):
    argv = [command, "--config", f"{config}.json", "--output", "out.csv"]
    seen.append((cli.main(argv), "numpy" in sys.modules))
print(seen)
"""
    src = pathlib.Path(singlerail.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, (0, False), (0, False), (0, True)]"
