"""Batch front end: sweep protocol parameters, emit CSV or JSON tables.

Subcommands mirror the package layers: ``generate`` (heralded pair
sources), ``swap-chain`` (repeated swapping vs the closed form),
``concentrate`` (iterated concentration with yield accounting and
optional Monte Carlo), ``yield`` (analytics only).  Runs are configured
by a flat JSON object plus flag overrides; identical config and seed
produce byte-identical output.

Exit codes: 0 on success (including runs whose only findings are
documented formula/enumeration discrepancies), 1 for configuration
errors, 2 when an internal consistency check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .analytics import (
    MAX_ORACLE_ROUNDS,
    compare_yield,
    entanglement_ratio,
    monte_carlo_yield,
)
from .errors import ConfigError, SingleRailError
from .protocols import (
    SingleRailPair,
    SourceParams,
    count_draws,
    generate_entanglement,
    iterate_concentration,
    swap_chain_trace,
)

#: numbers are serialized with this many significant digits in both formats
SIG_DIGITS = 15

#: tolerance for the swap-chain closed-form cross-check (scaled by magnitude)
CLOSED_FORM_TOL = 1e-12

#: the commands that draw ``trials`` samples; the others accept only 0
_SAMPLING_COMMANDS = ("generate", "concentrate")


@dataclass
class RunConfig:
    """Resolved run parameters after merging defaults, config file, flags."""

    alpha_sq: list[float]
    theta_ab: float = 0.0
    qnd_theta: float = math.pi
    rounds: int = 3
    swap_depth: int = 5
    trials: int = 0
    seed: int = 0
    p_a: list[float] | None = None
    p_b: list[float] | None = None
    output: str | None = None
    format: str = "csv"


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _as_float_list(value, key: str) -> list[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return [float(value)]
    if isinstance(value, (list, tuple)) and value:
        out = []
        for v in value:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{key} entries must be numbers, got {v!r}")
            out.append(float(v))
        return out
    raise ConfigError(f"{key} must be a number or a nonempty list, got {value!r}")


def _as_angle(value, key: str) -> float:
    if isinstance(value, str):
        if value.strip().lower() == "pi":
            return math.pi
        raise ConfigError(f"{key} accepts a finite number or 'pi', got {value!r}")
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{key} accepts a finite number or 'pi', got {value!r}")
    return float(value)


def _as_int(value, key: str, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{key} must be <= {maximum}, got {value}")
    return value


def load_config(path: str) -> dict:
    """Read the flat key/value config document (a one-level JSON object)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)!r}; known: {sorted(_CONFIG_KEYS)!r}"
        )
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = dict(load_config(args.config)) if args.config else {}
    # flags win over the config file
    for key in ("output", "format", "seed", "trials"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value

    cfg = RunConfig(alpha_sq=[0.5])
    if "alpha_sq" in merged:
        cfg.alpha_sq = _as_float_list(merged["alpha_sq"], "alpha_sq")
    if "theta_ab" in merged:
        cfg.theta_ab = _as_angle(merged["theta_ab"], "theta_ab")
    if "qnd_theta" in merged:
        cfg.qnd_theta = _as_angle(merged["qnd_theta"], "qnd_theta")
    if "rounds" in merged:
        # the exact oracle enumerates at most this many rounds
        cfg.rounds = _as_int(merged["rounds"], "rounds", 1, MAX_ORACLE_ROUNDS)
    if "swap_depth" in merged:
        cfg.swap_depth = _as_int(merged["swap_depth"], "swap_depth", 1)
    if "trials" in merged:
        cfg.trials = _as_int(merged["trials"], "trials", 0)
        if cfg.trials and args.command not in _SAMPLING_COMMANDS:
            raise ConfigError(
                f"trials must be 0 for {args.command}, which samples nothing, "
                f"got {cfg.trials}"
            )
    if "seed" in merged:
        cfg.seed = _as_int(merged["seed"], "seed", 0)
    if "p_a" in merged:
        cfg.p_a = _as_float_list(merged["p_a"], "p_a")
    if "p_b" in merged:
        cfg.p_b = _as_float_list(merged["p_b"], "p_b")
    if "output" in merged and merged["output"] is not None:
        cfg.output = str(merged["output"])
    if "format" in merged:
        if merged["format"] not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {merged['format']!r}")
        cfg.format = merged["format"]

    printed: dict[str, float] = {}
    for x in cfg.alpha_sq:
        key = fmt(x)
        # rows are keyed by the printed value, so that is what must be
        # inside (0, 1) and name one grid value
        if not 0.0 < float(key) < 1.0:
            raise ConfigError(
                f"alpha_sq values must print inside (0, 1), got {x!r} ({key})"
            )
        if printed.setdefault(key, x) != x:
            raise ConfigError(
                f"alpha_sq values {printed[key]!r} and {x!r} both print as {key}"
            )
    return cfg


def _pair(alpha_sq: float, theta_ab: float) -> SingleRailPair:
    alpha = math.sqrt(alpha_sq)
    beta = math.sqrt(1.0 - alpha_sq) * complex(math.cos(theta_ab), math.sin(theta_ab))
    return SingleRailPair.from_coefficients(alpha, beta)


def fmt(x: float) -> str:
    """Canonical 15-significant-digit decimal form of a float."""
    return f"{float(x):.{SIG_DIGITS}g}"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return fmt(value)
    return str(value)


def _jvalue(value):
    # JSON carries the same numeric values the CSV cells parse back to
    if isinstance(value, float):
        return float(fmt(value))
    return value


# -- subcommand table builders ---------------------------------------------------


def cmd_generate(cfg: RunConfig) -> tuple[list[str], list[dict], dict]:
    p_a = cfg.p_a if cfg.p_a is not None else [0.01]
    p_b = cfg.p_b if cfg.p_b is not None else [0.01]
    if len(p_a) == 1 and len(p_b) > 1:
        p_a = p_a * len(p_b)
    if len(p_b) == 1 and len(p_a) > 1:
        p_b = p_b * len(p_a)
    if len(p_a) != len(p_b):
        raise ConfigError(
            f"p_a and p_b grids must match in length, got {len(p_a)} vs {len(p_b)}"
        )
    header = ["p_a", "p_b", "herald_prob", "alpha_sq", "beta_sq", "phase"]
    if cfg.trials > 0:
        header += ["herald_freq", "herald_stderr"]
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for pa, pb in zip(p_a, p_b):
        herald, pair = generate_entanglement(SourceParams(pa, pb, cfg.theta_ab))
        row = {
            "p_a": pa,
            "p_b": pb,
            "herald_prob": herald,
            "alpha_sq": pair.alpha_sq,
            "beta_sq": pair.beta_sq,
            "phase": pair.theta,
        }
        if cfg.trials > 0:
            hits = int(count_draws(rng, cfg.trials, np.array([herald]))[0])
            freq = hits / cfg.trials
            row["herald_freq"] = freq
            row["herald_stderr"] = math.sqrt(freq * (1.0 - freq) / cfg.trials)
        rows.append(row)
    return header, rows, {"rows": len(rows)}


def _amplitude_ratio(pair: SingleRailPair) -> float:
    # min/max stays finite when the smaller amplitude underflows to 0
    lo, hi = sorted((pair.alpha, abs(pair.beta)))
    return lo / hi


def cmd_swap_chain(cfg: RunConfig) -> tuple[list[str], list[dict], dict]:
    header = ["alpha_sq", "n", "alpha_sq_n", "entanglement_ratio", "closed_form_check"]
    rows = []
    failures = 0
    for x in cfg.alpha_sq:
        pair = _pair(x, cfg.theta_ab)
        base_ratio = _amplitude_ratio(pair)
        for n, link in enumerate(swap_chain_trace(pair, cfg.swap_depth), start=1):
            simulated = _amplitude_ratio(link)
            closed = base_ratio ** (n + 1)
            ok = abs(simulated - closed) <= CLOSED_FORM_TOL * max(1.0, abs(closed))
            failures += 0 if ok else 1
            rows.append(
                {
                    "alpha_sq": x,
                    "n": n,
                    "alpha_sq_n": link.alpha_sq,
                    "entanglement_ratio": entanglement_ratio(link),
                    "closed_form_check": "pass" if ok else "fail",
                }
            )
    return header, rows, {"closed_form_failures": failures}


def _yield_table(cfg: RunConfig, walk: bool) -> tuple[list[dict], dict]:
    """Rows and summary of the per-round yield table at the configured probe.

    With ``walk`` every grid point also gets one state-vector walk of the
    herald tree (``success_prob``), and with ``trials`` the Monte Carlo
    columns are sampled from that same walk.  Each row carries every
    column; the header picks the ones a command prints.
    """
    rows = []
    summaries = []
    for x in cfg.alpha_sq:
        pair = _pair(x, cfg.theta_ab)
        ledger = (
            iterate_concentration(pair, cfg.rounds, cfg.qnd_theta) if walk else None
        )
        mc = (
            monte_carlo_yield(ledger, cfg.trials, cfg.seed)
            if ledger is not None and cfg.trials > 0
            else []
        )
        report = compare_yield(pair.alpha, pair.beta, cfg.rounds, cfg.qnd_theta)
        cumulative = 0.0
        for i, term in enumerate(report.terms):
            cumulative += term.oracle_value
            row = {
                "alpha_sq": x,
                "round": term.round_index,
                "y_formula": term.value,
                "y_oracle": term.oracle_value,
                "discrepancy": term.discrepancy,
                "formula_check": (
                    "pass" if term.matches else "documented-discrepancy"
                ),
                "y_cumulative_oracle": cumulative,
            }
            if ledger is not None:
                row["success_prob"] = ledger.entries[i].success_probability
            if mc:
                row["y_mc"] = mc[i].estimate
                row["y_mc_stderr"] = mc[i].stderr
            rows.append(row)
        rows.append(
            {
                "alpha_sq": x,
                "round": "total",
                "y_formula": report.cumulative_formula,
                "y_oracle": report.cumulative_oracle,
                "formula_check": (
                    "pass"
                    if not report.discrepancies
                    else "documented-discrepancy"
                ),
                "y_cumulative_oracle": report.cumulative_oracle,
                "y_mc": sum(m.estimate for m in mc) if mc else None,
            }
        )
        summaries.append(
            {
                "alpha_sq": x,
                "total_yield_formula": _jvalue(report.cumulative_formula),
                "total_yield_oracle": _jvalue(report.cumulative_oracle),
                "documented_discrepancies": len(report.discrepancies),
            }
        )
    return rows, {"per_alpha": summaries}


def cmd_concentrate(cfg: RunConfig) -> tuple[list[str], list[dict], dict]:
    header = [
        "alpha_sq",
        "round",
        "success_prob",
        "y_formula",
        "y_oracle",
        "formula_check",
        "y_cumulative_oracle",
    ]
    if cfg.trials > 0:
        header += ["y_mc", "y_mc_stderr"]
    return (header, *_yield_table(cfg, walk=True))


def cmd_yield(cfg: RunConfig) -> tuple[list[str], list[dict], dict]:
    header = [
        "alpha_sq",
        "round",
        "y_formula",
        "y_oracle",
        "discrepancy",
        "formula_check",
        "y_cumulative_oracle",
    ]
    return (header, *_yield_table(cfg, walk=False))


# -- output -----------------------------------------------------------------------


def render_csv(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(row.get(key)) for key in header])
    return buf.getvalue()


def render_json(
    cfg: RunConfig, command: str, header: list[str], rows: list[dict], summary: dict
) -> str:
    config_echo = {
        f.name: getattr(cfg, f.name) for f in fields(RunConfig)
    }
    config_echo["command"] = command
    doc = {
        "config": {k: _jvalue(v) for k, v in config_echo.items()},
        "rows": [
            {key: _jvalue(row.get(key)) for key in header} for row in rows
        ],
        "summary": json.loads(json.dumps(summary)),
    }
    return json.dumps(doc, indent=2) + "\n"


def write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc}") from exc


# -- entry point --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own codes; route everything through ConfigError
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="singlerail",
        description="single-rail entanglement protocol sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "heralded pair generation table"),
        ("swap-chain", "repeated swapping vs the closed form"),
        ("concentrate", "iterated concentration with yield accounting"),
        ("yield", "closed-form yield vs exact enumeration"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--output", help="write here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--seed", type=int)
        p.add_argument("--trials", type=int)
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "swap-chain": cmd_swap_chain,
    "concentrate": cmd_concentrate,
    "yield": cmd_yield,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        header, rows, summary = _COMMANDS[args.command](cfg)
        if cfg.format == "json":
            text = render_json(cfg, args.command, header, rows, summary)
        else:
            text = render_csv(header, rows)
        write_output(text, cfg.output)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SingleRailError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    if summary.get("closed_form_failures"):
        print("closed-form cross-check failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
