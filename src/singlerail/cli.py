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
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from decimal import MAX_EMAX, MIN_EMIN, Context
from typing import IO

from .analytics import compare_yield, entanglement_ratio, monte_carlo_yield
from .errors import ConfigError, SingleRailError
from .fock import MAX_ORACLE_ROUNDS, MAX_SWAP_DEPTH, MAX_TRIALS, _count, _real
from .protocols import (
    SingleRailPair,
    SourceParams,
    _probe,
    _swap_chain,
    count_draws,
    generate_entanglement,
    iterate_concentration,
)

#: numbers are serialized with this many significant digits in both formats
SIG_DIGITS = 15

#: tolerance for the swap-chain closed-form cross-check (scaled by magnitude)
CLOSED_FORM_TOL = 1e-12

#: the commands that draw ``trials`` samples; the others accept only 0
_SAMPLING_COMMANDS = ("generate", "concentrate")

#: the config's counts as (key, least, most), read in this order; the
#: exact oracle enumerates at most MAX_ORACLE_ROUNDS rounds
_COUNTS = (
    ("rounds", 1, MAX_ORACLE_ROUNDS),
    ("swap_depth", 1, MAX_SWAP_DEPTH),
    ("trials", 0, MAX_TRIALS),
    ("seed", 0, None),
)

#: digits of the swap-chain reference: its rounding, which grows by about
#: one unit in the last digit per swap, stays far below CLOSED_FORM_TOL
#: at MAX_SWAP_DEPTH
REFERENCE_DIGITS = 40


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
        return [_real(value, key)]
    if isinstance(value, (list, tuple)) and value:
        for v in value:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"{key} entries must be numbers, got {v!r}")
        return [_real(v, key) for v in value]
    raise ConfigError(f"{key} must be a number or a nonempty list, got {value!r}")


def _as_angle(value, key: str) -> float:
    if isinstance(value, str) and value.strip().lower() == "pi":
        return math.pi
    return _real(value, f"{key}, if not 'pi',")


def load_config(path: str) -> dict:
    """Read the flat key/value config document (a one-level JSON object)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8 and integers past Python's str limit
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
    for key, least, most in _COUNTS:
        if key in merged:
            setattr(cfg, key, _count(merged[key], key, least, most))
    for key in ("trials", "seed"):
        value = getattr(cfg, key)
        if value and args.command not in _SAMPLING_COMMANDS:
            raise ConfigError(
                f"{key} must be 0 for {args.command}, which samples nothing, "
                f"got {value}"
            )
    if "p_a" in merged:
        cfg.p_a = _as_float_list(merged["p_a"], "p_a")
    if "p_b" in merged:
        cfg.p_b = _as_float_list(merged["p_b"], "p_b")
    cfg.output = merged.get("output")
    if not isinstance(cfg.output, (str, type(None))):
        raise ConfigError(f"output must be a string, got {cfg.output!r}")
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


def _jvalue(value):
    # JSON carries the same numeric values the CSV cells parse back to
    if isinstance(value, float):
        return float(fmt(value))
    return value


# -- subcommand table builders ---------------------------------------------------
# A builder is a generator: it reads its config, yields the header, then each row
# as it is built, filling ``summary``; ``main`` draws the header before any byte.


def cmd_generate(cfg: RunConfig, summary: dict) -> Iterator:
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
    sources = [SourceParams(pa, pb, cfg.theta_ab) for pa, pb in zip(p_a, p_b)]
    summary["rows"] = len(sources)
    header = ["p_a", "p_b", "herald_prob", "alpha_sq", "beta_sq", "phase"]
    if cfg.trials > 0:
        header += ["herald_freq", "herald_stderr"]
        import numpy as np  # deferred: only a run that draws pays the import

        rng = np.random.default_rng(cfg.seed)
    yield header
    for params in sources:
        herald, pair = generate_entanglement(params)
        row = {
            "p_a": params.p_a,
            "p_b": params.p_b,
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
        yield row


def _amplitude_ratio(pair: SingleRailPair) -> float:
    # min/max stays finite when the smaller amplitude underflows to 0
    lo, hi = sorted((pair.alpha, abs(pair.beta)))
    return lo / hi


def _closed_form_ratios(pair: SingleRailPair, depth: int) -> Iterator[float]:
    """Yields the amplitude ratio r**(n+1) after n = 1..``depth`` swaps, with r
    = sqrt(lo/hi) of the pair's exact weights alpha**2 and re**2 + im**2.

    The weights, r and its powers are carried to ``REFERENCE_DIGITS``
    digits, one multiplication per swap, and each power is rounded once
    to a float, so the reference's error does not grow with the depth the
    way that of a power of a rounded ratio, or of ``abs(beta)``, does.  An
    explicit context with the widest exponent range leaves the thread's
    ``decimal`` context unread and nothing underflows.
    """
    ctx = Context(prec=REFERENCE_DIGITS, Emin=MIN_EMIN, Emax=MAX_EMAX)
    coeffs = pair.alpha, pair.beta.real, pair.beta.imag
    alpha, re, im = map(ctx.create_decimal_from_float, coeffs)
    lo, hi = sorted((ctx.multiply(alpha, alpha), ctx.fma(re, re, ctx.multiply(im, im))))
    ratio = power = ctx.sqrt(ctx.divide(lo, hi))
    for _ in range(depth):
        power = ctx.multiply(power, ratio)
        yield float(ctx.to_sci_string(power))


def cmd_swap_chain(cfg: RunConfig, summary: dict) -> Iterator:
    summary["closed_form_failures"] = 0
    yield ["alpha_sq", "n", "alpha_sq_n", "entanglement_ratio", "closed_form_check"]
    for x in cfg.alpha_sq:
        pair = _pair(x, cfg.theta_ab)
        chain = _swap_chain(pair, cfg.swap_depth)
        for n, (link, closed) in enumerate(
            zip(chain, _closed_form_ratios(pair, cfg.swap_depth)), start=1
        ):
            simulated = _amplitude_ratio(link)
            ok = abs(simulated - closed) <= CLOSED_FORM_TOL * max(1.0, abs(closed))
            summary["closed_form_failures"] += 0 if ok else 1
            yield {
                "alpha_sq": x,
                "n": n,
                "alpha_sq_n": link.alpha_sq,
                "entanglement_ratio": entanglement_ratio(link),
                "closed_form_check": "pass" if ok else "fail",
            }


#: the columns each yield command prints between ``alpha_sq, round`` and
#: ``y_cumulative_oracle``; a run that draws ``trials`` adds ``y_mc, y_mc_stderr``
_YIELD_COLUMNS = {
    "concentrate": ["success_prob", "y_formula", "y_oracle", "formula_check"],
    "yield": ["y_formula", "y_oracle", "discrepancy", "formula_check"],
}


def _yield_table(command: str, cfg: RunConfig, summary: dict) -> Iterator:
    """The per-round yield table of ``command`` at the configured probe.

    The columns decide the work: a grid point gets one state-vector walk
    of the herald tree only when the table prints ``success_prob``, and
    the Monte Carlo columns are sampled from that same walk only when it
    prints ``y_mc``.  Each row carries every column it computed; the
    header picks the ones the command prints.
    """
    header = ["alpha_sq", "round", *_YIELD_COLUMNS[command], "y_cumulative_oracle"]
    if cfg.trials > 0:
        header += ["y_mc", "y_mc_stderr"]
    _probe(cfg.qnd_theta)  # an angle whose phase overflows is a config error
    summaries = summary["per_alpha"] = []
    yield header
    for x in cfg.alpha_sq:
        pair = _pair(x, cfg.theta_ab)
        ledger = (
            iterate_concentration(pair, cfg.rounds, cfg.qnd_theta)
            if "success_prob" in header
            else None
        )
        mc = monte_carlo_yield(ledger, cfg.trials, cfg.seed) if "y_mc" in header else []
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
            yield row
        yield {
            "alpha_sq": x,
            "round": "total",
            "y_formula": report.cumulative_formula,
            "y_oracle": report.cumulative_oracle,
            "formula_check": (
                "pass" if not report.discrepancies else "documented-discrepancy"
            ),
            "y_cumulative_oracle": report.cumulative_oracle,
            "y_mc": sum(m.estimate for m in mc) if mc else None,
        }
        summaries.append(
            {
                "alpha_sq": _jvalue(x),
                "total_yield_formula": _jvalue(report.cumulative_formula),
                "total_yield_oracle": _jvalue(report.cumulative_oracle),
                "documented_discrepancies": len(report.discrepancies),
            }
        )


# -- output -----------------------------------------------------------------------


def render_csv(header: list[str], rows: Iterable[dict], out: IO) -> None:
    """Write the CSV table to ``out``, each row as it arrives."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        # csv writes None as "" and str() of any other cell
        writer.writerow([fmt(v) if isinstance(v := row.get(key), float) else v for key in header])


#: a flat row as ``json.dumps(doc, indent=2)`` prints it in its braces, encoded in C
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))

#: rows per ``_ROW_ENCODER`` call: blocks of 16, 64 and 256 render a swap-chain
#: row alike, in 5.1-5.7 us against 7.1-8.1 for one call a row on a 2-vCPU
#: Xeon, and 1024 or more is slower
_JSON_BLOCK = 64
#: ``fmt``'s format, for rounding JSON cells inline by ``_jvalue``'s rule
_FMT_SPEC = f".{SIG_DIGITS}g"


def render_json(
    cfg: RunConfig, command: str, header: list, rows: Iterable, summary: dict, out: IO
) -> None:
    """Write the bytes of ``json.dumps(doc, indent=2) + "\\n"`` to ``out``,
    ``_JSON_BLOCK`` rows at a time; ``summary`` is read after the last row."""
    config_echo = {f.name: getattr(cfg, f.name) for f in fields(RunConfig)}
    config_echo["command"] = command
    head = {"config": {k: _jvalue(v) for k, v in config_echo.items()}}
    out.write(json.dumps(head, indent=2)[:-2] + ',\n  "rows": [')
    rows = iter(rows)
    sep = "\n"
    while block := [
        {k: float(f"{v:{_FMT_SPEC}}") if isinstance(v := r.get(k), float) else v for k in header}
        for r in itertools.islice(rows, _JSON_BLOCK)
    ]:
        # rows are flat and an encoded string holds no raw newline, so the
        # list's "},\n      {" falls only between two rows
        text = _ROW_ENCODER.encode(block)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        out.write(sep + "    {\n      " + text + "\n    }")
        sep = ",\n"
    out.write("]" if sep == "\n" else "\n  ]")
    out.write("," + json.dumps({"summary": summary}, indent=2)[1:] + "\n")


@contextlib.contextmanager
def _output_file(path: str) -> Iterator[IO]:
    """``--output``'s stream.  A new file is removed if the block raises; an
    existing regular file is replaced from ``<path>.<pid>.part``, which takes
    its mode and is removed if the block raises; so both hold the whole table
    or what they held.  A symlink, device or pipe is written directly."""
    try:
        try:
            fh, made = open(path, "x", encoding="utf-8", newline=""), path
        except FileExistsError:
            mode = os.lstat(path).st_mode
            made = f"{path}.{os.getpid()}.part" if stat.S_ISREG(mode) else None
            fh = open(made or path, "w", encoding="utf-8", newline="")
        try:
            with fh:
                yield fh
            if made not in (None, path):
                os.chmod(made, stat.S_IMODE(mode))
                os.replace(made, path)
        except BaseException:
            if made is not None:
                os.remove(made)
            raise
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


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call."""
    return build_parser()


_COMMANDS = {
    "generate": cmd_generate,
    "swap-chain": cmd_swap_chain,
    "concentrate": functools.partial(_yield_table, "concentrate"),
    "yield": functools.partial(_yield_table, "yield"),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = resolve_config(args)
        summary: dict = {}
        rows = _COMMANDS[args.command](cfg, summary)
        header = next(rows)
        stdout = contextlib.nullcontext(sys.stdout)
        with stdout if cfg.output is None else _output_file(cfg.output) as out:
            if cfg.format == "json":
                render_json(cfg, args.command, header, rows, summary, out)
            else:
                render_csv(header, rows, out)
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
