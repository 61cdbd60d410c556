"""Correctness checks for CLI tables, run outside the timed region.

Tables are parsed (CSV via ``csv``, JSON via ``json``) and compared as
numbers, never as pinned bytes, so a change in how keys or cells are
formatted does not trip the check.

References are the benchmark's own:

* concentration / yield: a float recursion of the oracle's recurrence
  ``p_keep = 2x(1-x)``, ``p_even = x^2 + (1-x)^2``, ``y = attempts*p_keep``,
  ``x' = x^2/p_even``, ``attempts' = attempts*p_even/2`` from
  ``attempts = 1/2``.  It runs on the ratio ``s = min(x,1-x)/max(x,1-x)``,
  for which the same recurrence reads ``s' = s^2``,
  ``p_keep = 2s/(1+s)^2``, ``p_even = (1+s^2)/(1+s)^2``; that form keeps
  full relative precision near ``x = 1`` and at underflow scale.  Away
  from the pi probe nothing is recycled, so rounds >= 2 yield 0.
* swap chain: the degradation law ``alpha_sq_n = t/(1+t)`` with
  ``t = (alpha_sq/(1-alpha_sq))^(n+1)``, evaluated in log space.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import Job

#: |got - want| <= REL_TOL*|want| + ABS_TOL.  ABS_TOL sits far above the
#: program's amplitude pruning (1e-15 on amplitudes, ~1e-30 on weights)
#: and far below any weight that matters physically.
REL_TOL = 1e-9
ABS_TOL = 1e-20
#: rounding error of a 15-significant-digit cell, relative to its value
CELL_REL_ERROR = 1e-14
#: a Monte Carlo yield may sit this many standard errors, plus this many
#: successes, from the reference.  The error is the larger of the reported
#: one and the Poisson error of the reference count, sqrt(y/trials): a round
#: expecting a handful of successes may see none, and then reports 0.
MC_SIGMAS = 6.0


class Mismatch(Exception):
    """A table disagrees with the reference; the message starts with the column."""


def _close(column: str, where: str, got: float, want: float, slack: float = 0.0) -> None:
    if not abs(got - want) <= REL_TOL * abs(want) + ABS_TOL + slack:
        raise Mismatch(f"{column} {where}: got {got!r}, reference {want!r}")


def reference_rounds(alpha_sq: float, rounds: int, recycling: bool) -> list[tuple[float, float]]:
    """(success probability, yield per source pair) per round."""
    lo, hi = sorted((alpha_sq, 1.0 - alpha_sq))
    s = lo / hi
    attempts = 0.5
    out = []
    for n in range(rounds):
        if n > 0 and not recycling:
            out.append((0.0, 0.0))
            continue
        p_keep = 2.0 * s / (1.0 + s) ** 2
        p_even = (1.0 + s * s) / (1.0 + s) ** 2
        out.append((p_keep, attempts * p_keep))
        attempts *= p_even / 2.0
        s *= s
    return out


def _group_rows(rows: list[dict], job: Job) -> dict[float, list[dict]]:
    groups: dict[float, list[dict]] = {}
    for row in rows:
        groups.setdefault(float(row["alpha_sq"]), []).append(row)
    if len(groups) != len(job.alpha_sq):
        raise Mismatch(
            f"alpha_sq: {len(groups)} grid points in the table, {len(job.alpha_sq)} requested"
        )
    matched = {}
    for x in job.alpha_sq:
        key = min(groups, key=lambda k: abs(k - x))
        _close("alpha_sq", "key", key, x)
        matched[x] = groups[key]
    return matched


def _check_rounds(job: Job, rows: list[dict]) -> None:
    rounds = job.config["rounds"]
    recycling = math.isclose(job.qnd_theta, math.pi)
    trials = job.config.get("trials", 0)
    for x, group in _group_rows(rows, job).items():
        if [r["round"] for r in group] != [str(n) for n in range(1, rounds + 1)] + ["total"]:
            raise Mismatch(f"round column for alpha_sq {x}: {[r['round'] for r in group]}")
        ref = reference_rounds(x, rounds, recycling)
        cumulative = 0.0
        for row, (p_keep, y) in zip(group, ref):
            where = f"alpha_sq {x} round {row['round']}"
            cumulative += y
            _close("y_oracle", where, float(row["y_oracle"]), y)
            _close("y_cumulative_oracle", where, float(row["y_cumulative_oracle"]), cumulative)
            if row["formula_check"] not in ("pass", "documented-discrepancy"):
                raise Mismatch(f"formula_check {where}: {row['formula_check']!r}")
            if "success_prob" in row:
                _close("success_prob", where, float(row["success_prob"]), p_keep)
            if "discrepancy" in row:
                # the program subtracts unrounded values, the cells carry 15 digits
                f_val, o_val = float(row["y_formula"]), float(row["y_oracle"])
                cell_error = CELL_REL_ERROR * (abs(f_val) + abs(o_val))
                gap = abs(f_val - o_val)
                _close("discrepancy", where, float(row["discrepancy"]), gap, cell_error)
            if trials:
                mc, stderr = float(row["y_mc"]), float(row["y_mc_stderr"])
                error = max(stderr, math.sqrt(y / trials))
                if abs(mc - y) > MC_SIGMAS * (error + 1.0 / trials):
                    raise Mismatch(
                        f"y_mc {where}: {mc!r} is more than {MC_SIGMAS} stderr"
                        f" ({stderr!r}) from {y!r}"
                    )
        total, where = group[-1], f"alpha_sq {x} total"
        _close("y_oracle", where, float(total["y_oracle"]), cumulative)
        _close("y_cumulative_oracle", where, float(total["y_cumulative_oracle"]), cumulative)


def _check_swap(job: Job, rows: list[dict]) -> None:
    depth = job.config["swap_depth"]
    for x, group in _group_rows(rows, job).items():
        if [int(r["n"]) for r in group] != list(range(1, depth + 1)):
            raise Mismatch(f"n column for alpha_sq {x} does not run 1..{depth}")
        log_ratio = math.log(x) - math.log1p(-x)
        for row in group:
            where = f"alpha_sq {x} n {row['n']}"
            if row["closed_form_check"] != "pass":
                raise Mismatch(f"closed_form_check {where}: {row['closed_form_check']!r}")
            log_t = (int(row["n"]) + 1) * log_ratio
            small = math.exp(-abs(log_t))  # min(t, 1/t), underflows to 0 cleanly
            want = small / (1.0 + small) if log_t <= 0 else 1.0 / (1.0 + small)
            _close("alpha_sq_n", where, float(row["alpha_sq_n"]), want)
            _close("entanglement_ratio", where, float(row["entanglement_ratio"]), small)


def check_table(job: Job, text: str) -> None:
    """Raise ``Mismatch`` unless ``text`` is a correct table for ``job``."""
    if job.output_format == "json":
        rows = [
            {k: "" if v is None else str(v) for k, v in row.items()}
            for row in json.loads(text)["rows"]
        ]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise Mismatch("table: no rows")
    if job.command == "swap-chain":
        _check_swap(job, rows)
    else:
        _check_rounds(job, rows)
