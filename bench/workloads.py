"""The benchmark's workloads: seed-drawn CLI jobs plus one edge job each.

Every workload is a list of ``singlerail`` CLI jobs.  The benchmark seed
draws the ``alpha_sq`` grid (one value per equal-width stratum of the
workload's range, so every seed covers the whole range evenly) and the
Monte Carlo seed; the program sees only the config files written here.

Each workload also carries one edge job that exercises a defect known at
the commit that introduced the benchmark.  Its documented outcome is
recorded in ``Edge``; a later fix may turn it into ``ok`` (verified rows)
or ``refused`` (exit 1, a config error), and anything else is an
unexpected failure.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Edge:
    """A job whose outcome at the benchmark's first commit is a known defect."""

    outcome: str  # "wrong", "refused" or "crash"
    detail: str  # regular expression the outcome's detail starts with
    defect: str

    def accepts(self, outcome: str, detail: str) -> bool:
        if outcome in ("ok", "refused"):
            return True
        return outcome == self.outcome and re.match(self.detail, detail) is not None


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    config: dict
    alpha_sq: tuple[float, ...]
    edge: Edge | None = None
    output_format: str = "csv"

    @property
    def qnd_theta(self) -> float:
        theta = self.config.get("qnd_theta", "pi")
        return math.pi if theta == "pi" else float(theta)

    @property
    def point_rounds(self) -> int:
        """Herald-tree rounds per point (0 for commands without rounds)."""
        return self.config["rounds"] if self.command in ("concentrate", "yield") else 0

    def argv(self, config_path: Path, output_path: Path) -> list[str]:
        return [
            self.command,
            "--config",
            str(config_path),
            "--output",
            str(output_path),
            "--format",
            self.output_format,
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    reason: str
    stresses: tuple[str, ...]
    bypasses: tuple[str, ...]
    build: Callable[[random.Random], list[Job]]

    @property
    def why(self) -> str:
        """One line: why the workload exists and which layers it stresses and bypasses."""
        return (
            f"{self.reason}. Stresses {', '.join(self.stresses)}; "
            f"bypasses {', '.join(self.bypasses) or 'none'}."
        )


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw inside each of ``n`` equal slices of (lo, hi]."""
    width = (hi - lo) / n
    return [lo + width * (k + 1.0 - rng.random()) for k in range(n)]


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


# -- concentrate-sweep --------------------------------------------------------------

CONCENTRATE_POINTS = 100
CONCENTRATE_JOBS = 5
CONCENTRATE_ROUNDS = 5
CONCENTRATE_TRIALS = 100_000


def _concentrate(rng: random.Random) -> list[Job]:
    grid = _strata(rng, CONCENTRATE_POINTS, 0.01, 0.99)
    rng.shuffle(grid)
    per_job = CONCENTRATE_POINTS // CONCENTRATE_JOBS
    jobs = []
    for j in range(CONCENTRATE_JOBS):
        points = tuple(grid[j * per_job:(j + 1) * per_job])
        config = {
            "alpha_sq": list(points),
            "rounds": CONCENTRATE_ROUNDS,
            "trials": CONCENTRATE_TRIALS,
            "seed": _seed(rng),
            "qnd_theta": "pi",
        }
        jobs.append(Job(f"concentrate-{j}", "concentrate", config, points))
    edge_point = (rng.uniform(0.01, 0.99),)
    jobs.append(
        Job(
            "concentrate-edge-qnd1",
            "concentrate",
            {
                "alpha_sq": list(edge_point),
                "rounds": CONCENTRATE_ROUNDS,
                "trials": CONCENTRATE_TRIALS,
                "seed": _seed(rng),
                "qnd_theta": 1.0,
            },
            edge_point,
            Edge(
                "wrong",
                r"y_oracle alpha_sq \S+ round [2-9]",
                "yield columns hard-code the pi probe: rounds >= 2 print nonzero "
                "y_oracle next to success_prob 0 (ROADMAP item 3)",
            ),
        )
    )
    return jobs


# -- yield-deep ---------------------------------------------------------------------

YIELD_POINTS = 6
YIELD_ROUNDS = 11
#: analytics.MAX_ORACLE_ROUNDS + 1
YIELD_EDGE_ROUNDS = 17


def _yield(rng: random.Random) -> list[Job]:
    jobs = [
        Job(f"yield-{j}", "yield", {"alpha_sq": [x], "rounds": YIELD_ROUNDS}, (x,))
        for j, x in enumerate(_strata(rng, YIELD_POINTS, 0.01, 0.99))
    ]
    x = rng.uniform(0.01, 0.99)
    jobs.append(
        Job(
            "yield-edge-rounds17",
            "yield",
            {"alpha_sq": [x], "rounds": YIELD_EDGE_ROUNDS},
            (x,),
            Edge(
                "crash",
                "exit 2: internal error",
                "rounds above MAX_ORACLE_ROUNDS exit 2 (internal error) where a "
                "config error, exit 1, is due (ROADMAP item 2)",
            ),
        )
    )
    return jobs


# -- swap-chain-long ----------------------------------------------------------------

SWAP_POINTS = 12
SWAP_JOBS = 4
SWAP_DEPTH = 1500
SWAP_EDGE_ALPHA_SQ = 0.7


def _swap(rng: random.Random) -> list[Job]:
    grid = _strata(rng, SWAP_POINTS, 0.0, 0.5)
    rng.shuffle(grid)
    per_job = SWAP_POINTS // SWAP_JOBS
    jobs = []
    for j in range(SWAP_JOBS):
        points = tuple(grid[j * per_job:(j + 1) * per_job])
        config = {"alpha_sq": list(points), "swap_depth": SWAP_DEPTH}
        jobs.append(Job(f"swap-{j}", "swap-chain", config, points, output_format="json"))
    jobs.append(
        Job(
            "swap-edge-alpha07",
            "swap-chain",
            {"alpha_sq": [SWAP_EDGE_ALPHA_SQ], "swap_depth": SWAP_DEPTH},
            (SWAP_EDGE_ALPHA_SQ,),
            Edge(
                "crash",
                "ZeroDivisionError:",
                "beta underflows after ~80 swaps at alpha_sq 0.7 and cmd_swap_chain "
                "divides by it: uncaught ZeroDivisionError",
            ),
            output_format="json",
        )
    )
    return jobs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "concentrate-sweep",
            "State-vector walk per point (QND, beam splitter, detection) feeding "
            "ledger, Monte Carlo and oracle",
            ("fock", "optics", "protocols", "analytics", "cli"),
            (),
            _concentrate,
        ),
        Workload(
            "yield-deep",
            "Exact Fraction oracle at 11 rounds; state-vector changes must "
            "show no change here",
            ("analytics", "cli"),
            ("fock", "optics", "protocols"),
            _yield,
        ),
        Workload(
            "swap-chain-long",
            "1500-deep swap chains with the largest JSON table, no QND or "
            "recycling; oracle changes must show no change here",
            ("fock", "optics", "protocols", "cli"),
            ("analytics",),
            _swap,
        ),
    )
}


def build_jobs(workload: str, seed: int, directory: Path) -> list[tuple[Job, Path, Path]]:
    """Draw the workload's jobs from ``seed`` and write their config files."""
    rng = random.Random(f"{workload}/{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for job in WORKLOADS[workload].build(rng):
        config_path = directory / f"{job.name}.json"
        config_path.write_text(json.dumps(job.config) + "\n", encoding="utf-8")
        out.append((job, config_path, directory / f"{job.name}.out"))
    return out
