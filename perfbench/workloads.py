"""The benchmark's three workloads as lists of ``benford-lab`` command lines.

Every input is derived from the benchmark seed; seed 0 gives the README's
headline inputs.  A seed only moves inputs along directions that leave the
amount of work unchanged (a census window of the same bit size, a sub-step
shift of a zeta grid, another generator key, another irrational alpha), so
run-to-run spread across seeds measures the machine, not the inputs.

``reduced=True`` shrinks every command to a size that runs in well under a
second; the traced run uses it for the layers a workload does not own and
the smoke test uses it for everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from benford_lab.core_numeric import random_bignat

HEADLINE_CENSUS_START = 419_753_999_998_525
CENSUS_M = 10
CENSUS_BASES = (4, 8, 10, 16)
EXACT_BASE = 7
TRAJECTORY_MODES = ("remove_all_twos", "single_step")
TRAJECTORY_BASE = 10       # the README's headline digits; the CLI default is 4
HALFLINE_SPAN = 16383.75   # 65,536 points at step 1/4
OFFLINE_T0 = 10000.0
OFFLINE_SPAN = 249.75      # 1,000 points at step 1/4
CUE_WORKERS = 2

WORKLOADS = ("census", "trajectory", "spectral")


@dataclass
class Command:
    """One CLI invocation plus what its output check needs to know."""

    key: str            # stable name, e.g. "ratio.b4" or "remove_all_twos.small"
    argv: list
    kind: str           # which check applies to the output
    items: int          # work items (seeds, points, samples) for rates
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    reduced: bool
    commands: list
    inputs: dict        # generated inputs the oracles reuse


def _seed_rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, salt]))


def census_start(seed: int) -> int:
    """49-bit start congruent to 1 mod 6; seed 0 is the README's start."""
    if seed == 0:
        return HEADLINE_CENSUS_START
    return HEADLINE_CENSUS_START + 6 * int(_seed_rng(seed, 1).integers(1, 2 ** 40))


def grid_offset(seed: int) -> float:
    """Dyadic shift in [0, 1/4) of a zeta grid, exact in binary."""
    if seed == 0:
        return 0.0
    return int(_seed_rng(seed, 2).integers(1, 64)) / 256.0


def kalpha_x(seed: int) -> int:
    """X of alpha = log_10(X); never a power of 10, so alpha is irrational."""
    if seed == 0:
        return 2
    choices = [x for x in range(2, 100) if x != 10]
    return choices[int(_seed_rng(seed, 3).integers(0, len(choices)))]


def census(seed: int, reduced: bool = False) -> Workload:
    start = census_start(seed)
    count = 2_000 if reduced else 100_000
    common = ["--start", str(start), "--count", str(count),
              "-m", str(CENSUS_M), "--format", "json"]
    cmds = [Command(f"ratio.b{b}",
                    ["collatz", "experiment", "--preset", f"ratio-base{b}"]
                    + common, "ratio", count, {"base": b})
            for b in CENSUS_BASES]
    cmds.append(Command(f"ratio.b{EXACT_BASE}",
                        ["collatz", "experiment", "--base", str(EXACT_BASE)]
                        + common, "ratio", count, {"base": EXACT_BASE}))
    cmds.append(Command("kvalues", ["collatz", "kvalues"] + common,
                        "kvalues", count))
    cmds.append(Command("ratio_ks.b10",
                        ["collatz", "ratio", "--base", "10",
                         "--seed", str(seed)] + common,
                        "ratio_ks", count, {"base": 10, "cli_seed": seed}))
    return Workload("census", seed, reduced, cmds,
                    {"start": start, "count": count, "m": CENSUS_M})


def trajectory_digits(reduced: bool) -> dict:
    return {"small": 1_000, "large": 3_000} if reduced else \
        {"small": 10_000, "large": 30_000}


def trajectory(seed: int, reduced: bool = False) -> Workload:
    sizes = trajectory_digits(reduced)
    cmds = []
    seeds = {}
    for size, digits in sizes.items():
        # the CLI derives the same integer from --seed
        seeds[size] = random_bignat(digits, 10, np.random.Generator(
            np.random.Philox(seed)))
        for mode in TRAJECTORY_MODES:
            cmds.append(Command(
                f"{mode}.{size}",
                ["collatz", "experiment", "--mode", mode,
                 "--digits", str(digits), "--base", str(TRAJECTORY_BASE),
                 "--seed", str(seed), "--format", "json"],
                "trajectory", 0, {"mode": mode, "size": size}))
    return Workload("trajectory", seed, reduced, cmds, {"x0": seeds})


def spectral(seed: int, reduced: bool = False) -> Workload:
    u = grid_offset(seed)
    half_span = 1023.75 if reduced else HALFLINE_SPAN
    off_span = 12.25 if reduced else OFFLINE_SPAN
    n64 = 200 if reduced else 4_000
    n4 = 5_000 if reduced else 100_000
    n_k = 100_000 if reduced else 1_000_000
    x = kalpha_x(seed)
    t0 = OFFLINE_T0 + u
    cmds = [
        # at seed 0 this is the grid of ``--preset halfline-digits``
        Command("zeta.halfline",
                ["zeta", "--t-start", repr(u), "--t-end", repr(u + half_span),
                 "--step", "0.25", "--sigma", "0.5", "--format", "csv"],
                "zeta_csv",
                int(half_span * 4) + 1, {"t_start": u, "sigma": 0.5}),
        Command("zeta.offline",
                ["zeta", "--t-start", repr(t0), "--t-end", repr(t0 + off_span),
                 "--near-critical-delta", "0.5", "--format", "csv"],
                "zeta_csv", int(off_span * 4) + 1,
                {"t_start": t0, "delta": 0.5}),
        Command("cue.n64",
                ["cue", "--dim", "64", "--samples", str(n64),
                 "--workers", str(CUE_WORKERS), "--seed", str(seed),
                 "--format", "json"], "cue_json", n64, {"dim": 64}),
        Command("cue.n4",
                ["cue", "--dim", "4", "--samples", str(n4),
                 "--seed", str(seed), "--format", "csv"],
                "cue_csv", n4, {"dim": 4}),
        Command("kalpha",
                ["equidist", "kalpha", "--alpha", f"log:{x}:10",
                 "--count", str(n_k), "--format", "json"],
                "kalpha", n_k),
    ]
    return Workload("spectral", seed, reduced, cmds, {})


BUILDERS = {"census": census, "trajectory": trajectory, "spectral": spectral}


def build(name: str, seed: int, reduced: bool = False) -> Workload:
    return BUILDERS[name](seed, reduced)
