"""Workload definitions: the CLI inputs each workload generates from its seed.

Every workload is one `torusfloer` subcommand. The benchmark turns the
workload seed into a config file (cuplength) or flags (energy); the program
sees nothing else. NOTES.md records why each workload exists.
"""

from __future__ import annotations

import json
from pathlib import Path

N_PAIRS = 1
EPSILON = 0.1
MODES = [[1, 0], [0, 1]]
RESIDUAL_TOL = 1e-8

# One repetition of every workload takes about 2-4 s, so that a run holds
# several and the fastest of them can be reported (NOTES.md, "Metrics").
#
# cuplength workloads: lattice seeds are constants on a grid of the torus,
# random seeds are random constants plus a perturbation of the given amplitude.
CUPLENGTH = {
    # Like the flagship's, the work is lattice constants flowing to the
    # critical points: 4 of the 4x4 lattice sit on them, 12 flow ~400 steps
    # each at eps = 2.5 (the step count scales as 1/eps, the work of one step
    # does not); one random constant makes the input depend on the seed (NOTES.md).
    "flagship_mini": {
        "grid_size": 32, "ds": 0.02, "epsilon": 2.5, "lattice_per_dim": 4, "random_starts": 1,
        "perturbation_amplitude": 0.0,
    },
    # The 2x2 lattice seeds sit on the critical points of V; the perturbed
    # seeds carry the flow work. ds * mu_max ~ 0.44 <= 1/2 at N = 64 (NOTES.md).
    "perturbed_n64": {
        "grid_size": 64, "ds": 0.01, "epsilon": EPSILON, "lattice_per_dim": 2, "random_starts": 10,
        "perturbation_amplitude": 0.01,
    },
}

# energy workload: one switching trajectory of acceptance criteria 8-9, with
# the CLI defaults written out so a changed default cannot move it.
ENERGY = {
    "switching_energy": {"trajectories": 1, "grid": 32, "r": 1.0, "ds": 5e-3, "rho": 4.0, "epsilon": EPSILON},
}

NAMES = tuple(CUPLENGTH) + tuple(ENERGY)


def kind(name: str) -> str:
    return "cuplength" if name in CUPLENGTH else "energy"


def cuplength_config(name: str, seed: int) -> dict:
    spec = CUPLENGTH[name]
    return {
        "n_pairs": N_PAIRS,
        "grid_size": spec["grid_size"],
        "potential": {"kind": "trig_potential", "epsilon": spec["epsilon"], "modes": MODES},
        "lattice_per_dim": spec["lattice_per_dim"],
        "random_starts": spec["random_starts"],
        "perturbation_amplitude": spec["perturbation_amplitude"],
        "perturbation_band": 2,
        "residual_tol": RESIDUAL_TOL,
        "dedup_delta": 0.05,
        "s_max": 400.0,
        "ds": spec["ds"],
        "seed": seed,
    }


def write_inputs(name: str, seed: int, repdir: Path) -> list:
    """Write the workload's input files under repdir; return the CLI argv."""
    out = str(repdir / "out")
    if kind(name) == "cuplength":
        config = repdir / "config.json"
        config.write_text(json.dumps(cuplength_config(name, seed), indent=2) + "\n")
        return ["cuplength", "--config", str(config), "--out", out, "--jobs", "1"]
    e = ENERGY[name]
    return [
        "energy", "--out", out, "--rng-seed", str(seed),
        "--trajectories", str(e["trajectories"]), "--grid", str(e["grid"]),
        "--r", repr(e["r"]), "--ds", repr(e["ds"]), "--rho", repr(e["rho"]),
        "--epsilon", repr(e["epsilon"]),
    ]


def n_seeds(config: dict) -> int:
    return config["lattice_per_dim"] ** (2 * config["n_pairs"]) + config["random_starts"]


def ops_per_rep(name: str) -> int:
    """Seeds of one cuplength run, trajectories of one energy run."""
    if kind(name) == "cuplength":
        return n_seeds(cuplength_config(name, 0))
    return ENERGY[name]["trajectories"]


def working_set(name: str) -> dict:
    """Computed (not measured) bytes of the arrays one flow step touches."""
    n = CUPLENGTH[name]["grid_size"] if kind(name) == "cuplength" else ENERGY[name]["grid"]
    dim = 4 * N_PAIRS
    return {
        "grid": n,
        "field_modes_bytes": n * n * dim * 16,
        "propagator_bytes": n * n * dim * dim * 16,
    }
