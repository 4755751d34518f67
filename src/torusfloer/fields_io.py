"""File formats: torus fields, matrices, CSV tables, trajectory checkpoints.

A field is stored as two files sharing a stem: <stem>.json carries the grid
metadata, <stem>.bin the raw little-endian float64 samples in C order
(grid row-major, components minor), exactly `values.tobytes()`.
Matrices serialize to row-major nested JSON lists; complex matrices as
{"re": ..., "im": ...}.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .spectral import TorusField

FIELD_FORMAT = "torusfloer-field-v1"


def save_field(field: TorusField, stem) -> None:
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    values = np.ascontiguousarray(field.values, dtype="<f8")
    header = {
        "format": FIELD_FORMAT,
        "grid_size": field.grid_size,
        "components": field.components,
        "layout": field.layout,
        "dtype": "<f8",
        "order": "C",
        "shape": list(values.shape),
    }
    stem.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True))
    stem.with_suffix(".bin").write_bytes(values.tobytes())


def load_field(stem) -> TorusField:
    stem = Path(stem)
    header = json.loads(stem.with_suffix(".json").read_text())
    if header.get("format") != FIELD_FORMAT:
        raise ValueError(f"not a field header: {stem.with_suffix('.json')}")
    raw = stem.with_suffix(".bin").read_bytes()
    values = np.frombuffer(raw, dtype="<f8").reshape(header["shape"]).astype(float)
    return TorusField(values, header["layout"])


def matrix_to_jsonable(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return a.tolist()


def matrix_from_jsonable(data) -> np.ndarray:
    if isinstance(data, dict):
        return np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    a = np.asarray(data, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def write_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, columns, rows) -> None:
    """Rows are dicts or sequences; floats written with repr for determinism."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            if isinstance(row, dict):
                row = [row[c] for c in columns]
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def save_trajectory(traj, outdir) -> None:
    """Checkpoint a flow trajectory: diagnostics CSV plus snapshot fields."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, s in enumerate(traj.s):
        rows.append(
            {
                "s": float(s),
                "action": float(traj.action[i]),
                "h_int": float(traj.h_int[i]),
                "max_p_sq": float(traj.max_p_sq[i]),
                "vsq": float(traj.vsq[i]) if i < len(traj.vsq) else "",
            }
        )
    write_csv(outdir / "diagnostics.csv", ["s", "action", "h_int", "max_p_sq", "vsq"], rows)
    manifest = {
        "ds": traj.ds,
        "r": traj.profile.r,
        "k": traj.profile.k,
        "end_residuals": [float(x) for x in traj.end_residuals],
        "ends_converged": [bool(x) for x in traj.ends_converged],
        "snapshots": [],
    }
    for i, (s, field) in enumerate(traj.snapshots):
        stem = outdir / f"snapshot_{i:05d}"
        save_field(field, stem)
        manifest["snapshots"].append({"s": float(s), "stem": stem.name})
    write_json(outdir / "trajectory.json", manifest)


def load_trajectory(outdir):
    """Rebuild a saved trajectory (scalars and snapshots; fields lazy-free)."""
    from .floer import BetaProfile, FlowTrajectory

    outdir = Path(outdir)
    manifest = json.loads((outdir / "trajectory.json").read_text())
    ds, r, k = manifest["ds"], manifest["r"], manifest["k"]
    if type(ds) not in (int, float) or not 0.0 < ds < np.inf or type(r) not in (int, float) or type(k) is not int:
        raise ValueError(
            f"trajectory.json needs a positive finite ds, a number r and an integer k, got {ds!r}, {r!r}, {k!r}"
        )
    s, act, h_int, max_p_sq, vsq = [], [], [], [], []
    with (outdir / "diagnostics.csv").open() as handle:
        for row in csv.DictReader(handle):
            s.append(float(row["s"]))
            act.append(float(row["action"]))
            h_int.append(float(row["h_int"]))
            max_p_sq.append(float(row["max_p_sq"]))
            if row["vsq"] != "":
                vsq.append(float(row["vsq"]))
    snapshots = [
        (entry["s"], load_field(outdir / entry["stem"])) for entry in manifest["snapshots"]
    ]
    return FlowTrajectory(
        s=np.asarray(s),
        action=np.asarray(act),
        h_int=np.asarray(h_int),
        max_p_sq=np.asarray(max_p_sq),
        vsq=np.asarray(vsq),
        ds=ds,
        profile=BetaProfile(r=r, k=k),
        end_residuals=tuple(manifest["end_residuals"]),
        ends_converged=tuple(manifest["ends_converged"]),
        snapshots=snapshots,
    )
