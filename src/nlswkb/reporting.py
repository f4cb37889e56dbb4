"""Artifact emission: report.json, errors.csv, raw field dumps.

Byte-level determinism is part of the contract: two runs of the same
config must produce identical files, so reductions upstream are ordered,
JSON is dumped with sorted keys, and the only wall-clock content is the
isolated meta.generated_at field injected here at write time.
"""
from __future__ import annotations

import csv
import io
import json
import os
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigError, FieldError, GridError
from .fields import ComplexField, RealField, _Field
from .grids import PeriodicGrid

CSV_HEADER = ("epsilon", "s", "metric", "value")


def report_json_bytes(report: dict) -> bytes:
    """Canonical serialization; raises on anything JSON cannot express."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    return (text + "\n").encode("utf-8")


def errors_csv_bytes(rows) -> bytes:
    """rows: (epsilon, s, metric, value); sorted here (epsilon descending,
    then metric, then s) so emission order never depends on driver internals."""
    def key(row):
        eps, s, metric, _ = row
        return (-float(eps), str(metric), str(s))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for eps, s, metric, value in sorted(rows, key=key):
        writer.writerow([repr(float(eps)), s, metric, repr(float(value))])
    return buf.getvalue().encode("utf-8")


def field_dump_bytes(field: _Field) -> bytes:
    """Interleaved (re, im) little-endian float64 in node order; real fields get
    an explicit zero imaginary channel so the layout never varies."""
    vals = field.values
    out = np.empty(2 * vals.size, dtype="<f8")
    out[0::2] = vals.real
    out[1::2] = vals.imag if np.iscomplexobj(vals) else 0.0
    return out.tobytes()


def field_sidecar(field: _Field, time: float, name: str) -> dict:
    return {
        "name": name,
        "time": float(time),
        "role": field.role,
        "grid": {"lengths": [field.grid.length], "sizes": [field.grid.size]},
        "layout": "interleaved-re-im",
        "dtype": "<f8",
        "count": field.grid.size,
        "complex": bool(np.iscomplexobj(field.values)),
    }


def load_field_dump(base_path: str):
    """Round-trip loader for dumps written by write_artifacts."""
    with open(base_path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    raw = np.fromfile(base_path + ".bin", dtype="<f8")
    if raw.size != 2 * meta["count"]:
        raise FieldError(f"dump {base_path} has {raw.size} scalars, "
                         f"expected {2 * meta['count']}")
    lengths, sizes = meta["grid"]["lengths"], meta["grid"]["sizes"]
    if len(lengths) != 1 or len(sizes) != 1:
        raise GridError(f"dump {base_path} records {len(lengths)} lengths and "
                        f"{len(sizes)} sizes; grids are one-dimensional")
    grid = PeriodicGrid(*lengths, *sizes)
    vals = raw[0::2] + 1j * raw[1::2]
    if meta["complex"]:
        return ComplexField(grid, vals, role=meta["role"]), meta
    return RealField(grid, vals.real, role=meta["role"]), meta


def check_output_dir(out_dir: str) -> None:
    """Refuse an artifact directory that write_artifacts could not make:
    one that is, or lies under, an existing path that is no directory."""
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"output directory {out_dir} cannot be made: "
                          f"{path} is not a directory")


def write_artifacts(result, out_dir: str, stamp: bool = True) -> dict:
    """Write report.json, errors.csv and any field dumps under out_dir.

    All content is rendered to bytes before the first file is opened, so a
    serialization failure leaves no partial artifacts.  Returns the paths
    written.
    """
    report = dict(result.report)
    meta = {"format": "nlswkb-report-v1"}
    if stamp:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat()
    report["meta"] = meta

    blobs = {"report.json": report_json_bytes(report),
             "errors.csv": errors_csv_bytes(result.csv_rows)}
    for name, field, time in result.field_dumps:
        safe = name.replace(os.sep, "_")
        blobs[f"{safe}.bin"] = field_dump_bytes(field)
        blobs[f"{safe}.json"] = report_json_bytes(field_sidecar(field, time, name))

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, payload in blobs.items():
        path = os.path.join(out_dir, name)
        with open(path, "wb") as fh:
            fh.write(payload)
        paths[name] = path
    return paths


def load_config_file(path: str) -> dict:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be an object")
    return raw
