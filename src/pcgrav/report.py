"""Deterministic report serialization and run manifests.

Reports are {"manifest": ..., "body": ...}: the body holds every number a
verdict depends on; the manifest records what produced it.  Bodies are
serialized canonically (sorted keys, repr floats, trailing newline), so two
runs with identical manifests (up to timestamp) emit byte-identical bodies
regardless of the --threads setting.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import json
import math
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def canonical_json(obj) -> str:
    """Sorted keys, repr floats, non-finite numbers as null."""
    return json.dumps(_finite_or_null(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def sha256_of_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_of_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    scenario_hash: str
    grid: dict
    thresholds: dict
    threads: int

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "scenario_hash": self.scenario_hash,
            "grid": self.grid,
            "thresholds": self.thresholds,
            "threads": self.threads,
            "versions": {
                "pcgrav": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "timestamp": datetime.datetime.now(
                datetime.timezone.utc).isoformat(),
        }


def assemble_report(manifest: RunManifest, body: dict) -> dict:
    return {"manifest": manifest.as_dict(), "body": body}


def write_report(out_dir, name: str, manifest: RunManifest,
                 body: dict) -> Path:
    """Write the report file and echo its canonical body to stdout."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    path.write_text(canonical_json(assemble_report(manifest, body)))
    sys.stdout.write(canonical_json(body))
    return path


def write_csv(out_dir, name: str, header, rows) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    path = out_dir / f"{name}.csv"
    path.write_text(buffer.getvalue())
    return path
