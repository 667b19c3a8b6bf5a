"""Run manifests: a JSON sidecar recording everything needed to reproduce
an output file.

The manifest materializes every resolved parameter (defaults included), the
seed, the tool version and a timestamp. Re-running the recorded command with
the recorded parameters on the same platform reproduces the output
byte-for-byte; the timestamp is metadata about the original run, not an input.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from . import __version__


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    seed: int | None
    version: str
    timestamp: str


def make_manifest(command: str, config: dict, seed: int | None) -> RunManifest:
    return RunManifest(
        command=command,
        config=config,
        seed=seed,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )


def sidecar_path(output_path: str) -> str:
    return f"{output_path}.manifest.json"


def write_manifest(m: RunManifest, output_path: str) -> str:
    path = sidecar_path(output_path)
    with open(path, "w") as fh:
        json.dump(asdict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
