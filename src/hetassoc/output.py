"""Artifact writers: CSV with provenance headers and JSON summaries.

Every artifact embeds the tool version and the fully resolved instance so a
run can be reproduced from its outputs alone. Nothing time-dependent is
written: two runs with the same inputs and seeds produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from . import __version__
from .config import AggregationScheme, NetworkConfig, instance_to_dict, serialize_instance


def provenance_lines(config: NetworkConfig, scheme: AggregationScheme,
                     params: dict | None = None) -> list[str]:
    lines = [f"# hetassoc {__version__}",
             f"# instance: {serialize_instance(config, scheme)}"]
    if params:
        lines.append(f"# params: {json.dumps(params, sort_keys=True)}")
    return lines


def write_csv(path, header: list[str], rows, config: NetworkConfig,
              scheme: AggregationScheme, params: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for line in provenance_lines(config, scheme, params):
            fh.write(line + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])
    return path


def write_json(path, payload: dict, config: NetworkConfig,
               scheme: AggregationScheme, params: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "tool": f"hetassoc {__version__}",
        "instance": instance_to_dict(config, scheme),
        "params": params or {},
        **payload,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path
