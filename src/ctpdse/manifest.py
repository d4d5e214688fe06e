"""Run manifests: enough provenance to make every output reproducible.

A manifest echoes the full configuration, the digests of every input
file and of the tool registry, and the artifact version. Runs with equal
manifests must produce byte-identical result files, so nothing volatile
(timestamps, hostnames, environment) is ever recorded.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__
from .profiles import ToolRegistry, registry_text


def file_digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def registry_digest(registry: ToolRegistry) -> str:
    return "sha256:" + hashlib.sha256(registry_text(registry).encode()).hexdigest()


def build_manifest(command: str, config: dict, inputs: dict[str, str] | None = None) -> dict:
    """Assemble the manifest document for one CLI invocation."""
    return {
        "artifact": {"name": "ctpdse", "version": __version__},
        "command": command,
        "config": config,
        "inputs": inputs or {},
    }


def canonical_json(document: dict) -> str:
    """The one rendering of every JSON output file: sorted keys, indent 2, final newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def manifest_digest(manifest: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(manifest).encode()).hexdigest()
