"""Run manifests: enough provenance to make every output reproducible.

A manifest echoes the full configuration, the digests of every input
file and of the tool registry, and the artifact version. Runs with equal
manifests must produce byte-identical result files, so nothing volatile
(timestamps, hostnames, environment) is ever recorded.

``canonical_json`` writes every JSON output file: the text of
``json.dumps(document, indent=2, sort_keys=True)`` and a final newline.
It renders that text directly. With ``indent`` set, ``json.dumps`` runs
the pure-Python encoder of ``json.encoder``, whose generators made up
about a third of the four ``ctp dse`` walks of the benchmark; one
recursive function does the same work in about 60% of the time. It keeps
the encoder's rules: values dispatch in its order, strings are escaped
by its ``encode_basestring_ascii``, and floats are written by
``float.__repr__``, or as ``NaN``, ``Infinity`` and ``-Infinity``.
``tests/test_manifest.py`` checks it against ``json.dumps`` on drawn
documents and on the documents ``ctp`` writes.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii
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
    """The one rendering of every JSON output file: sorted keys, indent 2, final newline.

    The text is ``json.dumps(document, indent=2, sort_keys=True) + "\\n"``
    for every document of str, None, bool, int, float, list, tuple and
    dict values, subclasses included, whose keys are all str. A key that
    is not a str raises ``TypeError``, where ``json.dumps`` would convert
    it; no document the program writes has one. A container that holds
    itself raises ``RecursionError``, where ``json.dumps`` raises
    ``ValueError``. The sorted keys of each key order, with their
    ``"key": `` texts, are made once per call.
    """
    layouts: dict[tuple, list[tuple[str, str]]] = {}
    float_text, encode, inf = float.__repr__, encode_basestring_ascii, float("inf")

    def render(value, indent: str) -> str:
        # json.encoder's order, after the two commonest exact types.
        cls = value.__class__
        if cls is float and -inf < value < inf:
            return float_text(value)
        if cls is str or isinstance(value, str):
            return encode(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            if value != value:
                return "NaN"
            if -inf < value < inf:
                return float_text(value)
            return "Infinity" if value > 0 else "-Infinity"
        inner = indent + "  "
        if isinstance(value, (list, tuple)):
            brackets = "[]"
            items = [render(item, inner) for item in value]
        elif isinstance(value, dict):
            brackets = "{}"
            # Dicts built alike share their sorted keys and key texts.
            shape = tuple(value)
            layout = layouts.get(shape)
            if layout is None:
                for key in shape:
                    if not isinstance(key, str):
                        raise TypeError(f"keys must be str, not {key.__class__.__name__}")
                layout = layouts[shape] = [(key, encode(key) + ": ") for key in sorted(shape)]
            items = []
            for key, text in layout:
                item = value[key]
                # The two commonest values without a call.
                kind = item.__class__
                if kind is float and -inf < item < inf:
                    items.append(text + float_text(item))
                elif kind is str:
                    items.append(text + encode(item))
                else:
                    items.append(text + render(item, inner))
        else:
            raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
        if not items:
            return brackets
        return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"

    return render(document, "") + "\n"


def manifest_digest(manifest: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(manifest).encode()).hexdigest()
