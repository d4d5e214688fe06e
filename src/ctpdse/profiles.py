"""Coding-tool registry and binary coding-tool profiles (CTPs).

A CTP is its hex mask, held as an integer over a registered, ordered
tool set: bit i (least significant first) tells whether the encoder may
use registry tool i. Profiles have two text forms: that mask in hex and
an ``off:``-prefixed list of disabled tool names.
"""

from __future__ import annotations

import math
from typing import Iterable

from .csvrows import not_utf8
from .errors import ConfigError
from .frozen import Frozen

CATEGORIES = ("Intra", "Inter", "TransformQuant", "InLoopFilter", "Other")

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

# The shipped 30-tool set with its categories. All tools are marked
# default-enabled: the shipped anchor is an approximation of a "everything
# on" slower-style encoder preset, and only relative comparisons against
# the anchor matter. Override with a registry file if the real defaults
# are known.
DEFAULT_TOOLS = (
    ("CCLM", "Intra"),
    ("ISP", "Intra"),
    ("MIP", "Intra"),
    ("MRL", "Intra"),
    ("AFFINE", "Inter"),
    ("AMVR", "Inter"),
    ("BCW", "Inter"),
    ("BDOF", "Inter"),
    ("CIIP", "Inter"),
    ("DMVR", "Inter"),
    ("GPM", "Inter"),
    ("MMVD", "Inter"),
    ("PROF", "Inter"),
    ("SBTMVP", "Inter"),
    ("SMVD", "Inter"),
    ("DQ", "TransformQuant"),
    ("JCCR", "TransformQuant"),
    ("LFNST", "TransformQuant"),
    ("MTS", "TransformQuant"),
    ("SBT", "TransformQuant"),
    ("TSRC", "TransformQuant"),
    ("ALF", "InLoopFilter"),
    ("CCALF", "InLoopFilter"),
    ("DBF", "InLoopFilter"),
    ("LMCS", "InLoopFilter"),
    ("SAO", "InLoopFilter"),
    ("BDPCM", "Other"),
    ("IBC", "Other"),
    ("CST", "Other"),
    ("MCTF", "Other"),
)


class ProfileFormatError(ConfigError):
    """Profile text could not be parsed against the registry."""


class RegistryFormatError(ConfigError):
    """Registry definition is invalid or a registry file is malformed."""


class ToolDescriptor(Frozen):
    """One coding tool: an opaque named bit plus presentation metadata.

    The category never influences the search; it is carried for reports.
    """

    __slots__ = ()
    _fields = ("name", "category", "default_enabled")

    def __new__(cls, name: str, category: str, default_enabled: bool = True):
        return tuple.__new__(cls, (name, category, default_enabled))


class ToolRegistry:
    """Ordered, immutable set of tools; a tool's index is its bit position."""

    def __init__(self, tools: Iterable[ToolDescriptor]):
        self.tools = tuple(tools)
        if not self.tools:
            raise RegistryFormatError("registry must contain at least one tool")
        self._index = {}
        for i, tool in enumerate(self.tools):
            if not tool.name:
                raise RegistryFormatError(f"tool at index {i} has an empty name")
            if tool.category not in CATEGORIES:
                raise RegistryFormatError(
                    f"tool {tool.name!r}: unknown category {tool.category!r} "
                    f"(expected one of {', '.join(CATEGORIES)})"
                )
            if tool.name in self._index:
                raise RegistryFormatError(f"duplicate tool name {tool.name!r}")
            self._index[tool.name] = i
        self._hash = hash(self.tools)
        # Number of hex digits in the canonical bitmask form.
        self.mask_width = math.ceil(len(self.tools) / 4)

    def __len__(self) -> int:
        return len(self.tools)

    def __eq__(self, other) -> bool:
        return isinstance(other, ToolRegistry) and self.tools == other.tools

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ToolRegistry({len(self.tools)} tools)"

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ProfileFormatError(f"unknown tool name {name!r}") from None


def default_registry() -> ToolRegistry:
    """The shipped 30-tool registry, every tool default-enabled."""
    return ToolRegistry(ToolDescriptor(n, c, True) for n, c in DEFAULT_TOOLS)


class Ctp(Frozen):
    """A coding-tool profile: its mask over the registry, bit i = tool i."""

    __slots__ = ()
    _fields = ("registry", "mask")

    def __new__(cls, registry: ToolRegistry, mask: int):
        if not 0 <= mask < 1 << len(registry):
            raise ConfigError(
                f"profile mask {mask:#x} is out of range for a {len(registry)}-tool registry"
            )
        return tuple.__new__(cls, (registry, mask))

    def __repr__(self) -> str:
        return f"Ctp({serialize_ctp(self)})"


def default_ctp(registry: ToolRegistry) -> Ctp:
    """Profile holding each tool's default-enabled flag (the anchor profile)."""
    return Ctp(registry, sum(1 << i for i, t in enumerate(registry.tools) if t.default_enabled))


def flip_tool(ctp: Ctp, index: int) -> Ctp:
    """Return a copy of ``ctp`` with exactly the bit at ``index`` toggled."""
    if not 0 <= index < len(ctp.registry):
        raise IndexError(
            f"tool index {index} out of range for registry of {len(ctp.registry)} tools"
        )
    return Ctp(ctp.registry, ctp.mask ^ 1 << index)


def serialize_ctp(ctp: Ctp) -> str:
    """Canonical hex bitmask, bit 0 = first registry tool (least significant)."""
    return f"{ctp.mask:0{ctp.registry.mask_width}X}"


def parse_ctp(text: str, registry: ToolRegistry) -> Ctp:
    """Parse either a hex bitmask or an ``off:``-list against ``registry``.

    The ``off:`` form enables every tool except the comma-separated names
    after the prefix (``off:`` alone means all tools on).
    """
    text = text.strip()
    if text.startswith("off:"):
        mask = (1 << len(registry)) - 1
        body = text[len("off:"):]
        if body:
            for name in body.split(","):
                mask &= ~(1 << registry.index_of(name.strip()))
        return Ctp(registry, mask)
    if "off:" in text or "," in text:
        raise ProfileFormatError(
            f"profile text {text!r} mixes the hex-mask and off-list forms"
        )
    width = registry.mask_width
    if len(text) != width:
        raise ProfileFormatError(
            f"hex mask {text!r} has {len(text)} digits, expected {width} "
            f"for a {len(registry)}-tool registry"
        )
    # int(text, 16) alone would also take a sign or an underscore.
    if not set(text) <= _HEX_DIGITS:
        raise ProfileFormatError(f"invalid hex mask {text!r}")
    value = int(text, 16)
    if value >> len(registry):
        raise ProfileFormatError(
            f"hex mask {text!r} sets bits beyond the {len(registry)}-tool registry"
        )
    return Ctp(registry, value)


def load_registry(path) -> ToolRegistry:
    """Read a registry file: one ``name,category,default(0|1)`` line per tool."""
    tools = []
    with open(path, encoding="utf-8-sig") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                fields = [f.strip() for f in line.split(",")]
                if len(fields) != 3:
                    raise RegistryFormatError(
                        f"{path}:{lineno}: expected 'name,category,default', got {line!r}"
                    )
                name, category, default = fields
                if default not in ("0", "1"):
                    raise RegistryFormatError(
                        f"{path}:{lineno}: default flag must be 0 or 1, got {default!r}"
                    )
                tools.append(ToolDescriptor(name, category, default == "1"))
        except UnicodeDecodeError as exc:
            raise RegistryFormatError(not_utf8(path, exc)) from None
    try:
        return ToolRegistry(tools)
    except RegistryFormatError as exc:
        raise RegistryFormatError(f"{path}: {exc}") from None


def registry_text(registry: ToolRegistry) -> str:
    """Canonical registry file content (load-then-save is byte-identical)."""
    lines = [
        f"{t.name},{t.category},{1 if t.default_enabled else 0}"
        for t in registry.tools
    ]
    return "\n".join(lines) + "\n"
