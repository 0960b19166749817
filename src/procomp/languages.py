"""Quantify modeling languages: complexity norms and workflow-pattern support.

A language is summarized by three counts (element types, characteristics,
relation types); their Euclidean norm is the complexity score. Pattern
support is tallied per pattern type against a fixed catalog size.
"""

from __future__ import annotations

import enum
import math
from pathlib import Path

from .documents import read_document, read_field
from .errors import ConfigError
from .records import record

# below it, the three squares that complexity_score sums stay finite floats
MAX_COUNT = 1e150


class PatternType(str, enum.Enum):
    CONTROL_FLOW = "control-flow"
    DATA = "data"
    RESOURCE = "resource"


class Support(str, enum.Enum):
    FULL = "full"
    PARTIAL = "partial"
    NONE = "none"


@record
class PatternEntry:
    id: str
    type: PatternType
    support: Support
    name: str = ""


@record
class PatternSupportTable:
    """Support entries plus the catalog size per pattern type.

    Patterns absent from ``entries`` count as unsupported; catalog sizes are
    the percentage denominators.
    """

    entries: tuple[PatternEntry, ...]
    catalog_sizes: dict[PatternType, int]

    def __post_init__(self):
        seen: set[tuple[str, PatternType]] = set()
        for entry in self.entries:
            key = (entry.id, entry.type)
            if key in seen:
                raise ConfigError(f"duplicate pattern {entry.id!r} of type {entry.type.value}")
            seen.add(key)
        for ptype in PatternType:
            supported = self.counts(ptype)
            size = self.catalog_sizes.get(ptype, 0)
            if supported > size:
                raise ConfigError(
                    f"{ptype.value} catalog size {size} is smaller than "
                    f"{supported:g} supported patterns"
                )

    def counts(self, ptype: PatternType, partial_weight: float = 1.0) -> float:
        """Weighted count of fully and partially supported patterns of a type."""
        total = 0.0
        for entry in self.entries:
            if entry.type is not ptype:
                continue
            if entry.support is Support.FULL:
                total += 1.0
            elif entry.support is Support.PARTIAL:
                total += partial_weight
        return total


@record
class LanguageDescriptor:
    """Counts and pattern table for one modeling language.

    ``elements`` is the number of distinct modeling element types,
    ``characteristics`` the aggregate count of per-element variants
    (markers, decorations), and ``relations`` the aggregate count of
    relation types elements can participate in. The counting rule for the
    shipped descriptors is documented in the descriptor data module.
    """

    name: str
    elements: float
    characteristics: float
    relations: float
    patterns: PatternSupportTable

    def __post_init__(self):
        counts = (self.elements, self.characteristics, self.relations)
        if not all(0 <= count < MAX_COUNT for count in counts):
            raise ConfigError(f"descriptor counts for {self.name!r} must be >= 0 "
                              f"and below {MAX_COUNT:g}")
        if self.elements == self.characteristics == self.relations == 0:
            raise ConfigError(f"descriptor {self.name!r} has all-zero counts")


def complexity_score(descriptor: LanguageDescriptor) -> float:
    """Euclidean norm of the (elements, characteristics, relations) vector."""
    return math.sqrt(
        descriptor.elements ** 2
        + descriptor.characteristics ** 2
        + descriptor.relations ** 2
    )


def normalize_complexity(
    registry: list[LanguageDescriptor] | tuple[LanguageDescriptor, ...],
    *,
    full_range: bool = False,
) -> dict[str, float]:
    """Map every registered language's complexity norm into [1, 10].

    The default mapping is 10 - (10*c - c) / (10 * max_c), i.e. ten minus
    nine tenths of the norm's share of the registry maximum: the most
    complex language lands exactly on 9.1 and all others above it. With
    ``full_range`` the scores instead spread linearly over the whole [1, 10]
    interval, for registries where the narrow default band is too compressed.
    Two descriptors with one name are a ConfigError.
    """
    if not registry:
        raise ConfigError("cannot normalize an empty language registry")
    norms: dict[str, float] = {}
    for descriptor in registry:
        if descriptor.name in norms:
            raise ConfigError(f"duplicate language name {descriptor.name!r} in the registry")
        norms[descriptor.name] = complexity_score(descriptor)
    max_norm = max(norms.values())  # > 0: every descriptor has a count > 0
    if full_range:
        min_norm = min(norms.values())
        spread = max_norm - min_norm
        if spread == 0:
            return {name: 10.0 for name in norms}
        return {name: 10.0 - 9.0 * ((c - min_norm) / spread) for name, c in norms.items()}
    # (10*c - c) / (10*max) == 0.9 * (c / max); the ratio form hits the
    # 9.1 endpoint exactly when c == max.
    return {name: 10.0 - 0.9 * (c / max_norm) for name, c in norms.items()}


def pattern_score(
    descriptor: LanguageDescriptor,
    *,
    partial_weight: float = 1.0,
) -> tuple[float, dict[PatternType, float]]:
    """Total supported-pattern count and the per-type support share.

    Partial support counts like full support by default; ``partial_weight``,
    in [0, 1], scales it. Types with a zero catalog size are omitted from
    the share map.
    """
    if not 0.0 <= partial_weight <= 1.0:
        raise ValueError(f"partial weight must lie in [0, 1], got {partial_weight}")
    total = 0.0
    percentages: dict[PatternType, float] = {}
    for ptype in PatternType:
        count = descriptor.patterns.counts(ptype, partial_weight)
        total += count
        size = descriptor.patterns.catalog_sizes.get(ptype, 0)
        if size > 0:
            percentages[ptype] = count / size
    return total, percentages


def control_flow_percentage(descriptor: LanguageDescriptor) -> float:
    """Share of the control-flow catalog the language supports, in [0, 1]."""
    share = pattern_score(descriptor)[1].get(PatternType.CONTROL_FLOW)
    if share is None:
        raise ConfigError(f"descriptor {descriptor.name!r} has no control-flow pattern catalog")
    return share


# ---------------------------------------------------------------------------
# Document form


def _load_pattern(document: dict, path: str) -> PatternEntry:
    return PatternEntry(
        id=read_field(document, "id", str, path),
        type=read_field(document, "type", PatternType, path),
        support=read_field(document, "support", Support, path),
        name=read_field(document, "name", str, path, default=""),
    )


def load_descriptor(document: dict) -> LanguageDescriptor:
    sizes = read_field(document, "pattern_catalog", dict, default={})
    # each key is a pattern type: read it as the value of a field of its own name
    catalog = {read_field({key: key}, key, PatternType, "pattern_catalog"):
               read_field(sizes, key, int, "pattern_catalog") for key in sizes}
    rows = read_field(document, "patterns", list, default=[])
    # entry order in the file is irrelevant; keep a canonical order
    entries = sorted((_load_pattern(row, f"patterns[{ri}]") for ri, row in enumerate(rows)),
                     key=lambda e: (e.type.value, e.id))
    return LanguageDescriptor(
        name=read_field(document, "name", str),
        elements=read_field(document, "elements", float),
        characteristics=read_field(document, "characteristics", float),
        relations=read_field(document, "relations", float),
        patterns=PatternSupportTable(entries=tuple(entries), catalog_sizes=catalog),
    )


def load_descriptor_file(path: str | Path) -> LanguageDescriptor:
    return read_document(path, load_descriptor)
