import math
import random

import pytest

from procomp.defaults import builtin_language_registry, default_language_documents
from procomp.errors import ConfigError
from procomp.languages import (
    LanguageDescriptor,
    PatternEntry,
    PatternSupportTable,
    PatternType,
    Support,
    complexity_score,
    control_flow_percentage,
    normalize_complexity,
    pattern_score,
)

EMPTY_TABLE = PatternSupportTable(entries=(), catalog_sizes={PatternType.CONTROL_FLOW: 20})


def descriptor(name, x, y, z, table=EMPTY_TABLE):
    return LanguageDescriptor(name=name, elements=x, characteristics=y,
                              relations=z, patterns=table)


def test_pythagorean_triple():
    assert complexity_score(descriptor("a", 3, 4, 0)) == 5.0


def test_unit_vector():
    assert complexity_score(descriptor("a", 1, 1, 1)) == pytest.approx(math.sqrt(3.0))


def test_norm_homogeneity():
    rng = random.Random(2)
    for _ in range(50):
        x, y, z = (rng.uniform(0, 40) for _ in range(3))
        c = rng.uniform(0.1, 9.0)
        base = complexity_score(descriptor("a", x, y, z))
        scaled = complexity_score(descriptor("a", c * x, c * y, c * z))
        assert scaled == pytest.approx(c * base, rel=1e-12)


def test_all_zero_descriptor_rejected():
    with pytest.raises(ConfigError):
        descriptor("null", 0, 0, 0)


# ---------------------------------------------------------------------------
# Cross-language normalization


def test_max_norm_language_normalizes_to_exactly_9_1():
    registry = [descriptor("big", 3, 4, 0), descriptor("small", 1, 1, 1)]
    scores = normalize_complexity(registry)
    assert scores["big"] == 9.1


def test_zero_norm_maps_to_ten():
    registry = [descriptor("big", 3, 4, 0), descriptor("tiny", 0, 0, 1)]
    # a zero vector cannot be registered, so check the formula's limit with
    # a synthetic entry evaluated against the same maximum
    scores = normalize_complexity(registry)
    assert scores["tiny"] == pytest.approx(10.0 - 0.9 * (1.0 / 5.0))
    assert 10.0 - 0.9 * (0.0 / 5.0) == 10.0


def test_half_max_normalizes_to_9_55():
    registry = [descriptor("full", 0, 0, 8), descriptor("half", 0, 0, 4)]
    scores = normalize_complexity(registry)
    assert scores["half"] == pytest.approx(9.55, abs=1e-12)


def test_normalization_is_antitone_in_norm():
    rng = random.Random(9)
    for _ in range(50):
        registry = [
            descriptor(f"lang-{i}", rng.uniform(0.1, 50), rng.uniform(0, 30), rng.uniform(0, 10))
            for i in range(rng.randint(2, 6))
        ]
        scores = normalize_complexity(registry)
        ordered = sorted(registry, key=complexity_score)
        for smaller, larger in zip(ordered, ordered[1:]):
            if complexity_score(smaller) < complexity_score(larger):
                assert scores[smaller.name] > scores[larger.name]
        assert all(9.1 <= s <= 10.0 for s in scores.values())


def test_full_range_flag_spreads_over_whole_interval():
    registry = [descriptor("big", 3, 4, 0), descriptor("small", 1, 1, 1)]
    scores = normalize_complexity(registry, full_range=True)
    assert scores["small"] == 10.0
    assert scores["big"] == 1.0
    # equal norms leave no spread to divide by: every language is as simple as the simplest
    registry = [descriptor("one", 1, 2, 3), descriptor("other", 3, 2, 1)]
    assert complexity_score(registry[0]) == complexity_score(registry[1])
    assert normalize_complexity(registry, full_range=True) == {"one": 10.0, "other": 10.0}


def test_empty_registry_rejected():
    with pytest.raises(ConfigError):
        normalize_complexity([])


# ---------------------------------------------------------------------------
# Pattern support


def table(entries, cf=20, data=40, resource=43):
    return PatternSupportTable(
        entries=tuple(entries),
        catalog_sizes={
            PatternType.CONTROL_FLOW: cf,
            PatternType.DATA: data,
            PatternType.RESOURCE: resource,
        },
    )


def test_no_support_scores_zero():
    d = descriptor("none", 1, 1, 1, table([]))
    total, percentages = pattern_score(d)
    assert total == 0.0
    assert percentages[PatternType.CONTROL_FLOW] == 0.0


def test_full_control_flow_support():
    entries = [PatternEntry(f"wcp-{i}", PatternType.CONTROL_FLOW, Support.FULL) for i in range(1, 21)]
    d = descriptor("cf", 1, 1, 1, table(entries))
    total, percentages = pattern_score(d)
    assert total == 20.0
    assert percentages[PatternType.CONTROL_FLOW] == 1.0
    assert percentages[PatternType.DATA] == 0.0


def test_partial_counts_like_full_by_default():
    entries = [
        PatternEntry("wcp-1", PatternType.CONTROL_FLOW, Support.FULL),
        PatternEntry("wcp-2", PatternType.CONTROL_FLOW, Support.PARTIAL),
        PatternEntry("wcp-3", PatternType.CONTROL_FLOW, Support.NONE),
    ]
    d = descriptor("mix", 1, 1, 1, table(entries))
    total, percentages = pattern_score(d)
    assert total == 2.0
    assert percentages[PatternType.CONTROL_FLOW] == pytest.approx(0.1)
    half_total, _ = pattern_score(d, partial_weight=0.5)
    assert half_total == 1.5


@pytest.mark.parametrize("weight", [math.nan, math.inf, -5.0, 1.5])
def test_partial_weight_outside_unit_interval_rejected(weight):
    d = descriptor("mix", 1, 1, 1, table([PatternEntry("wcp-1", PatternType.CONTROL_FLOW,
                                                       Support.PARTIAL)]))
    with pytest.raises(ValueError, match="partial weight"):
        pattern_score(d, partial_weight=weight)


def test_pattern_score_monotone_under_upgrades():
    entries = [
        PatternEntry("wcp-1", PatternType.CONTROL_FLOW, Support.NONE),
        PatternEntry("wdp-1", PatternType.DATA, Support.PARTIAL),
    ]
    base, _ = pattern_score(descriptor("a", 1, 1, 1, table(entries)))
    upgraded = [
        PatternEntry("wcp-1", PatternType.CONTROL_FLOW, Support.PARTIAL),
        PatternEntry("wdp-1", PatternType.DATA, Support.FULL),
    ]
    after, _ = pattern_score(descriptor("a", 1, 1, 1, table(upgraded)))
    assert after >= base


def test_catalog_smaller_than_supported_rejected():
    entries = [PatternEntry(f"wcp-{i}", PatternType.CONTROL_FLOW, Support.FULL) for i in range(3)]
    with pytest.raises(ConfigError):
        table(entries, cf=2)


def test_zero_catalog_for_requested_type_rejected():
    d = descriptor("bare", 1, 1, 1, PatternSupportTable(entries=(), catalog_sizes={}))
    with pytest.raises(ConfigError):
        control_flow_percentage(d)


def test_duplicate_pattern_id_within_type_rejected():
    entries = [
        PatternEntry("wcp-1", PatternType.CONTROL_FLOW, Support.FULL),
        PatternEntry("wcp-1", PatternType.CONTROL_FLOW, Support.PARTIAL),
    ]
    with pytest.raises(ConfigError):
        table(entries)


# ---------------------------------------------------------------------------
# Shipped descriptors


def test_shipped_bpmn_complexity_matches_direct_substitution():
    registry = {d.name: d for d in builtin_language_registry()}
    bpmn = registry["BPMN 2.0"]
    expected = math.sqrt(
        bpmn.elements ** 2 + bpmn.characteristics ** 2 + bpmn.relations ** 2
    )
    assert complexity_score(bpmn) == expected


def test_shipped_bpmn_pattern_total_matches_row_count():
    documents = default_language_documents()
    bpmn_rows = documents["bpmn"]["patterns"]
    hand_count = sum(1 for row in bpmn_rows if row["support"] in ("full", "partial"))
    registry = {d.name: d for d in builtin_language_registry()}
    total, _ = pattern_score(registry["BPMN 2.0"])
    assert total == float(hand_count)


def test_shipped_registry_has_three_languages_with_bpmn_most_complex():
    registry = builtin_language_registry()
    assert {d.name for d in registry} == {"BPMN 2.0", "EPC", "UML Activity Diagram"}
    scores = normalize_complexity(registry)
    assert scores["BPMN 2.0"] == 9.1
    assert scores["EPC"] > scores["UML Activity Diagram"] > scores["BPMN 2.0"]
