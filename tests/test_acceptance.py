"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with -s or in captured
output) so the whole gate can be read at a glance.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from procomp.cli import main
from procomp.bpmn import parse_model, parse_model_file
from procomp.defaults import (
    builtin_language_registry,
    default_ett,
    default_modeler_schema,
    default_reader_schema,
)
from procomp.ett import Perspective, assign_weights
from procomp.languages import (
    LanguageDescriptor,
    PatternSupportTable,
    PatternType,
    complexity_score,
    normalize_complexity,
)
from procomp.metrics import EXTRACTORS
from procomp.ranking import MethodKind, RankMethod, SurveyDataset, dnlog_weight, rank_items
from procomp.scoring import (
    ComprehensionEvaluation,
    CriterionResult,
    MetricResult,
    aggregate_criterion,
    combined_score,
    detect_noise,
    perspective_score,
)

from conftest import FIXTURES, random_bpmn_document, write_response_file
from oracles import (
    brute_force_ordering,
    constrained_least_squares_weight,
    naive_counts,
)
from test_model import (
    AND_PARALLEL_COUNTS,
    ORDER_FULFILLMENT_COUNTS,
    SEQUENCE_COUNTS,
    XOR_LOOP_COUNTS,
)
from test_scoring import TABLE_ROWS


@contextmanager
def criterion(label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {label}: PASS ({elapsed * 1000:.0f} ms)")


def test_01_exponential_rank_weights_endpoints_and_ratio():
    with criterion("1 rank-weight endpoints"):
        tree = assign_weights(default_ett())
        groups = []
        for perspective in Perspective:
            siblings = tree.criteria_for(perspective)
            groups.append([c.weight for c in sorted(siblings, key=lambda c: c.rank)])
        for crit in tree.criteria:
            groups.append([m.weight for m in sorted(crit.metrics, key=lambda m: m.rank)])
        assert groups, "default tree has no sibling groups"
        for weights in groups:
            if len(weights) < 2:
                continue
            assert abs(weights[0] - 10.0) <= 1e-12
            assert abs(weights[-1] - 1.0) <= 1e-12
            ratios = [a / b for a, b in zip(weights, weights[1:])]
            assert max(ratios) - min(ratios) <= 1e-9


def test_02_weighted_mean_matches_brute_force_on_1000_datasets():
    with criterion("2 weighted-mean oracle equivalence"):
        rng = random.Random(20240817)
        started = time.perf_counter()
        method = RankMethod(MethodKind.DNLOG)
        for _ in range(1000):
            n = rng.randint(1, 6)
            items = tuple(f"i{j}" for j in range(rng.randint(1, 8)))
            placements = {}
            for item in items:
                cuts = sorted(rng.random() for _ in range(n - 1))
                fractions, previous = [], 0.0
                for cut in cuts + [1.0]:
                    fractions.append(cut - previous)
                    previous = cut
                placements[item] = tuple(enumerate(fractions, 1))
            dataset = SurveyDataset(items, n, placements)
            weights = [dnlog_weight(n, k, 10.0) for k in range(1, n + 1)]
            expected = brute_force_ordering(dataset, weights)
            actual = rank_items(dataset, method)
            assert [i for i, _ in actual] == [i for i, _ in expected]
            for (_, got), (_, want) in zip(actual, expected):
                assert abs(got - want) <= 1e-9
        assert time.perf_counter() - started < 1.0


def test_03_complexity_pipeline():
    with criterion("3 complexity pipeline"):
        table = PatternSupportTable(entries=(), catalog_sizes={PatternType.CONTROL_FLOW: 20})

        def lang(name, x, y, z):
            return LanguageDescriptor(name=name, elements=x, characteristics=y,
                                      relations=z, patterns=table)

        assert complexity_score(lang("triple", 3, 4, 0)) == 5.0

        rng = random.Random(9091)
        for _ in range(200):
            registry = [
                lang(f"l{i}", rng.uniform(0.2, 60), rng.uniform(0, 40), rng.uniform(0, 12))
                for i in range(rng.randint(1, 6))
            ]
            scores = normalize_complexity(registry)
            norms = {d.name: complexity_score(d) for d in registry}
            top = max(norms, key=lambda name: norms[name])
            assert scores[top] == 9.1
            ordered = sorted(registry, key=lambda d: norms[d.name])
            for small, large in zip(ordered, ordered[1:]):
                if norms[small.name] < norms[large.name]:
                    assert scores[small.name] > scores[large.name]


def test_04_combined_score_reproduces_reference_table():
    with criterion("4 combined-score table reproduction"):
        fitted = constrained_least_squares_weight(TABLE_ROWS)
        # the shipped default pair matches this fit to rounding
        assert abs(fitted - 0.156) < 0.02
        for w_m in (0.156, fitted):
            w_r = 1.0 - w_m
            for s_m, s_r, expected in TABLE_ROWS:
                got = combined_score(s_m, s_r, w_m, w_r)
                assert abs(got - expected) <= 0.03, (s_m, s_r, expected, got)


def test_05_bounds_closure_on_10000_random_evaluations():
    with criterion("5 bounds closure"):
        rng = random.Random(555)
        started = time.perf_counter()
        for _ in range(10_000):
            perspective_totals = []
            for _ in range(2):
                criterion_scores = []
                criterion_weights = []
                for _ in range(rng.randint(1, 7)):
                    scores = [rng.uniform(1, 10) for _ in range(rng.randint(1, 9))]
                    weights = [rng.uniform(1e-3, 10) for _ in scores]
                    q_c = aggregate_criterion(scores, weights)
                    assert 1.0 <= q_c <= 10.0
                    criterion_scores.append(q_c)
                    criterion_weights.append(rng.uniform(1e-3, 10))
                total = perspective_score(criterion_scores, criterion_weights)
                assert 1.0 <= total <= 10.0
                perspective_totals.append(total)
            s_m, s_r = perspective_totals
            w_m = rng.random()
            s_b = combined_score(s_m, s_r, w_m, 1.0 - w_m)
            assert 1.0 <= s_b <= 10.0
            assert min(s_m, s_r) <= s_b <= max(s_m, s_r)
        assert time.perf_counter() - started < 5.0


def test_06_noise_diagnosis_fidelity():
    with criterion("6 noise diagnosis fidelity"):
        def mr(metric_id, score):
            from procomp.ett import MetricSource
            return MetricResult(id=metric_id, name=metric_id,
                                source=MetricSource.MODELER_QUESTIONNAIRE,
                                score=score)

        evaluation = ComprehensionEvaluation(
            model_id="worked-example",
            criteria=(
                CriterionResult(
                    id="m-information", name="Information",
                    perspective=Perspective.MODELER, score=5.01,
                    metrics=(
                        mr("m-info-completeness", 8.26),
                        mr("m-info-correctness", 8.04),
                        mr("m-info-availability", 2.1),
                        mr("m-info-method", 1.6),
                    ),
                ),
                CriterionResult(id="r-person", name="Person",
                                perspective=Perspective.READER, score=5.34),
                CriterionResult(id="r-representation", name="Representation Factors",
                                perspective=Perspective.READER, score=3.68),
            ),
            s_m=5.2, s_r=6.0, s_b=5.6, w_m=0.5, w_r=0.5,
        )
        flags = detect_noise(evaluation.criteria, threshold=4.0)
        assert [(f.kind, f.id, f.score) for f in flags] == [
            ("metric", "m-info-method", 1.6),
            ("metric", "m-info-availability", 2.1),
            ("criterion", "r-representation", 3.68),
        ]


def test_07_parser_oracle_equivalence():
    with criterion("7 parser oracle equivalence"):
        started = time.perf_counter()
        rng = random.Random(777)
        for _ in range(200):
            graph = parse_model(random_bpmn_document(rng))
            assert len(graph.flow_nodes()) <= 30
            for key, want in naive_counts(graph).items():
                assert EXTRACTORS[key](graph) == pytest.approx(want, abs=1e-12), key
        for fixture, expected in (
            ("sequence.bpmn", SEQUENCE_COUNTS),
            ("xor_loop.bpmn", XOR_LOOP_COUNTS),
            ("and_parallel.bpmn", AND_PARALLEL_COUNTS),
            ("order_fulfillment.bpmn", ORDER_FULFILLMENT_COUNTS),
        ):
            graph = parse_model_file(FIXTURES / fixture)
            for key, want in expected.items():
                assert EXTRACTORS[key](graph) == pytest.approx(want, abs=1e-12), key
        assert time.perf_counter() - started < 5.0


def test_08_catalog_shape():
    with criterion("8 catalog shape"):
        tree = default_ett()
        assert tree.metric_count() == 96
        assert tree.metric_count(Perspective.MODELER) == 54
        assert tree.metric_count(Perspective.READER) == 42
        assert len(default_modeler_schema().questions) == 49
        assert len(default_reader_schema().questions) == 24
        assert len(builtin_language_registry()) == 3


def test_09_end_to_end_determinism(tmp_path, capsys):
    with criterion("9 end-to-end determinism"):
        started = time.perf_counter()
        modeler = write_response_file(tmp_path / "m.json", default_modeler_schema(), "m", 1)
        readers = [
            write_response_file(tmp_path / "r1.json", default_reader_schema(), "r1", 0),
            write_response_file(tmp_path / "r2.json", default_reader_schema(), "r2", 2),
        ]
        outputs = []
        for name in ("first.txt", "second.txt"):
            out_path = tmp_path / name
            code = main([
                "score",
                "--model", str(FIXTURES / "order_fulfillment.bpmn"),
                "--modeler-responses", str(modeler),
                "--reader-responses", *[str(r) for r in readers],
                "--output", str(out_path),
            ])
            assert code == 0
            outputs.append(out_path.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        assert b"Modeler score" in outputs[0]
        assert time.perf_counter() - started < 1.0
