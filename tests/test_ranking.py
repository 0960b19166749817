import math
import random

import pytest

from procomp import replace
from procomp.defaults import default_ett
from procomp.errors import ConfigError
from procomp.ett import assign_weights
from procomp.ranking import (
    MethodKind,
    RankMethod,
    SurveyDataset,
    classify_growth,
    compare_methods,
    default_methods,
    dnlog_weight,
    load_survey_csv,
    method_weight,
    rank_items,
    weighted_mean_rank,
)

from oracles import brute_force_ordering, brute_force_weighted_mean

DNLOG = RankMethod(MethodKind.DNLOG)
RANK_SUM = RankMethod(MethodKind.RANK_SUM)


def dense(dataset, item):
    """The item's fractions, one per rank 1..n, zeros included."""
    fractions = [0.0] * dataset.n
    for rank, fraction in dataset.placements[item]:
        fractions[rank - 1] = fraction
    return fractions


def random_dataset(rng, max_items=8, max_ranks=6):
    n = rng.randint(1, max_ranks)
    items = [f"item-{i}" for i in range(rng.randint(1, max_items))]
    placements = {}
    for item in items:
        cuts = sorted(rng.random() for _ in range(n - 1))
        fractions = []
        previous = 0.0
        for cut in cuts + [1.0]:
            fractions.append(cut - previous)
            previous = cut
        placements[item] = tuple(enumerate(fractions, 1))
    rng.randint(1, 200)  # the draw of the dropped respondent count, kept so the datasets stay the same
    return SurveyDataset(tuple(items), n, placements)


# ---------------------------------------------------------------------------
# Method weights


def test_dnlog_bottom_rank_weight_is_one():
    assert method_weight(DNLOG, 10, 10) == 1.0


def test_rank_sum_weight():
    assert method_weight(RANK_SUM, 5, 2) == 4.0


def test_reciprocal_rank_weight():
    assert method_weight(RankMethod(MethodKind.RECIPROCAL_RANK), 5, 4) == 0.25


def test_dcg_weight():
    assert method_weight(RankMethod(MethodKind.DCG), 5, 1) == 1.0
    assert method_weight(RankMethod(MethodKind.DCG), 5, 3) == pytest.approx(0.5)


def test_rank_exponent_default_power():
    assert method_weight(RankMethod(MethodKind.RANK_EXPONENT), 5, 2) == 16.0


def test_rank_exponent_parameter_validation():
    for p in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            RankMethod(MethodKind.RANK_EXPONENT, p)


def test_weight_out_of_range_rejected():
    for kind in MethodKind:
        for k in (0, 6):
            with pytest.raises(ValueError, match=rf"^rank k={k} out of range \[1, 5\]$"):
                method_weight(RankMethod(kind), 5, k)
    with pytest.raises(ValueError, match=r"^rank k=6 out of range \[1, 5\]$"):
        dnlog_weight(5, 6, 10.0)


def test_every_method_is_positive_and_non_increasing():
    for method in default_methods():
        for n in (1, 2, 5, 9):
            weights = [method_weight(method, n, k) for k in range(1, n + 1)]
            assert all(w > 0 for w in weights)
            assert all(a >= b for a, b in zip(weights, weights[1:]))


def test_dnlog_parameter_validation():
    for d in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            RankMethod(MethodKind.DNLOG, d)
    for d in (0.9, 1.0, math.nan, math.inf):
        for n in (1, 5):  # a singleton group, which gets d itself, too
            with pytest.raises(ValueError, match="must be finite and > 1"):
                dnlog_weight(n, 1, d)


# ---------------------------------------------------------------------------
# Weighted mean


def test_uniform_placements_score_is_one_over_n():
    for n in (1, 3, 6):
        placements = [1.0 / n] * n
        weights = [dnlog_weight(n, k, 10.0) for k in range(1, n + 1)]
        assert weighted_mean_rank(placements, weights) == pytest.approx(1.0 / n)


def test_all_first_place_score_is_top_weight_share():
    weights = [9.0, 3.0, 1.0]
    assert weighted_mean_rank([1.0, 0.0, 0.0], weights) == pytest.approx(9.0 / 13.0)


def test_hand_computed_mean():
    # (9*0.5 + 3*0.3 + 1*0.2) / 13
    score = weighted_mean_rank([0.5, 0.3, 0.2], [9.0, 3.0, 1.0])
    assert score == pytest.approx(0.43076923076923085, abs=1e-15)


def test_weighted_mean_rank_adds_left_to_right_on_every_python():
    assert weighted_mean_rank([1.88, 7.41, 6.08], [1.0, 1.0, 1.0]) == 5.123333333333333
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randint(1, 12)
        placements = [rng.random() for _ in range(n)]
        weights = [rng.uniform(1.0, 10.0) for _ in range(n)]
        assert weighted_mean_rank(placements, weights) == brute_force_weighted_mean(placements, weights)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        weighted_mean_rank([0.5, 0.5], [1.0])


def test_weight_scale_invariance():
    rng = random.Random(11)
    for _ in range(100):
        dataset = random_dataset(rng)
        item = dataset.items[0]
        weights = [dnlog_weight(dataset.n, k, 10.0) for k in range(1, dataset.n + 1)]
        scale = rng.uniform(0.01, 100.0)
        fractions = dense(dataset, item)
        base = weighted_mean_rank(fractions, weights)
        scaled = weighted_mean_rank(fractions, [scale * w for w in weights])
        assert scaled == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# Item ranking


def test_dominant_item_wins_under_every_method():
    placements = {"always-first": ((1, 1.0),), "always-second": ((2, 1.0),)}
    dataset = SurveyDataset(("always-first", "always-second"), 2, placements)
    for method in default_methods():
        assert rank_items(dataset, method)[0][0] == "always-first"


def test_empty_item_list_gives_empty_result():
    dataset = SurveyDataset((), 3, {})
    assert rank_items(dataset, DNLOG) == []


def test_ties_break_by_item_id():
    placements = {"b": ((1, 0.5), (2, 0.5)), "a": ((1, 0.5), (2, 0.5)), "c": ((1, 1.0),)}
    dataset = SurveyDataset(("b", "a", "c"), 2, placements)
    assert [item for item, _ in rank_items(dataset, DNLOG)] == ["c", "a", "b"]


def test_ordering_matches_brute_force_on_random_datasets():
    rng = random.Random(3)
    for _ in range(200):
        dataset = random_dataset(rng)
        weights = [dnlog_weight(dataset.n, k, 10.0) for k in range(1, dataset.n + 1)]
        expected = brute_force_ordering(dataset, weights)
        actual = rank_items(dataset, DNLOG)
        assert [item for item, _ in actual] == [item for item, _ in expected]
        for (_, got), (_, want) in zip(actual, expected):
            assert abs(got - want) <= 1e-9


def test_ranking_is_bit_identical_to_a_dense_oracle_on_random_tables(tmp_path):
    # each item is placed at some of the ranks; of the others, the table lists
    # some as zero rows and omits the rest, and the rows come shuffled
    rng = random.Random(29)
    listed, omitted = tmp_path / "listed.csv", tmp_path / "omitted.csv"
    methods = [*default_methods(), RankMethod(MethodKind.DNLOG, 3.0),
               RankMethod(MethodKind.RANK_EXPONENT, 0.5)]
    for _ in range(150):
        n = rng.randint(1, 6)
        dense: dict[str, list[float]] = {}
        rows, zero_rows = [], []
        for i in range(rng.randint(1, 8)):
            # the first item is placed at every rank, so no table holds fewer rows than ranks
            ranks = sorted(rng.sample(range(1, n + 1), rng.randint(1, n) if i else n))
            cuts = sorted(rng.random() for _ in ranks[1:])
            dense[f"item-{i}"] = fractions = [0.0] * n
            for rank, low, high in zip(ranks, [0.0, *cuts], [*cuts, 1.0]):
                fractions[rank - 1] = high - low
                rows.append(f"item-{i},{rank},{high - low!r}")
            zero_rows += [f"item-{i},{rank},0.0" for rank in range(1, n + 1)
                          if rank not in ranks and rng.random() < 0.5]
        table = rows + zero_rows
        rng.shuffle(table)
        for path, lines in ((listed, table), (omitted, [row for row in table if row not in zero_rows])):
            path.write_text("item,rank,fraction\n" + "\n".join(lines) + "\n", encoding="utf-8")
        dataset, without_zeros = load_survey_csv(listed), load_survey_csv(omitted)
        assert dataset.items == tuple(dict.fromkeys(row.split(",")[0] for row in table))
        assert (dataset.n, dataset.placements) == (without_zeros.n, without_zeros.placements)
        assert all(all(p for _, p in pairs) for pairs in dataset.placements.values())
        for method in methods:
            weights = [method_weight(method, n, k) for k in range(1, n + 1)]
            expected = sorted(((item, brute_force_weighted_mean(fractions, weights))
                               for item, fractions in dense.items()), key=lambda pair: (-pair[1], pair[0]))
            assert rank_items(dataset, method) == expected


def test_dataset_invariants_enforced():
    with pytest.raises(ConfigError):
        SurveyDataset(("a",), 2, {"a": ((1, 0.7), (2, 0.2))})  # sums to 0.9
    with pytest.raises(ConfigError):
        SurveyDataset(("a",), 2, {"a": ((1, -0.1), (2, 1.1))})
    with pytest.raises(ConfigError):
        SurveyDataset(("a",), 0, {"a": ()})
    with pytest.raises(ConfigError, match="^duplicate item ids in survey dataset$"):
        SurveyDataset(("a", "a"), 2, {"a": ((1, 1.0),)})
    with pytest.raises(ConfigError, match="^no placements for item 'b'$"):
        SurveyDataset(("a", "b"), 2, {"a": ((1, 1.0),)})
    for pairs in (((2, 0.5), (1, 0.5)), ((1, 0.5), (1, 0.5))):
        with pytest.raises(ConfigError, match="^ranks of item 'a' are not strictly ascending$"):
            SurveyDataset(("a",), 2, {"a": pairs})
    for rank in (0, 3):
        with pytest.raises(ConfigError, match=r"^item 'a' has a rank outside \[1, 2\]$"):
            SurveyDataset(("a",), 2, {"a": ((rank, 1.0),)})


def test_placement_sum_is_reported_as_added_left_to_right():
    # sum() from Python 3.12 on gives 0.6 here
    with pytest.raises(ConfigError, match=r"sum to 0\.6000000000000001, expected 1"):
        SurveyDataset(("a",), 3, {"a": ((1, 0.1), (2, 0.2), (3, 0.3))})


# ---------------------------------------------------------------------------
# Method comparison


def test_dnlog_classified_exponential():
    assert classify_growth(DNLOG, 5) == "exponential"
    assert classify_growth(DNLOG, 2) == "exponential"


def test_rank_sum_classified_linear():
    assert classify_growth(RANK_SUM, 5) == "linear-like"
    assert classify_growth(RANK_SUM, 2) == "linear-like"


@pytest.mark.parametrize("kind", [MethodKind.RECIPROCAL_RANK, MethodKind.RANK_EXPONENT, MethodKind.DCG])
def test_curved_methods_classified_polynomial(kind):
    assert classify_growth(RankMethod(kind), 5) == "polynomial"


def test_compare_includes_all_methods_with_same_items(tmp_path):
    rng = random.Random(5)
    dataset = random_dataset(rng, max_items=4, max_ranks=5)
    rows = compare_methods(dataset)
    assert len(rows) == 5
    labels = [row.method for row in rows]
    assert "rank-sum" in labels
    assert any(label.startswith("dnlog") for label in labels)
    item_sets = {frozenset(row.ordering) for row in rows}
    assert item_sets == {frozenset(dataset.items)}
    growth = {row.method: row.growth for row in rows}
    assert growth["rank-sum"] == "linear-like"
    assert growth["dnlog(d=10)"] == "exponential"


# ---------------------------------------------------------------------------
# CSV loading


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "survey.csv"
    path.write_text(
        "item,rank,fraction\n"
        "information,1,0.62\ninformation,2,0.25\ninformation,3,0.13\n"
        "errors,1,0.25\nerrors,2,0.5\nerrors,3,0.25\n"
        "person,1,0.13\nperson,2,0.25\nperson,3,0.62\n",
        encoding="utf-8",
    )
    dataset = load_survey_csv(path)
    assert dataset.items == ("information", "errors", "person")
    assert dataset.n == 3
    assert dataset.placements["errors"] == ((1, 0.25), (2, 0.5), (3, 0.25))


def test_csv_missing_columns_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="columns"):
        load_survey_csv(path)


def test_dnlog_weights_that_overflow_raise_value_error():
    # assign_weights ended in OverflowError from dnlog_weight's power
    tree = replace(default_ett(), survey_d=1.7976931348623157e308)
    with pytest.raises(ValueError,
                       match=r"^dnlog\(d=1\.79769e\+308\) weights of \d+ ranks overflow a float$"):
        assign_weights(tree)


def test_rank_exponent_weights_that_overflow_raise_value_error():
    # classify_growth ended in OverflowError from method_weight's power; it probes 5 ranks
    with pytest.raises(ValueError,
                       match=r"^rank-exponent\(p=2000\) weights of 5 ranks overflow a float$"):
        classify_growth(RankMethod(MethodKind.RANK_EXPONENT, 2000.0), 2)
