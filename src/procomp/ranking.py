"""Turn aggregated survey placements into item scores, ranks and weights.

Five rank-weighting methods are supported: rank sum, reciprocal rank,
rank exponent, discounted cumulative gain, and the distance-normalized
logarithm (an exponentially decaying weight that spans [1, d] across the
rank range). Item scores are weighted arithmetic means of the placement
fractions.
"""

from __future__ import annotations

import enum
import math
from functools import reduce
from operator import add, mul
from pathlib import Path
from typing import Iterable

from .errors import ConfigError
from .records import record

PLACEMENT_SUM_TOL = 1e-9
_GROWTH_TOL = 1e-9


class MethodKind(str, enum.Enum):
    RANK_SUM = "rank-sum"
    RECIPROCAL_RANK = "reciprocal-rank"
    RANK_EXPONENT = "rank-exponent"
    DCG = "dcg"
    DNLOG = "dnlog"


@record
class RankMethod:
    """A weighting method plus its parameter, if it takes one.

    ``param`` is the exponent for RANK_EXPONENT (default 2.0) and the top
    weight d for DNLOG (default 10.0); it is ignored by the other kinds.
    """

    kind: MethodKind
    param: float | None = None

    def __post_init__(self):
        if self.kind is MethodKind.RANK_EXPONENT:
            p = 2.0 if self.param is None else self.param
            if not 0 < p < math.inf:
                raise ValueError(f"rank-exponent power must be finite and > 0, got {p}")
            object.__setattr__(self, "param", p)
        elif self.kind is MethodKind.DNLOG:
            d = 10.0 if self.param is None else self.param
            # dnlog_weight checks d, and gives a singleton group d itself
            object.__setattr__(self, "param", dnlog_weight(1, 1, d))
        else:
            object.__setattr__(self, "param", None)

    @property
    def label(self) -> str:
        if self.kind is MethodKind.RANK_EXPONENT:
            return f"rank-exponent(p={self.param:g})"
        if self.kind is MethodKind.DNLOG:
            return f"dnlog(d={self.param:g})"
        return self.kind.value


def default_methods() -> tuple[RankMethod, ...]:
    """The five methods with their default parameters, in comparison order."""
    return tuple(RankMethod(kind) for kind in MethodKind)


def left_sum(values: Iterable[float]) -> float:
    """The floats added one by one from the left, the order ``sum()`` used
    before Python 3.12, which rounds differently. The weighted sums of ranks
    and scores, whose order the tree or the table fixes, are added this way,
    so that they are the same to the last bit on every Python; the averages
    over readers and over questions, whose order the caller chooses, use
    ``math.fsum``, which is the same in any order."""
    return reduce(add, values, 0.0)


def _overflow(label: str, n: int) -> ValueError:
    return ValueError(f"{label} weights of {n} ranks overflow a float")


def dnlog_weight(n: int, k: int, d: float) -> float:
    """Exponential rank weight: 10 ** ((n - k) * log10(d) / (n - 1)).

    Rank 1 gets weight d, rank n gets weight 1, and consecutive ranks keep a
    constant ratio. A singleton group (n == 1) gets the full weight d. A
    weight past the largest float raises ValueError.
    """
    if not 1 < d < math.inf:
        raise ValueError(f"dnlog top weight d must be finite and > 1, got {d}")
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} out of range [1, {n}]")
    if n == 1:
        return d
    try:
        return 10.0 ** ((n - k) * (math.log10(d) / (n - 1)))
    except OverflowError:
        raise _overflow(f"dnlog(d={d:g})", n) from None


def method_weight(method: RankMethod, n: int, k: int) -> float:
    """Weight of rank k among n ranks under the given method. A weight past
    the largest float raises ValueError."""
    if not 1 <= k <= n:
        raise ValueError(f"rank k={k} out of range [1, {n}]")
    if method.kind is MethodKind.RANK_SUM:
        return float(n - k + 1)
    if method.kind is MethodKind.RECIPROCAL_RANK:
        return 1.0 / k
    if method.kind is MethodKind.RANK_EXPONENT:
        try:
            return float(n - k + 1) ** method.param
        except OverflowError:
            raise _overflow(method.label, n) from None
    if method.kind is MethodKind.DCG:
        return 1.0 / math.log2(k + 1)
    return dnlog_weight(n, k, method.param)


@record
class SurveyDataset:
    """Aggregated placements: fraction of respondents per (item, rank).

    ``placements[item]`` holds the item's ``(rank, fraction)`` pairs, ranks
    ascending within 1..n, and its fractions must sum to 1. Pairs with a
    zero fraction are dropped, so two datasets are equal when their
    fractions are, whether or not they list the zeros.
    """

    items: tuple[str, ...]
    n: int
    placements: dict[str, tuple[tuple[int, float], ...]]

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"rank count must be >= 1, got {self.n}")
        if len(set(self.items)) != len(self.items):
            raise ConfigError("duplicate item ids in survey dataset")
        for item in self.items:
            pairs = self.placements.get(item)
            if pairs is None:
                raise ConfigError(f"no placements for item {item!r}")
            ranks = [rank for rank, _ in pairs]
            if any(not a < b for a, b in zip(ranks, ranks[1:])):
                raise ConfigError(f"ranks of item {item!r} are not strictly ascending")
            if ranks and not 1 <= ranks[0] <= ranks[-1] <= self.n:
                raise ConfigError(f"item {item!r} has a rank outside [1, {self.n}]")
            if any(p < 0 for _, p in pairs):
                raise ConfigError(f"negative placement fraction for item {item!r}")
            total = left_sum(p for _, p in pairs)
            if abs(total - 1.0) > PLACEMENT_SUM_TOL:
                raise ConfigError(
                    f"placements for item {item!r} sum to {total!r}, expected 1"
                )
        object.__setattr__(self, "placements", {item: tuple((rank, p) for rank, p in pairs if p)
                                                for item, pairs in self.placements.items()})


def load_survey_csv(path: str | Path) -> SurveyDataset:
    """Read a dataset from a UTF-8 CSV, with or without a byte-order mark,
    with columns item, rank, fraction. Raises ConfigError naming the file.

    A rank above the number of data rows is refused: a complete table has
    one row per item and rank, so it never holds one. So is a second row
    for the same item and rank.
    """
    import csv  # only `survey rank` reads a CSV: import on first use

    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            return _survey_dataset(reader)
        except csv.Error as exc:  # the line that failed is read, but not yet counted as a row
            raise ConfigError(f"malformed CSV: {exc}",
                              path=f"{path}: line {reader.reader.line_num}") from None
        except (ConfigError, UnicodeDecodeError) as exc:
            raise ConfigError(str(exc), path=str(path)) from None


def _survey_dataset(reader: csv.DictReader) -> SurveyDataset:
    required = {"item", "rank", "fraction"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ConfigError(f"survey CSV must have columns {sorted(required)}")
    rows: list[tuple[int, str, int, float]] = []
    for row in reader:
        try:
            rank, fraction = int(row["rank"]), float(row["fraction"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad survey row: {exc}", path=f"line {reader.line_num}") from exc
        if not math.isfinite(fraction):
            raise ConfigError(f"fraction must be a finite number, got {row['fraction']!r}",
                              path=f"line {reader.line_num}")
        rows.append((reader.line_num, row["item"], rank, fraction))
    if not rows:
        raise ConfigError("survey CSV contains no data rows")
    for lineno, item, rank, _ in rows:
        if not 1 <= rank <= len(rows):
            raise ConfigError(f"rank {rank} of item {item!r} is outside [1, {len(rows)}], "
                              "the number of data rows", path=f"line {lineno}")
    first_line: dict[tuple[str, int], int] = {}
    placements: dict[str, list[tuple[int, float]]] = {}
    for lineno, item, rank, fraction in rows:
        earlier = first_line.setdefault((item, rank), lineno)
        if earlier != lineno:
            raise ConfigError(f"item {item!r} is placed at rank {rank} again, "
                              f"first at line {earlier}", path=f"line {lineno}")
        placements.setdefault(item, []).append((rank, fraction))
    return SurveyDataset(
        items=tuple(placements),
        n=max(rank for _, _, rank, _ in rows),
        placements={item: tuple(sorted(pairs)) for item, pairs in placements.items()},
    )


def weighted_mean_rank(placements: tuple[float, ...] | list[float],
                       weights: tuple[float, ...] | list[float]) -> float:
    """Weighted arithmetic mean of placement fractions: sum(w*p) / sum(w).
    It is also the mean that aggregates metric and criterion scores."""
    if len(placements) != len(weights):
        raise ValueError(
            f"{len(placements)} placements vs {len(weights)} weights"
        )
    return left_sum(map(mul, weights, placements)) / left_sum(weights)


def rank_items(dataset: SurveyDataset, method: RankMethod) -> list[tuple[str, float]]:
    """Score every item and order by score descending, ties by item id.

    Raises ValueError when a weight of the dataset's ranks, or their sum,
    is past the largest float: every score would be 0 or undefined.
    """
    weights = [method_weight(method, dataset.n, k) for k in range(1, dataset.n + 1)]
    total = left_sum(weights)
    if total == math.inf:
        raise _overflow(method.label, dataset.n)
    scored = [
        (item, left_sum(weights[rank - 1] * p for rank, p in dataset.placements[item]) / total)
        for item in dataset.items
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


def classify_growth(method: RankMethod, n: int) -> str:
    """Label how the method's weights fall across ranks.

    Probes at least five ranks so that two-point sequences (where constant
    difference and constant ratio coincide) do not mislabel the shape.
    """
    probe = max(n, 5)
    ws = [method_weight(method, probe, k) for k in range(1, probe + 1)]
    diffs = [a - b for a, b in zip(ws, ws[1:])]
    ratios = [a / b for a, b in zip(ws, ws[1:])]

    def _constant(values: list[float]) -> bool:
        spread = max(values) - min(values)
        return spread <= _GROWTH_TOL * max(1.0, abs(max(values, key=abs)))

    if _constant(diffs) and not _constant(ratios):
        return "linear-like"
    if _constant(ratios):
        return "exponential"
    return "polynomial"


@record
class MethodComparison:
    method: str
    growth: str
    ordering: tuple[str, ...]


def compare_methods(dataset: SurveyDataset) -> list[MethodComparison]:
    """Rank the dataset under each default method and classify its weight growth."""
    rows = []
    for method in default_methods():
        rows.append(
            MethodComparison(
                method=method.label,
                growth=classify_growth(method, dataset.n),
                ordering=tuple(item for item, _ in rank_items(dataset, method)),
            )
        )
    return rows
