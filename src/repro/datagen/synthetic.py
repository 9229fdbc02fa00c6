"""Synthetic two-table instances, including the paper's worked examples.

* :func:`figure1_pair` — the neighbouring pair of Figure 1 / Example 3.1
  (join sizes ``n`` versus ``0``) used to exhibit the DP violation of the
  flawed algorithms;
* :func:`figure3_instance` — the skewed instance of Figure 3 (one join value
  of degree ``i`` for every ``i ≤ √n``) where uniformization beats the plain
  join-as-one algorithm;
* :func:`example42_instance` — the amplified-skew instance of Example 4.2
  (``k²/8^i`` join values of degree ``2^i``) with a polynomially large gap;
* generic builders: :func:`uniform_two_table` (E2, E4, E14) and
  :func:`zipf_two_table` (E11).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, isqrt, log2

import numpy as np

from repro.mechanisms.rng import resolve_rng
from repro.relational.hypergraph import JoinQuery, two_table_query
from repro.relational.instance import Instance


@dataclass(frozen=True)
class NeighboringPair:
    """A pair of neighbouring instances over the same join query."""

    query: JoinQuery
    instance: Instance
    neighbor: Instance
    description: str


def figure1_pair(n: int, *, side_domain_size: int | None = None) -> NeighboringPair:
    """The Figure 1 / Example 3.1 neighbouring pair.

    ``I`` has ``R1 = {(a_j, b_0) : j < n}`` and ``R2 = {(b_0, c_0)}`` so its
    join size is ``n``; the neighbour ``I'`` removes the single ``R2`` tuple
    and has join size ``0``.  The mass concentrated on
    ``D' = dom(A) × {b_0} × {c_0}`` is the distinguishing statistic used by
    Example 3.1.

    ``side_domain_size`` controls the size of the ``B`` and ``C`` domains.
    The paper uses size ``n`` for all three; any value large enough that
    ``D'`` is a vanishing fraction of the joint domain preserves the
    distinguishing argument while keeping the joint domain small enough for
    the dense synthetic-data representation.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if side_domain_size is None:
        side_domain_size = min(n, 8)
    if side_domain_size < 1:
        raise ValueError("side_domain_size must be at least 1")
    query = two_table_query(n, side_domain_size, side_domain_size)
    r1 = [(j, 0) for j in range(n)]
    instance = Instance.from_tuple_lists(query, {"R1": r1, "R2": [(0, 0)]})
    neighbor = Instance.from_tuple_lists(query, {"R1": r1, "R2": []})
    return NeighboringPair(
        query=query,
        instance=instance,
        neighbor=neighbor,
        description="Figure 1: join sizes n vs 0, differing in one R2 tuple",
    )


def figure3_instance(n: int) -> Instance:
    """The Figure 3 instance: one join value of degree ``i`` for each ``i ≤ √n``.

    Input size ``Θ(n)``, join size ``Θ(n^{3/2})``, local sensitivity ``√n`` —
    the degree distribution is maximally non-uniform, which is exactly where
    Algorithm 4 improves over Algorithm 1.
    """
    root = isqrt(n)
    if root < 1:
        raise ValueError("n must be at least 1")
    num_values = root
    side_size = root * (root + 1) // 2
    query = two_table_query(side_size, num_values, side_size)
    r1_tuples = []
    r2_tuples = []
    cursor = 0
    for index in range(1, num_values + 1):
        join_value = index - 1
        for offset in range(index):
            r1_tuples.append((cursor + offset, join_value))
            r2_tuples.append((join_value, cursor + offset))
        cursor += index
    return Instance.from_tuple_lists(query, {"R1": r1_tuples, "R2": r2_tuples})


def example42_instance(k: int) -> Instance:
    """The Example 4.2 instance: ``k²/8^i`` join values of degree ``2^i``.

    For ``i ∈ {0, 1, ..., (2/3)·log2 k}``; the local sensitivity is ``k^{2/3}``,
    the input size at most ``2k²`` and the join size ``Θ(k² log k)``.  The gap
    between Algorithm 1 and Algorithm 4 on this family grows like ``k^{1/3}``.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    levels = int(floor((2.0 / 3.0) * log2(k)))
    groups: list[tuple[int, int]] = []  # (num_values, degree)
    for i in range(levels + 1):
        num_values = max(1, int(k * k / (8**i)))
        degree = 2**i
        groups.append((num_values, degree))
    num_join_values = sum(num_values for num_values, _ in groups)
    side_size = sum(num_values * degree for num_values, degree in groups)
    query = two_table_query(side_size, num_join_values, side_size)
    r1_tuples = []
    r2_tuples = []
    value_cursor = 0
    side_cursor = 0
    for num_values, degree in groups:
        for _ in range(num_values):
            join_value = value_cursor
            value_cursor += 1
            for offset in range(degree):
                r1_tuples.append((side_cursor + offset, join_value))
                r2_tuples.append((join_value, side_cursor + offset))
            side_cursor += degree
    return Instance.from_tuple_lists(query, {"R1": r1_tuples, "R2": r2_tuples})


def uniform_two_table(num_join_values: int, degree: int) -> Instance:
    """Every join value has the same degree in both relations.

    Join size ``num_join_values·degree²`` and local sensitivity ``degree`` —
    the regime where the plain join-as-one algorithm is already near-optimal.
    """
    if num_join_values < 1 or degree < 1:
        raise ValueError("num_join_values and degree must be positive")
    side_size = num_join_values * degree
    query = two_table_query(side_size, num_join_values, side_size)
    r1_tuples = []
    r2_tuples = []
    for value in range(num_join_values):
        for offset in range(degree):
            r1_tuples.append((value * degree + offset, value))
            r2_tuples.append((value, value * degree + offset))
    return Instance.from_tuple_lists(query, {"R1": r1_tuples, "R2": r2_tuples})


def zipf_two_table(
    num_join_values: int,
    total_tuples_per_relation: int,
    *,
    exponent: float = 1.2,
    size_a: int | None = None,
    size_c: int | None = None,
    rng: np.random.Generator | None = None,
    seed: int | None = None,
) -> Instance:
    """Zipf-distributed join-value degrees (independently in both relations).

    A realistic skew profile: degree of join value ``v`` is proportional to
    ``1/(v+1)^exponent``; the non-join attributes are drawn uniformly.
    """
    if num_join_values < 1 or total_tuples_per_relation < 1:
        raise ValueError("num_join_values and total_tuples_per_relation must be positive")
    generator = resolve_rng(rng, seed)
    weights = 1.0 / np.power(np.arange(1, num_join_values + 1, dtype=float), exponent)
    weights /= weights.sum()
    if size_a is None:
        size_a = max(total_tuples_per_relation // 2, 4)
    if size_c is None:
        size_c = max(total_tuples_per_relation // 2, 4)
    query = two_table_query(size_a, num_join_values, size_c)
    b1 = generator.choice(num_join_values, size=total_tuples_per_relation, p=weights)
    b2 = generator.choice(num_join_values, size=total_tuples_per_relation, p=weights)
    a_values = generator.integers(0, size_a, size=total_tuples_per_relation)
    c_values = generator.integers(0, size_c, size=total_tuples_per_relation)
    r1_tuples = list(zip(a_values.tolist(), b1.tolist()))
    r2_tuples = list(zip(b2.tolist(), c_values.tolist()))
    return Instance.from_tuple_lists(query, {"R1": r1_tuples, "R2": r2_tuples})
