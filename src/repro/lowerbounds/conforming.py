"""Instances conforming to a join-size vector (Theorem 4.5).

A join-size vector assigns a target join size ``OUT_i`` to every degree
bucket ``(λ·2^{i-1}, λ·2^i]``.  The builder realises each bucket with join
values whose degree is ``≈ λ·2^i`` in both relations, so the uniform partition
of Definition 4.3 recovers exactly the requested per-bucket join sizes — the
setting of the fine-grained two-table lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance


@dataclass
class ConformingInstance:
    """A two-table instance conforming to a join-size vector."""

    instance: Instance
    lam: float
    bucket_degrees: dict[int, int]
    bucket_join_sizes: dict[int, int]
    bucket_num_values: dict[int, int]

    @property
    def total_join_size(self) -> int:
        return sum(self.bucket_join_sizes.values())


def conforming_two_table_instance(out_vector: dict[int, int], lam: float) -> ConformingInstance:
    """Build a two-table instance conforming to ``{bucket index: OUT_i}``.

    For every bucket ``i`` with a positive target, join values of degree
    ``d_i = ⌈λ·2^{i-1}⌉ + 1 ∈ (λ·2^{i-1}, λ·2^i]`` are added to both relations
    until the bucket's join size (``#values · d_i²``) reaches the target.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    buckets = {index: target for index, target in out_vector.items() if target > 0}
    if not buckets:
        raise ValueError("the join-size vector must contain a positive entry")
    for index in buckets:
        if index < 1:
            raise ValueError("bucket indices must be >= 1")

    bucket_degrees: dict[int, int] = {}
    bucket_num_values: dict[int, int] = {}
    bucket_join_sizes: dict[int, int] = {}
    for index, target in sorted(buckets.items()):
        lower = lam * (2 ** (index - 1))
        upper = lam * (2**index)
        degree = min(int(ceil(lower)) + 1, int(upper))
        degree = max(degree, 1)
        num_values = max(1, int(round(target / degree**2)))
        bucket_degrees[index] = degree
        bucket_num_values[index] = num_values
        bucket_join_sizes[index] = num_values * degree * degree

    total_values = sum(bucket_num_values.values())
    max_degree = max(bucket_degrees.values())
    size_a = total_values * max_degree
    size_b = total_values
    size_c = total_values * max_degree
    query = two_table_query(size_a, size_b, size_c)

    r1_tuples = []
    r2_tuples = []
    value_cursor = 0
    side_cursor = 0
    for index in sorted(bucket_degrees):
        degree = bucket_degrees[index]
        for _value in range(bucket_num_values[index]):
            join_value = value_cursor
            value_cursor += 1
            for offset in range(degree):
                r1_tuples.append((side_cursor + offset, join_value))
                r2_tuples.append((join_value, side_cursor + offset))
            side_cursor += degree
    relation_names = query.relation_names
    instance = Instance.from_tuple_lists(
        query, {relation_names[0]: r1_tuples, relation_names[1]: r2_tuples}
    )
    return ConformingInstance(
        instance=instance,
        lam=lam,
        bucket_degrees=bucket_degrees,
        bucket_join_sizes=bucket_join_sizes,
        bucket_num_values=bucket_num_values,
    )
