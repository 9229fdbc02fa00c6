"""Reference oracles for the relational substrate, and their tests.

The oracles compute by explicit enumeration what the library computes by
einsum or by formula: the join result as a dense array, the join size tuple
by tuple, the semijoin reduction from the materialised join, the join as a
list of tuples, and neighbouring instances (Definition 1.1).  They are exponential or dense in the domain, so
only tiny instances are checked with them.  Other test modules import them
from here.

Besides the oracles' own unit tests, the library is checked against them on
every join of ``tests/queries/test_factored_evaluation.py`` except the
17-attribute chain (whose join has 4·10^7 tuples to enumerate).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import pytest

from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance
from repro.relational.join import expand_to_joint, join_size
from repro.relational.neighbors import random_neighbor
from tests.queries.test_factored_evaluation import JOINS, _instance


def join_result(instance: Instance, dtype: np.dtype | type = np.int64) -> np.ndarray:
    """Materialise ``Join_I`` as a dense array over the joint domain."""
    query = instance.query
    result = np.ones(query.shape, dtype=dtype)
    for relation in instance.relations:
        expanded = expand_to_joint(query, relation.frequencies, relation.attribute_names)
        result = result * expanded.astype(dtype)
    return result


def join_size_brute_force(instance: Instance) -> int:
    """The join size by explicit tuple enumeration (tiny instances only)."""
    query = instance.query
    total = 0
    tuple_lists = [list(relation.tuples()) for relation in instance.relations]

    def compatible(assignment: dict[str, object], values: tuple, names: Sequence[str]) -> bool:
        return all(
            assignment.get(name, value) == value for name, value in zip(names, values)
        )

    def recurse(position: int, assignment: dict[str, object], weight: int) -> None:
        nonlocal total
        if position == len(tuple_lists):
            total += weight
            return
        names = instance.relations[position].attribute_names
        for values, multiplicity in tuple_lists[position]:
            if compatible(assignment, values, names):
                extended = dict(assignment)
                extended.update(zip(names, values))
                recurse(position + 1, extended, weight * multiplicity)

    recurse(0, {}, 1)
    return total


def semijoin_reduce(instance: Instance) -> Instance:
    """Remove dangling tuples: zero out records that join with nothing.

    For every relation ``R_i``, a record survives only if the join size of the
    full query restricted to that record's values is positive, so the reduced
    instance has the same join result as the input.
    """
    joint = join_result(instance, dtype=np.int64)
    query = instance.query
    reduced = []
    for relation in instance.relations:
        axes_to_keep = [query.axis_of(name) for name in relation.attribute_names]
        axes_to_drop = tuple(
            axis for axis in range(len(query.attribute_names)) if axis not in axes_to_keep
        )
        support = joint.sum(axis=axes_to_drop) if axes_to_drop else joint
        kept_in_joint_order = [a for a in range(len(query.attribute_names)) if a in axes_to_keep]
        permutation = [kept_in_joint_order.index(query.axis_of(name)) for name in relation.attribute_names]
        if support.ndim > 1:
            support = np.transpose(support, permutation)
        mask = support > 0
        reduced.append(relation.with_frequencies(relation.frequencies * mask))
    return Instance(query, reduced)


def materialized_join_tuples(instance: Instance) -> list[tuple[tuple, int]]:
    """List the join result as ``(joint value tuple, multiplicity)`` pairs."""
    joint = join_result(instance)
    query = instance.query
    results = []
    for flat_index in np.flatnonzero(joint):
        index = np.unravel_index(flat_index, joint.shape)
        values = tuple(
            attribute.domain.value_at(i) for attribute, i in zip(query.attributes, index)
        )
        results.append((values, int(joint[index])))
    return results


def is_neighboring(first: Instance, second: Instance) -> bool:
    """Return True iff the instances differ by exactly one tuple multiplicity of one."""
    if first.query.relation_names != second.query.relation_names:
        return False
    differing_relations = 0
    total_difference = 0
    for left, right in zip(first.relations, second.relations):
        difference = np.abs(left.frequencies.astype(np.int64) - right.frequencies)
        relation_diff = int(difference.sum())
        if relation_diff:
            differing_relations += 1
            total_difference += relation_diff
            if int(np.count_nonzero(difference)) != 1:
                return False
    return differing_relations == 1 and total_difference == 1


def instance_distance(first: Instance, second: Instance) -> int:
    """ℓ1 distance between instances: total absolute multiplicity difference."""
    if first.query.relation_names != second.query.relation_names:
        raise ValueError("instances must share the same join query")
    distance = 0
    for left, right in zip(first.relations, second.relations):
        distance += int(
            np.abs(left.frequencies.astype(np.int64) - right.frequencies).sum()
        )
    return distance


def enumerate_neighbors(
    instance: Instance,
    *,
    include_additions: bool = True,
    include_removals: bool = True,
    max_neighbors: int | None = None,
) -> Iterator[Instance]:
    """Yield neighbouring instances of ``instance``.

    Removals iterate over the support of each relation; additions iterate over
    the full domain of each relation (which can be large — cap with
    ``max_neighbors`` when enumerating additions on big domains).
    """
    produced = 0
    for index, relation in enumerate(instance.relations):
        if include_removals:
            for record, _multiplicity in relation.tuples():
                yield instance.with_delta(index, record, -1)
                produced += 1
                if max_neighbors is not None and produced >= max_neighbors:
                    return
        if include_additions:
            schema = relation.schema
            for flat in range(int(np.prod(schema.shape))):
                positions = np.unravel_index(flat, schema.shape)
                record = tuple(
                    attribute.domain.value_at(i)
                    for attribute, i in zip(schema.attributes, positions)
                )
                yield instance.with_delta(index, record, +1)
                produced += 1
                if max_neighbors is not None and produced >= max_neighbors:
                    return


#: The joins the library is checked on against the oracles.
ORACLE_JOINS = tuple(name for name in JOINS if name != "wide")


def oracle_instance(join: str) -> Instance:
    """The evaluator tests' instance data on one of :data:`ORACLE_JOINS`."""
    return _instance(JOINS[join])


# ---------------------------------------------------------------------- #
# the library against the oracles, on every join
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("join", ORACLE_JOINS)
def test_join_size_is_the_brute_force_count(join):
    instance = oracle_instance(join)
    assert join_size(instance) == join_size_brute_force(instance)


@pytest.mark.parametrize("join", ORACLE_JOINS)
def test_semijoin_reduce_keeps_the_join(join):
    instance = oracle_instance(join)
    reduced = semijoin_reduce(instance)
    assert np.array_equal(join_result(reduced), join_result(instance))
    assert reduced.total_size() <= instance.total_size()
    assert semijoin_reduce(reduced) == reduced


@pytest.mark.parametrize("join", ORACLE_JOINS)
def test_random_neighbors_are_neighbors(join):
    instance = oracle_instance(join)
    rng = np.random.default_rng(5)
    for _ in range(25):
        neighbor = random_neighbor(instance, rng)
        assert is_neighboring(instance, neighbor)
        assert instance_distance(instance, neighbor) == 1


# ---------------------------------------------------------------------- #
# the oracles on hand-checked instances
# ---------------------------------------------------------------------- #
@pytest.fixture
def base_instance():
    query = two_table_query(2, 2, 2)
    return Instance.from_tuple_lists(query, {"R1": [(0, 0), (1, 1)], "R2": [(0, 1)]})


class TestJoinOracles:
    def test_materialized_join_tuples(self):
        query = two_table_query(2, 2, 2)
        instance = Instance.from_tuple_lists(query, {"R1": [(0, 1)], "R2": [(1, 0)]})
        tuples = materialized_join_tuples(instance)
        assert tuples == [((0, 1, 0), 1)]

    def test_semijoin_reduce_preserves_join(self, two_table_instance):
        reduced = semijoin_reduce(two_table_instance)
        assert join_size(reduced) == join_size(two_table_instance)
        assert np.array_equal(join_result(reduced), join_result(two_table_instance))
        # Dangling tuples are removed, never added.
        assert reduced.total_size() <= two_table_instance.total_size()

    def test_semijoin_reduce_removes_dangling(self):
        query = two_table_query(3, 3, 3)
        instance = Instance.from_tuple_lists(
            query, {"R1": [(0, 0), (1, 1)], "R2": [(0, 2)]}
        )
        reduced = semijoin_reduce(instance)
        # R1(1, 1) joins with nothing and must disappear.
        assert reduced.relation("R1").multiplicity((1, 1)) == 0
        assert reduced.relation("R1").multiplicity((0, 0)) == 1


class TestIsNeighboring:
    def test_addition_is_neighbor(self, base_instance):
        neighbor = base_instance.with_delta("R2", (1, 1), +1)
        assert is_neighboring(base_instance, neighbor)
        assert is_neighboring(neighbor, base_instance)

    def test_removal_is_neighbor(self, base_instance):
        neighbor = base_instance.with_delta("R1", (0, 0), -1)
        assert is_neighboring(base_instance, neighbor)

    def test_identical_instances_are_not_neighbors(self, base_instance):
        assert not is_neighboring(base_instance, base_instance)

    def test_two_changes_are_not_neighbors(self, base_instance):
        other = base_instance.with_delta("R1", (0, 0), -1).with_delta("R2", (1, 1), +1)
        assert not is_neighboring(base_instance, other)

    def test_multiplicity_jump_of_two_is_not_neighbor(self, base_instance):
        other = base_instance.with_delta("R2", (1, 1), +2)
        assert not is_neighboring(base_instance, other)


class TestDistance:
    def test_distance_zero(self, base_instance):
        assert instance_distance(base_instance, base_instance) == 0

    def test_distance_counts_all_changes(self, base_instance):
        other = base_instance.with_delta("R1", (0, 0), -1).with_delta("R2", (1, 1), +2)
        assert instance_distance(base_instance, other) == 3


class TestEnumeration:
    def test_removals_cover_support(self, base_instance):
        removals = list(
            enumerate_neighbors(base_instance, include_additions=False)
        )
        assert len(removals) == 3  # three records in the support
        for neighbor in removals:
            assert is_neighboring(base_instance, neighbor)
            assert neighbor.total_size() == base_instance.total_size() - 1

    def test_additions_cover_domain(self, base_instance):
        additions = list(
            enumerate_neighbors(base_instance, include_removals=False)
        )
        assert len(additions) == 8  # 4 domain cells per relation
        for neighbor in additions:
            assert is_neighboring(base_instance, neighbor)

    def test_max_neighbors_cap(self, base_instance):
        capped = list(enumerate_neighbors(base_instance, max_neighbors=5))
        assert len(capped) == 5
