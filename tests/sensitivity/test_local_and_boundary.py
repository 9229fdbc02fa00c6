"""Unit tests for local sensitivity and maximum boundary queries."""

import numpy as np
import pytest

from repro.relational.hypergraph import (
    chain_query,
    path3_query,
    single_table_query,
    star_query,
    two_table_query,
)
from repro.relational.instance import Instance
from repro.relational.join import join_size
from repro.relational.relation import Relation
from repro.sensitivity.boundary import all_boundary_queries, boundary_query
from repro.sensitivity.degrees import degree_vector
from repro.sensitivity.local import local_sensitivity, per_relation_local_sensitivity
from repro.sensitivity.residual import residual_sensitivity
from tests.relational.test_oracles import ORACLE_JOINS, enumerate_neighbors, oracle_instance


class TestLocalSensitivityTwoTable:
    def test_equals_max_degree(self, two_table_instance):
        first, second = two_table_instance.relations
        # R1(A, B) and R2(B, C): the degrees of B are the sums over A and over C.
        expected = max(first.frequencies.sum(axis=0).max(), second.frequencies.sum(axis=1).max())
        assert local_sensitivity(two_table_instance) == expected

    def test_matches_definition_via_neighbors(self, two_table_instance):
        """LS(I) is exactly the largest join-size change over all neighbours."""
        base = join_size(two_table_instance)
        worst = 0
        for neighbor in enumerate_neighbors(two_table_instance):
            worst = max(worst, abs(join_size(neighbor) - base))
        assert local_sensitivity(two_table_instance) == worst

    def test_per_relation_breakdown(self, two_table_instance):
        per_relation = per_relation_local_sensitivity(two_table_instance)
        assert set(per_relation) == {"R1", "R2"}
        assert max(per_relation.values()) == local_sensitivity(two_table_instance)

    def test_empty_instance(self):
        query = two_table_query(3, 3, 3)
        assert local_sensitivity(Instance.empty(query)) == 0

    def test_single_table_is_one(self):
        from repro.relational.hypergraph import single_table_query

        query = single_table_query({"X": 3})
        instance = Instance.from_tuple_lists(query, {"T": [(0,), (1,)]})
        assert local_sensitivity(instance) == 1

    def test_figure1_instance_has_sensitivity_n(self):
        from repro.datagen.synthetic import figure1_pair

        pair = figure1_pair(10)
        assert local_sensitivity(pair.instance) == 10
        assert local_sensitivity(pair.neighbor) == 10


class TestLocalSensitivityMultiTable:
    @pytest.mark.parametrize("join", ("path3", *ORACLE_JOINS))
    def test_matches_definition_via_neighbors(self, join, path3_instance):
        """On the path-3 fixture and on every join the evaluator tests use."""
        instance = path3_instance if join == "path3" else oracle_instance(join)
        base = join_size(instance)
        worst = 0
        for neighbor in enumerate_neighbors(instance):
            worst = max(worst, abs(join_size(neighbor) - base))
        assert local_sensitivity(instance) == worst

    def test_middle_relation_sees_both_sides(self):
        query = path3_query(3, 3, 3, 3)
        instance = Instance.from_tuple_lists(
            query,
            {
                "R1": [(0, 0), (1, 0), (2, 0)],
                "R2": [(0, 0)],
                "R3": [(0, 0), (0, 1)],
            },
        )
        per_relation = per_relation_local_sensitivity(instance)
        # Adding a tuple (0, 0) to R2 creates 3 × 2 = 6 join results.
        assert per_relation["R2"] == 6


class TestBoundaryQueries:
    def test_empty_subset_is_one(self, two_table_instance):
        assert boundary_query(two_table_instance, ()) == 1

    def test_singleton_subsets_are_degrees(self, two_table_instance):
        first, second = two_table_instance.relations
        assert boundary_query(two_table_instance, (0,)) == first.frequencies.sum(axis=0).max()
        assert boundary_query(two_table_instance, (1,)) == second.frequencies.sum(axis=1).max()

    def test_full_set_has_empty_boundary(self, two_table_instance):
        # ∂[m] = ∅ so T_[m] is the total join size.
        assert boundary_query(two_table_instance, (0, 1)) == join_size(two_table_instance)

    def test_all_boundary_queries_keys(self, path3_instance):
        values = all_boundary_queries(path3_instance)
        assert len(values) == 8
        assert values[frozenset()] == 1

    def test_chain_middle_subset(self, path3_instance):
        # T_{R1,R3}: boundary is {B, C}; R1 and R3 do not share attributes, so
        # the grouped size is deg_1(b)·deg_3(c) maximised over (b, c).
        first = path3_instance.relation("R1").frequencies.sum(axis=0)  # R1(A, B) by B
        third = path3_instance.relation("R3").frequencies.sum(axis=1)  # R3(C, D) by C
        expected = int(np.max(np.outer(first, third)))
        assert boundary_query(path3_instance, (0, 2)) == expected


class TestTotalsPast2To63:
    """Relations whose totals multiply past 2^63 while the grouped sizes stay below it."""

    @pytest.fixture(scope="class")
    def chain(self):
        # R1(X0, X1) ⋈ … ⋈ R5(X4, X5) over domains of 16, every multiplicity
        # 256: each relation holds 2^16 tuples, so four of them multiply to 2^64.
        query = chain_query([16] * 6)
        return Instance(query, [Relation.full(schema, 256) for schema in query.relations])

    def test_boundary_queries_are_exact(self, chain):
        # Grouped by X4: 16^4 prefixes, each of multiplicity 256^4.
        assert boundary_query(chain, [0, 1, 2, 3]) == 2**48
        values = all_boundary_queries(chain)
        assert values[frozenset({1, 2, 3, 4})] == 2**48
        assert values[frozenset(range(5))] == join_size(chain) == 2**64

    def test_sensitivities_run(self, chain):
        assert per_relation_local_sensitivity(chain) == {f"R{i}": 2**48 for i in range(1, 6)}
        assert residual_sensitivity(chain, 0.5) >= local_sensitivity(chain) == 2**48

    def test_degrees_past_the_bound(self):
        # R_i(H, X_i), H of 256 values and X_i of 2, every multiplicity 2^7:
        # four relations of 2^16 tuples each; every hub value joins 2^32 times.
        query = star_query(256, [2] * 4)
        instance = Instance(query, [Relation.full(schema, 2**7) for schema in query.relations])
        degrees = degree_vector(instance, [0, 1, 2, 3], ["H"])
        assert degrees.dtype == np.int64
        assert degrees.tolist() == [1] * 256


class TestDegreesReaching2To63:
    """One relation T(A, B) over 1 × 2 values with both multiplicities 2^62."""

    @pytest.fixture
    def instance(self):
        query = single_table_query({"A": 1, "B": 2})
        return Instance.from_frequencies(query, {"T": np.array([[2**62, 2**62]])})

    def test_a_grouped_degree_refuses_to_wrap(self, instance):
        # deg_T(A = 0) is 2^63, one past int64: it read -2^63.
        with pytest.raises(OverflowError, match=r"\bT\b.*2\*\*63"):
            degree_vector(instance, [0], ["A"])

    def test_a_total_names_its_relation(self, instance):
        with pytest.raises(OverflowError, match=r"\bT\b.*2\*\*63"):
            degree_vector(instance, [0], [])
