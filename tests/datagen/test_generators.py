"""Unit tests for the data generators."""

from math import isqrt

import numpy as np
import pytest

from repro.datagen.random_instances import random_instance
from repro.datagen.synthetic import (
    example42_instance,
    figure1_pair,
    figure3_instance,
    uniform_two_table,
    zipf_two_table,
)
from repro.datagen.tpch import MARKET_SEGMENTS, ORDER_PRIORITIES, generate_tpch
from repro.relational.hypergraph import figure4_query, two_table_query
from repro.relational.join import join_size
from repro.sensitivity.local import local_sensitivity
from tests.relational.test_oracles import is_neighboring


class TestFigure1:
    def test_join_sizes_n_and_zero(self):
        pair = figure1_pair(15)
        assert join_size(pair.instance) == 15
        assert join_size(pair.neighbor) == 0

    def test_pair_is_neighboring(self):
        pair = figure1_pair(10)
        assert is_neighboring(pair.instance, pair.neighbor)

    def test_side_domain_parameter(self):
        pair = figure1_pair(10, side_domain_size=3)
        assert pair.query.shape == (10, 3, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            figure1_pair(0)
        with pytest.raises(ValueError):
            figure1_pair(5, side_domain_size=0)


class TestFigure3:
    @pytest.mark.parametrize("n", [16, 64, 100])
    def test_structure(self, n):
        instance = figure3_instance(n)
        root = isqrt(n)
        # Input size is 2·(1 + 2 + ... + √n).
        assert instance.total_size() == root * (root + 1)
        # Join size is Σ i² over i ≤ √n.
        assert join_size(instance) == sum(i * i for i in range(1, root + 1))
        assert local_sensitivity(instance) == root

    def test_degree_profile(self):
        instance = figure3_instance(25)
        degrees = instance.relation("R1").frequencies.sum(axis=0)  # R1(A, B) by B
        assert sorted(int(d) for d in degrees) == [1, 2, 3, 4, 5]


class TestExample42:
    def test_structure(self):
        k = 8
        instance = example42_instance(k)
        # Local sensitivity is k^(2/3) = 4 (the largest degree level).
        assert local_sensitivity(instance) == round(k ** (2.0 / 3.0))
        assert instance.total_size() <= 2 * 2 * k * k
        assert join_size(instance) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            example42_instance(1)


class TestGenericTwoTableGenerators:
    def test_uniform(self):
        instance = uniform_two_table(5, 3)
        assert join_size(instance) == 5 * 9
        assert local_sensitivity(instance) == 3
        assert instance.total_size() == 2 * 15

    def test_zipf_reproducible_and_sized(self):
        first = zipf_two_table(10, 200, seed=1)
        second = zipf_two_table(10, 200, seed=1)
        assert first == second
        assert first.relation("R1").total() == 200
        assert first.relation("R2").total() == 200

    def test_zipf_is_skewed(self):
        instance = zipf_two_table(20, 500, seed=2, exponent=1.5)
        degrees = np.sort(instance.relation("R1").frequencies.sum(axis=0))[::-1]  # by B
        assert degrees[0] > degrees[5]

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            uniform_two_table(0, 1)


class TestTPCH:
    def test_structure_and_sizes(self):
        data = generate_tpch(0.5, seed=0)
        assert data.customer_orders.query.relation_names == ("Customer", "Orders")
        assert data.nation_customer_orders.num_relations == 3
        assert data.customer_orders.relation("Customer").total() == data.num_customers
        assert data.customer_orders.relation("Orders").total() == data.num_orders

    def test_scale_grows_tables(self):
        small = generate_tpch(0.5, seed=1)
        large = generate_tpch(2.0, seed=1)
        assert large.num_customers > small.num_customers
        assert large.num_orders > small.num_orders

    def test_domains_match_tpch_categories(self):
        data = generate_tpch(0.5, seed=2)
        query = data.customer_orders.query
        assert tuple(query.attribute("segment").domain) == MARKET_SEGMENTS
        assert tuple(query.attribute("priority").domain) == ORDER_PRIORITIES

    def test_every_order_joins_with_its_customer(self):
        data = generate_tpch(0.5, seed=3)
        # Each order references an existing customer, so the two-table join
        # size equals the number of orders.
        assert join_size(data.customer_orders) == data.num_orders
        # And the three-table chain keeps them (every customer has a nation).
        assert join_size(data.nation_customer_orders) == data.num_orders

    def test_order_skew(self):
        data = generate_tpch(1.0, seed=4, order_skew=1.5)
        # Orders(custkey, priority): the orders of each customer.
        per_customer = data.customer_orders.relation("Orders").frequencies.sum(axis=1)
        assert per_customer.max() >= 5 * max(1, int(np.median(per_customer)))

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_tpch(0.0)


class TestRandomInstance:
    def test_sizes(self):
        query = two_table_query(4, 4, 4)
        instance = random_instance(query, 25, seed=0)
        assert instance.relation("R1").total() == 25
        assert instance.relation("R2").total() == 25

    def test_multiplicity(self):
        query = figure4_query(2)
        instance = random_instance(query, 10, max_multiplicity=3, seed=1)
        assert instance.total_size() >= 10 * query.num_relations

    def test_validation(self):
        query = two_table_query(2, 2, 2)
        with pytest.raises(ValueError):
            random_instance(query, -1)
        with pytest.raises(ValueError):
            random_instance(query, 1, max_multiplicity=0)
