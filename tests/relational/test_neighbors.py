"""Unit tests for ``random_neighbor``, checked with the neighbour oracle."""

import numpy as np
import pytest

from repro.relational.hypergraph import two_table_query
from repro.relational.instance import Instance
from repro.relational.neighbors import random_neighbor
from tests.relational.test_oracles import is_neighboring


@pytest.fixture
def base_instance():
    query = two_table_query(2, 2, 2)
    return Instance.from_tuple_lists(query, {"R1": [(0, 0), (1, 1)], "R2": [(0, 1)]})


class TestRandomNeighbor:
    def test_random_neighbor_is_neighbor(self, base_instance, rng):
        for _ in range(25):
            neighbor = random_neighbor(base_instance, rng)
            assert is_neighboring(base_instance, neighbor)

    def test_random_neighbor_of_empty_instance_adds(self, rng):
        query = two_table_query(2, 2, 2)
        empty = Instance.empty(query)
        neighbor = random_neighbor(empty, rng)
        assert neighbor.total_size() == 1
