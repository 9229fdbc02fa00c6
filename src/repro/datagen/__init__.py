"""Data generators: the paper's worked examples, skewed synthetic joins, and a
TPC-H-flavoured multi-table generator used by the end-to-end benchmarks."""

from repro.datagen.synthetic import (
    example42_instance,
    figure1_pair,
    figure3_instance,
    uniform_two_table,
    zipf_two_table,
)
from repro.datagen.tpch import TPCHData, generate_tpch
from repro.datagen.random_instances import random_instance

__all__ = [
    "TPCHData",
    "example42_instance",
    "figure1_pair",
    "figure3_instance",
    "generate_tpch",
    "random_instance",
    "uniform_two_table",
    "zipf_two_table",
]
