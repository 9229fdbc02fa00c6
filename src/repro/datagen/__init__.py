"""Data generators: the paper's worked examples, skewed synthetic joins, and a
TPC-H-flavoured multi-table generator used by the end-to-end benchmarks."""
