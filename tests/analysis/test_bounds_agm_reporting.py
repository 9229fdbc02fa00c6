"""Unit tests for the closed-form bounds, the AGM machinery, and reporting."""

import math

import pytest

from repro.analysis.agm import (
    agm_bound,
    fractional_edge_cover_number,
    residual_query_agm_exponent,
    worst_case_error_bound,
    worst_case_sensitivity_exponent,
)
from repro.analysis.bounds import (
    f_lower,
    f_upper,
    theorem_15_error,
    theorem_33_error,
    theorem_35_lower_bound,
    theorem_44_error,
    theorem_45_lower_bound,
)
from repro.analysis.reporting import ExperimentTable, quantity_table
from repro.mechanisms.truncated_laplace import default_lambda
from repro.relational.hypergraph import (
    chain_query,
    path3_query,
    single_table_query,
    star_query,
    triangle_query,
    two_table_query,
)


class TestNotationHelpers:
    def test_lam(self):
        assert default_lambda(1.0, math.exp(-5)) == pytest.approx(5.0)
        assert default_lambda(0.5, math.exp(-5)) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            default_lambda(0.0, 1e-5)
        with pytest.raises(ValueError):
            default_lambda(1.0, 0.0)

    def test_f_lower_and_upper(self):
        fl = f_lower(1024, 1.0)
        assert fl == pytest.approx(math.sqrt(math.sqrt(math.log(1024))))
        fu = f_upper(1024, 100, 1.0, 1e-4)
        assert fu == pytest.approx(fl * math.sqrt(math.log(100) * math.log(1e4)))
        # Tiny domains and workloads are clamped rather than giving log(1) = 0.
        assert f_upper(1, 1, 1.0, 1e-4) > 0

    def test_f_lower_validation(self):
        with pytest.raises(ValueError):
            f_lower(10, 0.0)


class TestErrorExpressions:
    def test_theorem_33_monotone_in_out_and_delta(self):
        base = theorem_33_error(100, 4, 1000, 50, 1.0, 1e-5)
        assert theorem_33_error(400, 4, 1000, 50, 1.0, 1e-5) > base
        assert theorem_33_error(100, 16, 1000, 50, 1.0, 1e-5) > base

    def test_theorem_15_reduces_towards_33_shape(self):
        # With RS = Δ + λ the two expressions coincide up to the λ tail term.
        value_15 = theorem_15_error(100, 4 + default_lambda(1.0, 1e-5), 1000, 50, 1.0, 1e-5)
        value_33 = theorem_33_error(100, 4, 1000, 50, 1.0, 1e-5)
        assert value_15 == pytest.approx(value_33, rel=1e-9)

    def test_theorem_35_lower_bound_min_behaviour(self):
        # Tiny OUT: the bound is OUT itself.
        assert theorem_35_lower_bound(4, 100, 1000, 1.0) == pytest.approx(4)
        # Large OUT: the √(OUT·Δ) branch kicks in.
        large = theorem_35_lower_bound(10_000, 4, 1000, 1.0)
        assert large == pytest.approx(
            math.sqrt(10_000 * 4) * f_lower(1000, 1.0)
        )

    def test_theorem_44_cauchy_schwarz_relation(self):
        """The bucketed bound never exceeds the Cauchy–Schwarz-aggregated
        Theorem 3.3 shape (the paper's inequality after Equation 2)."""
        epsilon, delta = 1.0, 1e-4
        lam_value = default_lambda(epsilon, delta)
        buckets = [50.0, 200.0, 800.0]
        delta_ls = lam_value * 2 ** len(buckets)
        bucketed = theorem_44_error(buckets, delta_ls, 1000, 50, epsilon, delta)
        total_out = sum(buckets)
        aggregated = theorem_33_error(total_out, delta_ls, 1000, 50, epsilon, delta)
        assert bucketed <= aggregated * (1 + lam_value)  # generous constant slack

    def test_theorem_45_takes_max_over_buckets(self):
        single = theorem_45_lower_bound([100.0], 1000, 1.0, 1e-4)
        double = theorem_45_lower_bound([100.0, 100.0], 1000, 1.0, 1e-4)
        assert double >= single

    def test_zero_buckets_give_zero(self):
        assert theorem_45_lower_bound([0.0, 0.0], 1000, 1.0, 1e-4) == 0.0


class TestAGM:
    def test_two_table_cover_number(self):
        assert fractional_edge_cover_number(two_table_query(3, 3, 3)) == pytest.approx(2.0)

    def test_triangle_cover_number(self):
        assert fractional_edge_cover_number(triangle_query(3)) == pytest.approx(1.5)

    def test_chain_cover_number(self):
        assert fractional_edge_cover_number(chain_query([3, 3, 3, 3])) == pytest.approx(2.0)

    def test_star_cover_number(self):
        assert fractional_edge_cover_number(star_query(3, [3, 3, 3])) == pytest.approx(3.0)

    def test_single_table(self):
        assert fractional_edge_cover_number(single_table_query({"X": 3})) == pytest.approx(1.0)

    def test_agm_bound_values(self):
        assert agm_bound(two_table_query(3, 3, 3), 10) == pytest.approx(100.0)
        assert agm_bound(triangle_query(3), 100) == pytest.approx(1000.0)
        assert agm_bound(two_table_query(3, 3, 3), 0) == 0.0

    def test_residual_exponent_two_table(self):
        query = two_table_query(3, 3, 3)
        # Residual query of E = {R2} after removing the boundary {B} covers
        # only attribute C: exponent 1.
        assert residual_query_agm_exponent(query, frozenset({1})) == pytest.approx(1.0)
        assert residual_query_agm_exponent(query, frozenset()) == 0.0

    def test_worst_case_sensitivity_exponents(self):
        assert worst_case_sensitivity_exponent(two_table_query(3, 3, 3)) == pytest.approx(1.0)
        assert worst_case_sensitivity_exponent(path3_query(3, 3, 3, 3)) == pytest.approx(2.0)

    def test_worst_case_error_shape(self):
        # Two-table: sqrt(n² · n) = n^1.5.
        assert worst_case_error_bound(two_table_query(3, 3, 3), 10) == pytest.approx(
            10**1.5
        )
        assert worst_case_error_bound(two_table_query(3, 3, 3), 0) == 0.0


class TestReporting:
    def test_rows_keep_raw_values_and_print_formatted(self):
        table = ExperimentTable("demo", {"a": "first", "b": "second"})
        table.add_row(a=1, b=2.5)
        table.add_row(b="x", a=3)
        assert table.rows == [{"a": 1, "b": 2.5}, {"a": 3, "b": "x"}]
        text = table.to_text()
        assert text.splitlines()[:2] == ["demo", "first  second"]
        assert "2.500" in text
        # Cells follow the column order, whatever the keyword order.
        assert text.splitlines()[-1].split() == ["3", "x"]
        markdown = table.to_markdown()
        assert "| first | second |" in markdown
        assert "| 1 | 2.500 |" in markdown

    @pytest.mark.parametrize(
        "row", [{"a": 1}, {"a": 1, "b": 2, "c": 3}], ids=["missing", "extra"]
    )
    def test_row_keys_must_be_the_columns(self, row):
        table = ExperimentTable("demo", {"a": "a", "b": "b"})
        with pytest.raises(ValueError, match="missing|extra"):
            table.add_row(**row)
        assert table.rows == []

    def test_value_formatting(self):
        table = ExperimentTable("demo", {"value": "value"})
        table.add_row(value=1234567.0)
        table.add_row(value=0.000123)
        table.add_row(value=0)
        text = table.to_text()
        assert "1.23e+06" in text
        assert "0.000123" in text

    def test_quantity_table_prints_one_labelled_row_per_value(self):
        table = quantity_table(
            "demo", {"size": "input size n", "error": "ℓ∞ error"}, {"error": 0.5, "size": 7}
        )
        assert table.rows == [
            {"quantity": "input size n", "value": 7},
            {"quantity": "ℓ∞ error", "value": 0.5},
        ]
        with pytest.raises(ValueError):
            quantity_table("demo", {"size": "input size n"}, {"size": 7, "error": 0.5})
