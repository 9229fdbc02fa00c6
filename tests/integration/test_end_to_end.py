"""Integration tests: end-to-end releases on realistic multi-table data."""

import numpy as np
import pytest

from repro.analysis.bounds import theorem_15_error, theorem_33_error
from repro.core.pmw import PMWConfig
from repro.core.release import release_synthetic_data
from repro.datagen.synthetic import zipf_two_table
from repro.datagen.tpch import generate_tpch
from repro.queries.workload import Workload
from repro.relational.join import join_size
from repro.sensitivity.local import local_sensitivity
from repro.sensitivity.residual import residual_sensitivity


class TestTwoTableEndToEnd:
    def test_error_within_theoretical_budget(self):
        """The measured error stays within a constant factor of Theorem 3.3."""
        instance = zipf_two_table(10, 200, seed=0, size_a=12, size_c=12)
        workload = Workload.random_sign(instance.query, 30, seed=1)
        epsilon, delta = 1.0, 1e-5

        result = release_synthetic_data(
            instance,
            workload,
            epsilon,
            delta,
            seed=2,
            pmw_config=PMWConfig(max_iterations=20),
        )
        measured = result.max_error(instance, workload)
        predicted = theorem_33_error(
            join_size(instance),
            local_sensitivity(instance),
            instance.query.joint_domain_size,
            len(workload),
            epsilon,
            delta,
        )
        # Shape check: within a small constant of the theoretical upper bound.
        assert measured <= 4.0 * predicted

    def test_tpch_customer_orders_marginals(self):
        data = generate_tpch(1.0, seed=3)
        instance = data.customer_orders
        workload = Workload.attribute_marginals(instance.query, "segment")
        result = release_synthetic_data(
            instance,
            workload,
            epsilon=1.0,
            delta=1e-5,
            seed=4,
            pmw_config=PMWConfig(max_iterations=20),
        )
        report = result.error_report(instance, workload)
        assert report.num_queries == len(workload)
        assert np.isfinite(report.max_abs_error)
        # The marginal answers of the released data are internally consistent:
        # they sum to (roughly) the released total.
        marginal_sum = sum(
            result.synthetic.answer(query) for query in workload.queries[1:]
        )
        assert marginal_sum == pytest.approx(result.synthetic.total_mass(), rel=1e-6)


class TestMultiTableEndToEnd:
    def test_three_table_chain_within_budget(self):
        data = generate_tpch(0.5, seed=5)
        instance = data.nation_customer_orders
        workload = Workload.random_sign(instance.query, 20, seed=6)
        epsilon, delta = 1.0, 1e-4
        result = release_synthetic_data(
            instance,
            workload,
            epsilon,
            delta,
            seed=7,
            pmw_config=PMWConfig(max_iterations=16),
        )
        measured = result.max_error(instance, workload)
        from repro.core.multi_table import default_beta

        predicted = theorem_15_error(
            join_size(instance),
            residual_sensitivity(instance, default_beta(epsilon, delta)),
            instance.query.joint_domain_size,
            len(workload),
            epsilon,
            delta,
        )
        # The Theorem 1.5 constant is loose in this implementation (the noisy
        # multiplicative factor on RS is significant); 20× still pins the shape.
        assert measured <= 20.0 * predicted

    def test_better_budget_gives_better_error_on_average(self):
        """More privacy budget → lower error (averaged over seeds)."""
        instance = zipf_two_table(8, 150, seed=8, size_a=10, size_c=10)
        workload = Workload.attribute_marginals(instance.query, "B")

        def median_error(epsilon: float) -> float:
            errors = []
            for seed in range(5):
                result = release_synthetic_data(
                    instance,
                    workload,
                    epsilon,
                    1e-5,
                    seed=seed,
                    pmw_config=PMWConfig(max_iterations=16),
                )
                errors.append(result.max_error(instance, workload))
            return float(np.median(errors))

        assert median_error(8.0) < median_error(0.25)
