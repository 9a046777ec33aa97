"""Tests for the experiment harnesses (workloads, trials, Table 1, sweeps, ablations).

Most use deliberately tiny configurations to exercise the harness logic.
The series, scheme-comparison and ablation tests also assert the shape the
paper claims (who wins, what stays flat) on somewhat larger cells.
"""

from __future__ import annotations

import pytest

from repro.core.parameters import algorithm_a, crs_oblivious_scheme
from repro.experiments.ablations import (
    chunk_size_ablation,
    flag_passing_ablation,
    hash_length_ablation,
    rewind_ablation,
    single_error_cost,
)
from repro.experiments.factories import NoiseOrNoiselessFactory
from repro.experiments.harness import format_table, run_trials
from repro.experiments.noise_sweep import crossover_multiplier, noise_sweep
from repro.experiments.table1 import (
    ANALYTICAL_ROWS,
    TABLE1_COLUMNS,
    Table1Cell,
    build_table1,
    default_cells,
    measure_cell,
)
from repro.experiments.theorem_validation import rate_vs_network_size, rate_vs_protocol_size, scheme_comparison
from repro.experiments.workloads import (
    WORKLOAD_BUILDERS,
    gossip_workload,
    pairwise_workload,
    random_workload,
)


class TestWorkloads:
    @pytest.mark.parametrize("builder", sorted(WORKLOAD_BUILDERS))
    def test_every_builder_produces_a_runnable_workload(self, builder):
        workload = WORKLOAD_BUILDERS[builder]()
        assert workload.communication > 0
        execution = workload.protocol.run_noiseless()
        assert set(execution.outputs) == set(workload.graph.nodes)

    def test_workload_names_encode_parameters(self):
        assert "line" in gossip_workload(topology="line", num_nodes=4).name
        assert "n6" in random_workload(num_nodes=6).name

    def test_workloads_are_deterministic_under_seed(self):
        a = random_workload(seed=3).protocol.run_noiseless().outputs
        b = random_workload(seed=3).protocol.run_noiseless().outputs
        assert a == b


class TestHarness:
    def test_run_trials_counts(self):
        workload = pairwise_workload()
        trial_set = run_trials(workload, crs_oblivious_scheme(), trials=2, base_seed=1)
        assert trial_set.aggregate.trials == 2
        assert trial_set.aggregate.success_rate == 1.0
        assert len(trial_set.runs) == 2

    def test_run_trials_validation(self):
        with pytest.raises(ValueError):
            run_trials(pairwise_workload(), crs_oblivious_scheme(), trials=0)

    def test_run_trials_with_noise_factory(self):
        workload = gossip_workload(num_nodes=4, phases=4)
        trial_set = run_trials(
            workload,
            crs_oblivious_scheme(),
            adversary_factory=NoiseOrNoiselessFactory(fraction=0.002),
            trials=2,
        )
        assert 0.0 <= trial_set.aggregate.success_rate <= 1.0

    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123456}]
        text = format_table(rows, ["a", "b"])
        assert "a" in text.splitlines()[0]
        assert len(text.splitlines()) == 4


class TestTable1:
    def test_analytical_rows_match_paper(self):
        schemes = [row["scheme"] for row in ANALYTICAL_ROWS]
        assert schemes == ["RS94", "ABGEH16", "HS16", "HS16 (routed)", "JKL15"]

    def test_default_cells_cover_schemes_and_baselines(self):
        labels = [cell.scheme_label for cell in default_cells()]
        assert "Algorithm A" in labels and "uncoded" in labels and "repetition(3)" in labels

    def test_measure_cell_for_baseline(self):
        workload = gossip_workload(topology="line", num_nodes=4, phases=4)
        row = measure_cell(default_cells()[3], workload, "line", trials=1)
        assert row["kind"] == "measured"
        assert row["scheme"] == "uncoded"
        assert 0.0 <= row["success_rate"] <= 1.0

    @pytest.mark.parametrize("copies", [1, 3, 5])
    def test_baseline_cell_runs_its_number_of_copies(self, copies):
        """A baseline row's overhead is its copy count, whatever its label."""
        oblivious = default_cells()[3]
        cell = Table1Cell(
            f"repetition({copies})", None, oblivious.noise_type, oblivious.nominal_noise,
            oblivious.adversary_factory, copies=copies,
        )
        workload = gossip_workload(topology="line", num_nodes=4, phases=4)
        row = measure_cell(cell, workload, "line", trials=2)
        assert row["mean_overhead"] == float(copies)

    def test_default_baseline_cells_declare_their_copies(self):
        copies = {cell.scheme_label: cell.copies for cell in default_cells() if cell.scheme is None}
        assert copies == {"uncoded": 1, "repetition(3)": 3}

    def test_build_table1_small(self):
        rows = build_table1(topologies=("line",), num_nodes=4, phases=4, trials=1, include_analytical=True)
        kinds = {row["kind"] for row in rows}
        assert kinds == {"analytical", "measured"}
        assert all(set(TABLE1_COLUMNS) >= set(row) or True for row in rows)
        measured = [row for row in rows if row["kind"] == "measured"]
        assert len(measured) == len(default_cells())


class TestSweepsAndSeries:
    def test_noise_sweep_shape(self):
        workload = gossip_workload(topology="line", num_nodes=4, phases=4)
        points = noise_sweep(workload, crs_oblivious_scheme(), multipliers=(0.5, 32.0), trials=1)
        assert len(points) == 2
        assert points[0].multiplier == 0.5
        assert points[0].success_rate >= points[-1].success_rate

    def test_crossover_multiplier(self):
        workload = gossip_workload(topology="line", num_nodes=4, phases=4)
        points = noise_sweep(workload, crs_oblivious_scheme(), multipliers=(0.5, 64.0), trials=1)
        crossover = crossover_multiplier(points)
        assert crossover is None or crossover in (0.5, 64.0)

    def test_rate_vs_protocol_size_is_flat(self):
        points = rate_vs_protocol_size(crs_oblivious_scheme(), phases_grid=(6, 18), num_nodes=4, trials=1)
        assert len(points) == 2
        assert points[1].x > points[0].x
        # constant-rate claim: the overhead must not grow with CC(Pi)
        assert points[1].overhead <= points[0].overhead * 1.5

    def test_overhead_flat_in_protocol_size(self):
        # Theorem 1.1: sextupling CC(Pi) on a clique does not raise the overhead.
        points = rate_vs_protocol_size(
            crs_oblivious_scheme(), phases_grid=(8, 24, 48), topology="clique", num_nodes=5, trials=1
        )
        assert all(point.success_rate == 1.0 for point in points)
        assert points[-1].overhead <= points[0].overhead * 1.25, "overhead must not grow with CC(Pi)"

    def test_overhead_flat_in_protocol_size_with_noise(self):
        # Theorem 1.1's flat overhead also holds under Algorithm A's nominal noise.
        points = rate_vs_protocol_size(
            algorithm_a(), phases_grid=(8, 32), topology="line", num_nodes=5, trials=1, noisy=True
        )
        assert points[-1].overhead <= points[0].overhead * 1.5

    def test_rate_vs_network_size(self):
        points = rate_vs_network_size(crs_oblivious_scheme(), node_grid=(4, 5), phases=6, trials=1)
        assert [point.extra["num_nodes"] for point in points] == [4, 5]

    def test_rate_constant_across_network_sizes(self):
        # Theorem 1.1: the overhead stays within a constant band as m grows.
        points = rate_vs_network_size(
            crs_oblivious_scheme(), node_grid=(4, 6, 8), topology="line", phases=12, trials=1
        )
        overheads = [point.overhead for point in points]
        assert max(overheads) / min(overheads) < 3.0, "the rate must stay Theta(1) as m grows"

    def test_scheme_comparison_rows(self):
        rows = scheme_comparison(num_nodes=4, phases=5, trials=1)
        names = [row["scheme"] for row in rows]
        assert names == ["algorithm_a", "algorithm_b", "algorithm_c", "uncoded"]

    def test_scheme_comparison_under_their_nominal_noise(self):
        # Every scheme succeeds under its own nominal noise; uncoded does not.
        rows = scheme_comparison(topology="line", num_nodes=5, phases=10, trials=2)
        by_scheme = {row["scheme"]: row for row in rows}
        assert by_scheme["algorithm_a"]["success_rate"] == 1.0
        assert by_scheme["algorithm_b"]["success_rate"] == 1.0
        assert by_scheme["algorithm_c"]["success_rate"] == 1.0
        assert by_scheme["uncoded"]["success_rate"] < 1.0
        # nominal tolerances are ordered as in Table 1 (on very small networks
        # log m and log log m coincide, so the last comparison is non-strict)
        assert (
            by_scheme["algorithm_a"]["nominal_fraction"]
            > by_scheme["algorithm_c"]["nominal_fraction"]
            >= by_scheme["algorithm_b"]["nominal_fraction"]
        )


class TestAblations:
    def test_flag_passing_ablation_rows(self):
        rows = flag_passing_ablation(num_nodes=5, blocks=2, errors=1, trials=1)
        assert [row.label for row in rows] == ["flag_passing=on", "flag_passing=off"]
        assert all(0.0 <= row.success_rate <= 1.0 for row in rows)

    def test_flag_passing_reduces_recovery_cost(self):
        # §1.2: without flag passing, early errors on a line cost more to correct.
        with_flags, without_flags = flag_passing_ablation(num_nodes=6, blocks=3, errors=2, trials=2)
        assert with_flags.success_rate >= without_flags.success_rate
        assert with_flags.mean_iterations <= without_flags.mean_iterations
        assert with_flags.mean_overhead <= without_flags.mean_overhead * 1.05

    def test_rewind_ablation_shows_the_mechanism_matters(self):
        rows = rewind_ablation(num_nodes=6, blocks=3, errors=2, trials=1)
        on, off = rows
        assert on.success_rate >= off.success_rate
        assert on.mean_iterations <= off.mean_iterations

    def test_rewind_phase_is_needed(self):
        # §3.1(iv): without the rewind phase the run fails or needs more iterations.
        on, off = rewind_ablation(num_nodes=6, blocks=3, errors=2, trials=2)
        assert on.success_rate == 1.0
        assert on.success_rate > off.success_rate or on.mean_iterations < off.mean_iterations

    def test_hash_length_ablation_rows(self):
        rows = hash_length_ablation(hash_bits_grid=(2, 8), num_nodes=4, phases=5, trials=1)
        assert [row.extra["hash_bits"] for row in rows] == [2.0, 8.0]

    def test_hash_length_tradeoff(self):
        # Longer hashes never hurt correctness, and 8+ bits are reliably enough here.
        rows = hash_length_ablation(hash_bits_grid=(2, 8, 16), num_nodes=5, phases=10, trials=2)
        by_bits = {int(row.extra["hash_bits"]): row for row in rows}
        assert by_bits[8].success_rate == 1.0
        assert by_bits[16].success_rate == 1.0
        assert by_bits[16].success_rate >= by_bits[2].success_rate

    def test_chunk_size_ablation_rate_improves_with_chunk_size(self):
        rows = chunk_size_ablation(multiplier_grid=(2, 10), num_nodes=4, phases=8, trials=1)
        assert rows[0].mean_overhead > rows[1].mean_overhead

    def test_chunk_size_rate_tradeoff(self):
        rows = chunk_size_ablation(multiplier_grid=(2, 5, 20), num_nodes=5, phases=16, trials=1)
        overheads = [row.mean_overhead for row in rows]
        assert overheads[0] > overheads[1] > overheads[2], "bigger chunks must amortise control traffic"
        assert all(row.success_rate == 1.0 for row in rows)

    def test_single_error_cost_keys(self):
        outcome = single_error_cost(num_nodes=5, blocks=2)
        for key in ("clean_overhead", "noisy_overhead", "extra_overhead", "noisy_success"):
            assert key in outcome
        assert outcome["noisy_success"] == 1.0

    def test_single_error_cost_with_and_without_flag_passing(self):
        # With flag passing, one error costs no more than without it.
        with_flags = single_error_cost(enable_flag_passing=True)
        without_flags = single_error_cost(enable_flag_passing=False)
        assert with_flags["noisy_success"] == 1.0
        assert with_flags["extra_overhead"] <= without_flags["extra_overhead"]
