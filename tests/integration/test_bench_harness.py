"""Smoke tests of the benchmark harness (runs, sweeps, CLI plumbing)."""

import pytest

import repro
from repro.bench import ALL_EXPERIMENTS
from repro.scales import SCALES, TINY_SCALE, sweep_values
from repro.scenario import build_workload
from repro.bench.report import format_ratio, print_header, print_table


#: An even smaller scale than "small" so harness tests run in a few seconds.
TEST_SCALE = TINY_SCALE


def test_all_figures_are_registered():
    expected = {f"fig{i:02d}" for i in range(4, 16)} | {"appendix", "openloop", "storm"}
    assert set(ALL_EXPERIMENTS) == expected
    # SCALES is a live view of the scale registry; the built-in presets
    # (including the test-oriented "tiny") are always present.
    assert {"tiny", "small", "medium", "paper"} <= set(SCALES)


def test_figures_registry_mirrors_all_experiments():
    from repro.bench import FIGURES

    assert set(FIGURES) == set(ALL_EXPERIMENTS)
    for name, spec in FIGURES.items():
        assert spec.name == name
        assert callable(spec.plan) and callable(spec.render)


def test_every_figure_plan_declares_valid_cells():
    from repro.bench import FIGURES

    for name, spec in FIGURES.items():
        cells = spec.plan(TEST_SCALE)
        assert isinstance(cells, list)
        keys = [cell.key for cell in cells]
        assert len(keys) == len(set(keys)), f"{name} has duplicate cell keys"
        for cell in cells:
            assert cell.figure == name
            assert cell.cache_key()  # hashable, stable spec


def test_figure_functions_render_from_preexecuted_results():
    from repro.bench import FIGURES
    from repro.bench.orchestrator import run_cells

    cells = FIGURES["fig09"].plan(TEST_SCALE)
    outcome = run_cells(cells, jobs=1)
    data = ALL_EXPERIMENTS["fig09"](TEST_SCALE, results=outcome.by_key(cells))
    inline = ALL_EXPERIMENTS["fig09"](TEST_SCALE)
    assert data == inline  # rendering is a pure function of the results


def test_run_returns_a_result():
    result = repro.run(repro.ScenarioSpec(protocol="primo", scale=TEST_SCALE))
    assert result.protocol == "primo"
    assert result.committed > 0


def test_run_applies_workload_and_config_overrides():
    result = repro.run(repro.ScenarioSpec(
        protocol="sundial", scale=TEST_SCALE,
        workload_overrides={"zipf_theta": 0.0},
        config_overrides={"n_partitions": 2},
    ))
    assert result.n_partitions == 2


def test_build_workload_supports_all_four_workloads():
    assert build_workload(TEST_SCALE, "ycsb").name == "ycsb"
    assert build_workload(TEST_SCALE, "tpcc").name == "tpcc"
    assert build_workload(TEST_SCALE, "tatp").name == "tatp"
    assert build_workload(TEST_SCALE, "smallbank").name == "smallbank"
    with pytest.raises(ValueError):
        build_workload(TEST_SCALE, "tpch")


def test_sweep_values_keeps_endpoints():
    values = [1, 2, 4, 8, 12, 16, 20]
    thinned = sweep_values(values, TEST_SCALE)
    assert thinned[0] == 1 and thinned[-1] == 20
    assert len(thinned) == TEST_SCALE.sweep_points
    assert sweep_values([1, 2], TEST_SCALE) == [1, 2]


def test_report_helpers_do_not_crash(capsys):
    print_header("Demo", "paper note")
    print_table(["a", "b"], [[1, 2.5], ["x", 10_000.0]])
    assert format_ratio(1.914) == "1.91x"
    captured = capsys.readouterr()
    assert "Demo" in captured.out and "paper note" in captured.out


def test_appendix_experiment_matches_paper_conclusion():
    rows = ALL_EXPERIMENTS["appendix"](TEST_SCALE)["rows"]
    by_ratio = {row["read_ratio"]: row for row in rows}
    assert by_ratio[0.4]["primo_wins"] is True
    assert by_ratio[1.0]["primo_wins"] is False


def test_blind_write_experiment_runs_at_test_scale(capsys):
    data = ALL_EXPERIMENTS["fig09"](TEST_SCALE)
    assert len(data["primo"]) == len(data["ratios"]) == TEST_SCALE.sweep_points
    assert all(v >= 0 for v in data["primo"])


def test_logging_scheme_experiment_covers_all_schemes(capsys):
    data = ALL_EXPERIMENTS["fig11"](TEST_SCALE, protocols=("primo",))
    assert set(data["throughput_ktps"]["primo"]) == {"clv", "coco", "wm"}


def test_cli_entry_point_runs_a_single_figure(capsys):
    from repro.bench.__main__ import main

    assert main(["--figure", "appendix", "--scale", "small"]) == 0
    out = capsys.readouterr().out
    assert "Appendix A" in out
