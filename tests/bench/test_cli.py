"""Tests of the ``python -m repro.bench`` orchestrating CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench.__main__ import main
from repro.scales import TINY_SCALE

TEST_SCALE = TINY_SCALE

#: The CLI name of the test scale — "tiny" is registered first-class now.
TINY = "tiny"


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_cli_runs_a_single_figure_and_emits_json(tmp_path, capsys):
    artifact = tmp_path / "figures.json"
    code = run_cli(
        "--only", "fig09", "--scale", TINY,
        "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
        "--emit-json", str(artifact),
        "--quiet-progress",
    )
    assert code == 0
    assert "Figure 9" in capsys.readouterr().out

    data = json.loads(artifact.read_text())
    assert data["meta"]["figures"] == ["fig09"]
    assert data["meta"]["jobs"] == 2
    assert data["meta"]["cells_executed"] == data["meta"]["cells_total"] > 0
    assert data["meta"]["cells_cached"] == 0
    fig09 = data["figures"]["fig09"]
    assert len(fig09["primo"]) == len(fig09["ratios"]) == TEST_SCALE.sweep_points


def test_cli_second_invocation_resumes_from_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    args = ("--only", "fig09", "--scale", TINY, "--cache-dir", cache_dir,
            "--quiet-progress")
    assert run_cli(*args, "--emit-json", str(first)) == 0
    assert run_cli(*args, "--emit-json", str(second)) == 0

    cold = json.loads(first.read_text())
    warm = json.loads(second.read_text())
    assert cold["meta"]["cells_executed"] > 0
    assert warm["meta"]["cells_executed"] == 0
    assert warm["meta"]["cells_cached"] == warm["meta"]["cells_total"]
    # Cached results render to exactly the same figure data.
    assert warm["figures"] == cold["figures"]


def test_cli_no_cache_skips_the_cache_entirely(tmp_path):
    cache_dir = tmp_path / "cache"
    artifact = tmp_path / "figures.json"
    code = run_cli(
        "--only", "fig09", "--scale", TINY,
        "--cache-dir", str(cache_dir), "--no-cache",
        "--emit-json", str(artifact), "--quiet-progress",
    )
    assert code == 0
    assert not cache_dir.exists()
    assert json.loads(artifact.read_text())["meta"]["cells_cached"] == 0


def test_cli_only_is_an_alias_for_figure(tmp_path, capsys):
    code = run_cli("--figure", "appendix", "--scale", TINY,
                   "--cache-dir", str(tmp_path / "cache"), "--quiet-progress")
    assert code == 0
    assert "Appendix A" in capsys.readouterr().out


def test_cli_rejects_bad_jobs_and_unknown_figures(tmp_path):
    with pytest.raises(SystemExit):
        run_cli("--jobs", "0", "--scale", TINY)
    with pytest.raises(SystemExit):
        run_cli("--only", "fig99", "--scale", TINY)


def test_cli_lists_arrival_processes(capsys):
    assert run_cli("--list", "arrivals") == 0
    out = capsys.readouterr().out
    for name in ("closed", "poisson", "deterministic", "bursty"):
        assert name in out
    assert "burst_factor" in out  # parameters are listed next to the kind


def test_cli_runs_the_openloop_figure(tmp_path, capsys):
    artifact = tmp_path / "figures.json"
    code = run_cli(
        "--figure", "openloop", "--scale", TINY,
        "--cache-dir", str(tmp_path / "cache"),
        "--emit-json", str(artifact),
        "--quiet-progress",
    )
    assert code == 0
    assert "Open loop" in capsys.readouterr().out
    data = json.loads(artifact.read_text())["figures"]["openloop"]
    assert len(data["protocols"]) >= 3
    for series in data["protocols"].values():
        assert len(series["achieved_ktps"]) == len(data["offered_tps"])
        for key in ("p50_ms", "p99_ms", "p999_ms", "dropped"):
            assert key in series


def test_cli_lists_engine_backends(capsys):
    from repro.sim import engine

    assert run_cli("--list", "engines") == 0
    out = capsys.readouterr().out
    for name in engine.BACKENDS:
        assert name in out
    assert "[selected]" in out


def test_cli_engine_matching_loaded_backend_is_a_noop(tmp_path, capsys):
    from repro.sim import engine

    code = run_cli(
        "--engine", engine.ENGINE_BACKEND,
        "--only", "fig09", "--scale", TINY,
        "--cache-dir", str(tmp_path / "cache"),
        "--quiet-progress",
    )
    assert code == 0
    assert "Figure 9" in capsys.readouterr().out


def test_cli_emits_engine_backend_in_meta(tmp_path):
    from repro.sim import engine

    artifact = tmp_path / "figures.json"
    assert run_cli(
        "--only", "fig09", "--scale", TINY,
        "--cache-dir", str(tmp_path / "cache"),
        "--emit-json", str(artifact),
        "--quiet-progress",
    ) == 0
    data = json.loads(artifact.read_text())
    assert data["meta"]["engine_backend"] == engine.ENGINE_BACKEND


def test_cli_engine_mismatch_errors_for_programmatic_calls(tmp_path):
    """main(argv) cannot re-exec; a backend mismatch must error cleanly."""
    from repro.sim import engine

    other = "py" if engine.ENGINE_BACKEND == "c" else "c"
    if other == "c" and engine.load_ckernel() is None:
        pytest.skip("compiled kernel unavailable; mismatch path needs both")
    with pytest.raises(SystemExit):
        run_cli("--engine", other, "--list", "figures")
