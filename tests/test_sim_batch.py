"""Tests for the batch simulation engine (``repro.sim.batch``).

The engine's entire contract is *bit-exactness*: for every configuration
inside its envelope, ``SystemConfig(engine="batch")`` must produce a
:class:`~repro.sim.results.SimResult` field-identical to the interpreter's,
while configurations outside the envelope must fall back to the interpreter
(``System.engine_used == "interp"``) rather than approximate. These tests
pin both halves, plus the engine-selection plumbing (config field,
``REPRO_ENGINE``) and the bench/sweep integration.
"""

import dataclasses

import pytest

from repro.dramcache.no_cache import NoCacheDesign
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.spec import build_workload

#: Every design the batch engine has a kernel for.
BATCH_DESIGNS = (
    "no-cache",
    "perfect-l3",
    "sram-tag",
    "sram-tag-1way",
    "lh-cache",
    "lh-cache-rand",
    "lh-cache-1way",
    "ideal-lo",
    "ideal-lo-notag",
    "alloy-nopred",
    "alloy-missmap",
    "alloy-sam",
    "alloy-pam",
    "alloy-map-g",
    "alloy-map-i",
    "alloy-perfect",
    "alloy-burst8",
    "alloy-2way",
    "alloy-4way",
    "alloy-victim16",
    "alloy-victim64",
)



class _CustomNoCache(NoCacheDesign):
    """A subclassed design: kernels match exact types, so it has none."""


def _custom_builder(config, stacked, memory, schedule):
    return _CustomNoCache(config, stacked, memory, schedule)


#: Configurations the engine must decline: every factory design has a
#: kernel, so only custom builders (besides verify runs and non-LRU
#: multi-way Alloy) fall back.
FALLBACKS = {
    "custom-builder": _custom_builder,
}


def _config(**overrides):
    base = dict(num_cores=2, capacity_scale=4096)
    base.update(overrides)
    return SystemConfig(**base)


def _workload(config, benchmark="mcf_r", reads=250, seed=7):
    return build_workload(
        benchmark,
        num_cores=config.num_cores,
        reads_per_core=reads,
        capacity_scale=config.capacity_scale,
        seed=seed,
    )


def _pair(design, config, benchmark="mcf_r", reads=250):
    """Run one cell through both engines; return (interp, batch) systems
    and their results."""
    workload = _workload(config, benchmark=benchmark, reads=reads)
    interp = System(
        dataclasses.replace(config, engine="interp"), design, workload
    )
    batch = System(
        dataclasses.replace(config, engine="batch"), design, workload
    )
    return interp, interp.run(), batch, batch.run()


def assert_identical(got, want):
    g = dataclasses.asdict(got)
    w = dataclasses.asdict(want)
    diff = {k: (g[k], w[k]) for k in g if g[k] != w[k]}
    assert not diff, f"batch diverged from interpreter: {diff}"


class TestBitExactness:
    @pytest.mark.parametrize("design", BATCH_DESIGNS)
    def test_every_kernel_matches_interpreter(self, design):
        interp, want, batch, got = _pair(design, _config())
        assert interp.engine_used == "interp"
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    @pytest.mark.parametrize("design", ["lh-cache", "sram-tag", "alloy-map-i"])
    def test_matches_without_percentile_tracking(self, design):
        _, want, batch, got = _pair(
            design, _config(track_percentiles=False)
        )
        assert batch.engine_used == "batch"
        assert_identical(got, want)
        assert got.hit_latency_p95 is None or got.hit_latency_p95 == 0.0

    @pytest.mark.parametrize(
        "design", ["lh-cache", "sram-tag", "no-cache", "perfect-l3"]
    )
    def test_matches_under_closed_page_policies(self, design):
        _, want, batch, got = _pair(
            design,
            _config(
                stacked_page_policy="closed", offchip_page_policy="closed"
            ),
        )
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    def test_matches_on_write_heavy_benchmark(self):
        _, want, batch, got = _pair(
            "lh-cache", _config(), benchmark="milc_r"
        )
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    @pytest.mark.parametrize(
        "design",
        ["alloy-map-i", "lh-cache", "alloy-victim16", "alloy-2way", "perfect-l3"],
    )
    @pytest.mark.parametrize("mshrs", [2, 4])
    def test_matches_with_mlp_cores(self, design, mshrs):
        _, want, batch, got = _pair(design, _config(mshrs_per_core=mshrs))
        assert batch.engine_used == "batch"
        assert_identical(got, want)

    def test_victim_buffer_matches_on_write_heavy_benchmark(self):
        _, want, batch, got = _pair(
            "alloy-victim64", _config(), benchmark="milc_r"
        )
        assert batch.engine_used == "batch"
        assert_identical(got, want)


class TestFallback:
    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_unkerneled_designs_fall_back(self, case):
        design = FALLBACKS[case]
        config = _config()
        workload = _workload(config)
        want = System(
            dataclasses.replace(config, engine="interp"), design, workload
        ).run()
        system = System(
            dataclasses.replace(config, engine="batch"), design, workload
        )
        got = system.run()
        assert system.engine_used == "interp"
        assert_identical(got, want)

    def test_non_lru_multiway_alloy_falls_back(self):
        # The multi-way kernels inline LRU transitions specifically; a
        # replaced policy must make the engine decline, not approximate.
        from repro.cache.replacement import RandomPolicy
        from repro.sim import batch

        config = _config(engine="batch")
        system = System(config, "alloy-2way", _workload(config))
        system.design.cache._store.policy = RandomPolicy()
        assert batch.run(system) is None

    def test_verify_runs_fall_back(self):
        config = _config(engine="batch", verify=True)
        system = System(config, "alloy-map-i", _workload(config))
        system.run()
        assert system.engine_used == "interp"

    def test_fallback_is_still_bit_exact(self):
        config = _config()
        workload = _workload(config)
        want = System(
            dataclasses.replace(config, engine="interp"), "alloy-2way", workload
        ).run()
        got = System(
            dataclasses.replace(config, engine="batch"), "alloy-2way", workload
        ).run()
        assert_identical(got, want)


class TestEngineSelection:
    def test_invalid_explicit_engine_raises(self):
        config = _config(engine="vectorized")
        with pytest.raises(ValueError, match="unknown engine"):
            System(config, "no-cache", _workload(config)).run()

    def test_env_selects_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        config = _config()
        system = System(config, "no-cache", _workload(config))
        system.run()
        assert system.engine_used == "batch"

    def test_explicit_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        config = _config(engine="interp")
        system = System(config, "no-cache", _workload(config))
        system.run()
        assert system.engine_used == "interp"

    def test_auto_selects_batch_when_eligible(self):
        config = _config(engine="auto")
        system = System(config, "alloy-victim16", _workload(config))
        system.run()
        assert system.engine_used == "batch"

    def test_auto_falls_back_outside_envelope(self):
        config = _config(engine="auto")
        system = System(config, _custom_builder, _workload(config))
        system.run()
        assert system.engine_used == "interp"

    def test_env_auto_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "auto")
        config = _config()
        system = System(config, "no-cache", _workload(config))
        system.run()
        assert system.engine_used == "batch"

    def test_invalid_env_warns_and_uses_interp(self, monkeypatch, capsys):
        import repro.sim.system as system_mod

        monkeypatch.setattr(system_mod, "_warned_engines", set())
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        config = _config()
        system = System(config, "no-cache", _workload(config))
        system.run()
        assert system.engine_used == "interp"
        err = capsys.readouterr().err
        assert "ignoring invalid REPRO_ENGINE='warp'" in err

    def test_invalid_env_warning_dedupes_per_process(
        self, monkeypatch, capsys
    ):
        import repro.sim.system as system_mod

        monkeypatch.setattr(system_mod, "_warned_engines", set())
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        config = _config()
        workload = _workload(config)
        for _ in range(3):
            System(config, "no-cache", workload).run()
        err = capsys.readouterr().err
        assert err.count("ignoring invalid REPRO_ENGINE='turbo'") == 1

    def test_env_parity_with_interpreter(self, monkeypatch):
        config = _config()
        workload = _workload(config)
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        want = System(config, "sram-tag", workload).run()
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        system = System(config, "sram-tag", workload)
        got = system.run()
        assert system.engine_used == "batch"
        assert_identical(got, want)


class TestIntegration:
    def test_bench_cell_id_ignores_engine(self):
        from repro.perf.bench import BenchCell

        a = BenchCell("lh-cache", "mcf_r")
        b = BenchCell("lh-cache", "mcf_r", engine="batch")
        assert a.cell_id == b.cell_id

    def test_time_cell_reports_engine_used(self):
        from repro.perf.bench import BenchCell, time_cell

        timing = time_cell(
            BenchCell(
                "no-cache", "mcf_r", reads_per_core=60, engine="batch"
            ),
            repeats=1,
            discard=0,
        )
        assert timing.engine_used == "batch"
        payload_engine = timing.cell.engine
        assert payload_engine == "batch"

    def test_sweep_cache_key_ignores_engine(self):
        from repro.sim.parallel import cell_key

        base = _config()
        batch = dataclasses.replace(base, engine="batch")
        args = ("lh-cache", "mcf_r")
        assert cell_key(*args, base, 250, 0.25, 7) == cell_key(
            *args, batch, 250, 0.25, 7
        )

    def test_fuzzer_covers_batch_engine(self):
        from repro.verify.fuzzer import fuzz_system_pair

        assert fuzz_system_pair(0, reads_per_core=120) == []

    def test_execute_cell_defaults_to_auto_and_reports_engine(
        self, monkeypatch
    ):
        from repro.sim.parallel import SweepCell, _execute_cell

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        cell = SweepCell(
            design="alloy-map-i",
            benchmark="mcf_r",
            config=_config(),
            reads_per_core=120,
            seed=7,
        )
        workload = _workload(_config(), reads=120)
        _, telemetry = _execute_cell(cell, workload=workload)
        assert telemetry["engine_used"] == "batch"

    def test_execute_cell_respects_env_pin(self, monkeypatch):
        from repro.sim.parallel import SweepCell, _execute_cell

        monkeypatch.setenv("REPRO_ENGINE", "interp")
        cell = SweepCell(
            design="alloy-map-i",
            benchmark="mcf_r",
            config=_config(),
            reads_per_core=120,
            seed=7,
        )
        workload = _workload(_config(), reads=120)
        _, telemetry = _execute_cell(cell, workload=workload)
        assert telemetry["engine_used"] == "interp"

    def test_sweep_report_counts_engines(self, monkeypatch):
        from repro.sim.parallel import run_sweep

        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        config = _config()
        from repro.sim.parallel import SweepCell, SweepReport

        # Every factory design has a kernel; a verify run is the sweep
        # cell that still declines the batch engine.
        cells = [
            SweepCell(
                design="alloy-map-i",
                benchmark="mcf_r",
                config=cfg,
                reads_per_core=80,
                seed=7,
            )
            for cfg in (config, dataclasses.replace(config, verify=True))
        ]
        report = run_sweep(cells, use_cache=False)
        assert isinstance(report, SweepReport)
        counts = report.engine_counts
        assert counts.get("batch") == 1
        assert counts.get("interp") == 1
        assert "-- engines:" in report.render()


class TestNoWorkloadMutation:
    """Kernels must never write into workload arrays: on the single-core
    path ``_flatten`` hands back the trace's own (possibly arena/shared-
    memory-backed) numpy arrays without a copy."""

    @pytest.mark.parametrize(
        "design", ["alloy-map-i", "lh-cache", "alloy-victim16", "ideal-lo"]
    )
    def test_single_core_arrays_unchanged(self, design):
        import numpy as np

        config = _config(num_cores=1, mshrs_per_core=4)
        workload = _workload(config)
        trace = workload.cores[0]
        before = {
            "addresses": trace.addresses.copy(),
            "is_write": trace.is_write.copy(),
            "pcs": trace.pcs.copy(),
            "gaps": trace.gaps.copy(),
        }
        system = System(
            dataclasses.replace(config, engine="batch"), design, workload
        )
        system.run()
        assert system.engine_used == "batch"
        for name, want in before.items():
            got = getattr(trace, name)
            assert np.array_equal(got, want), f"kernel mutated trace.{name}"
