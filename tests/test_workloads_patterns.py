"""Tests for the synthetic access-pattern generators."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.units import LINE_SIZE, MB
from repro.workloads.mixes import MIXES, generate_mix_workload
from repro.workloads.patterns import (
    _BURST_CDF,
    DEFAULT_BURST,
    GENERATOR_VERSION,
    Component,
    PatternConfig,
    _Replay,
    generate_core_trace,
)
from repro.workloads.spec import ALL_BENCHMARKS


def one_component_config(kind, region=1 * MB, **kwargs):
    return PatternConfig(
        name=f"test-{kind}",
        mpki=20.0,
        components=(Component(kind, 1.0, region, **kwargs),),
        write_fraction=0.0,
        gap_mean_cycles=50.0,
    )


class TestGeneration:
    def test_read_count(self):
        trace = generate_core_trace(one_component_config("hot"), 500, seed=1)
        assert trace.num_reads == 500

    def test_deterministic(self):
        cfg = one_component_config("zipf")
        a = generate_core_trace(cfg, 300, seed=9)
        b = generate_core_trace(cfg, 300, seed=9)
        assert np.array_equal(a.addresses, b.addresses)
        assert np.array_equal(a.pcs, b.pcs)

    def test_seed_changes_trace(self):
        cfg = one_component_config("hot")
        a = generate_core_trace(cfg, 300, seed=1)
        b = generate_core_trace(cfg, 300, seed=2)
        assert not np.array_equal(a.addresses, b.addresses)

    def test_base_line_offsets_everything(self):
        cfg = one_component_config("hot", region=1 * MB)
        trace = generate_core_trace(cfg, 200, seed=1, base_line=10_000_000)
        assert int(trace.addresses.min()) >= 10_000_000

    def test_footprint_scaling(self):
        cfg = one_component_config("sequential", region=64 * MB, run_length=16)
        small = generate_core_trace(cfg, 2000, seed=1, capacity_scale=1024)
        large = generate_core_trace(cfg, 2000, seed=1, capacity_scale=64)
        # A smaller scaled region is covered repeatedly -> fewer uniques.
        assert small.unique_lines() < large.unique_lines()

    def test_addresses_stay_in_region(self):
        cfg = one_component_config("pointer", region=1 * MB)
        trace = generate_core_trace(cfg, 500, seed=3, capacity_scale=256)
        region_lines = 1 * MB // 256 // 64
        assert int(trace.addresses.max()) < region_lines


class TestComponentKinds:
    def test_sequential_is_mostly_consecutive(self):
        cfg = one_component_config("sequential", region=16 * MB, run_length=32)
        trace = generate_core_trace(cfg, 1000, seed=1)
        diffs = np.diff(trace.addresses)
        assert float(np.mean(diffs == 1)) > 0.9

    def test_hot_reuses_lines(self):
        cfg = one_component_config("hot", region=64 * 1024)  # 4 scaled lines
        trace = generate_core_trace(cfg, 1000, seed=1)
        assert trace.unique_lines() <= 4

    def test_zipf_is_skewed(self):
        cfg = one_component_config("zipf", region=16 * MB, zipf_alpha=1.3)
        trace = generate_core_trace(cfg, 5000, seed=1)
        values, counts = np.unique(trace.addresses, return_counts=True)
        counts = np.sort(counts)[::-1]
        # The hottest line takes a disproportionate share.
        assert counts[0] > 5 * counts[len(counts) // 2]

    def test_pointer_rarely_reuses(self):
        cfg = one_component_config("pointer", region=64 * MB)
        trace = generate_core_trace(cfg, 1000, seed=1)
        # ~4096-line region, 1000 draws: birthday collisions only.
        assert trace.unique_lines() > 800

    def test_unknown_kind_raises(self):
        cfg = one_component_config("markov")
        with pytest.raises(ValueError, match="unknown component kind"):
            generate_core_trace(cfg, 10, seed=1)


class TestMixtures:
    def test_per_access_weights_respected(self):
        """Long sequential runs must not inflate their access share."""
        cfg = PatternConfig(
            name="mix",
            mpki=20.0,
            components=(
                Component("sequential", 0.5, 64 * MB, run_length=64),
                Component("hot", 0.5, 1 * MB),
            ),
            write_fraction=0.0,
            gap_mean_cycles=10.0,
        )
        trace = generate_core_trace(cfg, 20_000, seed=1)
        seq_lines = 64 * MB // 256 // 64
        hot_fraction = float(np.mean(trace.addresses >= seq_lines))
        assert 0.35 < hot_fraction < 0.65

    def test_components_laid_out_disjoint(self):
        cfg = PatternConfig(
            name="mix",
            mpki=20.0,
            components=(
                Component("hot", 0.5, 1 * MB),
                Component("hot", 0.5, 1 * MB),
            ),
            write_fraction=0.0,
            gap_mean_cycles=10.0,
        )
        trace = generate_core_trace(cfg, 2000, seed=1)
        region = 1 * MB // 256 // 64
        # Both regions get touched.
        assert bool((trace.addresses < region).any())
        assert bool((trace.addresses >= region).any())


class TestGapsAndWrites:
    def test_gap_mean_calibrated(self):
        cfg = one_component_config("hot")
        trace = generate_core_trace(cfg, 20_000, seed=1)
        read_gaps = trace.gaps[~trace.is_write]
        assert float(read_gaps.mean()) == pytest.approx(50.0, rel=0.1)

    def test_gap_fallback_from_mpki(self):
        cfg = PatternConfig(
            name="nogap",
            mpki=10.0,
            components=(Component("hot", 1.0, 1 * MB),),
            write_fraction=0.0,
        )
        trace = generate_core_trace(cfg, 10_000, seed=1)
        # 1000/10 instructions * 0.25 CPI = 25 cycles.
        assert float(trace.gaps.mean()) == pytest.approx(25.0, rel=0.15)

    def test_write_fraction(self):
        cfg = PatternConfig(
            name="writes",
            mpki=20.0,
            components=(Component("hot", 1.0, 1 * MB),),
            write_fraction=0.25,
            gap_mean_cycles=10.0,
        )
        trace = generate_core_trace(cfg, 3000, seed=1)
        fraction = trace.num_writes / len(trace)
        assert fraction == pytest.approx(0.25, abs=0.02)

    def test_writes_have_zero_gap(self):
        cfg = PatternConfig(
            name="writes",
            mpki=20.0,
            components=(Component("hot", 1.0, 1 * MB),),
            write_fraction=0.3,
            gap_mean_cycles=10.0,
        )
        trace = generate_core_trace(cfg, 1000, seed=1)
        assert float(trace.gaps[trace.is_write].sum()) == 0.0

    def test_writebacks_revisit_read_addresses(self):
        cfg = PatternConfig(
            name="writes",
            mpki=20.0,
            components=(Component("hot", 1.0, 4 * MB),),
            write_fraction=0.3,
            gap_mean_cycles=10.0,
        )
        trace = generate_core_trace(cfg, 1000, seed=1)
        reads = set(trace.addresses[~trace.is_write].tolist())
        writes = set(trace.addresses[trace.is_write].tolist())
        assert writes <= reads

    def test_instruction_count_from_mpki(self):
        cfg = one_component_config("hot")
        trace = generate_core_trace(cfg, 1000, seed=1)
        assert trace.instructions == int(1000 * 1000 / 20.0)


class TestDrawIdentities:
    """The numpy identities that let the generator merge and replay draws.

    Every generated trace depends on these. A numpy release that breaks one
    fails here, naming the identity, instead of silently changing traces
    (and the pinned digests below) with no clue why.
    """

    BOUNDS = (2, 7, 700, 2**31 + 5, 2**32 - 1, 2**32, 2**32 + 9, 2**40 + 1)
    SPLITS = ((1, 1), (3, 5), (4, 17), (9, 2))

    @staticmethod
    def fresh(prior):
        """A generator after ``prior`` 32-bit draws (odd: a half word waits)."""
        rng = np.random.default_rng(2026)
        rng.integers(0, 2**32, size=prior, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == prior % 2
        return rng

    @pytest.mark.parametrize("prior", [0, 1, 3])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_sized_integer_draws_concatenate(self, bound, prior):
        for a, b in self.SPLITS:
            split, whole = self.fresh(prior), self.fresh(prior)
            parts = np.concatenate(
                [split.integers(bound, size=a), split.integers(bound, size=b)]
            )
            assert np.array_equal(parts, whole.integers(bound, size=a + b)), (
                f"numpy changed: integers({bound}, size={a}) then size={b} no "
                f"longer equals one integers({bound}, size={a + b})"
            )

    @pytest.mark.parametrize("prior", [0, 1, 3])
    @pytest.mark.parametrize("bound", BOUNDS)
    def test_scalar_then_sized_integers_equal_one_sized(self, bound, prior):
        for k in (1, 2, 5, 33):
            split, whole = self.fresh(prior), self.fresh(prior)
            parts = [int(split.integers(bound))] + split.integers(bound, size=k).tolist()
            assert parts == whole.integers(bound, size=k + 1).tolist(), (
                f"numpy changed: integers({bound}) then integers({bound}, size={k}) "
                f"no longer equals one integers({bound}, size={k + 1})"
            )

    @pytest.mark.parametrize("prior", [0, 1])
    def test_scalar_randoms_equal_sized(self, prior):
        for k in (1, 3, 16, 100):
            split, whole = self.fresh(prior), self.fresh(prior)
            parts = [split.random() for _ in range(k)]
            assert parts == whole.random(size=k).tolist(), (
                f"numpy changed: {k} scalar random() calls no longer equal "
                f"random(size={k})"
            )

    @pytest.mark.parametrize("p", [1.0, 0.5, 1.0 / 3, 0.25, 1.0 / 32, 1.0 / 128])
    def test_scalar_geometrics_equal_sized(self, p):
        for k in (1, 4, 25):
            split, whole = self.fresh(0), self.fresh(0)
            parts = [int(split.geometric(p)) for _ in range(k)]
            assert parts == whole.geometric(p, size=k).tolist(), (
                f"numpy changed: {k} scalar geometric({p}) calls no longer "
                f"equal geometric({p}, size={k})"
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_replay_matches_numpy_draw_for_draw(self, seed):
        """_Replay reproduces random/geometric(1/3)/integers(n) in any order."""
        ops = np.random.default_rng(seed + 100)
        numpy_rng, replay = np.random.default_rng(seed), _Replay(seed)
        for step in range(600):
            op = int(ops.integers(4))
            if op == 0:
                bound = int(ops.choice((1,) + self.BOUNDS))
                want, got = int(numpy_rng.integers(bound)), replay.below(bound)
                what = f"integers({bound})"
            elif op == 1:
                want, got = int(numpy_rng.geometric(1.0 / DEFAULT_BURST)), replay.burst()
                what = f"geometric(1/{DEFAULT_BURST})"
            else:
                k = int(ops.integers(0, 20))
                want, got = numpy_rng.random(size=k).tolist(), replay.doubles(k)
                what = f"random(size={k})"
            assert got == want, (
                f"_Replay diverged from numpy at draw {step} ({what}): numpy's "
                "PCG64 word split, Lemire bound, geometric search or double "
                "conversion changed"
            )

    def test_burst_cdf_reaches_one(self):
        # Every double random() returns is below 1.0, so the table always
        # has an answer, as numpy's search loop always terminates.
        assert _BURST_CDF[-1] == 1.0


# ---------------------------------------------------------------------------
# Pinned streams: SHA-256 digests of generate_core_trace output.
#
# The table in tests/goldens/pattern_digests.json was computed from the
# burst-at-a-time generator and pins every field of every case below. A
# speedup that keeps the streams must pass it unchanged; a deliberate stream
# change bumps GENERATOR_VERSION and regenerates it with
#   PYTHONPATH=src python tests/test_workloads_patterns.py --write-digests
# ---------------------------------------------------------------------------
DIGEST_TABLE = Path(__file__).parent / "goldens" / "pattern_digests.json"
DIGEST_READS = (1, 400, 1000)
DIGEST_SEEDS = (1, 2)
SYNTHETIC_READS = (1, 2, 17, 400, 3000)
SYNTHETIC_SEEDS = (3, 65537)
SYNTHETIC_SCALES = (256, 4096)
ONE_LINE = LINE_SIZE * 256  # one line at capacity_scale 256; clamped to one above it
KINDS = ("sequential", "strided", "hot", "zipf", "pointer")


def trace_digest(trace) -> str:
    """SHA-256 over every field of one core trace, dtypes and shapes included."""
    h = hashlib.sha256()
    for name in ("gaps", "addresses", "is_write", "pcs", "is_dependent"):
        value = getattr(trace, name)
        if value is None:
            h.update(f"{name}:none;".encode())
            continue
        arr = np.ascontiguousarray(value)
        h.update(f"{name}:{arr.dtype.str}:{arr.shape};".encode())
        h.update(arr.tobytes())
    h.update(f"instructions:{trace.instructions};".encode())
    return h.hexdigest()


def workload_digest(workload) -> str:
    h = hashlib.sha256(workload.name.encode())
    for core in workload.cores:
        h.update(trace_digest(core).encode())
    return h.hexdigest()


def synthetic_configs():
    """Hand-picked edge cases plus a seeded random sample of mixtures."""
    def config(name, components, **kwargs):
        kwargs.setdefault("gap_mean_cycles", 40.0)
        return PatternConfig(name=name, mpki=kwargs.pop("mpki", 20.0),
                             components=tuple(components), **kwargs)

    every_kind = [
        Component("sequential", 0.3, 8 * MB, run_length=16, pc_pool=3),
        Component("strided", 0.1, 4 * MB, run_length=40, pc_pool=4),
        Component("hot", 0.3, 2 * MB, pc_pool=8),
        Component("zipf", 0.2, 16 * MB, zipf_alpha=1.2, pc_pool=12),
        Component("pointer", 0.1, 32 * MB, pc_pool=6),
    ]
    configs = [
        config("every-kind", every_kind),
        config("every-kind-no-writes", every_kind, write_fraction=0.0),
        config("every-kind-mpki-gaps", every_kind, gap_mean_cycles=0.0),
        config("pc-pool-1", [
            Component(kind, 1.0, 4 * MB, run_length=8, pc_pool=1)
            for kind in KINDS
        ]),
        config("one-line-regions", [
            Component(kind, 1.0, ONE_LINE, run_length=4, pc_pool=3)
            for kind in KINDS
        ], write_fraction=0.4),
        config("run-longer-than-region", [
            Component("sequential", 0.5, 8 * ONE_LINE, run_length=64, pc_pool=2),
            Component("strided", 0.5, 8 * ONE_LINE, run_length=100, pc_pool=5),
        ]),
        config("zipf-long-bursts", [
            Component("zipf", 1.0, 64 * MB, zipf_alpha=1.1, pc_pool=16),
        ], write_fraction=0.0),
        config("sequential-run-1", [
            Component("sequential", 1.0, 2 * MB, run_length=1, pc_pool=2),
        ]),
    ]
    configs += [config(f"single-{kind}", [Component(kind, 1.0, 3 * MB, run_length=24)])
                for kind in KINDS]
    rng = np.random.default_rng(20261018)
    for index in range(16):
        components = []
        for _ in range(int(rng.integers(1, 6))):
            components.append(Component(
                KINDS[int(rng.integers(len(KINDS)))],
                float(rng.uniform(0.05, 1.0)),
                int(rng.choice([ONE_LINE, 5 * ONE_LINE, 1 * MB, 48 * MB, 700 * MB])),
                run_length=int(rng.choice([1, 2, 7, 32, 300])),
                zipf_alpha=float(rng.choice([1.1, 1.25, 1.6, 2.5])),
                pc_pool=int(rng.choice([1, 2, 8, 16])),
            ))
        configs.append(config(
            f"random-{index}", components,
            write_fraction=float(rng.choice([0.0, 0.1, 0.35])),
            mpki=float(rng.uniform(1.0, 60.0)),
            gap_mean_cycles=float(rng.choice([0.0, 15.0, 120.0])),
        ))
    return configs


def digest_cases():
    """Case id -> zero-argument callable returning that case's digest."""
    cases = {}
    for name, spec in sorted(ALL_BENCHMARKS.items()):
        for scale in (256, 4096):
            for reads in DIGEST_READS:
                for seed in DIGEST_SEEDS:
                    cases[f"bench/{name}/s{scale}/r{reads}/seed{seed}"] = (
                        lambda p=spec.pattern, n=reads, s=seed, c=scale: trace_digest(
                            generate_core_trace(p, n, seed=s, capacity_scale=c,
                                                base_line=3 * (1 << 28))))
    for name in sorted(MIXES):
        for reads in DIGEST_READS:
            for seed in DIGEST_SEEDS:
                cases[f"mix/{name}/r{reads}/seed{seed}"] = (
                    lambda m=name, n=reads, s=seed: workload_digest(
                        generate_mix_workload(m, num_cores=8, reads_per_core=n,
                                              capacity_scale=4096, seed=s)))
    for cfg in synthetic_configs():
        for scale in SYNTHETIC_SCALES:
            for reads in SYNTHETIC_READS:
                for seed in SYNTHETIC_SEEDS:
                    cases[f"synthetic/{cfg.name}/s{scale}/r{reads}/seed{seed}"] = (
                        lambda p=cfg, n=reads, s=seed, c=scale: trace_digest(
                            generate_core_trace(p, n, seed=s, capacity_scale=c)))
    return cases


class TestPinnedStreams:
    @pytest.fixture(scope="class")
    def table(self):
        return json.loads(DIGEST_TABLE.read_text())

    def test_generator_version_matches_table(self, table):
        assert table["generator_version"] == GENERATOR_VERSION

    def test_table_covers_every_case(self, table):
        assert sorted(table["digests"]) == sorted(digest_cases())

    @pytest.mark.parametrize("group", ["bench", "mix", "synthetic"])
    def test_streams_match_pinned_digests(self, table, group):
        pinned = table["digests"]
        mismatched = [
            case for case, digest in digest_cases().items()
            if case.startswith(group + "/") and digest() != pinned[case]
        ]
        assert not mismatched, (
            f"{len(mismatched)} generated streams changed, e.g. {mismatched[:5]}; "
            "a stream change must bump GENERATOR_VERSION"
        )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-digests"]:
        sys.exit("usage: python tests/test_workloads_patterns.py --write-digests")
    table = {
        "generator_version": GENERATOR_VERSION,
        "digests": {case: digest() for case, digest in sorted(digest_cases().items())},
    }
    DIGEST_TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table['digests'])} digests to {DIGEST_TABLE}")
