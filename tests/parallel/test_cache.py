"""The library codec: keys, bit-identical rebuilds, codec-level defects.

Libraries live in the one artifact store as ``.npz`` array entries;
the store's own contract (atomic publish, envelope validation,
self-healing, stats/clear) is tested over both codecs in
``tests/flow/test_pipeline.py``.  These tests cover what the codec
adds on top: the characterization key and the rebuild of full
libraries from stored arrays.
"""

from __future__ import annotations

import pytest

from repro.characterization.characterize import (
    Characterizer,
    characterization_call_count,
    reset_characterization_call_count,
)
from repro.characterization.grids import GridConfig
from repro.observe import MemorySink, Tracer, set_tracer
from repro.observe.catalog import STORE_ARTIFACT_EVENTS
from repro.parallel.artifacts import ARTIFACT_VERSION, ArtifactStore
from repro.parallel.cache import LibraryCache, characterization_key

from tests.parallel.test_equivalence import assert_libraries_bit_identical


@pytest.fixture()
def cache(tmp_path):
    return LibraryCache(ArtifactStore(tmp_path / "cache"))


@pytest.fixture()
def characterizer(cache):
    return Characterizer(cache=cache)


def _entry(cache):
    files = sorted(cache.store.directory.glob("*.npz"))
    assert len(files) == 1
    return files[0]


def _healed() -> float:
    return STORE_ARTIFACT_EVENTS.labels(event="healed").value


class TestKeying:
    def test_key_is_stable(self, characterizer, small_specs):
        a = characterization_key(characterizer, small_specs[:3], 10, 0, False, "stat")
        b = characterization_key(characterizer, small_specs[:3], 10, 0, False, "stat")
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_samples": 11},
            {"seed": 1},
            {"include_global": True},
            {"kind": "samples"},
        ],
    )
    def test_key_changes_with_run_parameters(self, characterizer, small_specs, kwargs):
        base = {"n_samples": 10, "seed": 0, "include_global": False, "kind": "stat"}
        reference = characterization_key(characterizer, small_specs[:3], **base)
        changed = characterization_key(characterizer, small_specs[:3], **{**base, **kwargs})
        assert reference != changed

    def test_key_changes_with_grid_and_specs(self, cache, characterizer, small_specs):
        other = Characterizer(grid=GridConfig(n_slew=5, n_load=5), cache=cache)
        assert characterization_key(
            characterizer, small_specs[:3], 10, 0, False, "stat"
        ) != characterization_key(other, small_specs[:3], 10, 0, False, "stat")
        assert characterization_key(
            characterizer, small_specs[:3], 10, 0, False, "stat"
        ) != characterization_key(characterizer, small_specs[:4], 10, 0, False, "stat")


class TestCorruptionRecovery:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
            lambda path: path.write_bytes(b"this is not a zip archive"),
            lambda path: path.write_bytes(b""),
        ],
        ids=["truncated", "garbage", "empty"],
    )
    def test_corrupted_entry_is_a_self_healing_miss(
        self, cache, characterizer, small_specs, corrupt
    ):
        """A damaged ``stat-*.npz`` heals like any store entry (deleted,
        counted ``healed``, a ``store.self_heal`` event), falls back to
        recomputation with the exact cold result, and leaves a healthy
        entry behind."""
        specs = small_specs[:8]
        reference = characterizer.statistical_library(specs, n_samples=6, seed=1)
        entry = _entry(cache)
        assert entry.name.startswith("stat-")
        corrupt(entry)

        tracer = Tracer(MemorySink())
        previous = set_tracer(tracer)
        healed = _healed()
        reset_characterization_call_count()
        try:
            recovered = characterizer.statistical_library(specs, n_samples=6, seed=1)
        finally:
            set_tracer(previous)
        assert _healed() == healed + 1
        (span,) = [
            record for record in tracer.sink.records
            if record.get("name") == "characterize.statistical"
        ]
        assert [event["name"] for event in span["events"]] == ["store.self_heal"]
        assert characterization_call_count() == len(specs)
        assert_libraries_bit_identical(reference, recovered)

        # the rewritten entry must serve hits again
        reset_characterization_call_count()
        warm = characterizer.statistical_library(specs, n_samples=6, seed=1)
        assert characterization_call_count() == 0
        assert_libraries_bit_identical(reference, warm)

    def test_corrupted_samples_entry_recovers(self, cache, characterizer, small_specs):
        specs = small_specs[:4]
        reference = characterizer.sample_libraries(specs, n_samples=4, seed=6)
        _entry(cache).write_bytes(b"\x00" * 128)
        recovered = characterizer.sample_libraries(specs, n_samples=4, seed=6)
        for lib_a, lib_b in zip(reference, recovered):
            assert_libraries_bit_identical(lib_a, lib_b)

    def test_version_mismatch_is_a_miss(
        self, cache, characterizer, small_specs, monkeypatch
    ):
        """An entry written under another store version never serves."""
        specs = small_specs[:4]
        characterizer.statistical_library(specs, n_samples=6, seed=1)
        monkeypatch.setattr(
            "repro.parallel.artifacts.ARTIFACT_VERSION", ARTIFACT_VERSION + 1
        )
        reset_characterization_call_count()
        characterizer.statistical_library(specs, n_samples=6, seed=1)
        assert characterization_call_count() == len(specs)

    @pytest.mark.parametrize("kind", ["stat", "samples"])
    def test_missing_arc_entry_is_a_miss_and_deleted(
        self, cache, characterizer, small_specs, kind
    ):
        """An entry that reads back intact but lacks one arc's arrays is
        a codec-level defect: a miss that deletes and heals the entry."""
        specs = small_specs[:4]
        if kind == "stat":
            characterizer.statistical_library(specs, n_samples=4, seed=2)
        else:
            characterizer.sample_libraries(specs, n_samples=4, seed=2)
        key = characterization_key(characterizer, specs, 4, 2, False, kind)
        arrays = cache.store.load_arrays(kind, key)
        dropped = sorted(name for name in arrays if name.endswith("\tcell_rise"))[0]
        del arrays[dropped]
        cache.store.store_arrays(kind, key, arrays)

        healed = _healed()
        if kind == "stat":
            loaded = cache.load_statistical(characterizer, specs, 4, 2, False)
        else:
            loaded = cache.load_samples(characterizer, specs, 4, 2, False)
        assert loaded is None
        assert not cache.store.path_for(kind, key).exists()
        assert _healed() == healed + 1


class TestMaintenance:
    def test_clear_then_recompute(self, cache, characterizer, small_specs):
        """Clearing the store drops the library: the next run recomputes."""
        specs = small_specs[:4]
        characterizer.statistical_library(specs, n_samples=6, seed=1)
        assert cache.store.clear() == 1
        reset_characterization_call_count()
        characterizer.statistical_library(specs, n_samples=6, seed=1)
        assert characterization_call_count() == len(specs)

    def test_atomic_write_replaces_existing_entry(
        self, cache, characterizer, small_specs
    ):
        """Storing the same key twice keeps exactly one entry, at the
        path ``_path`` names, and it rebuilds bit-identically."""
        specs = small_specs[:4]
        library = characterizer.statistical_library(specs, n_samples=6, seed=1)
        path = cache.store_statistical(characterizer, specs, 6, 1, False, library)
        assert path == cache._path(characterizer, specs, 6, 1, False, "stat")
        assert cache.store.stats().by_stage == {"stat": 1}
        loaded = cache.load_statistical(characterizer, specs, 6, 1, False)
        assert loaded is not None
        assert_libraries_bit_identical(library, loaded)
        assert not list(cache.store.directory.glob("*.tmp"))

    def test_use_cache_false_bypasses_cache(self, cache, characterizer, small_specs):
        specs = small_specs[:4]
        characterizer.statistical_library(specs, n_samples=6, seed=1, use_cache=False)
        assert cache.store.stats().entries == 0
        reference = characterizer.statistical_library(specs, n_samples=6, seed=1)
        bypass = characterizer.statistical_library(
            specs, n_samples=6, seed=1, use_cache=False
        )
        assert_libraries_bit_identical(reference, bypass)


def test_default_directory_honors_environment(tmp_path, monkeypatch):
    """Every on-disk file of the package derives from one cache root."""
    from repro.lint.graph.cache import graph_cache_dir
    from repro.observe.ledger import default_ledger_path
    from repro.storage import cache_root

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    root = tmp_path / "elsewhere"
    assert cache_root() == root
    assert ArtifactStore().directory == root
    assert LibraryCache().store.directory == root
    assert default_ledger_path() == root / "ledger.jsonl"
    assert graph_cache_dir() == root / "lintgraph"
