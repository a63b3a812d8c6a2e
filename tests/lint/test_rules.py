"""Known-good / known-bad snippets for every lint rule.

Each rule gets at least one snippet that must fire and several that
must stay silent — the silent cases pin down the false-positive
boundary (seeded RNG is fine, sorted iteration is fine, module-level
submissions are fine, ...).
"""

import textwrap

import pytest

from repro.lint import DEFAULT_RULES, LintEngine

ENGINE = LintEngine(DEFAULT_RULES)

#: A module path inside the DET001 deterministic zones.
ZONE = "src/repro/flow/fake_stage.py"
#: A module path outside them (observability is exempt).
OUTSIDE = "src/repro/observe/fake_sink.py"
#: The one module allowed to construct process pools (PROC003), used
#: by the PROC002 snippets so they exercise exactly one rule.
BACKENDS = "src/repro/parallel/backends.py"


def lint(code, path=ZONE):
    code = textwrap.dedent(code)
    return ENGINE.lint_source(code, path=path)


def rule_ids(code, path=ZONE):
    return [finding.rule_id for finding in lint(code, path=path)]


class TestDet001:
    def test_wall_clock_in_zone_fires(self):
        code = """
            import time

            def stage():
                return time.time()
        """
        findings = lint(code)
        assert [f.rule_id for f in findings] == ["DET001"]
        assert "time.time" in findings[0].message

    def test_from_import_wall_clock_fires(self):
        code = """
            from time import time

            def stage():
                return time()
        """
        assert rule_ids(code) == ["DET001"]

    def test_datetime_now_fires(self):
        code = """
            from datetime import datetime

            def stamp():
                return datetime.now()
        """
        assert rule_ids(code) == ["DET001"]

    def test_global_numpy_rng_fires(self):
        code = """
            import numpy as np

            def draw():
                return np.random.normal(0.0, 1.0)
        """
        assert rule_ids(code) == ["DET001"]

    def test_unseeded_default_rng_fires(self):
        code = """
            import numpy as np

            def draw():
                return np.random.default_rng().normal()
        """
        assert rule_ids(code) == ["DET001"]

    def test_global_random_module_fires(self):
        code = """
            import random

            def draw():
                return random.random()
        """
        assert rule_ids(code) == ["DET001"]

    def test_seeded_default_rng_is_clean(self):
        code = """
            import numpy as np

            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.normal()
        """
        assert rule_ids(code) == []

    def test_perf_counter_is_clean(self):
        # Measurement-only clocks never feed fingerprints.
        code = """
            import time

            def measure():
                return time.perf_counter()
        """
        assert rule_ids(code) == []

    def test_wall_clock_outside_zone_is_clean(self):
        code = """
            import time

            def span_start():
                return time.time()
        """
        assert rule_ids(code, path=OUTSIDE) == []

    def test_unrelated_attribute_chain_is_clean(self):
        # ``state.random.draw()`` is not the random module.
        code = """
            def draw(state):
                return state.random.choice([1, 2])
        """
        assert rule_ids(code) == []


class TestDet002:
    def test_set_arg_to_fingerprint_fires(self):
        code = """
            def stage_key(names):
                return fingerprint(set(names))
        """
        findings = lint(code)
        assert [f.rule_id for f in findings] == ["DET002"]

    def test_values_iteration_in_key_function_fires(self):
        code = """
            def cache_key(table):
                parts = []
                for value in table.values():
                    parts.append(value)
                return parts
        """
        assert rule_ids(code) == ["DET002"]

    def test_set_comprehension_iter_in_hash_scope_fires(self):
        code = """
            import hashlib

            def digest_names(names):
                h = hashlib.sha256()
                for name in {n.strip() for n in names}:
                    h.update(name.encode())
                return h.hexdigest()
        """
        assert rule_ids(code) == ["DET002"]

    def test_sorted_wrapping_is_clean(self):
        code = """
            def stage_key(names, table):
                a = fingerprint(sorted(set(names)))
                for value in sorted(table.values()):
                    a += value
                return a
        """
        assert rule_ids(code) == []

    def test_values_outside_hash_scope_is_clean(self):
        code = """
            def render(table):
                return [str(v) for v in table.values()]
        """
        assert rule_ids(code) == []


class TestProc001:
    def test_two_writes_in_append_block_fires(self):
        code = """
            def export(path, record):
                with open(path, "a") as handle:
                    handle.write(record)
                    handle.write("\\n")
        """
        findings = lint(code, path=OUTSIDE)
        assert [f.rule_id for f in findings] == ["PROC001"]
        assert "second write" in findings[0].message

    def test_write_in_loop_on_append_handle_fires(self):
        code = """
            def export(path, records):
                with open(path, mode="a") as handle:
                    for record in records:
                        handle.write(record + "\\n")
        """
        findings = lint(code, path=OUTSIDE)
        assert [f.rule_id for f in findings] == ["PROC001"]
        assert "loop" in findings[0].message

    def test_os_write_loop_on_append_fd_fires(self):
        code = """
            import os

            def export(path, records):
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
                for record in records:
                    os.write(fd, record)
        """
        assert rule_ids(code, path=OUTSIDE) == ["PROC001"]

    def test_single_shot_append_is_clean(self):
        code = """
            import os

            def export(path, record):
                line = record + "\\n"
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
                try:
                    os.write(fd, line.encode("utf-8"))
                finally:
                    os.close(fd)
        """
        assert rule_ids(code, path=OUTSIDE) == []

    def test_write_mode_file_is_exempt(self):
        # Truncate-mode files are single-owner; multi-write is fine.
        code = """
            def dump(path, records):
                with open(path, "w") as handle:
                    for record in records:
                        handle.write(record)
        """
        assert rule_ids(code, path=OUTSIDE) == []


class TestProc002:
    def test_lambda_submit_fires(self):
        code = """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda x: x + 1, i) for i in items]
        """
        findings = lint(code, path=BACKENDS)
        assert [f.rule_id for f in findings] == ["PROC002"]
        assert "lambda" in findings[0].message

    def test_nested_function_submit_fires(self):
        code = """
            from concurrent.futures import ProcessPoolExecutor

            def run(items):
                def work(x):
                    return x + 1
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(work, i) for i in items]
        """
        assert rule_ids(code, path=BACKENDS) == ["PROC002"]

    def test_bound_method_submit_fires(self):
        code = """
            from concurrent.futures import ProcessPoolExecutor

            class Runner:
                def work(self, x):
                    return x + 1

                def run(self, items):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(self.work, i) for i in items]
        """
        assert rule_ids(code, path=BACKENDS) == ["PROC002"]

    def test_executor_map_with_lambda_fires(self):
        code = """
            import concurrent.futures

            def run(items):
                pool = concurrent.futures.ProcessPoolExecutor(max_workers=2)
                return list(pool.map(lambda x: x * 2, items))
        """
        assert rule_ids(code, path=BACKENDS) == ["PROC002"]

    def test_module_level_function_is_clean(self):
        code = """
            from concurrent.futures import ProcessPoolExecutor

            def work(x):
                return x + 1

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(work, i) for i in items]
        """
        assert rule_ids(code, path=BACKENDS) == []

    def test_partial_over_module_function_is_clean(self):
        code = """
            import functools
            from concurrent.futures import ProcessPoolExecutor

            def work(x, bias):
                return x + bias

            def run(items):
                with ProcessPoolExecutor() as pool:
                    task = functools.partial(work, bias=2)
                    return [pool.submit(task, i) for i in items]
        """
        # partial(...) bound to a name is opaque; the direct spelling
        # pool.submit(functools.partial(work, ...)) is checked instead.
        code2 = """
            import functools
            from concurrent.futures import ProcessPoolExecutor

            def work(x):
                return x

            def run(items):
                with ProcessPoolExecutor() as pool:
                    return [
                        pool.submit(functools.partial(work), i)
                        for i in items
                    ]
        """
        assert rule_ids(code, path=BACKENDS) == []
        assert rule_ids(code2, path=BACKENDS) == []

    def test_thread_pool_is_exempt(self):
        # ThreadPoolExecutor shares memory; closures are fine there.
        code = """
            from concurrent.futures import ThreadPoolExecutor

            def run(items):
                with ThreadPoolExecutor() as pool:
                    return [pool.submit(lambda x: x + 1, i) for i in items]
        """
        assert rule_ids(code, path=BACKENDS) == []


class TestProc003:
    def test_pool_in_flow_module_fires(self):
        code = """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(work, items):
                with ProcessPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(work, i) for i in items]
                    return [f.result() for f in futures]
        """
        findings = lint(code)
        assert "PROC003" in [f.rule_id for f in findings]
        assert "ExecutorBackend" in findings[0].message

    def test_dotted_constructor_fires(self):
        code = """
            import concurrent.futures

            def fan_out(work, items):
                pool = concurrent.futures.ProcessPoolExecutor(2)
                return list(pool.map(work, items))
        """
        assert "PROC003" in rule_ids(code, path=OUTSIDE)

    def test_backends_module_is_exempt(self):
        code = """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(work, items):
                with ProcessPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(work, i) for i in items]
                    return [f.result() for f in futures]
        """
        assert rule_ids(code, path=BACKENDS) == []

    def test_thread_pool_is_exempt(self):
        code = """
            from concurrent.futures import ThreadPoolExecutor

            def fan_out(work, items):
                with ThreadPoolExecutor() as pool:
                    return list(pool.map(work, items))
        """
        assert rule_ids(code, path=OUTSIDE) == []

    def test_code_outside_repro_is_exempt(self):
        code = """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(work, items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, items))
        """
        import textwrap
        assert ENGINE.lint_source(
            textwrap.dedent(code), path="tools/helper.py", module="tools.helper"
        ) == []


class TestApi001:
    def test_assert_in_library_fires(self):
        code = """
            def check(value):
                assert value is not None
                return value
        """
        assert rule_ids(code) == ["API001"]

    def test_raise_bare_exception_fires(self):
        code = """
            def fail():
                raise Exception("boom")
        """
        findings = lint(code)
        assert [f.rule_id for f in findings] == ["API001"]
        assert "Exception" in findings[0].message

    def test_repro_error_is_clean(self):
        code = """
            from repro.errors import TuningError

            def fail():
                raise TuningError("threshold must be positive")
        """
        assert rule_ids(code) == []

    def test_bare_reraise_is_clean(self):
        code = """
            def forward():
                try:
                    risky()
                except ValueError:
                    raise
        """
        assert rule_ids(code) == []

    def test_code_outside_repro_is_exempt(self):
        code = """
            def check(value):
                assert value
        """
        assert ENGINE.lint_source(
            textwrap.dedent(code), path="tools/helper.py", module="tools.helper"
        ) == []


class TestObs001:
    def test_counter_outside_catalog_fires(self):
        code = """
            from repro.observe.metrics import get_metrics

            REQUESTS = get_metrics().counter(
                "repro_rogue_requests_total", "Rogue counter."
            )
        """
        findings = lint(code, path=ZONE)
        assert [f.rule_id for f in findings] == ["OBS001"]
        assert "repro_rogue_requests_total" in findings[0].message

    def test_gauge_and_histogram_fire_too(self):
        code = """
            from repro.observe.metrics import get_metrics

            G = get_metrics().gauge("repro_rogue_depth", "Rogue gauge.")
            H = get_metrics().histogram(
                "repro_rogue_seconds", "Rogue histogram.", buckets=(1.0,)
            )
        """
        assert rule_ids(code, path=OUTSIDE) == ["OBS001", "OBS001"]

    def test_catalog_module_is_exempt(self):
        code = """
            from repro.observe.metrics import get_metrics

            REQUESTS = get_metrics().counter(
                "repro_serve_requests_total", "Requests served."
            )
        """
        assert rule_ids(code, path="src/repro/observe/catalog.py") == []

    def test_non_repro_prefixed_names_are_clean(self):
        code = """
            def record(registry):
                registry.gauge("workers", "Not ours.")
                registry.counter("custom_total", "Not ours.")
        """
        assert rule_ids(code, path=ZONE) == []

    def test_code_outside_repro_is_exempt(self):
        code = """
            REQUESTS = registry.counter("repro_test_total", "Test-only.")
        """
        assert ENGINE.lint_source(
            textwrap.dedent(code), path="tools/helper.py", module="tools.helper"
        ) == []


@pytest.mark.parametrize(
    "rule_id",
    ["DET001", "DET002", "PROC001", "PROC002", "PROC003", "API001", "OBS001"],
)
def test_every_rule_has_metadata(rule_id):
    rule = next(r for r in DEFAULT_RULES if r.rule_id == rule_id)
    assert rule.title and rule.hint and rule.rationale
    assert rule.node_types
