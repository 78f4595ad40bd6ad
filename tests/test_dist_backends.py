"""Tests for the backend registry, selection precedence, map_trials
integration (trial cache, progress, fallback)."""

import pytest

import dist_trials
from repro.dist import (
    AUTO,
    BACKEND_ENV,
    Backend,
    BackendError,
    BackendUnavailable,
    IN_WORKER_ENV,
    backend_names,
    execution,
    get_backend,
    register_backend,
    resolve_backend_name,
    unregister_backend,
)
from repro.exp.cache import ResultCache
from repro.exp.runner import (
    derive_seed,
    map_trials,
    trial_key,
    trials_executed,
)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert {"serial", "pool", "shards"} <= set(backend_names())

    def test_unknown_backend_fails_with_catalog(self):
        with pytest.raises(BackendError, match="serial"):
            get_backend("warp-drive")

    def test_runtime_registration(self):
        class EchoBackend(Backend):
            name = "echo-test"

            def run(self, fn, points, seeds, *, workers=None,
                    on_result=None):
                return list(points)

        register_backend("echo-test", EchoBackend)
        try:
            assert map_trials(dist_trials.square, [4],
                              backend="echo-test") == [4]
        finally:
            unregister_backend("echo-test")
        assert "echo-test" not in backend_names()


class TestResolvePrecedence:
    def test_auto_heuristic_matches_historic_behavior(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend_name(None) == "serial"
        assert resolve_backend_name(None, workers=4, n_points=8) == "pool"
        # A one-point sweep never pays pool startup.
        assert resolve_backend_name(None, workers=4, n_points=1) == "serial"
        assert resolve_backend_name(None, workers=1, n_points=8) == "serial"

    def test_env_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "shards")
        assert resolve_backend_name(None) == "shards"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "shards")
        assert resolve_backend_name("pool") == "pool"
        assert resolve_backend_name("serial", workers=8) == "serial"

    def test_worker_processes_are_always_serial(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "shards")
        monkeypatch.setenv(IN_WORKER_ENV, "1")
        assert resolve_backend_name("shards", workers=8) == "serial"

    def test_bad_env_name_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "warp-drive")
        with pytest.raises(BackendError, match="warp-drive"):
            resolve_backend_name(None)

    def test_auto_accepted_as_explicit_name(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend_name(AUTO, workers=2, n_points=2) == "pool"

    def test_execution_context_supplies_the_backend(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        seen = []

        class SpyBackend(Backend):
            name = "spy-test"

            def run(self, fn, points, seeds, *, workers=None,
                    on_result=None):
                seen.append(list(points))
                return [fn(p) for p in points]

        register_backend("spy-test", SpyBackend)
        try:
            with execution(backend="spy-test"):
                out = map_trials(dist_trials.square, [2, 3])
        finally:
            unregister_backend("spy-test")
        assert out == [4, 9]
        assert seen == [[2, 3]]


class TestBackendEquivalence:
    POINTS = list(range(8))

    def test_pool_matches_serial(self):
        serial = map_trials(dist_trials.square, self.POINTS,
                            backend="serial")
        pool = map_trials(dist_trials.square, self.POINTS,
                          backend="pool", workers=4)
        assert serial == pool

    def test_seeds_are_placement_independent(self):
        serial = map_trials(dist_trials.seeded, list("abcd"), seed=3,
                            backend="serial")
        pool = map_trials(dist_trials.seeded, list("abcd"), seed=3,
                          backend="pool", workers=2)
        assert serial == pool
        assert serial[0] == ("a", derive_seed(3, 0))

    def test_pool_pins_the_fast_forward_forced_mode(self):
        from repro.sim import fastforward

        with fastforward.forced("off"):
            off = map_trials(dist_trials.ff_enabled, [0, 1],
                             backend="pool", workers=2)
        with fastforward.forced("on"):
            on = map_trials(dist_trials.ff_enabled, [0, 1],
                            backend="pool", workers=2)
        assert off == [False, False]
        assert on == [True, True]

    def test_pool_carries_ff_efficiency_counters_home(self):
        from repro.sim import fastforward

        def delta_of(run):
            before = fastforward.totals()
            run()
            after = fastforward.totals()
            return {k: after[k] - before[k] for k in after}

        local = delta_of(lambda: dist_trials.ff_jumping_trial(0))
        pooled = delta_of(lambda: map_trials(
            dist_trials.ff_jumping_trial, [0, 1], backend="pool",
            workers=2))
        assert local["considered"] >= local["snapshots"] > 0
        assert pooled == {k: 2 * v for k, v in local.items()}


class TestTrialCache:
    def test_results_stream_into_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        out = map_trials(dist_trials.square, [1, 2, 3],
                         trial_cache=cache)
        assert out == [1, 4, 9]
        assert len(cache) == 3

    def test_partial_sweep_resumes_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        map_trials(dist_trials.square, [1, 2], trial_cache=cache)
        before = trials_executed()
        out = map_trials(dist_trials.square, [1, 2, 3],
                         trial_cache=cache)
        assert out == [1, 4, 9]
        assert trials_executed() - before == 1  # only the new point ran

    def test_seed_is_part_of_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = map_trials(dist_trials.seeded, ["x"], seed=1,
                       trial_cache=cache)
        b = map_trials(dist_trials.seeded, ["x"], seed=2,
                       trial_cache=cache)
        assert a != b
        assert len(cache) == 2

    def test_unaddressable_fn_disables_trial_caching(self, tmp_path):
        cache = ResultCache(tmp_path)
        out = map_trials(lambda p: p + 1, [1, 2], trial_cache=cache)
        assert out == [2, 3]
        assert len(cache) == 0
        assert trial_key(lambda p: p, 1, None) is None

    def test_context_supplies_the_trial_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        with execution(trial_cache=cache):
            map_trials(dist_trials.square, [5])
        assert len(cache) == 1

    def test_fast_forward_mode_is_part_of_the_key(self, tmp_path):
        """An FF-on cache entry must never satisfy an FF-off run."""
        from repro.sim import fastforward

        cache = ResultCache(tmp_path)
        with fastforward.forced("on"):
            map_trials(dist_trials.square, [1], trial_cache=cache)
        before = trials_executed()
        with fastforward.forced("off"):
            map_trials(dist_trials.square, [1], trial_cache=cache)
        assert trials_executed() - before == 1  # recomputed, not served
        assert len(cache) == 2

    def test_error_aborted_pool_sweep_still_streams_completions(
            self, tmp_path):
        """Completed trials reach the cache even when a sibling point
        failed — resume-after-fix must skip the finished work."""
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError, match="boom 1"):
            map_trials(dist_trials.boom_odd, [0, 1, 2, 3, 4, 5],
                       backend="pool", workers=2, trial_cache=cache)
        assert len(cache) == 3  # the three even points landed


class TestProgress:
    def test_per_trial_callback_counts_up(self):
        calls = []
        map_trials(dist_trials.square, [1, 2, 3],
                   progress=lambda d, n, h: calls.append((d, n, h)))
        assert calls[0] == (0, 3, 0)
        assert calls[-1] == (3, 3, 0)
        assert [d for d, _, _ in calls] == sorted(d for d, _, _ in calls)

    def test_cache_hits_reported(self, tmp_path):
        cache = ResultCache(tmp_path)
        map_trials(dist_trials.square, [1, 2], trial_cache=cache)
        calls = []
        map_trials(dist_trials.square, [1, 2, 3], trial_cache=cache,
                   progress=lambda d, n, h: calls.append((d, n, h)))
        assert calls[0] == (2, 3, 2)  # served from cache up front
        assert calls[-1] == (3, 3, 2)


class TestSerialFallback:
    def test_unavailable_backend_names_itself_in_the_warning(self):
        class DoomedBackend(Backend):
            name = "doomed-test"

            def run(self, fn, points, seeds, *, workers=None,
                    on_result=None):
                raise BackendUnavailable(OSError("no pipes left"))

        register_backend("doomed-test", DoomedBackend)
        try:
            with pytest.warns(RuntimeWarning,
                              match=r"'doomed-test'.*no pipes left"):
                out = map_trials(dist_trials.square, [1, 2],
                                 backend="doomed-test")
        finally:
            unregister_backend("doomed-test")
        assert out == [1, 4]  # the sweep still completed, serially

    def test_pool_unpicklable_fn_falls_back(self):
        with pytest.warns(RuntimeWarning, match="'pool'.*picklable"):
            out = map_trials(lambda p: p + 1, [1, 2], backend="pool",
                             workers=2)
        assert out == [2, 3]

    def test_pool_children_are_marked_as_workers(self):
        flags = map_trials(dist_trials.in_worker_flag, [0, 1],
                           backend="pool", workers=2)
        assert flags == [True, True]  # nested map_trials stays serial

    def test_pool_construction_failure_falls_back(self, monkeypatch):
        import concurrent.futures

        def explode(*args, **kwargs):
            raise OSError("fork unavailable")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            explode)
        with pytest.warns(RuntimeWarning,
                          match=r"'pool'.*fork unavailable"):
            out = map_trials(dist_trials.square, [1, 2, 3],
                             backend="pool", workers=2)
        assert out == [1, 4, 9]

    def test_trial_exceptions_are_not_swallowed(self):
        with pytest.raises(ValueError, match="boom 1"):
            map_trials(dist_trials.boom, [1, 2], backend="serial")

    def test_pool_raises_the_lowest_failing_index(self):
        with pytest.raises(ValueError, match="boom 1"):
            map_trials(dist_trials.boom, [1, 2, 3, 4], backend="pool",
                       workers=2)


class TestBackendCli:
    def test_unknown_backend_fails_cleanly(self, capsys):
        from repro.__main__ import main

        rc = main(["run", "fig4", "--backend", "warp-drive",
                   "--no-cache", "-p", "intensities=[1]",
                   "-p", "n_bits=4"])
        assert rc == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_explicit_serial_backend_runs(self, capsys):
        from repro.__main__ import main

        rc = main(["run", "fig4", "--backend", "serial", "--no-cache",
                   "-p", "intensities=[1]", "-p", "n_bits=4"])
        assert rc == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_env_backend_reaches_the_cli_sweep(self, capsys,
                                               monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv(BACKEND_ENV, "warp-drive")
        rc = main(["run", "fig4", "--no-cache", "-p", "intensities=[1]",
                   "-p", "n_bits=4"])
        assert rc == 2  # resolve fails loudly inside the sweep
        assert "warp-drive" in capsys.readouterr().err
