"""Tests for coarsening persistence (save/load round trips)."""

import json

import numpy as np
import pytest

from repro.core import coarsen_influence_graph
from repro.core.persistence import load_coarsening, save_coarsening
from repro.errors import GraphFormatError

from .conftest import random_graph


class TestRoundTrip:
    def test_everything_preserved(self, tmp_path, two_cliques_graph):
        result = coarsen_influence_graph(two_cliques_graph, r=4, rng=0)
        path = tmp_path / "coarse.npz"
        save_coarsening(result, path)
        back = load_coarsening(path)
        assert back.coarse == result.coarse
        assert np.array_equal(back.pi, result.pi)
        assert back.partition == result.partition
        assert back.stats.r == 4
        assert back.stats.input_edges == two_cliques_graph.m

    def test_loaded_result_usable_by_frameworks(self, tmp_path,
                                                two_cliques_graph):
        from repro.estimators import make_estimator
        from repro.core import estimate_on_coarse

        result = coarsen_influence_graph(two_cliques_graph, r=4, rng=0)
        path = tmp_path / "coarse.npz"
        save_coarsening(result, path)
        back = load_coarsening(path)
        a = estimate_on_coarse(result, np.array([0]),
                               make_estimator("mc", n_samples=2_000, rng=1))
        b = estimate_on_coarse(back, np.array([0]),
                               make_estimator("mc", n_samples=2_000, rng=1))
        assert a == b

    def test_random_graphs_round_trip(self, tmp_path):
        for seed in range(3):
            g = random_graph(30, 90, seed=seed, p_low=0.3, p_high=0.95)
            result = coarsen_influence_graph(g, r=3, rng=seed)
            path = tmp_path / f"c{seed}.npz"
            save_coarsening(result, path)
            assert load_coarsening(path).coarse == result.coarse

    def test_stage_seconds_and_extras_preserved(self, tmp_path,
                                                two_cliques_graph):
        """v2 fixes the round trip dropping the very stats a parallel run
        produces: the per-stage breakdown and workers/rounds."""
        result = coarsen_influence_graph(two_cliques_graph, r=6, workers=3,
                                         rng=0)
        assert result.stats.stage_seconds  # sanity: there is something to lose
        path = tmp_path / "par.npz"
        save_coarsening(result, path)
        back = load_coarsening(path)
        assert back.stats.stage_seconds == result.stats.stage_seconds
        assert back.stats.extras["workers"] == 3
        assert back.stats.extras["requested_workers"] == 3
        assert back.stats.extras["rounds"] == result.stats.extras["rounds"]

    def test_numpy_scalars_in_extras_serialise(self, tmp_path,
                                               two_cliques_graph):
        result = coarsen_influence_graph(two_cliques_graph, r=2, rng=0)
        result.stats.extras["np_int"] = np.int64(7)
        result.stats.extras["np_float"] = np.float64(0.5)
        path = tmp_path / "npext.npz"
        save_coarsening(result, path)
        back = load_coarsening(path)
        assert back.stats.extras["np_int"] == 7
        assert back.stats.extras["np_float"] == 0.5


class TestPathNormalisation:
    def test_suffixless_path_round_trips(self, tmp_path, two_cliques_graph):
        """numpy silently appends .npz on save; load must follow suit."""
        result = coarsen_influence_graph(two_cliques_graph, r=3, rng=0)
        path = tmp_path / "coarse"  # no suffix
        save_coarsening(result, path)
        assert (tmp_path / "coarse.npz").exists()
        back = load_coarsening(path)  # same suffixless spelling
        assert back.coarse == result.coarse

    def test_suffixless_and_suffixed_name_same_archive(self, tmp_path,
                                                       two_cliques_graph):
        result = coarsen_influence_graph(two_cliques_graph, r=3, rng=0)
        save_coarsening(result, tmp_path / "c")
        assert load_coarsening(tmp_path / "c.npz").coarse == result.coarse

    def test_missing_archive_reports_resolved_name(self, tmp_path):
        with pytest.raises(GraphFormatError,
                           match=r"gone\.npz: no such coarsening archive"):
            load_coarsening(tmp_path / "gone")


class TestVersionCompat:
    def test_v1_archive_still_loads(self, tmp_path, two_cliques_graph):
        """Archives written by the version-1 layout (no stage_seconds or
        extras in the meta blob) load with empty dicts."""
        result = coarsen_influence_graph(two_cliques_graph, r=4, workers=2,
                                         rng=0)
        path = tmp_path / "v1.npz"
        save_coarsening(result, path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["version"] = 1
        del meta["stage_seconds"]
        del meta["extras"]
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        back = load_coarsening(path)
        assert back.coarse == result.coarse
        assert np.array_equal(back.pi, result.pi)
        assert back.stats.r == 4
        assert back.stats.stage_seconds == {}
        assert back.stats.extras == {}

    def test_v2_archive_declares_version_2(self, tmp_path, two_cliques_graph):
        result = coarsen_influence_graph(two_cliques_graph, r=2, rng=0)
        path = tmp_path / "v2.npz"
        save_coarsening(result, path)
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
        assert meta["version"] == 2
        assert "stage_seconds" in meta
        assert "extras" in meta


class TestFormatGuards:
    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, wrong=np.arange(3))
        with pytest.raises(GraphFormatError, match="not a repro"):
            load_coarsening(path)

    def test_future_version_rejected(self, tmp_path, two_cliques_graph):
        import json

        result = coarsen_influence_graph(two_cliques_graph, r=2, rng=0)
        path = tmp_path / "coarse.npz"
        save_coarsening(result, path)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["version"] = 999
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(GraphFormatError, match="newer format"):
            load_coarsening(path)
