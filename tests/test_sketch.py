"""The bottom-k influence-oracle suite (``pytest -m sketch``).

Three layers of evidence:

* **Differential** — oracle answers equal the exact live-edge influence
  ``(1/r) sum_i w(R_i(S))`` whenever the merged sketch is complete, and
  stay within the advertised ``sketch_eps(k, delta)`` envelope of it (and
  of an independent RIS estimate) when it is not.  The exact oracle
  reconstructs the realised rounds from :func:`repro.sketch.round_masks`
  at the oracle's own entropy.  The sketch arrays themselves equal a
  brute-force per-vertex bottom-k, whatever the build's block widths,
  and a digest recorded before block batching is pinned.
* **Properties** — Hypothesis checks answers are invariant under seed-set
  permutation (and duplication), and that determinism holds: one entropy,
  one bit pattern.
* **Serving** — ``ServiceConfig(estimator="sketch")`` routes ``/estimate``
  through a cached oracle whose epoch rebuilds are bit-for-bit cold
  builds, keyed apart from RR pools by the ``ModelKey.state`` dimension.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Delta
from repro.diffusion.reachability import reachable_mask
from repro.errors import AlgorithmError
from repro.estimators import (
    EstimateResult,
    available_estimators,
    estimate_with_report,
    estimator_spec,
    imm_sample_size,
    make_estimator,
)
from repro import obs
from repro.graph import InfluenceGraph
from repro.rng import indexed_rng
from repro.serve import InfluenceService, ServiceConfig
from repro.serve.cache import ModelKey
from repro.sketch import (
    DEFAULT_SKETCH_K,
    InfluenceOracle,
    SketchEstimator,
    round_masks,
    sketch_eps,
)
from repro.sketch import oracle as oracle_module

from .conftest import build_graph, random_graph

pytestmark = pytest.mark.sketch


def exact_live_edge_influence(graph: InfluenceGraph, entropy: int, r: int,
                              seeds) -> float:
    """``(1/r) sum_i w(R_i(seeds))`` over the oracle's own realised rounds."""
    keep = round_masks(graph, entropy, r)
    tails, heads = graph.tails(), graph.heads
    weights = graph.weights.astype(np.float64)
    seeds = np.asarray(seeds, dtype=np.int64)
    total = 0.0
    for i in range(r):
        t, h = tails[keep[i]], heads[keep[i]]
        order = np.argsort(t, kind="stable")
        counts = np.bincount(t, minlength=graph.n)
        indptr = np.zeros(graph.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total += weights[reachable_mask(indptr, h[order], seeds)].sum()
    return total / r


def brute_force_bottom_k(graph: InfluenceGraph, entropy: int, r: int,
                         k: int):
    """Per-vertex bottom-k by definition: sort every reachable item.

    Rounds come from :func:`round_masks`, ranks from the ``(entropy, r)``
    stream (exponentials over vertex weights); rank ties go to the smaller
    flat item, the build's processing order.
    """
    n = graph.n
    keep = round_masks(graph, entropy, r)
    ranks = (indexed_rng(entropy, r).standard_exponential((r, n))
             / graph.weights.astype(np.float64)[None, :]).ravel()
    tails, heads = graph.tails(), graph.heads
    reachable: "list[list[int]]" = [[] for _ in range(n)]
    for i in range(r):
        t, h = tails[keep[i]], heads[keep[i]]
        order = np.argsort(t, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(t, minlength=n), out=indptr[1:])
        for v in range(n):
            mask = reachable_mask(indptr, h[order], np.asarray([v]))
            reachable[v].extend((i * n + np.flatnonzero(mask)).tolist())
    out_ranks = np.full((n, k), np.inf)
    out_items = np.full((n, k), -1, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    for v in range(n):
        items = np.asarray(reachable[v], dtype=np.int64)
        items = items[np.lexsort((items, ranks[items]))][:k]
        out_ranks[v, :items.size] = ranks[items]
        out_items[v, :items.size] = items
        counts[v] = items.size
    return out_ranks, out_items, counts


def assert_matches_brute_force(oracle: InfluenceOracle) -> None:
    ranks, items, counts = brute_force_bottom_k(
        oracle.graph, oracle.entropy, oracle.r, oracle.k)
    assert np.array_equal(oracle.items, items)
    assert np.array_equal(oracle.ranks, ranks)
    assert np.array_equal(oracle.counts, counts)


def sketch_arrays_digest(oracle: InfluenceOracle) -> str:
    h = hashlib.blake2b(digest_size=16)
    for array in (oracle.ranks, oracle.items, oracle.counts):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@st.composite
def sketch_cases(draw):
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=len(pairs))) if pairs else []
    probs = draw(st.lists(st.floats(0.05, 1.0), min_size=len(edges),
                          max_size=len(edges)))
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(draw(st.lists(
            st.integers(1, 5), min_size=n, max_size=n)), dtype=np.int64)
    graph = InfluenceGraph.from_edges(
        n, np.asarray([u for u, _ in edges], dtype=np.int64),
        np.asarray([v for _, v in edges], dtype=np.int64),
        np.asarray(probs, dtype=np.float64), weights=weights)
    return graph, draw(st.integers(1, 4)), draw(st.integers(4, 12))


class TestBlockBatchedBuild:
    """The block-batched build against the definition of a bottom-k sketch."""

    @settings(max_examples=60, deadline=None)
    @given(case=sketch_cases(), seed=st.integers(0, 2**16))
    def test_matches_brute_force_bottom_k(self, case, seed):
        graph, r, k = case
        assert_matches_brute_force(InfluenceOracle(graph, r=r, k=k,
                                                   rng=seed))

    @pytest.mark.parametrize("n, m, r, k, complete", [
        (10, 35, 4, 64, True),  # k > r * n: every sketch complete
        (40, 400, 6, 8, False),  # dense: most sketches saturated
    ])
    def test_brute_force_complete_and_saturated(self, n, m, r, k,
                                                complete):
        oracle = InfluenceOracle(random_graph(n, m, seed=61), r=r, k=k,
                                 rng=62)
        assert bool((oracle.counts < k).all()) is complete
        if not complete:
            assert (oracle.counts == k).mean() > 0.5
        assert_matches_brute_force(oracle)

    def test_state_digest_pin(self):
        # Recorded from the one-item-at-a-time build that preceded block
        # batching.  The sketch arrays are exact arithmetic; the full
        # digest also hashes point estimates, which go through np.expm1.
        g = random_graph(2000, 20000, seed=0)
        oracle = InfluenceOracle(g, r=16, k=64, rng=0)
        assert sketch_arrays_digest(oracle) == (
            "cb882333f3e1d7cd1579e278910d6d3f")
        assert oracle.state_digest() == "82d0f94e5c823a9f3e4c1d6247ce5fb6"

    @pytest.mark.parametrize("n, m, r, k", [
        (60, 600, 8, 32),  # saturated
        (12, 30, 3, 64),  # complete
    ])
    def test_block_width_invariance(self, monkeypatch, n, m, r, k):
        g = random_graph(n, m, seed=7)
        digests = {}
        schedules = {
            "default": (1, oracle_module.SKETCH_BLOCK_CAP),
            "width 1": (1, 1),
            "odd width": (7, 7),
            "odd cap": (1, 5),
            "wider than r*n": (r * n + 3, r * n + 3),
        }
        for name, (first, cap) in schedules.items():
            monkeypatch.setattr(oracle_module, "_FIRST_BLOCK", first)
            monkeypatch.setattr(oracle_module, "SKETCH_BLOCK_CAP", cap)
            oracle = InfluenceOracle(g, r=r, k=k, rng=2)
            digests[name] = oracle.state_digest()
        assert len(set(digests.values())) == 1, digests

    def test_insertions_stay_near_k_per_vertex(self):
        # Recording stops once a vertex holds k insertions at a block's
        # start: the fold's input is far below the r * n * k the
        # per-copy sketches could hold.
        g = random_graph(300, 3000, seed=67)
        oracle = InfluenceOracle(g, r=8, k=16, rng=68)
        assert (oracle.counts == 16).all()
        assert oracle.stats.insertions < 4 * g.n * 16
        assert oracle.stats.pruned > 0


class TestEnvelope:
    def test_exact_when_sketches_complete(self):
        # k = 64 > r * n = 40 items: every sketch is complete, so every
        # answer must equal the exact live-edge influence to the bit.
        g = random_graph(10, 35, seed=3)
        oracle = InfluenceOracle(g, r=4, k=64, rng=0)
        for seeds in ([0], [3, 7], [0, 1, 2, 3], list(range(10))):
            exact = exact_live_edge_influence(g, oracle.entropy, 4, seeds)
            assert oracle.estimate(g, np.asarray(seeds)) == pytest.approx(
                exact, abs=1e-9)

    def test_point_queries_match_estimate(self):
        g = random_graph(30, 120, seed=5)
        oracle = InfluenceOracle(g, r=8, k=16, rng=1)
        for v in range(g.n):
            assert oracle.point(v) == oracle.estimate(g, np.asarray([v]))

    def test_batch_points_match_per_call(self):
        g = random_graph(30, 120, seed=5)
        oracle = InfluenceOracle(g, r=8, k=16, rng=1)
        batch = oracle.points(np.arange(g.n))
        assert batch.tolist() == [oracle.point(v) for v in range(g.n)]
        with pytest.raises(AlgorithmError):
            oracle.points(np.asarray([g.n]))
        with pytest.raises(AlgorithmError):
            oracle.points(np.asarray([], dtype=np.int64))

    def test_within_advertised_envelope_of_exact(self):
        # Saturated sketches (k << reachable items) on a dense graph: every
        # point estimate must sit inside the Chebyshev envelope.  The
        # build is deterministic (fixed rng), so this is a regression
        # pin, not a flaky statistical assertion.
        g = random_graph(60, 600, seed=7)
        r, k, delta = 8, 32, 0.05
        oracle = InfluenceOracle(g, r=r, k=k, rng=2)
        assert oracle.stats.pruned > 0  # sketches actually saturated
        eps = oracle.eps(delta)
        for v in range(g.n):
            exact = exact_live_edge_influence(g, oracle.entropy, r, [v])
            assert abs(oracle.point(v) - exact) <= eps * exact

    def test_seed_set_queries_within_envelope(self):
        g = random_graph(60, 600, seed=11)
        r, k = 8, 32
        oracle = InfluenceOracle(g, r=r, k=k, rng=3)
        rng = np.random.default_rng(0)
        eps = oracle.eps(0.05)
        for _ in range(20):
            seeds = rng.choice(g.n, size=rng.integers(2, 6), replace=False)
            exact = exact_live_edge_influence(g, oracle.entropy, r, seeds)
            assert abs(oracle.estimate(g, seeds) - exact) <= eps * exact

    def test_against_independent_ris(self):
        g = random_graph(50, 400, seed=13)
        oracle = InfluenceOracle(g, r=16, k=64, rng=4)
        ris = make_estimator("ris", n_samples=20_000, rng=5)
        for seeds in ([0], [1, 2], [10, 20, 30]):
            a = oracle.estimate(g, np.asarray(seeds))
            b = ris.estimate(g, np.asarray(seeds))
            # Two independent estimators of the same quantity: their gap
            # is bounded by the sum of the advertised errors.
            tolerance = (oracle.eps(0.05) + 1.0 / np.sqrt(20_000)) * b
            assert abs(a - b) <= tolerance

    def test_sketch_eps_monotone_in_k(self):
        assert sketch_eps(256) < sketch_eps(64) < sketch_eps(8)
        with pytest.raises(AlgorithmError):
            sketch_eps(2)
        with pytest.raises(AlgorithmError):
            sketch_eps(64, delta=0.0)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_permutation_and_duplication_invariance(self, data):
        g = random_graph(25, 100, seed=17)
        oracle = InfluenceOracle(g, r=4, k=8, rng=6)
        seeds = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1,
                                   max_size=6))
        base = oracle.estimate(g, np.asarray(seeds))
        permuted = data.draw(st.permutations(seeds))
        assert oracle.estimate(g, np.asarray(permuted)) == base
        assert oracle.estimate(g, np.asarray(seeds + seeds)) == base

    def test_identical_rebuild(self):
        g = random_graph(30, 150, seed=19)
        a = InfluenceOracle(g, r=8, k=16, rng=21)
        b = InfluenceOracle(g, r=8, k=16, rng=21)
        assert a.entropy == b.entropy
        assert a.state_digest() == b.state_digest()
        assert np.array_equal(a.point_estimates, b.point_estimates)

    def test_identity_binding(self):
        g = random_graph(10, 30, seed=23)
        other = random_graph(10, 30, seed=29)
        oracle = InfluenceOracle(g, r=2, k=8, rng=0)
        with pytest.raises(AlgorithmError, match="bound"):
            oracle.estimate(other, np.asarray([0]))

    def test_input_validation(self):
        g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        with pytest.raises(AlgorithmError):
            InfluenceOracle(g, r=0)
        with pytest.raises(AlgorithmError):
            InfluenceOracle(g, r=2, k=2)
        oracle = InfluenceOracle(g, r=2, k=8, rng=0)
        with pytest.raises(AlgorithmError):
            oracle.estimate(g, np.asarray([], dtype=np.int64))
        with pytest.raises(AlgorithmError):
            oracle.estimate(g, np.asarray([3]))
        with pytest.raises(AlgorithmError):
            oracle.point(-1)

    def test_sketch_estimator_rebinds_per_graph(self):
        est = SketchEstimator(r=4, k=8, rng=0)
        g1 = random_graph(12, 40, seed=31)
        g2 = random_graph(12, 40, seed=37)
        v1 = est.estimate(g1, np.asarray([0]))
        first = est.oracle_for(g1)
        assert est.oracle_for(g1) is first  # cached per graph object
        est.estimate(g2, np.asarray([0]))
        assert est.oracle_for(g2) is not first
        assert est.eps(0.05) == sketch_eps(8, 0.05)
        assert v1 >= 0.0


class TestRegistry:
    def test_menu_and_specs(self):
        assert available_estimators() == ("mc", "ris", "imm", "sketch")
        assert available_estimators(serving=True) == ("mc", "ris", "sketch")
        assert estimator_spec("sketch").oracle
        assert estimator_spec("ris").pooled
        with pytest.raises(AlgorithmError, match="choose from"):
            estimator_spec("dmp")

    def test_make_estimator_families(self):
        g = random_graph(20, 80, seed=41)
        seeds = np.asarray([0, 5])
        for family in available_estimators():
            est = make_estimator(family, rng=0)
            assert est.estimate(g, seeds) > 0
        with pytest.raises(AlgorithmError, match="bad options"):
            make_estimator("sketch", bogus=1)
        with pytest.raises(AlgorithmError, match="supports diffusion"):
            make_estimator("sketch", model="lt")

    def test_imm_sample_size(self):
        assert imm_sample_size(0.1, 0.01) >= imm_sample_size(0.3, 0.01)
        with pytest.raises(AlgorithmError):
            imm_sample_size(0.0, 0.1)
        with pytest.raises(AlgorithmError):
            imm_sample_size(0.1, 1.0)

    def test_estimate_with_report_folds_sketch_eps(self, paper_graph):
        from repro.core import coarsen_influence_graph

        result = coarsen_influence_graph(paper_graph, r=4, rng=0)
        out = estimate_with_report(paper_graph, result, [0], rng=0,
                                   estimator="sketch", k=16,
                                   reliability_samples=100)
        assert isinstance(out, EstimateResult)
        assert out.backend == "sketch"
        assert out.extras["advertised_eps"] == pytest.approx(
            sketch_eps(16, 0.05))
        assert out.guarantee_report is not None
        assert (out.guarantee_report.estimation_eps
                == pytest.approx(sketch_eps(16, 0.05)))
        fast = estimate_with_report(paper_graph, result, [0], rng=0,
                                    estimator="sketch", k=16, report=False)
        assert fast.guarantee_report is None
        assert fast.value == out.value  # the report never perturbs the value


class TestModelKeyState:
    def test_state_dimension_separates_artifacts(self):
        key = ModelKey("digest", 4, 0, "fwbw", "serial")
        assert key.state == "model"
        pool, sketch = key.for_state("pool"), key.for_state("sketch")
        assert len({key, pool, sketch}) == 3
        assert len({key.token(), pool.token(), sketch.token()}) == 3
        assert pool.for_state("model") == key
        assert sketch.as_meta()["state"] == "sketch"


class TestServing:
    def _graph(self):
        return random_graph(40, 200, seed=43)

    def test_sketch_estimator_routes_estimate(self):
        g = self._graph()
        with InfluenceService(ServiceConfig(
                r=4, n_samples=500, estimator="sketch", sketch_k=16)) as svc:
            result = svc.estimate(g, [0, 5])
            assert result.extras["estimator"] == "sketch"
            assert result.extras["k"] == 16
            assert result.report is not None  # guarantees ride along
            # The service clamps the advertised eps into [0, 1] for the
            # Framework translation (a relative error above 1 is vacuous).
            assert result.report.estimation_eps == pytest.approx(
                min(1.0, sketch_eps(16, svc.config.sketch_delta)))
            # Deterministic: the same query re-reads the same sketches.
            assert svc.estimate(g, [5, 0]).value == result.value
            stats = svc.stats()
            assert stats["estimator"]["family"] == "sketch"
            assert stats["estimator"]["queries"]["sketch"] == 2
            assert len(stats["estimator"]["oracles"]) == 1
            # /maximize still runs on the RR pool, untouched.
            answer = svc.maximize(g, k=2, n_samples=500)
            assert len(answer.seeds) == 2
            assert len(svc.stats()["pools"]) == 1

    def test_stats_report_cold_read_cost(self):
        g = self._graph()
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry), InfluenceService(ServiceConfig(
                r=4, estimator="sketch", sketch_k=16)) as svc:
            svc.estimate(g, [0])
            svc.estimate(g, [1])  # warm: no second build or report
            stats = svc.stats()["estimator"]
        assert stats["builds"].keys() == stats["oracles"].keys()
        (cost,) = stats["builds"].values()
        assert cost["build_seconds"] > 0 and cost["report_seconds"] > 0
        timers = registry.snapshot()["timers"]
        for name, key in (("serve.sketch.build_seconds", "build_seconds"),
                          ("serve.sketch.report_seconds",
                           "report_seconds")):
            assert timers[name]["count"] == 1
            assert timers[name]["total"] == pytest.approx(cost[key])

    def test_sketch_answer_matches_direct_oracle(self):
        g = self._graph()
        config = ServiceConfig(r=4, estimator="sketch", sketch_k=16)
        with InfluenceService(config) as svc:
            served = svc.estimate(g, [1, 2]).value
            model = svc.model_for(g)
        oracle = InfluenceOracle(model.coarse, r=config.r, k=16,
                                 rng=np.random.default_rng(config.seed))
        mapped = np.unique(model.pi[np.asarray([1, 2])])
        assert served == oracle.estimate(model.coarse, mapped)

    def test_family_counters_per_query(self):
        g = self._graph()
        with InfluenceService(ServiceConfig(r=4, n_samples=300)) as svc:
            svc.estimate(g, [0])
            assert svc.stats()["estimator"]["queries"] == {"ris": 1}
        with InfluenceService(ServiceConfig(
                r=4, n_samples=50, min_samples=50, estimator="mc")) as svc:
            result = svc.estimate(g, [0])
            assert result.extras["estimator"] == "mc"
            assert svc.stats()["estimator"]["queries"] == {"mc": 1}

    def test_config_validation(self):
        with pytest.raises(ValueError, match="estimator"):
            ServiceConfig(estimator="imm")
        with pytest.raises(ValueError, match="sketch_k"):
            ServiceConfig(sketch_k=2)
        with pytest.raises(ValueError, match="sketch_delta"):
            ServiceConfig(sketch_delta=1.5)

    @staticmethod
    def _absent_pair(g):
        """A vertex pair with no edge in either direction."""
        present = set(zip(g.tails().tolist(), g.heads.tolist()))
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if (u, v) not in present and (v, u) not in present:
                    return u, v
        raise AssertionError("graph is complete")

    def test_epoch_publish_rebuilds_bit_for_bit(self):
        # A delta that changes the coarse graph must invalidate the
        # oracle; the rebuilt oracle must equal a cold build on the new
        # model exactly (state digests compare every sketch byte).
        g = random_graph(30, 120, seed=47)
        config = ServiceConfig(r=4, sampler="addressable",
                               estimator="sketch", sketch_k=16)
        with InfluenceService(config) as svc:
            dynamic = svc.attach_dynamic(g)
            svc.estimate(dynamic.graph, [0])
            before = list(svc._oracles.values())[0].oracle
            u, v = self._absent_pair(g)
            summary = dynamic.apply_deltas([Delta("insert", u, v, 0.9),
                                            Delta("insert", v, u, 0.9)])
            after_graph = dynamic.graph
            svc.estimate(after_graph, [0])
            states = list(svc._oracles.values())
            assert len(states) == 1
            after = states[0].oracle
            if not summary["model_retained"]:
                assert after is not before
            # Cold-build comparison at the new epoch.
            cold_service = InfluenceService(config)
            cold_model = cold_service.model_for(after_graph)
            cold = InfluenceOracle(
                cold_model.coarse, r=config.r, k=config.sketch_k,
                rng=np.random.default_rng(config.seed),
            )
            assert after.state_digest() == cold.state_digest()
            cold_service.close()

    def test_retained_epoch_keeps_oracle_and_restates_report(self):
        # A near-no-op delta retained by the dynamic coarsener must NOT
        # pay an oracle rebuild — the binding moves to the new key.
        g = random_graph(30, 120, seed=53)
        config = ServiceConfig(r=4, sampler="addressable",
                               estimator="sketch", sketch_k=16)
        with InfluenceService(config) as svc:
            dynamic = svc.attach_dynamic(g)
            svc.estimate(dynamic.graph, [0])
            before = list(svc._oracles.values())[0].oracle
            u, v = self._absent_pair(g)
            summary = dynamic.apply_deltas([Delta("insert", u, v, 1e-6)])
            svc.estimate(dynamic.graph, [0])
            after = list(svc._oracles.values())[0].oracle
            if summary["model_retained"]:
                assert after is before


class TestDeprecationSurface:
    def test_registry_paths_warning_free(self):
        g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_estimator("sketch", r=2, k=8, rng=0).estimate(
                g, np.asarray([0]))
            with InfluenceService(ServiceConfig(
                    r=2, estimator="sketch", sketch_k=8)) as svc:
                svc.estimate(g, [0])
