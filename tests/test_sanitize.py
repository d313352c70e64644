"""Self-tests for the runtime lock sanitizer (:mod:`repro.sanitize`).

The acceptance bar: a *seeded* discipline violation (an ABBA inversion,
a self-deadlock, publication under a pool lock) must be detected and
reported with a witness, while the real serving layer — run under the
installed sanitizer — stays clean.  The threaded suites get the same
treatment automatically via the autouse fixture in ``conftest.py``.
"""

import threading

import pytest

from repro.errors import ReproError
from repro.sanitize import (
    LockDisciplineError,
    LockSanitizer,
    SanitizedLock,
    current_sanitizer,
    install_sanitizer,
    uninstall_sanitizer,
)
from repro.serve import InfluenceService, ModelKey, SamplePool, ServiceConfig

from .conftest import random_graph

# These tests install and inspect their own sanitizer; the autouse
# fixture in conftest.py leaves them alone even under REPRO_SANITIZE=1.
pytestmark = pytest.mark.sanitizer


def make_pair() -> "tuple[LockSanitizer, SanitizedLock, SanitizedLock]":
    sanitizer = LockSanitizer()
    return sanitizer, sanitizer.make_lock("A"), sanitizer.make_lock("B")


class TestInversionDetection:
    def test_seeded_abba_inversion_is_caught(self):
        sanitizer, a, b = make_pair()
        with a:
            with b:
                pass
        with b:
            with a:  # closes the cycle A -> B -> A
                pass
        kinds = [v.kind for v in sanitizer.violations]
        assert kinds == ["inversion"]
        with pytest.raises(LockDisciplineError) as excinfo:
            sanitizer.assert_clean()
        report = str(excinfo.value)
        assert "inversion" in report
        assert "A -> B" in report and "B -> A" in report

    def test_cross_thread_inversion_is_caught_without_deadlocking(self):
        # Thread one establishes A -> B, thread two (run strictly after,
        # so nothing can actually deadlock) acquires B -> A.  The graph
        # is global, so the inversion is still visible.
        sanitizer, a, b = make_pair()

        def order_ab():
            with a:
                with b:
                    pass

        def order_ba():
            with b:
                with a:
                    pass

        for target in (order_ab, order_ba):
            worker = threading.Thread(target=target)
            worker.start()
            worker.join()
        assert [v.kind for v in sanitizer.violations] == ["inversion"]

    def test_consistent_order_is_clean(self):
        sanitizer, a, b = make_pair()
        for _ in range(3):
            with a:
                with b:
                    pass
        sanitizer.assert_clean()
        assert sanitizer.edges() == [
            ("A", "B", sanitizer.edges()[0][2]),
        ]

    def test_three_lock_cycle_is_caught(self):
        sanitizer = LockSanitizer()
        a, b, c = (sanitizer.make_lock(n) for n in "ABC")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:  # A -> B -> C -> A
                pass
        assert [v.kind for v in sanitizer.violations] == ["inversion"]

    def test_peer_site_nesting_is_flagged(self):
        # Two locks sharing a creation site (two instances of one class)
        # can never have a consistent pairwise order.
        sanitizer = LockSanitizer()
        first = sanitizer.make_lock("Peer._lock")
        second = sanitizer.make_lock("Peer._lock")
        with first:
            with second:
                pass
        assert [v.kind for v in sanitizer.violations] == ["inversion"]


class TestSelfDeadlock:
    def test_plain_lock_reacquire_raises_instead_of_hanging(self):
        sanitizer = LockSanitizer()
        lock = sanitizer.make_lock("L")
        lock.acquire()
        try:
            with pytest.raises(LockDisciplineError):
                lock.acquire()
        finally:
            lock.release()
        assert [v.kind for v in sanitizer.violations] == ["self-deadlock"]

    def test_rlock_reacquire_is_fine(self):
        sanitizer = LockSanitizer()
        lock = sanitizer.make_lock("R", reentrant=True)
        with lock:
            with lock:
                pass
        sanitizer.assert_clean()

    def test_error_type_is_a_repro_error(self):
        assert issubclass(LockDisciplineError, ReproError)


class TestInstallation:
    def test_install_patches_and_uninstall_restores(self):
        original_lock, original_rlock = threading.Lock, threading.RLock
        sanitizer = install_sanitizer()
        try:
            assert current_sanitizer() is sanitizer
            assert threading.Lock is not original_lock
            assert threading.RLock is not original_rlock
            # Locks made by non-repro code stay real.
            assert not isinstance(threading.Lock(), SanitizedLock)
        finally:
            uninstall_sanitizer(sanitizer)
        assert threading.Lock is original_lock
        assert threading.RLock is original_rlock
        assert current_sanitizer() is None

    def test_second_install_is_rejected(self):
        sanitizer = install_sanitizer(patch_threading=False,
                                      patch_publish=False)
        try:
            with pytest.raises(LockDisciplineError):
                install_sanitizer()
        finally:
            uninstall_sanitizer(sanitizer)

    def test_repro_locks_are_wrapped(self):
        sanitizer = install_sanitizer()
        try:
            pool = SamplePool(random_graph(30, 90, seed=1), rng=0)
            assert isinstance(pool._lock, SanitizedLock)
            assert pool._lock.module == "repro.serve.pool"
            assert "pool" in pool._lock.site
        finally:
            uninstall_sanitizer(sanitizer)


class TestPublishGuard:
    def test_seeded_publish_under_pool_lock_is_caught(self):
        graph = random_graph(30, 90, seed=1)
        sanitizer = install_sanitizer()
        try:
            from repro.core import coarsen_influence_graph

            pool = SamplePool(graph, rng=0)
            svc = InfluenceService(ServiceConfig(r=4, n_samples=200,
                                                 min_samples=64))
            try:
                key = ModelKey.for_graph(graph, r=4, seed=0)
                model = coarsen_influence_graph(graph, r=4, rng=0)
                with pool._lock:  # the discipline breach under test
                    svc.cache.put(key, model)
            finally:
                svc.close()
            kinds = [v.kind for v in sanitizer.violations]
            assert kinds == ["held-across-publish"]
            with pytest.raises(LockDisciplineError) as excinfo:
                sanitizer.assert_clean()
            assert "ModelCache.put" in str(excinfo.value)
        finally:
            uninstall_sanitizer(sanitizer)

    def test_real_service_workload_is_clean(self):
        graph = random_graph(60, 200, seed=2)
        sanitizer = install_sanitizer()
        try:
            config = ServiceConfig(r=4, n_samples=500, min_samples=64)
            with InfluenceService(config) as svc:
                svc.estimate(graph, [0])
                svc.estimate(graph, [1, 2])
                svc.maximize(graph, 2)
            sanitizer.assert_clean()
            # The workload must actually have exercised sanitized locks.
            assert sanitizer.edges()
        finally:
            uninstall_sanitizer(sanitizer)


class TestReport:
    def test_report_dumps_order_witness(self):
        sanitizer, a, b = make_pair()
        with a:
            with b:
                pass
        report = sanitizer.report()
        assert "0 violations" in report
        assert "A -> B" in report

    def test_violations_are_deduplicated(self):
        sanitizer, a, b = make_pair()
        with a:
            with b:
                pass
        for _ in range(5):
            with b:
                with a:
                    pass
        assert len(sanitizer.violations) == 1
