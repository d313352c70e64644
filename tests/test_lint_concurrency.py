"""Tests for reprolint's project-scope concurrency pass (RL101–RL104),
the stale-waiver detector (RL007), and the versioned JSON schema.

The per-rule fixture corpus lives in ``tests/lint_fixtures/concurrency/``
— one violating and one clean file per RL1xx rule.  Beyond the fixtures,
this file pins two load-bearing facts about the real serving layer: the
inferred guard map (every lock-guarded attribute named, zero unguarded
mutations) and the static lock-order graph (acyclic, with exactly the
expected cross-class edges).
"""

import json
import pathlib
import textwrap

import pytest

import repro
from repro.lint import (
    PROJECT_RULES,
    build_index,
    build_index_for_paths,
    lint_paths,
    lint_source,
    render_json,
    project_rule_ids,
)
from repro.lint.cli import all_rule_ids, main as lint_main
from repro.lint.engine import parse_source

FIXTURES = pathlib.Path(__file__).resolve().parent / "lint_fixtures"
CONCURRENCY = FIXTURES / "concurrency"
PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent
SERVE_DIR = PACKAGE_DIR / "serve"


def project_hits(name: str) -> list[tuple[str, int]]:
    violations = lint_paths(
        [CONCURRENCY / name], rules=[], project_rules=list(PROJECT_RULES)
    )
    return [(v.rule_id, v.line) for v in violations]


def index_sources(**modules: str) -> "object":
    """Build a ProjectIndex from in-memory module sources."""
    contexts = []
    for name, source in modules.items():
        pf = parse_source(textwrap.dedent(source), display=f"{name}.py")
        assert pf.error is None, pf.error
        contexts.append(pf.ctx)
    return build_index(contexts)


# (rule, bad fixture, expected violation lines, clean fixture)
RULE_CASES = [
    ("RL101", "rl101_bad.py", [23, 30], "rl101_ok.py"),
    ("RL102", "rl102_bad.py", [16], "rl102_ok.py"),
    ("RL103", "rl103_bad.py", [19], "rl103_ok.py"),
    ("RL104", "rl104_bad.py", [12, 15, 20], "rl104_ok.py"),
]


class TestProjectRules:
    @pytest.mark.parametrize(
        "rule_id,bad,lines,ok", RULE_CASES, ids=[c[0] for c in RULE_CASES]
    )
    def test_rule_fires_with_id_and_lines(self, rule_id, bad, lines, ok):
        assert project_hits(bad) == [(rule_id, line) for line in lines]

    @pytest.mark.parametrize(
        "rule_id,bad,lines,ok", RULE_CASES, ids=[c[0] for c in RULE_CASES]
    )
    def test_clean_fixture_is_clean(self, rule_id, bad, lines, ok):
        assert project_hits(ok) == []

    def test_catalogue(self):
        assert project_rule_ids() == ["RL101", "RL102", "RL103", "RL104"]
        assert set(project_rule_ids()) < set(all_rule_ids())

    def test_suppression_silences_project_rule(self):
        source = (CONCURRENCY / "rl101_bad.py").read_text(encoding="utf-8")
        waived = source.replace(
            "self._items.append(value)  # RL101",
            "self._items.append(value)  # reprolint: disable=RL101 -",
        )
        pf = parse_source(waived, display="rl101_waived.py")
        index = build_index([pf.ctx])
        raw = [v for rule in PROJECT_RULES for v in rule.check_project(index)]
        kept = [v for v in raw if not pf.suppressions.silences(v)]
        assert [(v.rule_id, v.line) for v in raw] == [
            ("RL101", 23), ("RL101", 30)]
        assert [(v.rule_id, v.line) for v in kept] == [("RL101", 30)]


class TestGuardInference:
    def test_annotation_disagreement_is_a_finding(self):
        index = index_sources(mod="""
            import threading

            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._x = 0  #: guarded-by: _a

                def bump(self):
                    with self._b:
                        self._x += 1
        """)
        rule = next(r for r in PROJECT_RULES if r.rule_id == "RL101")
        assert [v.line for v in rule.check_project(index)] == [12]

    def test_annotation_naming_unknown_lock_is_a_finding(self):
        index = index_sources(mod="""
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._x = 0  #: guarded-by: _typo_lock
        """)
        rule = next(r for r in PROJECT_RULES if r.rule_id == "RL101")
        messages = [v.message for v in rule.check_project(index)]
        assert len(messages) == 1
        assert "_typo_lock" in messages[0]

    def test_annotation_binds_one_statement_not_the_next_line(self):
        index = index_sources(mod="""
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._x = 0  #: guarded-by: _lock
                    self._y = 0

                def bump(self):
                    self._y += 1
        """)
        cls = index.classes["C"]
        assert cls.annotations == {"_x": "_lock"}

    def test_private_helper_inherits_entry_lockset(self):
        # _evict is only ever called with the lock held, so its bare
        # mutation of _items is guarded — the RL101 false positive the
        # entry-lockset fixed point exists to prevent.
        index = index_sources(mod="""
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v
                        self._evict()

                def _evict(self):
                    self._items.popitem()
        """)
        rule = next(r for r in PROJECT_RULES if r.rule_id == "RL101")
        assert rule.check_project(index) == []

    def test_escaped_helper_gets_no_entry_lockset(self):
        # The same helper handed to a callback loses the guarantee: the
        # analysis must not assume the lock travels with the reference.
        index = index_sources(mod="""
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, k, v):
                    with self._lock:
                        self._items[k] = v
                        self._evict()

                def spawn(self, runner):
                    runner(self._evict)

                def _evict(self):
                    self._items.popitem()
        """)
        rule = next(r for r in PROJECT_RULES if r.rule_id == "RL101")
        assert [v.line for v in rule.check_project(index)] == [18]


class TestCrossModule:
    def test_lock_order_inversion_across_classes(self):
        # service.step acquires Service._lock then (via the worker field)
        # Worker._lock; worker.ping does the reverse through its back
        # reference — a cycle no single file reveals.
        index = index_sources(
            service="""
                import threading
                from worker import Worker

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.worker = Worker(self)

                    def step(self):
                        with self._lock:
                            self.worker.poke()

                    def nudge(self):
                        with self._lock:
                            pass
            """,
            worker="""
                import threading

                class Worker:
                    def __init__(self, service: "Service"):
                        self._lock = threading.Lock()
                        self._service = service

                    def poke(self):
                        with self._lock:
                            pass

                    def ping(self):
                        with self._lock:
                            self._service.nudge()
            """,
        )
        cycles = index.lock_cycles()
        assert len(cycles) == 1
        nodes, witness = cycles[0]
        assert set(nodes) == {"Service._lock", "Worker._lock"}
        assert witness  # every cycle must carry evidencing edges
        rule = next(r for r in PROJECT_RULES if r.rule_id == "RL102")
        assert len(rule.check_project(index)) == 1

    def test_consistent_cross_class_order_is_clean(self):
        index = index_sources(
            service="""
                import threading
                from worker import Worker

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.worker = Worker()

                    def step(self):
                        with self._lock:
                            self.worker.poke()
            """,
            worker="""
                import threading

                class Worker:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def poke(self):
                        with self._lock:
                            pass
            """,
        )
        assert index.lock_cycles() == []


class TestServeLayer:
    """The acceptance-criteria assertions about the real serving code."""

    def test_inferred_guard_map(self):
        index = build_index_for_paths([SERVE_DIR])
        assert index.guard_map() == {
            "DynamicModel": {
                "_chain": "_mutate_lock",
                "_current": "_mutate_lock",
            },
            "InfluenceService": {
                "_depth": "_depth_lock",
                "_family_queries": "_count_lock",
                "_pools": "_pool_lock",
                "_shard": "_shard_lock",
                "_shard_error": "_shard_lock",
                "_shard_failed": "_shard_lock",
            },
            "ModelCache": {
                "_bytes": "_lock",
                "_models": "_lock",
            },
            "SamplePool": {
                "_coverage": "_lock",
                "_coverage_size": "_lock",
                "_rr_sets": "_lock",
            },
            "ShardRuntime": {
                "_broken": "_lock",
                "_models": "_lock",
                "_workers": "_lock",
            },
        }

    def test_zero_unguarded_mutations_in_serve(self):
        index = build_index_for_paths([SERVE_DIR])
        rule = next(r for r in PROJECT_RULES if r.rule_id == "RL101")
        assert rule.check_project(index) == []

    def test_serve_lock_graph_is_acyclic_with_expected_edges(self):
        index = build_index_for_paths([SERVE_DIR])
        assert index.lock_cycles() == []
        cross = {(a, b) for a, b, _ in index.lock_edges()
                 if a.split(".")[0] != b.split(".")[0]}
        assert cross == {
            ("DynamicModel._mutate_lock", "InfluenceService._pool_lock"),
            ("DynamicModel._mutate_lock", "ModelCache._lock"),
            ("InfluenceService._build_lock", "ModelCache._lock"),
            ("InfluenceService._shard_lock", "ShardRuntime._lock"),
        }

    def test_whole_library_passes_strict(self):
        violations = lint_paths(
            [PACKAGE_DIR], project_rules=list(PROJECT_RULES),
            report_unused=True,
        )
        assert violations == []


class TestModernSyntax:
    def test_walrus_and_match_parse_through_the_analyzer(self):
        source = textwrap.dedent("""
            import threading

            class Router:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._routes = {}

                def route(self, msg):
                    if (key := msg.get("key")) is None:
                        return None
                    match msg:
                        case {"op": "set", "value": value}:
                            with self._lock:
                                self._routes[key] = value
                        case {"op": "del"}:
                            with self._lock:
                                self._routes.pop(key, None)
                    return key
        """)
        assert lint_source(source) == []
        pf = parse_source(source, display="router.py")
        index = build_index([pf.ctx])
        rule = next(r for r in PROJECT_RULES if r.rule_id == "RL101")
        assert rule.check_project(index) == []
        assert index.guard_map() == {"Router": {"_routes": "_lock"}}

    def test_parenthesized_with_tracks_both_locks(self):
        source = textwrap.dedent("""
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self._n = 0

                def both(self):
                    with (self._a, self._b):
                        self._n += 1
        """)
        pf = parse_source(source, display="pair.py")
        index = build_index([pf.ctx])
        assert index.guard_map()["Pair"]["_n"] in {"_a", "_b"}
        assert ("Pair._a", "Pair._b") in {
            (a, b) for a, b, _ in index.lock_edges()
        }


class TestUnusedSuppressions:
    def test_stale_waiver_is_reported(self, tmp_path):
        target = tmp_path / "stale.py"
        target.write_text(
            "x = 1  # reprolint: disable=RL003 - nothing here needs it\n",
            encoding="utf-8",
        )
        violations = lint_paths([target], report_unused=True)
        assert [(v.rule_id, v.line) for v in violations] == [("RL007", 1)]
        assert "RL003" in violations[0].message

    def test_active_waiver_is_not_reported(self, tmp_path):
        target = tmp_path / "active.py"
        target.write_text(
            "import time\n"
            "t = time.time()  # reprolint: disable=RL005 - wall clock ok\n",
            encoding="utf-8",
        )
        assert lint_paths([target], report_unused=True) == []

    def test_waiver_for_unevaluated_rule_is_skipped(self, tmp_path):
        # RL101 only runs under --strict; without it the waiver cannot be
        # judged stale and must not be reported.
        target = tmp_path / "strict_only.py"
        target.write_text(
            "x = 1  # reprolint: disable=RL101 - needs strict\n",
            encoding="utf-8",
        )
        assert lint_paths([target], report_unused=True) == []
        strict = lint_paths(
            [target], project_rules=list(PROJECT_RULES), report_unused=True
        )
        assert [(v.rule_id, v.line) for v in strict] == [("RL007", 1)]

    def test_rl007_is_not_self_suppressible(self, tmp_path):
        target = tmp_path / "meta.py"
        target.write_text(
            "x = 1  # reprolint: disable=RL003,RL007 - have both\n",
            encoding="utf-8",
        )
        violations = lint_paths([target], report_unused=True)
        assert {v.rule_id for v in violations} == {"RL007"}


class TestJsonSchema:
    def test_schema_version_and_tally(self):
        violations = lint_paths(
            [CONCURRENCY / "rl104_bad.py"], rules=[],
            project_rules=list(PROJECT_RULES),
        )
        payload = json.loads(render_json(violations))
        assert payload["schema_version"] == 2
        assert payload["count"] == 3
        assert payload["tally"] == {"RL104": 3}
        assert list(payload["tally"]) == sorted(payload["tally"])
        assert [v["rule"] for v in payload["violations"]] == ["RL104"] * 3

    def test_empty_report_still_carries_version(self):
        payload = json.loads(render_json([]))
        assert payload == {
            "schema_version": 2, "count": 0, "tally": {}, "violations": [],
        }


class TestCli:
    def test_strict_flag_enables_project_rules(self, capsys):
        assert lint_main([str(CONCURRENCY / "rl102_bad.py")]) == 0
        capsys.readouterr()
        assert lint_main(["--strict", str(CONCURRENCY / "rl102_bad.py")]) == 1
        assert "RL102" in capsys.readouterr().out

    def test_bench_profile_drops_rl001_only(self, capsys):
        bad = FIXTURES / "rl001_bad.py"
        assert lint_main([str(bad)]) == 1
        capsys.readouterr()
        assert lint_main(["--profile", "bench", str(bad)]) == 0

    def test_benchmarks_and_scripts_pass_bench_profile(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        targets = [root / "benchmarks", root / "scripts"]
        present = [str(t) for t in targets if t.is_dir()]
        assert present, "benchmarks/ and scripts/ trees are gone?"
        assert lint_main(["--profile", "bench", *present]) == 0

    def test_list_rules_includes_project_pass(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL101", "RL102", "RL103", "RL104", "RL007"):
            assert rule_id in out
