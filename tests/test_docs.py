"""Documentation consistency checks.

These keep the five deliverable documents honest: every benchmark file must
be indexed in DESIGN.md/benchmarks/README.md, the README's quickstart
imports must exist, and the experiment record must cover every table and
figure of the paper's evaluation.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestBenchmarkIndexes:
    def _bench_files(self):
        return sorted(
            p.name for p in (ROOT / "benchmarks").glob("bench_*.py")
        )

    def test_every_bench_listed_in_benchmarks_readme(self):
        readme = read("benchmarks/README.md")
        for name in self._bench_files():
            assert name in readme, f"{name} missing from benchmarks/README.md"

    def test_every_paper_table_and_figure_has_a_bench(self):
        files = " ".join(self._bench_files())
        for table in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11):
            assert f"table{table}" in files, f"Table {table} uncovered"
        for figure in (4, 5, 6, 7, 8, 9, 10):
            assert f"fig{figure}" in files, f"Figure {figure} uncovered"

    def test_every_bench_in_design_experiment_index(self):
        design = read("DESIGN.md")
        for name in self._bench_files():
            assert name in design, f"{name} missing from DESIGN.md index"


class TestExperimentsRecord:
    def test_covers_all_tables_and_figures(self):
        text = read("EXPERIMENTS.md")
        for table in (2, 3, 4, 5, 6, 7):
            assert f"## Table {table}" in text
        for figure in (4, 5, 6, 7, 8, 9, 10):
            assert f"## Figure {figure}" in text
        assert "Tables 8–11" in text or "## Table 8" in text

    def test_mentions_paper_and_measured(self):
        text = read("EXPERIMENTS.md")
        assert text.count("**Paper") >= 8
        assert text.count("**Measured") >= 8


class TestReadme:
    def test_quickstart_imports_resolve(self):
        import repro

        readme = read("README.md")
        block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
        for match in re.finditer(r"from repro import (.+)", block):
            for name in match.group(1).split(","):
                assert hasattr(repro, name.strip()), name

    def test_examples_table_matches_directory(self):
        readme = read("README.md")
        for script in sorted((ROOT / "examples").glob("*.py")):
            assert script.name in readme, f"{script.name} not in README"


class TestTheoryMap:
    def test_references_existing_modules(self):
        import importlib

        theory = read("docs/THEORY.md")
        for match in set(re.findall(r"`(repro\.[a-z_.]+)`", theory)):
            module_path = match
            # strip trailing attribute if it is not importable as a module
            try:
                importlib.import_module(module_path)
                continue
            except ImportError:
                pass
            parent, _, attr = module_path.rpartition(".")
            mod = importlib.import_module(parent)
            assert hasattr(mod, attr), f"THEORY.md references missing {match}"


class TestApiReference:
    def test_api_md_matches_generator(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "build_api_doc", ROOT / "scripts" / "build_api_doc.py")
        builder = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(builder)
        assert builder.render() == read("docs/API.md"), (
            "docs/API.md is stale; run python scripts/build_api_doc.py")
