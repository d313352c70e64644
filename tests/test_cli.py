"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import coarsen_influence_graph
from repro.graph import read_edge_list, write_edge_list

from .conftest import build_graph


@pytest.fixture
def edge_list(tmp_path):
    g = build_graph(6, [
        (0, 1, 0.9), (1, 0, 0.9), (1, 2, 0.5), (2, 3, 0.4),
        (3, 4, 0.4), (4, 5, 0.3),
    ])
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return str(path)


class TestDatasets:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "ameblo" in out
        assert "soc-slashdot" in out


class TestInfo:
    def test_edge_list_input(self, edge_list, capsys):
        assert main(["info", edge_list]) == 0
        out = capsys.readouterr().out
        assert "vertices: 6" in out
        assert "edges:    6" in out

    def test_dataset_input(self, capsys):
        assert main(["info", "dataset:wiki-talk:uc:1"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 6,000" in out

    def test_undirected_flag(self, edge_list, capsys):
        assert main(["info", edge_list, "--undirected"]) == 0
        assert "edges:    10" in capsys.readouterr().out  # 6 + reverses - dups


class TestCoarsen:
    def test_basic(self, edge_list, capsys):
        assert main(["coarsen", edge_list, "-r", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "|W| =" in out
        assert "|F| =" in out

    def test_output_files(self, edge_list, tmp_path, capsys):
        out_path = str(tmp_path / "coarse.txt")
        assert main(
            ["coarsen", edge_list, "-r", "4", "--seed", "0", "-o", out_path]
        ) == 0
        coarse = read_edge_list(out_path)
        assert coarse.n >= 1
        mapping = np.loadtxt(out_path + ".mapping", dtype=np.int64)
        assert mapping.size == 6

    def test_bounds_report(self, edge_list, capsys):
        assert main(
            ["coarsen", edge_list, "-r", "2", "--seed", "0", "--bounds"]
        ) == 0
        out = capsys.readouterr().out
        assert "reliability factor" in out
        assert "Theorem 6.1" in out

    @pytest.mark.parallel
    def test_parallel_flags(self, edge_list, capsys):
        assert main(
            ["coarsen", edge_list, "-r", "4", "--seed", "0",
             "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "parallel: workers=2" in out
        assert "meet tree depth 1" in out

    @pytest.mark.parallel
    def test_workers_clamp_reported(self, edge_list, capsys):
        assert main(
            ["coarsen", edge_list, "-r", "2", "--seed", "0",
             "--workers", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "workers=2 (clamped from 8)" in out

    def test_executor_flag_is_gone(self, edge_list, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["coarsen", edge_list, "--executor", "thread",
                  "--workers", "2"])
        assert exc.value.code == 2
        assert "--executor" in capsys.readouterr().err

    @pytest.mark.parallel
    def test_parallel_output_files_match_library(self, edge_list, tmp_path,
                                                 capsys):
        """``--workers 2 -o`` writes the coarse graph and mapping of
        Algorithm 6 for the same (r, workers, seed)."""
        path = str(tmp_path / "thread.txt")
        assert main(["coarsen", edge_list, "-r", "4", "--seed", "0",
                     "--workers", "2", "-o", path]) == 0
        expected = coarsen_influence_graph(read_edge_list(edge_list), r=4,
                                           rng=0, workers=2)
        want = str(tmp_path / "expected.txt")
        write_edge_list(expected.coarse, want)
        assert read_edge_list(path) == read_edge_list(want)
        assert np.array_equal(
            np.loadtxt(path + ".mapping", dtype=np.int64), expected.pi)


class TestEstimate:
    def test_plain(self, edge_list, capsys):
        assert main(
            ["estimate", edge_list, "--seeds", "0", "--simulations", "500"]
        ) == 0
        assert "Inf([0])" in capsys.readouterr().out

    def test_coarsened(self, edge_list, capsys):
        assert main(
            ["estimate", edge_list, "--seeds", "0,1", "--simulations", "500",
             "--coarsen", "-r", "4"]
        ) == 0
        assert "via coarse graph" in capsys.readouterr().out

    def test_bad_seed_list(self, edge_list, capsys):
        assert main(["estimate", edge_list, "--seeds", "0,banana"]) == 2
        assert "error" in capsys.readouterr().err

    def test_out_of_range_seed(self, edge_list, capsys):
        assert main(["estimate", edge_list, "--seeds", "99"]) == 2


class TestMaximize:
    @pytest.mark.parametrize("algorithm", ["degree", "ris", "dssa"])
    def test_algorithms(self, edge_list, capsys, algorithm):
        assert main(
            ["maximize", edge_list, "-k", "2", "--algorithm", algorithm,
             "--simulations", "500", "--eps", "0.25", "--seed", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "seeds:" in out
        seeds = out.splitlines()[0].split(":")[1].strip().split(",")
        assert len(seeds) == 2

    def test_coarsened(self, edge_list, capsys):
        assert main(
            ["maximize", edge_list, "-k", "1", "--algorithm", "degree",
             "--coarsen", "-r", "4", "--seed", "0"]
        ) == 0
        assert "via coarse graph" in capsys.readouterr().out


class TestMaximizeLT:
    def test_lt_model_on_wc_weights(self, tmp_path, capsys):
        from repro.datasets import assign_weighted_cascade
        from .conftest import build_graph

        g = assign_weighted_cascade(build_graph(6, [
            (0, 1, 0.9), (0, 2, 0.9), (0, 3, 0.9), (4, 5, 0.5),
        ]))
        path = tmp_path / "wc.txt"
        write_edge_list(g, path)
        assert main(["maximize", str(path), "-k", "1", "--algorithm", "ris",
                     "--model", "lt", "--simulations", "1000",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "seeds: 0"

    def test_lt_with_coarsen_rejected(self, edge_list, capsys):
        assert main(["maximize", edge_list, "-k", "1", "--model", "lt",
                     "--coarsen"]) == 2
        assert "IC-only" in capsys.readouterr().err

    def test_lt_with_celf_rejected(self, edge_list, capsys):
        assert main(["maximize", edge_list, "-k", "1", "--model", "lt",
                     "--algorithm", "celf"]) == 2
