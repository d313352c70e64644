"""Unit tests for edge-list text I/O."""

import numpy as np
import pytest

from repro.datasets.generators import powerlaw_social_graph
from repro.datasets.probabilities import assign_trivalency
from repro.errors import GraphFormatError
from repro.graph import GraphBuilder, InfluenceGraph, read_edge_list, write_edge_list
from repro.graph.io import _parse_columns, _parse_lines

from .conftest import build_graph, random_graph


class TestReadEdgeList:
    def test_basic_with_probabilities(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1 0.3\n1 2 0.7\n")
        g = read_edge_list(path)
        assert g.n == 3
        assert g.m == 2
        pairs = {(u, v): p for u, v, p in zip(*g.edge_arrays())}
        assert pairs[(0, 1)] == pytest.approx(0.3)

    def test_default_probability(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path, default_prob=0.25)
        assert g.probs[0] == pytest.approx(0.25)

    def test_undirected_flag(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5\n")
        g = read_edge_list(path, undirected=True)
        assert g.m == 2

    def test_reverse_flag(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5\n")
        g = read_edge_list(path, reverse=True)
        assert set(zip(*g.edge_arrays()[:2])) == {(1, 0)}

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0 0.5\n0 1 0.5\n")
        assert read_edge_list(path).m == 1

    def test_duplicates_combined(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.3\n0 1 0.2\n")
        g = read_edge_list(path)
        assert g.m == 1
        assert g.probs[0] == pytest.approx(0.44)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5 extra stuff\n")
        with pytest.raises(GraphFormatError, match="expected"):
            read_edge_list(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n0 1 0.5\n\n")
        assert read_edge_list(path).m == 1


class TestRoundTrip:
    def test_write_then_read_preserves_graph(self, tmp_path):
        g = build_graph(4, [(0, 1, 0.25), (1, 2, 0.5), (3, 0, 0.125)])
        path = tmp_path / "out.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back == g

    def test_write_without_probs(self, tmp_path):
        g = build_graph(3, [(0, 1, 0.25)])
        path = tmp_path / "out.txt"
        write_edge_list(g, path, include_probs=False)
        back = read_edge_list(path, default_prob=0.9)
        assert back.probs[0] == pytest.approx(0.9)


def _line_by_line(path, default_prob=0.1, undirected=False, reverse=False,
                  comment="#"):
    """The reference reader: every line through the line parser."""
    with open(path, encoding="utf-8") as handle:
        tails, heads, probs = _parse_lines(handle, path, comment,
                                           default_prob)
    if reverse:
        tails, heads = heads, tails
    builder = GraphBuilder()
    if undirected:
        builder.add_undirected_edges(tails, heads, probs)
    else:
        builder.add_edges(tails, heads, probs)
    return builder.build()


def _outcome(read, path, **kwargs):
    try:
        return "ok", read(path, **kwargs).digest()
    except Exception as exc:  # the exact type and message are compared
        return type(exc).__name__, str(exc)


class TestVectorizedRead:
    @pytest.fixture(scope="class")
    def graph(self):
        return assign_trivalency(powerlaw_social_graph(3000, rng=4), rng=5)

    @pytest.mark.parametrize("include_probs", [True, False])
    @pytest.mark.parametrize("flags", [
        {}, {"undirected": True}, {"reverse": True},
        {"undirected": True, "reverse": True},
    ])
    def test_round_trip_digest_equals_line_parser(self, tmp_path, graph,
                                                  include_probs, flags):
        path = tmp_path / "g.txt"
        write_edge_list(graph, path, include_probs=include_probs)
        with open(path) as handle:  # the one-pass parse is taken
            assert _parse_columns(handle, "#", 0.1) is not None
        got = read_edge_list(path, default_prob=0.2, **flags)
        assert got.digest() == _line_by_line(path, default_prob=0.2,
                                             **flags).digest()
        if include_probs and not flags:
            assert got.digest() == graph.digest()

    def test_comments_and_blank_lines(self, tmp_path):
        g = random_graph(300, 1500, seed=2)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        clean = read_edge_list(path).digest()
        lines = path.read_text().splitlines()
        noisy = ["# leading comment", ""]
        for i, line in enumerate(lines):
            noisy.append(line)
            if i % 97 == 0:
                noisy += ["", "#  interleaved comment", "   ", "\t"]
        path.write_text("\n".join(noisy) + "\n\n# trailing\n")
        with open(path) as handle:
            assert _parse_columns(handle, "#", 0.1) is not None
        assert read_edge_list(path).digest() == clean
        assert _line_by_line(path).digest() == clean

    def test_full_precision_probabilities(self, tmp_path):
        rng = np.random.default_rng(9)
        probs = rng.uniform(1e-6, 1.0, size=500).tolist()
        probs[0] = 0.4040065897332203  # -expm1(log1p(-p)) moves it one ulp
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{i} {i + 1} {p!r}\n"
                                for i, p in enumerate(probs)))
        with open(path) as handle:
            fast = _parse_columns(handle, "#", 0.1)
        assert fast is not None and fast[2].tolist() == probs
        read = read_edge_list(path)
        assert read.digest() == _line_by_line(path).digest()
        assert read.probs.tolist() == probs

        # write then read keeps every p bit for bit, for a graph built
        # directly and for one built through GraphBuilder from shuffled
        # input
        graph = InfluenceGraph.from_edges(501, np.arange(500),
                                          np.arange(1, 501), probs)
        order = rng.permutation(500)
        builder = GraphBuilder()
        builder.add_edges(order, order + 1, np.asarray(probs)[order])
        built = builder.build()
        assert built.probs.tobytes() == graph.probs.tobytes()
        for g in (graph, built):
            out = tmp_path / "out.txt"
            write_edge_list(g, out)
            back = read_edge_list(out)
            assert back.probs.tobytes() == g.probs.tobytes()
            assert back.digest() == g.digest()

    @pytest.mark.parametrize("text", [
        "0 1 0.5 extra stuff\n",  # today's malformed case
        "0 1 0.5\n1 2 0.5\n2 3 0.5\n3\n",  # short line, after good ones
        "0 1 0.5\n1 2 0.5 7 8\n",
        "0 1\n1 2 0.5\n2 3\n",  # mixed 2- and 3-column lines are valid
        "0 1 0.5\n1 2\n",
        "0 1.0 0.5\n",  # non-integral id
        "0 1 0.5\n1.5 2 0.5\n",
        "0 1 # inline\n",  # marker inside a line
        "0 1 0.5 # inline\n",
        "0 1 0.5\n   # indented comment\n1 2 0.5\n",
        "0 1 abc\n",
        "0 1 0\n",  # probability out of range
        "0 1 nan\n",
        "# only comments\n\n",
        "",
        "0 1 1_0\n",
        "99999999999999999999 1 0.5\n",
    ])
    def test_same_outcome_as_line_parser(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert _outcome(read_edge_list, path) == _outcome(_line_by_line,
                                                          path)

    def test_malformed_line_number_is_reported(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n0 1 0.5\n1 2 0.5\n\n2 3 0.5 x\n")
        with pytest.raises(GraphFormatError, match=r"g\.txt:5: expected"):
            read_edge_list(path)

    def test_custom_comment_marker(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("% header\n0 1 0.5\n% more\n1 2 0.25\n")
        assert (_outcome(read_edge_list, path, comment="")
                == _outcome(_line_by_line, path, comment=""))
        got = read_edge_list(path, comment="%")
        assert got.digest() == _line_by_line(path, comment="%").digest()
        assert got == InfluenceGraph.from_edges(
            3, np.array([0, 1]), np.array([1, 2]), np.array([0.5, 0.25]))
