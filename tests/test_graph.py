import pytest

from widestpair import graph
from widestpair.graph import (
    Graph,
    PathPair,
    SplitMix64,
    TopologyError,
    _quote_int,
    assign_random_bandwidths,
    bottleneck,
    generate_random_graph,
    parse_topology,
    serialize_topology,
    validate_pair,
)
from widestpair.sample import FIVE_NODE_TEXT

from .conftest import suite_graphs
from .helpers import connected


def _shape(g: Graph) -> tuple[int, list[tuple[int, int, int]]]:
    """What makes two graphs equal: the node count and every (u, v, bw) link."""
    return g.n, g.links()


class TestParse:
    def test_smallest_valid(self):
        g = parse_topology("nodes 2\nlink 0 1 5")
        assert g.n == 2 and g.m == 1
        assert g.bandwidth(0, 1) == 5
        assert g.bandwidth(1, 0) == 5

    def test_five_node_fixture(self):
        g = parse_topology(FIVE_NODE_TEXT)
        assert g.n == 5 and g.m == 8
        assert g.bandwidth(0, 2) == 12
        assert g.bandwidth(1, 3) == 7

    def test_comments_and_blanks_ignored(self):
        g = parse_topology("# heading\n\nnodes 2\n# mid\nlink 0 1 3\n")
        assert g.m == 1

    def test_self_loop_reports_line(self):
        with pytest.raises(TopologyError, match="line 2.*self-loop"):
            parse_topology("nodes 2\nlink 0 0 5")

    def test_duplicate_link(self):
        with pytest.raises(TopologyError, match="line 3.*duplicate"):
            parse_topology("nodes 2\nlink 0 1 5\nlink 1 0 4")

    def test_bad_bandwidth(self):
        with pytest.raises(TopologyError, match="line 2.*bandwidth"):
            parse_topology("nodes 2\nlink 0 1 0")

    def test_node_out_of_range(self):
        with pytest.raises(TopologyError, match="line 2.*out of range"):
            parse_topology("nodes 2\nlink 0 2 5")

    def test_malformed_line(self):
        with pytest.raises(TopologyError, match="line 2"):
            parse_topology("nodes 2\nlink 0 1")

    def test_non_integer_field(self):
        with pytest.raises(TopologyError, match="line 2.*non-integer"):
            parse_topology("nodes 2\nlink 0 1 x")

    # Python parses at most 4,300 digits by default (sys.get_int_max_str_digits)
    def test_too_long_bandwidth(self):
        with pytest.raises(TopologyError, match="line 2: integer field is too long: 5000 digits"):
            parse_topology("nodes 2\nlink 0 1 " + "7" * 5000)

    def test_too_long_node_count(self):
        with pytest.raises(TopologyError, match="line 1: integer field is too long: 5000 digits"):
            parse_topology("nodes " + "9" * 5000)

    def test_long_non_digit_field_still_non_integer(self):
        with pytest.raises(TopologyError, match="line 2.*non-integer"):
            parse_topology("nodes 2\nlink 0 1 x" + "7" * 5000)
        with pytest.raises(TopologyError, match="line 1: node count is not an integer"):
            parse_topology("nodes x" + "9" * 5000)

    def test_signed_too_long_field(self):
        for sign in "-+":
            with pytest.raises(TopologyError, match="line 2: integer field is too long: 5000 digits"):
                parse_topology("nodes 2\nlink 0 1 " + sign + "7" * 5000)
            with pytest.raises(TopologyError, match="line 1: integer field is too long: 5000 digits"):
                parse_topology("nodes " + sign + "9" * 5000)

    def test_long_line_quoted_cut(self):
        for text, lineno, head in [
            ("nodes 2\nlink 0 1 x" + "7" * 100_000, 2, "non-integer field in 'link 0 1 x777"),
            ("foo" + "x" * 100_000, 1, "expected 'nodes <n>', got 'fooxxx"),
            ("nodes 2\nlink 0 1 2 " + "x" * 100_000, 2, "expected 'link <u> <v> <bw>', got 'link 0 1 2 xxx"),
            ("nodes x" + "9" * 100_000, 1, "node count is not an integer: 'x999"),
        ]:
            with pytest.raises(TopologyError) as info:
                parse_topology(text)
            message = str(info.value)
            assert message.startswith(f"line {lineno}: {head}")
            assert len(message) < 200

    def test_short_line_quoted_whole(self):
        for text, message in [
            ("nodes 2\nlink 0 1 x", "line 2: non-integer field in 'link 0 1 x'"),
            ("foo", "line 1: expected 'nodes <n>', got 'foo'"),
            ("nodes 2\nlink 0 1", "line 2: expected 'link <u> <v> <bw>', got 'link 0 1'"),
            ("nodes x", "line 1: node count is not an integer: 'x'"),
        ]:
            with pytest.raises(TopologyError) as info:
                parse_topology(text)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nodes 5\nlink {n} 1 5", "line 2: node id {q}... (4000 digits) out of range 0..4"),
            ("nodes -{n}", "line 1: node count must be >= 1, got -{q9}... (4000 digits)"),
            ("nodes 5\nlink 0 1 -{n}", "line 2: bandwidth must be >= 1, got -{q9}... (4000 digits)"),
        ],
        ids=["node-id", "node-count", "bandwidth"],
    )
    def test_long_integer_quoted_cut(self, text, message):
        # 4,000 digits parse, so the error is the graph's, which quotes the
        # integer's first 80 characters (sign included) and its digit count
        with pytest.raises(TopologyError) as info:
            parse_topology(text.format(n="9" * 4000))
        assert str(info.value) == message.format(q="9" * 80, q9="9" * 79)

    def test_short_integer_quoted_whole(self):
        for text, message in [
            ("nodes 5\nlink 7 1 5", "line 2: node id 7 out of range 0..4"),
            ("nodes -3", "line 1: node count must be >= 1, got -3"),
            ("nodes 5\nlink 0 1 -2", "line 2: bandwidth must be >= 1, got -2"),
        ]:
            with pytest.raises(TopologyError) as info:
                parse_topology(text)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "text",
        [
            "  # indented comment\nnodes 3\n\t# tab-indented comment\n  link 0 1 5\nlink 1 2 7\n",
            "nodes\t3\nlink\t0\t1\t5\nlink 1\t 2 \t7\n",
            "nodes 3  \nlink 0 1 5 \t\nlink 1 2 7\x0b\n",
            "nodes 3\r\nlink 0 1 5\r\n# comment\r\nlink 1 2 7\r\n",
            "\n\nnodes 3\n\n   \nlink 0 1 5\n\t\n\x0c\nlink 1 2 7\n\n",
        ],
        ids=["indented-comments", "tabs", "trailing-blanks", "crlf", "blank-lines"],
    )
    def test_whitespace_variants_parse_as_plain_text(self, text):
        assert _shape(parse_topology(text)) == _shape(parse_topology("nodes 3\nlink 0 1 5\nlink 1 2 7\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nodes 2\n  link 0 1", "line 2: expected 'link <u> <v> <bw>', got 'link 0 1'"),
            ("\tnodes 2 3 \r\n", "line 1: expected 'nodes <n>', got 'nodes 2 3'"),
            ("nodes 2\n\n \tlink 0 1 x  ", "line 3: non-integer field in 'link 0 1 x'"),
        ],
        ids=["link", "nodes", "non-integer"],
    )
    def test_indented_malformed_line_quoted_stripped(self, text, message):
        with pytest.raises(TopologyError) as info:
            parse_topology(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("bound, n", [(5, 6), (1_000_000, 10**12)], ids=["small", "huge"])
    def test_node_count_over_bound_refused(self, monkeypatch, bound, n):
        monkeypatch.setattr(graph, "MAX_NODES", bound)
        with pytest.raises(TopologyError) as info:
            parse_topology(f"# a big one\nnodes {n}\nlink 0 1 5\n")
        assert str(info.value) == f"line 2: node count must be <= {bound} (widestpair.graph.MAX_NODES), got {n}"

    def test_missing_nodes_line(self):
        with pytest.raises(TopologyError):
            parse_topology("# only a comment\n")

    def test_link_before_nodes(self):
        with pytest.raises(TopologyError, match="line 1"):
            parse_topology("link 0 1 5\nnodes 2")

    def test_roundtrip_fixture(self):
        g = parse_topology(FIVE_NODE_TEXT)
        assert _shape(parse_topology(serialize_topology(g))) == _shape(g)

    def test_roundtrip_random(self):
        for g in suite_graphs(10):
            assert _shape(parse_topology(serialize_topology(g))) == _shape(g)


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_link(1, 1, 5)

    def test_rejects_duplicate(self):
        g = Graph(3)
        g.add_link(0, 1, 5)
        with pytest.raises(ValueError):
            g.add_link(1, 0, 7)

    def test_adjacency_symmetric(self):
        for g in suite_graphs(5):
            for u in range(g.n):
                for v in g.neighbors(u):
                    assert u in g.neighbors(v)

    @pytest.mark.parametrize(
        "n, message",
        [
            (0, "node count must be >= 1, got 0"),
            (-10**5000, f"node count must be >= 1, got -1{'0' * 78}... (5001 digits)"),
        ],
        ids=["zero", "past-str-limit"],
    )
    def test_bad_node_count_quoted(self, n, message):
        with pytest.raises(ValueError) as info:
            Graph(n)
        assert str(info.value) == message

    def test_node_count_bound_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_NODES", 5)
        assert Graph(5).n == 5
        with pytest.raises(ValueError) as info:
            Graph(6)
        assert str(info.value) == "node count must be <= 5 (widestpair.graph.MAX_NODES), got 6"


@pytest.mark.parametrize("digits", [1, 79, 80, 81, 4299, 4300])
def test_quote_int_matches_str_cut(digits):
    # below Python's int-to-str limit the quote is str(x) cut to 80
    # characters, sign included, plus the digit count
    for x in (10 ** (digits - 1), 10**digits - 1, 10 ** (digits - 1) + 7):
        for v in (x, -x):
            text = str(v)
            expected = text if len(text) <= 80 else f"{text[:80]}... ({digits} digits)"
            assert _quote_int(v) == expected


class TestSplitMix:
    def test_reference_vector_seed_zero(self):
        # canonical splitmix64 outputs for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


class TestAssignBandwidths:
    def test_max_bw_one_forces_unit(self, five_node):
        g = assign_random_bandwidths(five_node, 1, seed=7)
        assert all(bw == 1 for _, _, bw in g.links())

    def test_deterministic(self, five_node):
        a = assign_random_bandwidths(five_node, 5000, seed=42)
        b = assign_random_bandwidths(five_node, 5000, seed=42)
        assert _shape(a) == _shape(b)

    def test_seed_changes_assignment(self, five_node):
        a = assign_random_bandwidths(five_node, 5000, seed=1)
        b = assign_random_bandwidths(five_node, 5000, seed=2)
        assert _shape(a) != _shape(b)

    def test_topology_preserved(self, five_node):
        g = assign_random_bandwidths(five_node, 9, seed=3)
        assert [(u, v) for u, v, _ in g.links()] == [(u, v) for u, v, _ in five_node.links()]

    def test_range(self, five_node):
        g = assign_random_bandwidths(five_node, 10, seed=11)
        assert all(1 <= bw <= 10 for _, _, bw in g.links())

    def test_empirical_mean_near_uniform(self):
        # uniform over 1..10 has mean 5.5; 1000 seeds x 20 links
        base = generate_random_graph(10, 20, seed=0)
        total = 0
        count = 0
        for seed in range(1000):
            g = assign_random_bandwidths(base, 10, seed=seed)
            for _, _, bw in g.links():
                total += bw
                count += 1
        mean = total / count
        assert abs(mean - 5.5) / 5.5 < 0.05

    def test_rejects_bad_max(self, five_node):
        with pytest.raises(ValueError):
            assign_random_bandwidths(five_node, 0, seed=1)


class TestGenerate:
    def test_two_nodes_forced(self):
        g = generate_random_graph(2, 1, seed=123)
        assert g.n == 2 and g.m == 1 and g.has_link(0, 1)

    def test_spanning_tree(self):
        g = generate_random_graph(5, 4, seed=5)
        assert g.m == 4 and connected(g)

    def test_counts_and_connectivity(self):
        g = generate_random_graph(10, 20, seed=7)
        assert g.n == 10 and g.m == 20 and connected(g)

    def test_deterministic(self):
        assert _shape(generate_random_graph(10, 20, seed=7)) == _shape(generate_random_graph(10, 20, seed=7))

    def test_always_connected(self):
        for k in range(50):
            n = 2 + k % 9
            m_hi = n * (n - 1) // 2
            m = n - 1 + k % (m_hi - n + 2)
            g = generate_random_graph(n, m, seed=k)
            assert g.m == m and connected(g)

    @pytest.mark.parametrize("n,m", [(5, 3), (5, 11), (4, 2), (2, 2)])
    def test_infeasible(self, n, m):
        with pytest.raises(ValueError, match="infeasible"):
            generate_random_graph(n, m, seed=1)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            generate_random_graph(1, 0, seed=1)

    @pytest.mark.parametrize(
        "n, m, pool",
        [(100_000, 100_000, 4_999_850_001), (2_002, 2_002, 2_001_000), (2_001, 2_001, None), (3_000, 2_999, None)],
        ids=["huge", "just-over", "at-bound", "tree"],
    )
    def test_link_pool_bound_checked_before_any_graph(self, monkeypatch, n, m, pool):
        # the unused pairs are listed only for extra links; a tree lists none
        class Built(Exception):
            pass

        def no_graph(*args):
            raise Built

        monkeypatch.setattr(graph, "Graph", no_graph)
        if pool is None:
            with pytest.raises(Built):
                generate_random_graph(n, m, seed=1)
        else:
            with pytest.raises(ValueError, match=f"pool of {pool} unused node pairs"):
                generate_random_graph(n, m, seed=1)

    @pytest.mark.parametrize("n, m", [(6, 5), (6, 9), (10**12, 10**12 - 1)], ids=["tree", "extra-links", "huge-tree"])
    def test_node_bound_checked_before_any_graph(self, monkeypatch, n, m):
        # a tree never reaches the link pool check, so the node bound
        # must come before the n ids are listed
        class Built(Exception):
            pass

        def no_graph(*args):
            raise Built

        monkeypatch.setattr(graph, "MAX_NODES", 5)
        monkeypatch.setattr(graph, "Graph", no_graph)
        with pytest.raises(ValueError, match=r"node count must be <= 5 \(widestpair.graph.MAX_NODES\)"):
            generate_random_graph(n, m, seed=1)


class TestBottleneck:
    def test_direct_link(self, five_node):
        assert bottleneck(five_node, (0, 2)) == 12

    def test_two_hops(self, five_node):
        assert bottleneck(five_node, (0, 1, 3)) == 7

    def test_single_node_rejected(self, five_node):
        with pytest.raises(ValueError):
            bottleneck(five_node, (0,))

    def test_unlinked_pair_rejected(self, five_node):
        with pytest.raises(ValueError):
            bottleneck(five_node, (0, 3))

    @pytest.mark.parametrize(
        "path, message",
        [
            # an unlinked hop before an out-of-range node is reported first
            ((0, 3, 9), "no link 0-3"),
            ((0, 2, 9), "node id 9 out of range 0..4"),
            ((9, 0, 3), "node id 9 out of range 0..4"),
            # node -1 would index node 4's row, and 4-2 is a link
            ((-1, 2), "node id -1 out of range 0..4"),
            ((2, -1), "node id -1 out of range 0..4"),
            ((0, 1, 2, 9), "no link 1-2"),
        ],
    )
    def test_errors_follow_the_path(self, five_node, path, message):
        with pytest.raises(ValueError) as exc:
            bottleneck(five_node, path)
        assert str(exc.value) == message

    def test_bounded_by_every_link_with_equality(self):
        for g in suite_graphs(10):
            # greedy sorted-neighbor walk gives an arbitrary simple path
            path = [0]
            used = {0}
            while True:
                nxt = [v for v in g.neighbors(path[-1]) if v not in used]
                if not nxt:
                    break
                path.append(nxt[0])
                used.add(nxt[0])
            if len(path) < 2:
                continue
            bws = [g.bandwidth(u, v) for u, v in zip(path, path[1:])]
            bn = bottleneck(g, path)
            assert all(bn <= bw for bw in bws)
            assert bn in bws


class TestValidatePair:
    def test_accepts_good_pair(self, five_node):
        pair = PathPair((0, 2, 4, 3), (0, 1, 3), 12, 7)
        validate_pair(five_node, pair)

    def test_rejects_shared_interior(self, five_node):
        pair = PathPair((0, 2, 4, 3), (0, 1, 4, 3), 12, 5)
        with pytest.raises(ValueError, match="interior"):
            validate_pair(five_node, pair)

    def test_rejects_duplicated_direct_link(self):
        g = Graph(2)
        g.add_link(0, 1, 5)
        pair = PathPair((0, 1), (0, 1), 5, 5)
        with pytest.raises(ValueError, match="share a link"):
            validate_pair(g, pair)

    def test_rejects_wrong_bottleneck(self, five_node):
        pair = PathPair((0, 2, 4, 3), (0, 1, 3), 12, 9)
        with pytest.raises(ValueError, match="blue"):
            validate_pair(five_node, pair)

    def test_rejects_mismatched_endpoints(self, five_node):
        pair = PathPair((0, 2, 4, 3), (0, 1, 4), 12, 5)
        with pytest.raises(ValueError, match="endpoints"):
            validate_pair(five_node, pair)
