"""Hypothesis strategies for graphs and pruning sequences."""

from hypothesis import strategies as st

from tightspan import Graph
from tightspan.dh import KINDS, PruningSequence, PruningStep


@st.composite
def connected_graphs(draw, min_n=2, max_n=8):
    """Connected graph: random spanning tree plus a sprinkling of extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for v in range(1, n):
        edges.add((draw(st.integers(0, v - 1)), v))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=2 * n) if pairs else st.just([]))
    edges.update(extra)
    return Graph.from_edge_list(n, sorted(edges))


@st.composite
def graphs(draw, min_n=1, max_n=8):
    """Any graph, connected or not, isolated vertices included."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n) if pairs else st.just([]))
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


@st.composite
def pruning_sequences(draw, min_n=1, max_n=12):
    """Structurally valid random build sequences (second vertex never a false twin)."""
    n = draw(st.integers(min_n, max_n))
    steps = []
    for v in range(1, n):
        kind = draw(st.sampled_from(KINDS))
        if v == 1 and kind == "false_twin":
            kind = "true_twin"
        anchor = draw(st.integers(0, v - 1))
        steps.append(PruningStep(v, kind, anchor))
    return PruningSequence(tuple(range(n)), tuple(steps))


@st.composite
def glued_graphs(draw, max_n=7):
    """Two connected graphs glued at one vertex, then relabelled at random, so
    the cut vertex and the blocks' vertices fall anywhere in the order."""
    a = draw(connected_graphs(min_n=1, max_n=max_n))
    b = draw(connected_graphs(min_n=1, max_n=max_n))
    cut = draw(st.integers(0, a.n - 1))
    # b's vertex 0 becomes a's cut vertex, b's others follow a's vertices
    image = [cut] + list(range(a.n, a.n + b.n - 1))
    edges = a.edges() + [(image[u], image[v]) for u, v in b.edges()]
    n = a.n + b.n - 1
    perm = draw(st.permutations(range(n)))
    return Graph.from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])
