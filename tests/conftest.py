import gc
import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import random_connected_graph  # noqa: E402

from tightspan import build_injective_hull, fixture  # noqa: E402


def build_corpus() -> list[tuple[str, object]]:
    """The curated small-graph corpus: cycles, paths, wheels, named graphs,
    and 200 seeded random connected graphs, all with at most 8 vertices."""
    corpus = []
    for k in range(3, 9):
        corpus.append((f"C{k}", fixture(f"C{k}")))
    for k in range(2, 9):
        corpus.append((f"P{k}", fixture(f"P{k}")))
    for k in range(4, 8):
        corpus.append((f"W{k}", fixture(f"W{k}")))
    for name in ("house", "domino", "gem"):
        corpus.append((name, fixture(name)))
    for seed in range(200):
        corpus.append((f"random-{seed}", random_connected_graph(seed)))
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_hulls(corpus):
    """Injective hulls for every corpus graph, built once per session."""
    return {name: build_injective_hull(g) for name, g in corpus}


@pytest.fixture
def traced_rounds():
    """``rounds(call)``: the traced memory after each of four calls of
    ``call()``, with the cyclic collector off, so anything a call leaves in a
    reference cycle shows as growth."""

    def rounds(call, count=4):
        collecting = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            held = []
            for _ in range(count):
                call()
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
        return held

    return rounds
