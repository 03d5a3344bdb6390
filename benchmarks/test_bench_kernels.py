"""Ablation bench: kernel implementation choices.

* dense NumPy Floyd-Warshall vs the SciPy (C) implementation — the paper
  offloads the diagonal-block solve to SciPy/MKL;
* min-plus product across block sizes — the rank-1 sweep kernel every
  blocked solver spends its time in;
* dense vs per-source Dijkstra on a sparse instance — the paper argues the
  dense-block representation is the right default because the matrix fills in
  quickly.
"""

import pytest

from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg.kernels import floyd_warshall, floyd_warshall_scipy
from repro.linalg.semiring import minplus_product
from repro.sequential.dijkstra import apsp_dijkstra

N = 160


@pytest.fixture(scope="module")
def kernel_graph():
    return erdos_renyi_adjacency(N, seed=77)


def test_bench_floyd_warshall_numpy(benchmark, kernel_graph):
    benchmark(lambda: floyd_warshall(kernel_graph))


def test_bench_floyd_warshall_scipy(benchmark, kernel_graph):
    benchmark(lambda: floyd_warshall_scipy(kernel_graph))


def test_bench_apsp_dijkstra_sparse(benchmark, kernel_graph):
    benchmark.pedantic(lambda: apsp_dijkstra(kernel_graph),
                       rounds=1, iterations=1, warmup_rounds=0)


@pytest.mark.parametrize("block", (64, 128, 256))
def test_bench_minplus_block_size(benchmark, block):
    a = erdos_renyi_adjacency(block, seed=block)
    benchmark.extra_info["block"] = block
    benchmark.extra_info["gop"] = 2.0 * block ** 3 / 1e9
    benchmark(lambda: minplus_product(a, a))
