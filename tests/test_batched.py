"""The one batch rule: every array kernel takes its rows through
`graphs._batched`, at most max(1, SOURCE_ENTRIES // entries) graphs at once
for the array entries it holds per graph.

These tests check the helper itself, that each of the five kernels gives
the same result however its batch is sliced, and that each kernel's batch
at every order is the size it is pinned to: 2^18 // n^2 graphs for the
Collatz-Wielandt bracket and the eigensolver, 2^17 // 2n^2 for the Tutte
certificate, 2^16 // 2^n for the subset scan and 2^18 // ((n-1)!! n/2) for
the perfect-matching cover, one graph at least.
"""

import random
from math import prod

import numpy as np
import pytest

from matchspec import enumeration, graphs, matching, spectral, theorems
from matchspec.enumeration import File
from matchspec.graphs import from_edge_list
from matchspec.matching import SUBSET_SCAN_CAP
from matchspec.theorems import TheoremId

FLOOR = 4.0  # splits every 25th n = 8 fixture graph: met, short, and tied at rho = 4

# name -> (the kernel on a batch of rows, its entries per graph at order n)
KERNELS = {
    "bracket": (lambda rows: theorems._radius_bracket(rows, FLOOR), lambda n: n * n),
    "radii": (spectral._radii, lambda n: n * n),
    "tutte": (lambda rows: matching._tutte_certified(rows, excludable=True),
              lambda n: 4 * n * n),
    "scan": (matching._berge_tutte_deficiencies, lambda n: 4 << n),
    "cover": (enumeration._covered_by_perfect_matching,
              lambda n: prod(range(n - 1, 0, -2)) * (n // 2)),
}

# name -> the batch each kernel has at order n, and the orders it is checked at:
# the subset scan stops at SUBSET_SCAN_CAP, and the cover, which lists the
# (n-1)!! perfect matchings of K_n, is asked about even orders up to 12
PINNED = {
    "bracket": (lambda n: max(1, (1 << 18) // (n * n)), range(2, 63)),
    "radii": (lambda n: max(1, (1 << 18) // (n * n)), range(2, 63)),
    "tutte": (lambda n: max(1, (1 << 17) // (2 * n * n)), range(2, 63)),
    "scan": (lambda n: max(1, (1 << 16) >> n), range(2, SUBSET_SCAN_CAP + 1)),
    "cover": (lambda n: max(1, (1 << 18) // KERNELS["cover"][1](n)), range(2, 13, 2)),
}


def _random_rows(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """The (count, n) neighbour bit rows of `count` random graphs of order n."""
    upper = np.triu(rng.random((count, n, n)) < 0.5, 1)
    bits = (upper | upper.transpose(0, 2, 1)).astype(np.uint64) << np.arange(n, dtype=np.uint64)
    return bits.sum(axis=2, dtype=np.uint64).astype(np.min_scalar_type((1 << n) - 1))


def _record_slices(monkeypatch, run: bool = True) -> list[int]:
    """The lengths of the slices every kernel is given from now on; with
    `run` false a kernel is run on none of a slice's rows, where only the
    slicing is under test."""
    sizes = []
    batched = graphs._batched

    def recording(kernel, rows, entries):
        return batched(lambda part: sizes.append(len(part)) or kernel(part if run else part[:0]),
                       rows, entries)

    for module in (graphs, theorems, spectral, matching):
        monkeypatch.setattr(module, "_batched", recording)
    return sizes


@pytest.fixture(scope="module")
def n8_rows(n8_fixture_path):
    return graphs._decode_cells(File(n8_fixture_path).graph6_cells, 8)[0]


def test_batched_slices_a_batch_and_joins_along_the_last_axis(monkeypatch):
    monkeypatch.setattr(graphs, "SOURCE_ENTRIES", 12)
    rows = np.arange(22, dtype=np.uint8).reshape(11, 2)
    seen = []

    def kernel(part):
        seen.append(part)
        return part.T  # (2, len(part)): the batch last

    assert np.array_equal(graphs._batched(kernel, rows, 3), rows.T)  # 4 rows a slice
    assert [len(part) for part in seen] == [4, 4, 3]
    assert all(np.shares_memory(part, rows) for part in seen)
    # a batch that fits, or an empty one, goes to the kernel as it is, and
    # its result comes back as the kernel gave it
    for batch in (rows[:4], rows[:1], rows[:0]):
        seen.clear()
        result = object()
        assert graphs._batched(lambda part: seen.append(part) or result, batch, 3) is result
        assert len(seen) == 1 and seen[0] is batch
    # a graph that holds more entries than the budget is a slice of its own
    seen.clear()
    graphs._batched(kernel, rows, 13)
    assert [len(part) for part in seen] == [1] * 11


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_result_is_independent_of_the_budget(monkeypatch, n8_rows, name):
    # the default budget, one graph a slice, and slices of 7 that leave a
    # shorter last one: every 25th graph of the n = 8 fixture, or random
    # graphs of order 10 for the subset scan
    kernel, entries = KERNELS[name]
    if name == "scan":
        rng = random.Random(10)
        rows = np.array([from_edge_list(10, [(u, v) for u in range(10) for v in range(u + 1, 10)
                                             if rng.random() < 0.3]).adj for _ in range(45)],
                        dtype=np.uint16)
    else:
        rows = n8_rows[::25]
    assert len(rows) % 7
    results, sliced = [], _record_slices(monkeypatch)
    for budget, slices in ((graphs.SOURCE_ENTRIES, 1), (1, len(rows)),
                           (7 * entries(rows.shape[1]), len(rows) // 7 + 1)):
        monkeypatch.setattr(graphs, "SOURCE_ENTRIES", budget)
        sliced.clear()
        results.append(kernel(rows))
        assert len(sliced) == slices, budget
    first = results[0]
    for result in results[1:]:
        if isinstance(first, list):
            assert result == first
        else:
            assert np.array_equal(result, first, equal_nan=True)
    if name == "bracket":
        assert (first >= FLOOR).any() and (first < FLOOR).any() and np.isnan(first).any()


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_takes_an_empty_batch(name):
    kernel, _ = KERNELS[name]
    result = kernel(np.zeros((0, 8), dtype=np.uint8))
    if name == "scan":
        assert result == []
    else:
        assert result.shape == (0,)


@pytest.mark.parametrize("name", KERNELS)
def test_kernel_batch_is_pinned_at_every_order(monkeypatch, name):
    # one graph more than the pinned batch: a full slice and then one graph
    kernel, _ = KERNELS[name]
    pinned, orders = PINNED[name]
    rng = np.random.default_rng(len(name))
    sliced = _record_slices(monkeypatch, run=False)
    for n in orders:
        sliced.clear()
        kernel(_random_rows(rng, pinned(n) + 1, n))
        assert sliced == [pinned(n), 1], n


def test_kernel_batches_at_n8_and_at_large_orders(monkeypatch):
    # graphs at once, run at n = 8 and at the largest order each kernel
    # reaches: 62, SUBSET_SCAN_CAP = 20, and 12 for the cover
    rng = np.random.default_rng(8)
    sliced = _record_slices(monkeypatch)
    batches = {}
    for name, (kernel, _) in KERNELS.items():
        pinned, orders = PINNED[name]
        for n in (8, orders[-1]):
            sliced.clear()
            kernel(_random_rows(rng, pinned(n) + 1, n))
            batches[name, n] = sliced[0]
            assert sliced == [pinned(n), 1], (name, n)
    assert batches == {
        ("bracket", 8): 4096, ("bracket", 62): 68, ("radii", 8): 4096, ("radii", 62): 68,
        ("tutte", 8): 1024, ("tutte", 62): 17, ("scan", 8): 256, ("scan", 20): 1,
        ("cover", 8): 624, ("cover", 12): 4}
