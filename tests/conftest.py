"""Shared test data: one small multi-source corpus, indexed every way.

Session-scoped so the corpus and indexes build once; all fixtures are
deterministic (seeded generators), so test order cannot change results.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.cells import cell_sets_from_pdf
from repro.core.update import DitsLocalIndex
from repro.core.framework import make_center
from repro.synth_spatial import SPACE, generate_corpus_pdf, pick_queries

THETA = 12
F = 10


def raw_cells(cells: np.ndarray, seed: int) -> np.ndarray:
    """The same cell set with about a third of its cells repeated, in
    shuffled order: input that is not in canonical form."""
    g = np.random.default_rng(seed)
    out = np.concatenate([cells, g.choice(cells, len(cells) // 3 + 1)])
    g.shuffle(out)
    return out


@pytest.fixture(scope="session")
def points_pdf():
    return generate_corpus_pdf(scale=0.005, max_points_per_dataset=120)


@pytest.fixture(scope="session")
def corpus(points_pdf):
    """{source_id: {dataset_id: sorted cell array}} at theta=12."""
    return cell_sets_from_pdf(points_pdf, SPACE, THETA)


@pytest.fixture(scope="session")
def union_datasets(corpus):
    """All sources merged into one {dataset_id: cells} corpus."""
    return {d: c for src in corpus.values() for d, c in src.items()}


@pytest.fixture(scope="session")
def dits(union_datasets):
    """One DITS-L over the merged corpus (single-source view)."""
    return DitsLocalIndex(union_datasets, THETA, F)


@pytest.fixture(scope="session")
def center(corpus):
    """Multi-source framework: five sources + data center with DITS-G."""
    return make_center(corpus, THETA, F, SPACE)


@pytest.fixture(scope="session")
def query_ids(points_pdf):
    return pick_queries(points_pdf, 8)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(123)
