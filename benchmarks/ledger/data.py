"""Seeded input generators for the ledger's two data regimes.

The seed changes content, never sizes, mix or answer sizes: every pair
count below is fixed by construction, so latencies and stored bytes do not
move with ``--seed`` and a spread across seeds is machine noise.

``clustered-N``  dense answers.  A balanced Gaussian mixture in 24
    dimensions with the geometry of
    :func:`repro.datasets.make_clustered_vectors` (centroid norm ≈ 4·√24,
    unit cluster spread) but *orthogonal* centroids and round-robin
    cluster membership: every intra-cluster cosine is ≈ 0.94 and every
    cross-cluster cosine ≈ 0, so the answer at any threshold in
    [0.5, 0.8] is exactly the intra-cluster pairs (44 700 at N=600, k=4)
    whatever the seed, and floors land factorised.
    ``make_clustered_vectors`` itself draws memberships and centroids at
    random, which moves the pair count — and with it every decode time
    and stored byte — by several per cent from seed to seed.
``neardup-N``  sparse answers.  N/2 binary 40-term documents over a
    2000-term vocabulary, each followed (at row ``i + N/2``) by a copy with
    4 terms swapped: cosine 0.9 and Jaccard 36/44 to its twin, < 0.4 to
    anything else, so every answer is exactly N/2 pairs and floors land
    raw.  Built as CSR arrays directly.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.vectors import VectorDataset

N_FEATURES = 24
CENTROID_NORM = 4.0 * np.sqrt(N_FEATURES)
VOCABULARY = 2000
TERMS = 40
SWAPPED = 4


def csr_bytes(dataset: VectorDataset) -> int:
    """User bytes of one dataset generation: its three CSR arrays."""
    return (dataset.indptr.nbytes + dataset.indices.nbytes
            + dataset.data.nbytes)


def clustered(rng: np.random.Generator, n_rows: int, n_clusters: int,
              extra_rows: int = 0) -> tuple[VectorDataset, VectorDataset]:
    """A balanced ``clustered-N`` dataset plus *extra_rows* rows to append.

    Returns ``(base, tail)``; row ``i`` of the concatenation belongs to
    cluster ``i % n_clusters``, so appending consecutive slices of *tail*
    grows every cluster evenly.
    """
    if n_clusters > N_FEATURES:
        raise ValueError("orthogonal centroids need n_clusters <= 24")
    total = n_rows + extra_rows
    basis, _ = np.linalg.qr(rng.normal(size=(N_FEATURES, N_FEATURES)))
    centroids = CENTROID_NORM * basis[:n_clusters]
    points = (centroids[np.arange(total) % n_clusters]
              + rng.normal(size=(total, N_FEATURES)))
    base = VectorDataset.from_dense(points[:n_rows], prune_zeros=False,
                                    name=f"clustered-{n_rows}")
    tail = VectorDataset.from_dense(points[n_rows:], prune_zeros=False,
                                    name="clustered-tail")
    return base, tail


def clustered_pairs(n_rows: int, n_clusters: int) -> int:
    """The answer size of a ``clustered`` dataset of *n_rows* rows."""
    sizes = [len(range(c, n_rows, n_clusters)) for c in range(n_clusters)]
    return sum(s * (s - 1) // 2 for s in sizes)


def neardup(rng: np.random.Generator, n_rows: int) -> VectorDataset:
    """``neardup-N``: N/2 documents, then their N/2 twins.

    Also the shape of an append batch: each appended document's twin is in
    the same batch, so appending *n_rows* rows adds exactly ``n_rows / 2``
    pairs to every answer.
    """
    # Ranking uniform noise draws TERMS + SWAPPED distinct term ids per
    # document in one vectorised pass; the surplus ids replace the first
    # SWAPPED terms in the twin.
    noise = rng.random((n_rows // 2, VOCABULARY))
    drawn = np.argpartition(noise, TERMS + SWAPPED, axis=1)[
        :, :TERMS + SWAPPED].astype(np.int64)
    originals = drawn[:, :TERMS]
    twins = originals.copy()
    twins[:, :SWAPPED] = drawn[:, TERMS:]
    terms = np.sort(np.concatenate([originals, twins]), axis=1)
    return VectorDataset(np.arange(0, (n_rows + 1) * TERMS, TERMS),
                         terms.ravel(), np.ones(n_rows * TERMS),
                         VOCABULARY, name=f"neardup-{n_rows}")


def batches(tail: VectorDataset, size: int) -> list[VectorDataset]:
    """*tail* cut into consecutive append batches of *size* rows."""
    return [tail.subset(range(start, start + size))
            for start in range(0, tail.n_rows, size)]
