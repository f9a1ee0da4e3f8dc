"""Output checks, run untimed after each pass.

* Sampled exact answers (``sweep``, the sweep inside ``append``, exact-tier
  probes) are compared with two references: ``ApssEngine("exact-loop")``
  (the same pair set, similarities within 1e-9 — the repo's parity
  contract; the loop and the blocked kernel sum in different orders) and
  the reference kernel ``ApssEngine()`` (bit for bit: same pairs, same
  order, same float64 — so cache filtering, store landing, factorised
  decode and delta extension are shown to preserve the kernel's answer).
  The loop costs 3–15 s on a whole 600–1200-row dataset, so each sampled
  answer is checked on a seeded *row sample*: the endpoints of a few
  answered pairs plus random rows.  A pair's similarity depends on its two
  rows only, so both references over the sub-dataset must reproduce the
  answer restricted to those rows; a missing, extra or differing pair
  among them is a violation.
* Sampled ``topk`` answers equal a raw-floor ``TopKReducer`` pass over an
  independent kernel floor.
* Sketch-tier answers are scored against the twin pairs the neardup
  generator planted; the pooled recall of a pass must not fall
  significantly (3 σ, binomial) below the advertised ``1 − ε`` bound.  A
  single answer misses the bound about one time in three at 128 hashes, so
  the bound is checked as what it is — an expectation.
* ``fsck`` of the store root is clean and the ``/dev/shm`` segment and
  claim-directory oracles are empty.
"""

from __future__ import annotations

import glob
import math
import os

import numpy as np

from repro.similarity import ApssEngine
from repro.similarity.streaming import TopKReducer
from repro.store import fsck

SAMPLED_PAIRS = 8
SAMPLED_ROWS = 40
LOOP_TOLERANCE = 1e-9


class Checker:
    """The per-pass reference state: a seeded sampler and floor memo."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.loop = ApssEngine("exact-loop")
        self.kernel = ApssEngine()
        self._floors: dict[tuple, object] = {}

    def exact_answer(self, dataset, threshold: float, measure: str,
                     pairs) -> list[str]:
        """Violations of *pairs* against the reference loop on a row sample."""
        rows = set(self.rng.choice(
            dataset.n_rows, size=min(SAMPLED_ROWS, dataset.n_rows),
            replace=False).tolist())
        if pairs:
            for index in self.rng.choice(len(pairs), size=min(
                    SAMPLED_PAIRS, len(pairs)), replace=False):
                rows.update((pairs[index].first, pairs[index].second))
        rows = sorted(rows)
        member = set(rows)
        served = [p.as_tuple() for p in pairs
                  if p.first in member and p.second in member]
        sample = dataset.subset(rows)
        kernel = [(rows[p.first], rows[p.second], p.similarity)
                  for p in self.kernel.search(sample, threshold,
                                              measure).pairs]
        loop = [(rows[p.first], rows[p.second], p.similarity)
                for p in self.loop.search(sample, threshold, measure).pairs]
        where = (f"exact answer on {dataset.name} at {threshold} ({measure}), "
                 f"{len(rows)}-row sample")
        found = []
        if served != kernel:
            found.append(f"{where}: not bit-identical to the reference "
                         f"kernel ({len(served)} served pairs, "
                         f"{len(kernel)} expected)")
        if ([p[:2] for p in served] != [p[:2] for p in loop]
                or any(abs(a[2] - b[2]) > LOOP_TOLERANCE
                       for a, b in zip(served, loop))):
            found.append(f"{where}: differs from exact-loop")
        return found

    def topk(self, dataset, k: int, threshold: float, measure: str,
             pairs) -> list[str]:
        """Violations of a ``top_k_join`` answer against a raw-floor pass."""
        key = (id(dataset), measure)
        floor = self._floors.get(key)
        if floor is None or floor.threshold > threshold:
            floor = self.kernel.search(dataset, threshold, measure)
            self._floors[key] = floor
        kept = [p for p in floor.pairs if p.similarity >= threshold]
        reducer = TopKReducer(k)
        reducer.update(np.array([p.first for p in kept], dtype=np.int64),
                       np.array([p.second for p in kept], dtype=np.int64),
                       np.array([p.similarity for p in kept]))
        if reducer.pairs() == list(pairs):
            return []
        return [f"top_k_join on {dataset.name} at {threshold} ({measure}) "
                "differs from a raw-floor TopKReducer pass"]


def twin_recall(pairs, segments) -> tuple[int, int]:
    """``(found, planted)`` twin pairs of a neardup dataset in *pairs*.

    *segments* lists the ``(offset, n_rows)`` blocks the dataset was built
    from; block rows ``offset + i`` and ``offset + i + n_rows / 2`` are twins.
    """
    served = {(p.first, p.second) for p in pairs}
    planted = [(offset + i, offset + i + n_rows // 2)
               for offset, n_rows in segments for i in range(n_rows // 2)]
    return sum(pair in served for pair in planted), len(planted)


def recall_violations(found: int, planted: int, bound: float) -> list[str]:
    """The pooled-recall check of one pass (empty when nothing was served)."""
    if not planted:
        return []
    slack = 3.0 * math.sqrt(bound * (1.0 - bound) / planted)
    if found / planted >= bound - slack:
        return []
    return [f"sketch-tier recall {found / planted:.4f} over {planted} planted "
            f"pairs is below its bound {bound:.3f} by more than 3 sigma"]


def store_violations(root) -> list[str]:
    """``fsck`` errors of the store at *root*."""
    return [f"fsck: {error}" for error in fsck(root).errors]


def leaked_shm(pid: int) -> list[str]:
    """``/dev/shm`` segments and claim directories left by process *pid*."""
    return sorted(glob.glob(os.path.join("/dev/shm", f"ra{pid:x}-*")))
