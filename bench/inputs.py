"""Seeded inputs for the benchmark workloads.

LM(n, p, seed) is a seeded Linial-Meshulam 2-complex: every edge on the
vertices 1..n, plus each triangle, taken in ``itertools.combinations``
order, kept when ``random.Random(seed).random() < p``.  One generator
draws once per triangle, so the same (n, p, seed) always gives the same
complex.  Seeds are never reselected: an input on which a hypothesis
fails (for example H_1 infinite) is run as generated, and the checks
expect the output the theory predicts for it.
"""

from __future__ import annotations

import itertools
import random
from math import comb


def linial_meshulam(n, p, seed):
    """Facets of LM(n, p, seed): all edges, then the kept triangles."""
    rng = random.Random(seed)
    edges = list(itertools.combinations(range(1, n + 1), 2))
    triangles = [t for t in itertools.combinations(range(1, n + 1), 3) if rng.random() < p]
    return edges + triangles


def lm_f_vector(n, facets):
    """(f_-1, f_0, f_1, f_2) of an LM complex, counted without the library."""
    return (1, n, comb(n, 2), sum(1 for f in facets if len(f) == 3))


def write_facets(path, facets, title):
    """Write a facet file in the format ``simpcrit --facets`` reads."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {title}\n")
        for f in facets:
            fh.write(" ".join(map(str, f)) + "\n")
