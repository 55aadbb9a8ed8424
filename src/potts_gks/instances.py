"""Instance generators for the verification suites and experiments."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .model import PottsModel

# vertex i >= 6 is named f"v{i}"; a-f stay, as fuzz report digests hash them
_NAMES = ("a", "b", "c", "d", "e", "f")

# isomorphism-distinct simple graphs on up to 4 vertices, as index pairs
GRAPH_ATLAS: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = (
    (1, ()),
    (2, ()),
    (2, ((0, 1),)),
    (3, ()),
    (3, ((0, 1),)),
    (3, ((0, 1), (1, 2))),
    (3, ((0, 1), (1, 2), (0, 2))),
    (4, ()),
    (4, ((0, 1),)),
    (4, ((0, 1), (2, 3))),
    (4, ((0, 1), (1, 2))),
    (4, ((0, 1), (1, 2), (2, 3))),
    (4, ((0, 1), (0, 2), (0, 3))),
    (4, ((0, 1), (1, 2), (0, 2))),
    (4, ((0, 1), (1, 2), (2, 3), (3, 0))),
    (4, ((0, 1), (1, 2), (0, 2), (0, 3))),
    (4, ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3))),
    (4, ((0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3))),
)


def model_from_indices(
    n: int,
    edge_pairs,
    q: int,
    J=1.0,
    h=0.0,
) -> PottsModel:
    vertices = _NAMES[:n] + tuple(f"v{i}" for i in range(len(_NAMES), n))
    edges = tuple((vertices[i], vertices[j]) for i, j in edge_pairs)
    J_vec = tuple(J) if np.iterable(J) else (float(J),) * len(edges)
    h_vec = tuple(h) if np.iterable(h) else (float(h),) * n
    return PottsModel(vertices, edges, J_vec, h_vec, q)


def random_model(
    rng: np.random.Generator,
    q_values=(2, 3, 4, 5),
    n_range=(2, 4),
    edge_density: float = 0.5,
    J_range=(0.0, 2.0),
    h_range=(0.0, 1.5),
) -> PottsModel:
    """Erdos-Renyi graph with uniform random couplings and fields."""
    q = int(q_values[int(rng.integers(0, len(q_values)))])
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    candidates = list(combinations(range(n), 2))
    keep = rng.random(len(candidates)) < edge_density
    pairs = [e for e, k in zip(candidates, keep) if k]
    J = rng.uniform(*J_range, size=len(pairs)).tolist()
    h = rng.uniform(*h_range, size=n).tolist()
    return model_from_indices(n, pairs, q, J=J, h=h)


def verification_suite() -> list[PottsModel]:
    """The 56 suite instances: one field-free model at J = 1 per atlas graph
    for q = 2 then q = 3, then 20 random weighted instances with fields
    drawn from seed 20250809.

    Every instance here satisfies |E+| <= 10, so all bond configurations
    are enumerable and the per-configuration identities can be checked
    exhaustively.
    """
    rng = np.random.default_rng(20250809)
    suite = [model_from_indices(n, pairs, q) for q in (2, 3) for n, pairs in GRAPH_ATLAS]
    suite += [random_model(rng) for _ in range(20)]
    return suite


def torus_grid(rows: int, cols: int, q: int, J: float, h: float) -> PottsModel:
    """Periodic grid; parallel edges from wrap-around are deduplicated.

    Site (r, c) is named s<r><c>, each index zero-padded to the digits of
    rows-1 and cols-1, so names stay distinct past ten rows or columns and
    grids up to 10x10 keep the unpadded names s00..s99."""
    wr, wc = len(str(rows - 1)), len(str(cols - 1))

    def name(r: int, c: int) -> str:
        return f"s{r:0{wr}d}{c:0{wc}d}"

    vertices = tuple(name(r, c) for r in range(rows) for c in range(cols))
    seen = set()
    edges = []
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                u = name(r, c)
                v = name((r + dr) % rows, (c + dc) % cols)
                key = frozenset((u, v))
                if u != v and key not in seen:
                    seen.add(key)
                    edges.append((u, v))
    return PottsModel(
        vertices, tuple(edges), (J,) * len(edges), (h,) * len(vertices), q
    )
