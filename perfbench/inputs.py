"""Seeded frame documents for the benchmark workloads.

Everything here uses numpy and the JSON wire format only, never ``ffk``:
the program under test receives the generated documents and nothing
else, so a change to ``ffk`` cannot change its own inputs.

Shapes (dimension, member count, subspace dimensions, field) are fixed
per workload; the seed only draws the entries.  That keeps the amount of
work per run independent of the seed, so runs on different seeds can be
compared.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA = "ffk/1"


def _entry(z, field):
    if field == "complex":
        return [float(z.real), float(z.imag)]
    return float(z)


def _gaussian(rng, shape, field):
    G = rng.standard_normal(shape)
    if field == "complex":
        G = G + 1j * rng.standard_normal(shape)
    return G


def _unitary(rng, n, field):
    Q, R = np.linalg.qr(_gaussian(rng, (n, n), field))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def document(n, field, members, local_frames=None):
    """Document tree from ``members`` = [(span matrix n x d, weight)].

    Spanning vectors are the columns of each span matrix; local frames
    (one n x m matrix per member) are written the same way.
    """
    tree = {
        "schema_version": SCHEMA,
        "field": field,
        "dimension": n,
        "subspaces": [
            {
                "weight": float(w),
                "vectors": [[_entry(z, field) for z in column] for column in V.T],
            }
            for V, w in members
        ],
    }
    if local_frames is not None:
        tree["local_frames"] = [
            [[_entry(z, field) for z in column] for column in L.T] for L in local_frames
        ]
    return tree


def random_members(rng, n, dims, field, weight_range=(0.5, 2.0)):
    """Gaussian spans of the given dimensions with uniform random weights."""
    weights = rng.uniform(*weight_range, size=len(dims))
    return [(_gaussian(rng, (n, int(d)), field), w) for d, w in zip(dims, weights)]


def to_text(tree) -> str:
    return json.dumps(tree)


# --- gallery families, written from their definitions ------------------------

def _coordinate(indices, n, field):
    V = np.zeros((n, len(indices)), dtype=complex if field == "complex" else float)
    for column, index in enumerate(indices):
        V[index, column] = 1.0
    return V


def gallery(name, n=None):
    """The four catalog families (7.1, 7.1-V, 7.2 at dimension n; 7.3)."""
    if name == "7.3":
        spans = ([0, 1, 2], [1, 2, 3], [3, 4], [0, 4])
        a, b = math.sqrt(2.0 / 3.0), 2.0 * math.sqrt(3.0) / 3.0
        members = [(_coordinate(idx, 5, "complex"), w) for idx, w in zip(spans, (a, b, a, b))]
        return document(5, "complex", members)
    lines = [_coordinate([i], n, "real") for i in range(n)]
    if name == "7.1":
        chosen = [lines[0]] * (n + 1) + lines[1:]
    elif name == "7.1-V":
        chosen = [line for line in lines for _ in range(2)]
    elif name == "7.2":
        chosen = lines
    else:
        raise ValueError(f"unknown gallery family {name!r}")
    return document(n, "real", [(V, 1.0) for V in chosen])


# --- per-workload input sets --------------------------------------------------

def cli_documents(rng):
    """Named documents for cli-small, with the analyze exit code expected.

    Returns a list of (name, tree, kind, expected analyze exit code),
    where kind is "gallery", "random", "bessel" or "system".
    """
    docs = []
    for n in (4, 8, 16):
        for name in ("7.1", "7.1-V", "7.2"):
            docs.append((f"g{name}-n{n}", gallery(name, n), "gallery", 0))
    docs.append(("g7.3", gallery("7.3"), "gallery", 0))
    for n, N, field in ((8, 10, "real"), (8, 12, "complex"), (16, 12, "real"), (16, 10, "complex")):
        dims = rng.integers(1, 5, size=N)
        while dims.sum() < n + 2:
            dims[rng.integers(N)] = 4
        docs.append((f"r{n}-{N}-{field}", document(n, field, random_members(rng, n, dims, field)), "random", 0))
    # Five subspaces confined to the first five of six coordinates: a
    # Bessel-only family, for which analyze exits with code 2.
    bessel = []
    for V, w in random_members(rng, 6, [1, 2, 1, 2, 2], "real"):
        V[5, :] = 0.0
        bessel.append((V, w))
    docs.append(("bessel6", document(6, "real", bessel), "bessel", 2))
    docs.append(("sys-parseval", _parseval_system(rng, 6), "system", 0))
    docs.append(("sys-orthogonal", _orthogonal_system(rng, 6), "system", 0))
    return docs


def _split(rng, n):
    cuts = np.sort(rng.choice(np.arange(1, n), size=2, replace=False))
    return np.split(np.arange(n), cuts)


def _parseval_system(rng, n):
    """Two scaled orthogonal decompositions (a Parseval fusion frame),
    each member carrying a Parseval local frame, possibly overcomplete."""
    members, locals_ = [], []
    for _ in range(2):
        U = _unitary(rng, n, "real")
        for piece in _split(rng, n):
            Q = U[:, piece]
            d = Q.shape[1]
            C = rng.standard_normal((d, d + int(rng.integers(0, 3))))
            values, vectors = np.linalg.eigh(C @ C.T)
            members.append((Q, 1.0 / math.sqrt(2.0)))
            locals_.append(Q @ ((vectors / np.sqrt(values)) @ vectors.T @ C))
    return document(n, "real", members, locals_)


def _orthogonal_system(rng, n):
    """A random frame whose members carry scaled orthogonal local frames."""
    members, locals_ = [], []
    for d in (2, 1, 3, 2, 2):
        Q, _ = np.linalg.qr(rng.standard_normal((n, d)))
        rotation = _unitary(rng, d, "real")
        members.append((Q, float(rng.uniform(0.5, 2.0))))
        locals_.append(Q @ (rotation * rng.uniform(0.5, 2.0, size=d)))
    return document(n, "real", members, locals_)


# (n, N, field) of the library-large frames.  Subspace dimensions
# alternate 3, 4, so every frame spans with room to spare.  On a 2-CPU
# x86 machine the pipeline takes about 3.9 s on the first shape, 0.3 s
# on the second and 2.2 to 2.6 s on the other three: the median of a
# run falls inside the nine samples of those three and the 90th
# percentile among those of the largest frame, not on the edge between
# two shapes' groups, which would make them jump from run to run.
LIBRARY_SHAPES = (
    (128, 48, "complex"),
    (64, 40, "real"),
    (128, 40, "real"),
    (96, 40, "complex"),
    (64, 48, "complex"),
)


def library_documents(rng, shapes=LIBRARY_SHAPES):
    out = []
    for n, N, field in shapes:
        dims = [3 + (i % 2) for i in range(N)]
        out.append((f"lib-n{n}-N{N}-{field}", to_text(document(n, field, random_members(rng, n, dims, field)))))
    return out


# (n, N, subspace dimension pattern, budget or None for the full budget
# N-1).  Equal dimensions in general position make every removal of up
# to the budget leave a frame, so the search enumerates all
# sum_k C(N, k) subsets whatever the seed.  The full-budget frame
# alternates lines and planes, so its search ends where the remaining
# dimensions drop below n.
ERASURE_SHAPES = (
    (8, 16, (2,), 4),
    (8, 18, (2,), 5),
    (12, 18, (2,), 4),
    (12, 20, (2,), 5),
    (16, 20, (2,), 4),
    (16, 22, (2,), 4),
    (16, 22, (2,), 5),
    (12, 16, (1, 2), None),
)


def erasure_documents(rng, shapes=ERASURE_SHAPES):
    out = []
    for index, (n, N, pattern, budget) in enumerate(shapes):
        field = "complex" if index % 2 else "real"
        dims = [pattern[i % len(pattern)] for i in range(N)]
        label = "full" if budget is None else f"b{budget}"
        name = f"ers-n{n}-N{N}-{label}-{field}"
        out.append((name, to_text(document(n, field, random_members(rng, n, dims, field))), budget))
    return out
