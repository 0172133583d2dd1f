"""Seeded benchmark inputs, written straight to the lzl graph file format.

The files are produced here with ``random.Random`` and plain string
formatting rather than through ``lzl.graphs``, so the same seed gives the
same bytes at every commit of the program under test.  Format: a header
``p <n> <m>`` and ``m`` lines ``e <u> <v>`` with ``1 <= u < v <= n``,
edges sorted.
"""

from __future__ import annotations

import hashlib
import os
import random


def _stream(seed: int, name: str) -> random.Random:
    # A string seed is hashed by random itself (sha512), so each input has
    # its own stream that does not depend on the order inputs are made in.
    return random.Random(f"perfbench:{seed}:{name}")


def _random_tree_edges(rng: random.Random, n: int, max_degree: int):
    """Random recursive tree: vertex i joins a uniform earlier vertex of
    degree below ``max_degree``.  Its shape varies less from seed to seed
    than a uniform labelled tree, which keeps the work per seed steady."""
    degree = [0] * n
    edges = set()
    for i in range(1, n):
        j = rng.choice([k for k in range(i) if degree[k] < max_degree])
        edges.add((j, i))
        degree[i] += 1
        degree[j] += 1
    return edges


def _random_connected(rng: random.Random, n: int, m: int, max_degree: int):
    """Random tree on n vertices plus random extra edges up to m in total,
    relabelled by decreasing degree.

    The Gray-code scan of ``iso_profile`` toggles vertex i in 2^-(i+1) of its
    steps at O(degree) each, so the labels of the high-degree vertices set
    its cost; fixing them keeps that cost steady from seed to seed."""
    edges = _random_tree_edges(rng, n, max_degree)
    degree = degrees(n, edges)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    rng.shuffle(pairs)
    for a, b in pairs:
        if len(edges) == m:
            break
        if degree[a] < max_degree and degree[b] < max_degree:
            edges.add((a, b))
            degree[a] += 1
            degree[b] += 1
    label = {v: i for i, v in enumerate(sorted(range(n), key=lambda v: (-degree[v], v)))}
    return {tuple(sorted((label[a], label[b]))) for a, b in edges}


def degrees(n: int, edges) -> list[int]:
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    return degree


def _torus_edges(a: int, b: int):
    """C_a box C_b: vertex (i, j) at index i*b + j."""
    edges = set()
    for i in range(a):
        for j in range(b):
            v = i * b + j
            for w in (i * b + (j + 1) % b, ((i + 1) % a) * b + j):
                edges.add((min(v, w), max(v, w)))
    return edges


def graph_text(n: int, edges) -> str:
    lines = [f"p {n} {len(edges)}"]
    lines += [f"e {a + 1} {b + 1}" for a, b in sorted(edges)]
    return "\n".join(lines) + "\n"


def make_inputs(seed: int) -> dict[str, tuple[int, set]]:
    """name -> (n, edge set) for every generated input of the benchmark."""
    return {
        "rand10": (10, _random_connected(_stream(seed, "rand10"), 10, 24, 9)),
        "rand16": (16, _random_connected(_stream(seed, "rand16"), 16, 32, 15)),
        "torus4x4": (16, _torus_edges(4, 4)),
        "tree512": (512, _random_tree_edges(_stream(seed, "tree512"), 512, 511)),
        "rand20": (20, _random_connected(_stream(seed, "rand20"), 20, 48, 7)),
    }


def write_inputs(seed: int, directory: str) -> dict[str, dict]:
    """Write every input file; name -> {path, sha256, n, m, max_degree}."""
    os.makedirs(directory, exist_ok=True)
    out = {}
    for name, (n, edges) in make_inputs(seed).items():
        text = graph_text(n, edges)
        path = os.path.join(directory, name + ".graph")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out[name] = {
            "path": path,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "n": n,
            "m": len(edges),
            "max_degree": max(degrees(n, edges)),
        }
    return out
