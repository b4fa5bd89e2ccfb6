"""Fixed reference work that measures the machine's speed, not eaparse's.

A fresh interpreter imports numpy, runs breadth-first searches over a
Python adjacency list and a few hundred small numpy reductions: the same
mix of process start, import, Python loops and small-array numpy calls as a
pipeline operation. ``run.py`` times one of these per round and scales its
time metrics by the reference's median, so that a run taken while the
machine is slow reads like one taken while it is fast.
"""

from collections import deque

import numpy as np

N = 48
adj = [[] for _ in range(N * N)]
for r in range(N):
    for c in range(N):
        i = r * N + c
        if c + 1 < N:
            adj[i].append(i + 1)
            adj[i + 1].append(i)
        if r + 1 < N:
            adj[i].append(i + N)
            adj[i + N].append(i)
for _ in range(10):
    seen = [False] * (N * N)
    queue = deque([0])
    seen[0] = True
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
x = np.random.default_rng(0).normal(size=(10000, 3))
for _ in range(80):
    np.einsum("ni,ij,nj->n", x, np.eye(3), x)
