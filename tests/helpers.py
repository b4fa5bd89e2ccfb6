"""Shared oracles and synthetic instances for the test suite.

Every oracle is an independent, deliberately naive implementation: double
loops, exhaustive enumeration, finite differences. They cannot share bugs
with the library's vectorized code paths, which is the point.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import eaparse as ea
from eaparse import boundary


# --- morphology / boundary oracles ---


def oracle_boundary(labels: np.ndarray) -> np.ndarray:
    h, w = labels.shape
    out = np.zeros((h, w), dtype=np.uint8)
    for r in range(h):
        for c in range(w):
            for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and labels[rr, cc] != labels[r, c]:
                    out[r, c] = 1
    return out


def oracle_dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    h, w = mask.shape
    out = np.zeros((h, w), dtype=np.uint8)
    for r in range(h):
        for c in range(w):
            for rr in range(h):
                for cc in range(w):
                    if mask[rr, cc] and (r - rr) ** 2 + (c - cc) ** 2 <= radius * radius:
                        out[r, c] = 1
    return out


def oracle_erode(mask: np.ndarray, radius: int) -> np.ndarray:
    h, w = mask.shape
    out = np.zeros((h, w), dtype=np.uint8)
    for r in range(h):
        for c in range(w):
            ok = True
            for dr in range(-radius, radius + 1):
                for dc in range(-radius, radius + 1):
                    if dr * dr + dc * dc <= radius * radius:
                        rr, cc = r + dr, c + dc
                        if not (0 <= rr < h and 0 <= cc < w and mask[rr, cc]):
                            ok = False
            out[r, c] = 1 if ok else 0
    return out


def forbid_disks_beyond(monkeypatch, limit):
    """Make ``boundary._disk_rows`` fail fast when asked for a radius above ``limit``."""
    real = boundary._disk_rows

    def spy(radius):
        if radius > limit:
            raise AssertionError(f"_disk_rows({radius}) asked for more than {limit}")
        return real(radius)

    monkeypatch.setattr(boundary, "_disk_rows", spy)


# --- metric oracles ---


def oracle_jaccard(pred: np.ndarray, gt: np.ndarray, class_id: int):
    inter = 0
    union = 0
    for r in range(pred.shape[0]):
        for c in range(pred.shape[1]):
            p = pred[r, c] == class_id
            g = gt[r, c] == class_id
            inter += int(p and g)
            union += int(p or g)
    if union == 0:
        return None
    return inter / union


def oracle_boundary_f(pred: np.ndarray, gt: np.ndarray, class_id: int, tolerance: int):
    """F via nearest-boundary distances, the O(|Bp| * |Bg|) definition."""
    bp = np.argwhere(oracle_boundary((pred == class_id).astype(np.uint8)) == 1)
    bg = np.argwhere(oracle_boundary((gt == class_id).astype(np.uint8)) == 1)
    if len(bp) == 0 and len(bg) == 0:
        return None
    if len(bp) == 0 or len(bg) == 0:
        return 0.0
    d2 = ((bp[:, None, :] - bg[None, :, :]) ** 2).sum(axis=2)
    t2 = tolerance * tolerance
    precision = int((d2.min(axis=1) <= t2).sum()) / len(bp)
    recall = int((d2.min(axis=0) <= t2).sum()) / len(bg)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def oracle_evaluate_frames(preds, gts, class_ids, tolerance=None) -> dict:
    """``evaluate_frames(...).to_json_dict()`` by a per-class, per-frame loop
    over :func:`oracle_jaccard` and :func:`oracle_boundary_f`, with the
    library's aggregation: value-sorted means, classes weighted equally."""
    j_scores = {int(c): [] for c in class_ids}
    f_scores = {int(c): [] for c in class_ids}
    for pred, gt in zip(preds, gts):
        tol = ea.default_tolerance(*pred.shape) if tolerance is None else tolerance
        for c in class_ids:
            c = int(c)
            j = oracle_jaccard(pred, gt, c)
            if j is not None:
                j_scores[c].append(j)
            f = oracle_boundary_f(pred, gt, c, tol)
            if f is not None:
                f_scores[c].append(f)
    scored = [(c, j_scores[c], f_scores[c]) for c in (int(c) for c in class_ids) if j_scores[c]]
    if not scored:
        return None  # evaluate_frames raises NoClassEverPresent
    per_class = {}
    for c, js, fs in scored:  # a repeated id is one JSON key but weighs once per repeat
        mf = float(np.mean(np.sort(fs))) if fs else 0.0
        per_class[str(c)] = {"J": float(np.mean(np.sort(js))), "F": mf, "frames": len(js)}
    mean_j = float(np.mean([per_class[str(c)]["J"] for c, _, _ in scored]))
    f_classes = [per_class[str(c)]["F"] for c, _, fs in scored if fs]
    mean_f = float(np.mean(f_classes)) if f_classes else 0.0
    return {"per_class": per_class, "mean_J": mean_j, "mean_F": mean_f, "J_and_F": (mean_j + mean_f) / 2.0}


# --- ensemble oracles: one allocation per step, four gathers per resize ---


def oracle_softmax_map(logits) -> np.ndarray:
    lg = ea.ensure_logits(logits).astype(np.float64)
    z = np.exp(lg - lg.max(axis=0, keepdims=True))
    return z / z.sum(axis=0, keepdims=True)


def oracle_resize_bilinear(tensor, out_height: int, out_width: int) -> np.ndarray:
    """Each output pixel blends its four source corners, gathered per corner."""
    a = np.asarray(tensor, dtype=np.float64)
    if a.ndim != 3:
        raise ea.InvalidRaster(f"expected a (C, H, W) tensor, got shape {a.shape}")
    h, w = a.shape[1:]
    if out_height < 1 or out_width < 1:
        raise ea.InvalidRaster("output size must be at least 1 x 1")
    if (h, w) == (out_height, out_width):
        return a.copy()

    def axis_coords(n_src: int, n_dst: int):
        src = (np.arange(n_dst, dtype=np.float64) + 0.5) * (n_src / n_dst) - 0.5
        src = np.clip(src, 0.0, n_src - 1.0)
        lo = np.floor(src).astype(np.int64)
        return lo, np.minimum(lo + 1, n_src - 1), src - lo

    r0, r1, fr = axis_coords(h, out_height)
    c0, c1, fc = axis_coords(w, out_width)
    fr = fr[:, None]
    fc = fc[None, :]
    top = a[:, r0][:, :, c0] * (1 - fc) + a[:, r0][:, :, c1] * fc
    bot = a[:, r1][:, :, c0] * (1 - fc) + a[:, r1][:, :, c1] * fc
    return top * (1 - fr) + bot * fr


def oracle_ensemble_probabilities(logits_list, out_height=None, out_width=None) -> np.ndarray:
    tensors = [ea.ensure_logits(t) for t in logits_list]
    if not tensors:
        raise ea.EmptyInput("ensemble needs at least one member")
    c = tensors[0].shape[0]
    for t in tensors[1:]:
        if t.shape[0] != c:
            raise ea.ChannelMismatch(f"members disagree on classes: {c} vs {t.shape[0]}")
    oh = out_height if out_height is not None else tensors[0].shape[1]
    ow = out_width if out_width is not None else tensors[0].shape[2]
    acc = np.zeros((c, oh, ow), dtype=np.float64)
    for t in tensors:
        acc += oracle_resize_bilinear(oracle_softmax_map(t), oh, ow)
    return acc / len(tensors)


# --- min-cut oracle ---


def oracle_min_cut(graph: ea.GridGraph) -> float:
    """Minimum cut by trying all 2^n source/sink partitions."""
    n = graph.source_cap.shape[0]
    bits = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)
    cut = (~bits * graph.source_cap).sum(axis=1) + (bits * graph.sink_cap).sum(axis=1)
    for (u, v), c in zip(graph.edges.tolist(), graph.edge_cap.tolist()):
        cut = cut + c * (bits[:, u] ^ bits[:, v])
    return float(cut.min())


def cut_value(graph: ea.GridGraph, side: np.ndarray) -> float:
    """Value of one concrete partition (side[i]=1 means source side)."""
    s = side.astype(bool)
    val = float(graph.source_cap[~s].sum() + graph.sink_cap[s].sum())
    for (u, v), c in zip(graph.edges.tolist(), graph.edge_cap.tolist()):
        if s[u] != s[v]:
            val += c
    return val


def random_grid_graph(rng: np.random.Generator, max_nodes: int = 12) -> ea.GridGraph:
    """A small 8-connected grid with dyadic-rational capacities.

    Capacities are multiples of 1/16 so every flow/cut sum is exactly
    representable and oracle comparisons can demand equality, not closeness.
    """
    while True:
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        if h * w <= max_nodes:
            break
    idx = np.arange(h * w).reshape(h, w)
    edges = []
    for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
        for r in range(h):
            for c in range(w):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w:
                    edges.append((idx[r, c], idx[rr, cc]))
    edges = np.array(edges, dtype=np.int64) if edges else np.zeros((0, 2), dtype=np.int64)
    return ea.GridGraph(
        source_cap=rng.integers(0, 65, h * w).astype(np.float64) / 16.0,
        sink_cap=rng.integers(0, 65, h * w).astype(np.float64) / 16.0,
        edges=edges,
        edge_cap=rng.integers(0, 33, len(edges)).astype(np.float64) / 16.0,
    )


def oracle_max_flow(graph: ea.GridGraph):
    """List-based Dinic: arc lists built one arc at a time, as ``max_flow`` once did.

    Arc a and a^1 are mutual reverses; every node's arcs sit in ``adj`` in
    construction order (s->i, then i->t, then each edge both ways). Returns
    (flow, side) like ``max_flow``.
    """
    from collections import deque

    n = graph.validate()
    s, t = n, n + 1

    to: list[int] = []
    cap: list[float] = []
    adj: list[list[int]] = [[] for _ in range(n + 2)]

    def add_arc(u: int, v: int, c_uv: float, c_vu: float) -> None:
        adj[u].append(len(to))
        to.append(v)
        cap.append(float(c_uv))
        adj[v].append(len(to))
        to.append(u)
        cap.append(float(c_vu))

    for i in range(n):
        add_arc(s, i, float(graph.source_cap[i]), 0.0)
    for i in range(n):
        add_arc(i, t, float(graph.sink_cap[i]), 0.0)
    for (u, v), c in zip(graph.edges.tolist(), graph.edge_cap.tolist()):
        add_arc(int(u), int(v), c, c)

    flow = 0.0
    level = [-1] * (n + 2)
    while True:
        # BFS: level graph on positive residuals
        for i in range(n + 2):
            level[i] = -1
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in adj[u]:
                if cap[a] > 0.0 and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    queue.append(to[a])
        if level[t] < 0:
            break

        # blocking flow: iterative DFS with per-node arc pointers
        ptr = [0] * (n + 2)
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[a] for a in path)
                flow += bottleneck
                retreat = len(path)
                for i, a in enumerate(path):
                    cap[a] -= bottleneck
                    cap[a ^ 1] += bottleneck
                    if cap[a] == 0.0 and i < retreat:
                        retreat = i  # resume from the first saturated arc
                path = path[:retreat]
                u = s if not path else to[path[-1]]
                continue
            advanced = False
            while ptr[u] < len(adj[u]):
                a = adj[u][ptr[u]]
                if cap[a] > 0.0 and level[to[a]] == level[u] + 1:
                    path.append(a)
                    u = to[a]
                    advanced = True
                    break
                ptr[u] += 1
            if advanced:
                continue
            level[u] = -1  # dead end for this phase
            if u == s:
                break
            last = path.pop()
            u = to[last ^ 1]
            ptr[u] += 1

    side = np.zeros(n, dtype=np.uint8)
    seen = [False] * (n + 2)
    seen[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for a in adj[u]:
            if cap[a] > 0.0 and not seen[to[a]]:
                seen[to[a]] = True
                queue.append(to[a])
    for i in range(n):
        if seen[i]:
            side[i] = 1
    return flow, side


# --- GrabCut graph oracles ---

# 8-connectivity, one representative per undirected neighbor pair
_DIRECTIONS = ((0, 1, 1.0), (1, 0, 1.0), (1, 1, math.sqrt(2.0)), (1, -1, math.sqrt(2.0)))


def _pairwise_weights(z: np.ndarray, gamma: float) -> list[tuple[int, int, np.ndarray]]:
    """Contrast-sensitive smoothness weight arrays, one per direction.

    Weight between neighbors p, q is gamma * exp(-beta * ||z_p - z_q||^2)
    divided by their distance, with beta = 1 / (2 * mean squared color
    difference over all 8-neighbor pairs). A constant image makes that mean
    zero; beta falls back to 0 and the weights become uniform gamma / dist.
    """
    diffs = []
    for dr, dc, _ in _DIRECTIONS:
        a = z[: z.shape[0] - dr, max(0, -dc) : z.shape[1] - max(0, dc)]
        b = z[dr:, max(0, dc) : z.shape[1] - max(0, -dc)]
        diffs.append(((a - b) ** 2).sum(axis=2))
    total = sum(float(d.sum()) for d in diffs)
    count = sum(d.size for d in diffs)
    mean_sq = total / count if count else 0.0
    beta = 0.0 if mean_sq == 0.0 else 1.0 / (2.0 * mean_sq)
    return [
        (dr, dc, gamma * np.exp(-beta * d) / dist)
        for (dr, dc, dist), d in zip(_DIRECTIONS, diffs)
    ]


def _pair_index(shape: tuple[int, int], dr: int, dc: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/col index grids of the two endpoints of every (dr, dc) pair."""
    h, w = shape
    rr, cc = np.meshgrid(
        np.arange(h - dr), np.arange(max(0, -dc), w - max(0, dc)), indexing="ij"
    )
    return (rr, cc), (rr + dr, cc + dc)


def oracle_folded_graph(z, trimap, data_fg, data_bg, gamma: float):
    """The min-cut network over the ambiguous pixels only, with the smoothness
    weight toward each definite neighbour folded by hand into the terminal
    link of that neighbour's side, as ``grabcut_refine`` once built it.

    ``data_fg``/``data_bg`` are flat over the window. Returns the graph and
    the ambiguous-pixel mask whose row-major order numbers its nodes.
    """
    weights = _pairwise_weights(z, gamma)
    probable = trimap.probable()
    def_fg = trimap.definite_fg()
    node_of = np.full(probable.shape, -1, dtype=np.int64)
    node_of[probable] = np.arange(int(probable.sum()))
    n_nodes = int(probable.sum())

    prob_edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    fold_fg = np.zeros(n_nodes)  # smoothness toward pixels pinned to FG
    fold_bg = np.zeros(n_nodes)  # smoothness toward pixels pinned to BG
    for dr, dc, w in weights:
        (r0, c0), (r1, c1) = _pair_index(probable.shape, dr, dc)
        p_prob = probable[r0, c0]
        q_prob = probable[r1, c1]
        both = p_prob & q_prob
        prob_edges.append(
            (node_of[r0, c0][both], node_of[r1, c1][both], w[both])
        )
        for a_prob, (ra, ca), (rb, cb) in (
            (p_prob & ~q_prob, (r0, c0), (r1, c1)),
            (q_prob & ~p_prob, (r1, c1), (r0, c0)),
        ):
            nodes = node_of[ra, ca][a_prob]
            pinned_fg = def_fg[rb, cb][a_prob]
            np.add.at(fold_fg, nodes[pinned_fg], w[a_prob][pinned_fg])
            np.add.at(fold_bg, nodes[~pinned_fg], w[a_prob][~pinned_fg])
    edges = np.concatenate([np.stack([u, v], axis=1) for u, v, _ in prob_edges]) if n_nodes else np.zeros((0, 2), dtype=np.int64)
    edge_cap = np.concatenate([c for _, _, c in prob_edges]) if n_nodes else np.zeros(0)

    prob_flat = probable.reshape(-1)
    # source side = foreground: the link a cut severs is the one to
    # the terminal the pixel does NOT join, hence the opposite model
    src = data_bg[prob_flat] + fold_fg
    snk = data_fg[prob_flat] + fold_bg
    shift = np.minimum(src, snk)  # same constant on both terminals of a
    src = src - shift  # pixel moves every cut equally; keeps caps >= 0
    snk = snk - shift
    return ea.GridGraph(source_cap=src, sink_cap=snk, edges=edges, edge_cap=edge_cap), probable


def oracle_labeling_energy(alpha, data_fg, data_bg, z, gamma: float) -> float:
    """GrabCut's Gibbs energy by double loops: the data term of every pixel on
    its side, plus the contrast-sensitive weight of every 8-neighbour pair whose
    two pixels lie on different sides."""
    h, w = alpha.shape
    pairs = []
    for r in range(h):
        for c in range(w):
            for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w:
                    d2 = sum((float(z[r, c, k]) - float(z[rr, cc, k])) ** 2 for k in range(3))
                    pairs.append(((r, c), (rr, cc), d2, math.hypot(dr, dc)))
    mean_sq = sum(d2 for _, _, d2, _ in pairs) / len(pairs) if pairs else 0.0
    beta = 0.0 if mean_sq == 0.0 else 1.0 / (2.0 * mean_sq)
    energy = 0.0
    for r in range(h):
        for c in range(w):
            energy += float(data_fg[r * w + c] if alpha[r, c] else data_bg[r * w + c])
    for p, q, d2, dist in pairs:
        if alpha[p] != alpha[q]:
            energy += gamma * math.exp(-beta * d2) / dist
    return energy


# --- mixture oracles ---


def oracle_component_logpdf(gmm, pixels) -> np.ndarray:
    """(N, K) log density of each pixel under each component, one component
    at a time: an explicit inverse, ``slogdet`` and a three-operand einsum."""
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 3)
    out = np.empty((px.shape[0], gmm.weights.shape[0]))
    for i in range(gmm.weights.shape[0]):
        diff = px - gmm.means[i]
        inv = np.linalg.inv(gmm.covariances[i])
        sign, logdet = np.linalg.slogdet(gmm.covariances[i])
        assert sign > 0
        quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
        out[:, i] = -0.5 * (quad + logdet + 3.0 * math.log(2.0 * math.pi))
    return out


def oracle_estimate(px: np.ndarray, assign: np.ndarray, k: int, prev_means: np.ndarray):
    """(weights, means, covariances) of a hard assignment, one boolean mask
    per component; an empty one keeps weight 0, its previous mean and the
    ridge alone."""
    from eaparse.grabcut import COV_RIDGE

    n = px.shape[0]
    weights = np.zeros(k)
    means = prev_means.copy()
    covs = np.tile(COV_RIDGE * np.eye(3), (k, 1, 1))
    for i in range(k):
        members = px[assign == i]
        if members.shape[0] == 0:
            continue
        weights[i] = members.shape[0] / n
        means[i] = members.mean(axis=0)
        diff = members - means[i]
        covs[i] = diff.T @ diff / members.shape[0] + COV_RIDGE * np.eye(3)
    return weights, means, covs


def exact_mahalanobis(cov: np.ndarray, diff: np.ndarray) -> float:
    """diff^T inv(cov) diff for one (3,) diff, by Gaussian elimination in
    exact rational arithmetic on the float inputs, rounded once at the end."""
    d = [Fraction(float(x)) for x in diff]
    rows = [[Fraction(float(x)) for x in cov[i]] + [d[i]] for i in range(3)]
    for col in range(3):
        for r in range(col + 1, 3):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    y = [Fraction(0)] * 3
    for r in (2, 1, 0):
        y[r] = (rows[r][3] - sum(rows[r][j] * y[j] for j in range(r + 1, 3))) / rows[r][r]
    return float(sum(a * b for a, b in zip(d, y)))




def oracle_fit_gmm(pixels, k: int, rng_seed):
    """The hard-assignment refit loop written out, with no shortcut.

    Seeds k-means++ like ``fit_gmm``, then every round scores the model to
    assign, refits, and scores the new model again for the trace; a stable
    assignment is refit too before the loop stops. Returns
    (gmm, trace, stable), where ``stable`` is False when the round cap, not
    a repeated assignment, ended the loop.
    """
    from eaparse.grabcut import _GMM_ROUNDS, _estimate

    def scored(gmm, px):
        with np.errstate(divide="ignore"):
            logw = np.where(gmm.weights > 0, np.log(gmm.weights), -np.inf)
        return gmm._component_logpdf(px) + logw

    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 3)
    n = px.shape[0]
    rng = np.random.default_rng(rng_seed)
    centers = px[int(rng.integers(n))][None]
    for _ in range(1, k):
        d2 = ((px[:, None, :] - centers[None]) ** 2).sum(axis=2).min(axis=1)
        if d2.sum() > 0:
            idx = int(rng.choice(n, p=d2 / d2.sum()))
        else:
            idx = int(rng.integers(n))
        centers = np.vstack([centers, px[idx]])
    assign = ((px[:, None, :] - centers[None]) ** 2).sum(axis=2).argmin(axis=1)
    gmm = _estimate(px, assign, k, prev_means=centers)
    trace = [float(scored(gmm, px)[np.arange(n), assign].sum())]
    stable = False
    for _ in range(_GMM_ROUNDS):
        new_assign = np.argmax(scored(gmm, px), axis=1)
        gmm = _estimate(px, new_assign, k, prev_means=gmm.means)
        trace.append(float(scored(gmm, px)[np.arange(n), new_assign].sum()))
        stable = bool((new_assign == assign).all())
        assign = new_assign
        if stable:
            break
    return gmm, trace, stable


# --- finite differences ---


def fd_gradient(fn, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central differences of a scalar function, entry by entry.

    Evaluation points are snapped to the float32 grid (the losses store
    logits as float32) and the quotient divides by the step actually taken,
    so input quantization cannot masquerade as gradient error.
    """
    x = x.astype(np.float32).astype(np.float64).copy()
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        hi = float(np.float32(orig + h))
        lo = float(np.float32(orig - h))
        flat[i] = hi
        f_plus = fn(x)
        flat[i] = lo
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (hi - lo)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float((np.abs(a - b) / denom).max())


# --- synthetic scenes ---

DISK_CENTER = (16, 16)
DISK_RADIUS = 9
FG_COLOR = (210, 40, 35)
BG_COLOR = (20, 30, 200)


def disk_mask(size: int = 32) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size]
    cy, cx = DISK_CENTER
    return ((yy - cy) ** 2 + (xx - cx) ** 2 <= DISK_RADIUS**2).astype(np.uint8)


def disk_scene(size: int = 32, noise_seed=None):
    """Red disk on blue background; returns (image, true_mask, init_with_hole)."""
    disk = disk_mask(size)
    image = np.zeros((size, size, 3), dtype=np.uint8)
    image[:] = BG_COLOR
    image[disk == 1] = FG_COLOR
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        image = np.clip(
            image.astype(np.int32) + rng.integers(-3, 4, image.shape), 0, 255
        ).astype(np.uint8)
    init = disk.copy()
    init[13:19, 13:19] = 0  # 6x6 hole for the refinement to recover
    return image, disk, init


def ramp_scene(seed: int, size: int = 24):
    """Noisy left-to-right color ramp; returns (image, left_half_init).

    The ramp has no color edge for a cut to settle on, so refinements with
    a small ``gamma`` keep moving the boundary round after round.
    """
    rng = np.random.default_rng(seed)
    xx = np.mgrid[0:size, 0:size][1]
    base = xx * 255 / (size - 1)
    image = np.stack([base, 255 - base, np.full_like(base, 128)], axis=2)
    image = np.clip(image + rng.normal(0, 30, image.shape), 0, 255).astype(np.uint8)
    return image, (xx < size // 2).astype(np.uint8)


def _mask_logits(mask: np.ndarray, magnitude: float) -> np.ndarray:
    logits = np.zeros((2,) + mask.shape, dtype=np.float32)
    logits[1] = np.where(mask == 1, magnitude, -magnitude)
    logits[0] = -logits[1]
    return logits


def write_clip(root, n_frames: int = 3, degraded_magnitude: float = 2.0):
    """A tiny on-disk clip for pipeline tests.

    Layout: images/<f>.ppm, gt/<f>.pgm, boxes.jsonl, plus two logit
    directories: ``clean`` predicts the disk confidently, ``degraded``
    predicts it with a 6x6 hole and weaker confidence. Returns the paths.
    """
    root = Path(root)
    for sub in ("images", "gt", "clean", "degraded"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    box = ea.Box(4, 4, 28, 28)
    roi = ea.expand_box(box, 0.2, 32, 32)
    lines = []
    for i in range(n_frames):
        stem = f"{i:03d}"
        image, disk, _ = disk_scene(noise_seed=100 + i)
        ea.write_rgb_image(image, root / "images" / f"{stem}.ppm")
        ea.write_label_map(disk, root / "gt" / f"{stem}.pgm")
        sub = disk[roi.y0 : roi.y1, roi.x0 : roi.x1]
        ea.write_logits(_mask_logits(sub, 4.0), root / "clean" / f"{stem}__0.fplt")
        holed = sub.copy()
        holed[12:18, 12:18] = 0
        ea.write_logits(
            _mask_logits(holed, degraded_magnitude), root / "degraded" / f"{stem}__0.fplt"
        )
        lines.append(json.dumps({"frame": stem, "box": [4, 4, 28, 28]}))
    (root / "boxes.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "images": root / "images",
        "gt": root / "gt",
        "clean": root / "clean",
        "degraded": root / "degraded",
        "boxes": root / "boxes.jsonl",
    }


def read_report(out_dir) -> dict:
    with open(Path(out_dir) / "report.json", "r", encoding="utf-8") as f:
        return json.load(f)
