"""GrabCut-style mask refinement: color GMMs, grid graph, min-cut.

A network's parse sometimes drops part of a region whose colors clearly
belong to it. Refinement recovers such parts from the image alone: seed a
trimap from the initial mask, model foreground and background colors with
one Gaussian mixture each, connect the pixels of a window around the mask in
an 8-neighbor grid with contrast-sensitive smoothness weights, and let a
minimum s-t cut decide which side each ambiguous pixel joins (the definite
ones enter the cut fixed to their side), and alternate model refits with cuts.
Each cut minimizes the labeling energy for its round's models; a refit
starts afresh from a seeded k-means++ and need not lower the energy, so the
energy can rise between rounds.

Everything here is deterministic: mixture fitting is seeded, the solver
visits arcs in a fixed order, and a rerun with identical inputs produces a
bit-identical mask. That holds on one machine, numpy build and BLAS kernel,
for any BLAS thread count. It is not promised across BLAS kernels or numpy
SIMD paths: the mixture scores go through BLAS products and LAPACK's
Cholesky factor and inverse, whose bytes change with the kernel, so the
energy trace does too. No mask has been seen to change that way, but none
is promised not to.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .boundary import dilate_mask, erode_mask
from .errors import (
    ClassAbsent,
    DegenerateMask,
    InvalidRaster,
    ShapeMismatch,
    TooFewPixels,
)
from .tensorio import ensure_binary_mask, ensure_label_map, ensure_rgb_image

# trimap pixel states
TRIMAP_BG = 0  # definitely background, never reassigned
TRIMAP_PROB_BG = 1  # ambiguous, currently leaning background
TRIMAP_PROB_FG = 2  # ambiguous, currently leaning foreground
TRIMAP_FG = 3  # definitely foreground, never reassigned

# cap on any -log likelihood term: keeps capacities finite on pixels the
# opposite model finds (numerically) impossible
MAX_DATA_TERM = 1e9

# ridge added to every fitted covariance diagonal; tiny against the 0..255
# color range but keeps single-color components invertible
COV_RIDGE = 1e-3

_GMM_ROUNDS = 10  # refit rounds per GMM fit; assignment usually stabilizes sooner

# most refinement rounds a caller may ask for; the energy trace holds one
# entry per round asked for, even after the mask stops changing
MAX_ITERATIONS = 100

# node states of the min-cut reduction; _ABSENT pads rows of fewer neighbours
_FREE, _SOURCE, _SINK, _ABSENT = 0, 1, 2, 3

# 8-connectivity, one representative per undirected neighbor pair
_DIRECTIONS = ((0, 1, 1.0), (1, 0, 1.0), (1, 1, math.sqrt(2.0)), (1, -1, math.sqrt(2.0)))


@dataclass(frozen=True)
class GrabcutParams:
    """Every free constant of the refinement, in one place."""

    components_k: int = 5
    gamma: float = 50.0
    iterations: int = 5
    erode_radius: int = 3
    dilate_radius: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.components_k < 1:
            raise InvalidRaster(f"components_k must be >= 1, got {self.components_k}")
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise InvalidRaster(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise InvalidRaster(f"iterations must be in 1..{MAX_ITERATIONS}, got {self.iterations}")
        if self.erode_radius < 0 or self.dilate_radius < 0:
            raise InvalidRaster("trimap radii must be >= 0")
        if self.rng_seed < 0:
            raise InvalidRaster(f"rng_seed must be >= 0, got {self.rng_seed}")


# dataclasses with ndarray fields use eq=False: they compare and hash by
# identity, since an elementwise == has no single truth value
@dataclass(frozen=True, eq=False)
class Trimap:
    """Per-pixel states in {TRIMAP_BG, TRIMAP_PROB_BG, TRIMAP_PROB_FG, TRIMAP_FG}."""

    data: np.ndarray

    def definite_fg(self) -> np.ndarray:
        return self.data == TRIMAP_FG

    def definite_bg(self) -> np.ndarray:
        return self.data == TRIMAP_BG

    def probable(self) -> np.ndarray:
        return (self.data == TRIMAP_PROB_BG) | (self.data == TRIMAP_PROB_FG)


def build_trimap(init, params: GrabcutParams) -> Trimap:
    """Seed a trimap from an initial mask by eroding and dilating it.

    Pixels surviving erosion are definite foreground (the whole mask if
    erosion wipes it out), pixels beyond the dilated mask are definite
    background, everything else stays ambiguous on its initial side.
    """
    m = ensure_binary_mask(init)
    n_on = int(m.sum())
    if n_on == 0 or n_on == m.size:
        raise DegenerateMask("initial mask must contain both mask and non-mask pixels")
    def_fg = erode_mask(m, params.erode_radius).astype(bool)
    if not def_fg.any():
        def_fg = m.astype(bool)
    def_bg = ~dilate_mask(m, params.dilate_radius).astype(bool)
    data = np.full(m.shape, TRIMAP_PROB_BG, dtype=np.uint8)
    data[m.astype(bool) & ~def_fg] = TRIMAP_PROB_FG
    data[def_fg] = TRIMAP_FG
    data[def_bg] = TRIMAP_BG
    return Trimap(data=data)


@dataclass(frozen=True, eq=False)
class ColorGmm:
    """A K-component full-covariance Gaussian mixture over RGB.

    ``weights`` sum to 1 (components may carry weight 0 after losing all
    members); every covariance is kept positive definite by the fit ridge.
    Construction raises ``InvalidRaster`` unless the shapes agree, every
    value is finite, the weights are >= 0 with a positive sum and every
    covariance is symmetric positive definite. It factors each covariance
    once, Sigma = L L^T, and keeps what scoring needs: every component's
    whitening map inv(L)^T side by side in one (3, 3K) matrix, the whitened
    means, and each component's log normaliser, with
    log det Sigma = 2 * sum(log diag L).
    """

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, 3)
    covariances: np.ndarray  # (K, 3, 3)
    _whiten: np.ndarray = field(init=False, repr=False)  # (3, 3K)
    _white_means: np.ndarray = field(init=False, repr=False)  # (3K,)
    _block_sum: np.ndarray = field(init=False, repr=False)  # (3K, K)
    _log_norm: np.ndarray = field(init=False, repr=False)  # (K,)

    def __post_init__(self):
        try:
            weights, means, covs = (
                np.asarray(a, dtype=np.float64) for a in (self.weights, self.means, self.covariances)
            )
        except (TypeError, ValueError) as exc:
            raise InvalidRaster(f"mixture parameters must be real numbers: {exc}") from exc
        k = weights.shape[0] if weights.ndim == 1 else 0
        if k == 0 or means.shape != (k, 3) or covs.shape != (k, 3, 3):
            raise InvalidRaster(
                "need weights (K,), means (K, 3) and covariances (K, 3, 3) with K >= 1, "
                f"got {weights.shape}, {means.shape} and {covs.shape}"
            )
        if not (np.isfinite(weights).all() and np.isfinite(means).all() and np.isfinite(covs).all()):
            raise InvalidRaster("mixture parameters must be finite")
        if weights.min() < 0 or weights.sum() <= 0:
            raise InvalidRaster("mixture weights must be >= 0 with a positive sum")
        scale = np.abs(covs).max(axis=(1, 2), keepdims=True)
        if (np.abs(covs - covs.transpose(0, 2, 1)) > 1e-9 * scale).any():
            raise InvalidRaster("every covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as exc:
            raise InvalidRaster("every covariance must be positive definite") from exc
        with np.errstate(over="ignore"):  # reported below
            whiten = np.linalg.inv(chol).transpose(0, 2, 1)  # x -> x @ whiten[i] for row vectors
            white_means = np.matmul(means[:, None, :], whiten).reshape(3 * k)
        log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        if not all(np.isfinite(a).all() for a in (whiten, white_means, log_det)):
            raise InvalidRaster("mixture parameters overflow when whitened")
        for name, value in (
            ("weights", weights),
            ("means", means),
            ("covariances", covs),
            ("_whiten", whiten.transpose(1, 0, 2).reshape(3, 3 * k)),
            ("_white_means", white_means),
            ("_block_sum", np.repeat(-0.5 * np.eye(k), 3, axis=0)),
            ("_log_norm", -0.5 * (log_det + 3.0 * math.log(2.0 * math.pi))),
        ):
            object.__setattr__(self, name, value)

    def _component_logpdf(self, pixels: np.ndarray) -> np.ndarray:
        """(N, K) log density of each pixel under each component.

        The Mahalanobis term of component i is ||(x - mu_i) inv(L_i)^T||^2.
        One (N, 3) x (3, 3K) product whitens every pixel for all K components
        at once, the whitened means are subtracted in place, and a (3K, K)
        block product sums each component's three squares times -1/2, to
        which the component's log normaliser is added.
        """
        px = np.asarray(pixels, dtype=np.float64).reshape(-1, 3)
        white = px @ self._whiten
        white -= self._white_means
        np.square(white, out=white)
        out = white @ self._block_sum
        out += self._log_norm
        return out

    def _scores(self, pixels) -> np.ndarray:
        """(N, K) log weight plus log density of each pixel under each component."""
        with np.errstate(divide="ignore"):
            logw = np.where(self.weights > 0, np.log(self.weights), -np.inf)
        out = self._component_logpdf(pixels)
        out += logw
        return out

    def log_likelihood(self, pixels) -> np.ndarray:
        """(N,) log of the weighted mixture density at each pixel."""
        scored = self._scores(pixels)
        top = scored.max(axis=1)
        scored -= top[:, None]
        np.exp(scored, out=scored)
        total = scored.sum(axis=1)
        np.log(total, out=total)
        total += top
        return total


# upper-triangle entries of a 3x3 matrix, and the symmetric matrix rebuilt from them
_TRI_ROW, _TRI_COL = np.triu_indices(3)
_FROM_TRI = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


def _estimate(px: np.ndarray, assign: np.ndarray, k: int, prev_means: np.ndarray) -> ColorGmm:
    """ML re-estimation from a hard assignment, all components in one pass.

    A stable sort by component lays each component's members out as one
    segment in pixel order; segment sums give the means, and, once each
    member has its mean subtracted, the centred second moments. Empty
    components keep weight 0, their previous mean and a ridge-only covariance.
    """
    n = px.shape[0]
    counts = np.bincount(assign, minlength=k)
    full = counts > 0
    starts = (np.cumsum(counts) - counts)[full]
    members = np.take(px, np.argsort(assign, kind="stable"), axis=0)
    means = prev_means.copy()
    means[full] = np.add.reduceat(members, starts, axis=0) / counts[full, None]
    members -= np.repeat(means, counts, axis=0)
    products = members[:, _TRI_ROW] * members[:, _TRI_COL]  # (n, 6)
    moments = np.zeros((k, 6))
    moments[full] = np.add.reduceat(products, starts, axis=0) / counts[full, None]
    covs = moments[:, _FROM_TRI].reshape(k, 3, 3) + COV_RIDGE * np.eye(3)
    return ColorGmm(weights=counts / n, means=means, covariances=covs)


def fit_gmm(pixels, k: int, rng_seed) -> ColorGmm:
    """Fit a K-component mixture by seeded k-means++ plus hard refit rounds.

    Each round scores the current model once, in ``ColorGmm``'s factorised
    form, assigns every pixel to its highest-scoring component and then
    re-estimates weights, means and ridge-regularized covariances from the
    members, for ``_GMM_ROUNDS`` rounds or until the assignment repeats (its
    refit would rebuild the same model bit for bit). Fully deterministic for
    a fixed seed.
    """
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 3)
    n = px.shape[0]
    if k < 1:
        raise InvalidRaster(f"a mixture needs at least one component, got {k}")
    if n < k:
        raise TooFewPixels(f"{n} pixels cannot support {k} mixture components")

    rng = np.random.default_rng(rng_seed)
    centers = [px[int(rng.integers(n))]]
    dist = np.empty((k, n))  # squared distance of every pixel to each centre
    dist[0] = ((px - centers[0]) ** 2).sum(axis=1)
    d2 = dist[0].copy()  # to the nearest centre so far
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers.append(px[idx])
        dist[i] = ((px - centers[i]) ** 2).sum(axis=1)
        np.minimum(d2, dist[i], out=d2)

    assign = dist.argmin(axis=0)
    gmm = _estimate(px, assign, k, prev_means=np.array(centers))
    for _ in range(_GMM_ROUNDS):
        new_assign = gmm._scores(px).argmax(axis=1)
        if (new_assign == assign).all():
            break
        assign = new_assign
        gmm = _estimate(px, assign, k, prev_means=gmm.means)
    return gmm


# --- grid graph and max-flow ---


@dataclass(frozen=True, eq=False)
class GridGraph:
    """An s-t network over n nodes, in refinement the pixels of a window.

    ``source_cap``/``sink_cap`` hold the terminal link capacities per node;
    ``edges`` (m, 2) lists undirected neighbor pairs whose shared capacity
    sits in ``edge_cap``. All capacities must be finite and non-negative.
    """

    source_cap: np.ndarray
    sink_cap: np.ndarray
    edges: np.ndarray
    edge_cap: np.ndarray

    def validate(self) -> int:
        n = self.source_cap.shape[0]
        if self.sink_cap.shape != (n,):
            raise ShapeMismatch("source and sink capacity arrays differ in length")
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ShapeMismatch(f"edges must be (m, 2), got {self.edges.shape}")
        if self.edge_cap.shape != (self.edges.shape[0],):
            raise ShapeMismatch("one capacity per edge required")
        for caps in (self.source_cap, self.sink_cap, self.edge_cap):
            if caps.size and (not np.all(np.isfinite(caps)) or caps.min() < 0):
                raise InvalidRaster("capacities must be finite and >= 0")
        if self.edges.size:
            if self.edges.min() < 0 or self.edges.max() >= n:
                raise InvalidRaster("edge endpoint out of node range")
            if (self.edges[:, 0] == self.edges[:, 1]).any():
                raise InvalidRaster("self-loops are not allowed")
        return n


def max_flow(graph: GridGraph) -> tuple[float, np.ndarray]:
    """Maximum s-t flow and the minimum-cut side of every node.

    Shortest-augmenting-path (level graph) search over a residual network of
    arc pairs laid out as: s->i for every node i, then i->t for every node,
    then both directions of every edge. Arcs 2j and 2j+1 are mutual reverses;
    a terminal link's reverse starts at 0, a neighbor edge carries its
    capacity both ways. A stable sort by tail groups the arcs per node while
    keeping each node's arcs in that order, so the search visits arcs in a
    fixed order and its flow and cut are deterministic. Returns the flow
    value and a uint8 vector with 1 for nodes on the source side of the cut:
    those reachable from s in the final residual network, as marked by the
    last level search (the one that finds t unreachable and ends the phases).
    """
    n = graph.validate()
    s, t = n, n + 1

    nodes = np.arange(n)
    edges = graph.edges.astype(np.int64)
    tail = np.concatenate([np.full(n, s), nodes, edges[:, 0]])
    head = np.concatenate([nodes, np.full(n, t), edges[:, 1]])
    fwd = np.concatenate([graph.source_cap, graph.sink_cap, graph.edge_cap]).astype(np.float64)
    bwd = np.concatenate([np.zeros(2 * n), graph.edge_cap]).astype(np.float64)
    arc_tail = np.stack([tail, head], axis=1).reshape(-1)
    order = np.argsort(arc_tail, kind="stable")
    # CSR: node u's arcs sit at start[u]..start[u+1]-1, rev[a] is a's reverse
    start = np.concatenate([[0], np.cumsum(np.bincount(arc_tail, minlength=n + 2))]).tolist()
    to = np.stack([head, tail], axis=1).reshape(-1)[order].tolist()
    cap = np.stack([fwd, bwd], axis=1).reshape(-1)[order].tolist()
    rev = np.argsort(order)[order ^ 1].tolist()

    flow = 0.0
    while True:
        # BFS: level graph on positive residuals
        level = [-1] * (n + 2)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in range(start[u], start[u + 1]):
                if cap[a] > 0.0 and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    queue.append(to[a])
        if level[t] < 0:
            return flow, (np.array(level[:n]) >= 0).astype(np.uint8)

        # blocking flow: iterative DFS with per-node arc pointers
        ptr = start[:-1]
        path: list[int] = []
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[a] for a in path)
                flow += bottleneck
                retreat = len(path)
                for i, a in enumerate(path):
                    cap[a] -= bottleneck
                    cap[rev[a]] += bottleneck
                    if cap[a] == 0.0 and i < retreat:
                        retreat = i  # resume from the first saturated arc
                path = path[:retreat]
                u = s if not path else to[path[-1]]
                continue
            advanced = False
            while ptr[u] < start[u + 1]:
                a = ptr[u]
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
            u = to[rev[last]]
            ptr[u] += 1


def _neighbour_table(n: int, edges: np.ndarray, edge_cap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Padded adjacency of n nodes: row i holds i's neighbours (n where there
    is none) and the capacities of the edges to them, in the order of ``edges``."""
    edges = edges.astype(np.int64)
    tail = np.concatenate([edges[:, 0], edges[:, 1]])
    order = np.argsort(tail, kind="stable")
    deg = np.bincount(tail, minlength=n)
    slot = np.arange(order.size) - np.repeat(np.cumsum(deg) - deg, deg)
    nbr = np.full((n, int(deg.max(initial=0))), n)
    ncap = np.zeros(nbr.shape)
    nbr[tail[order], slot] = np.concatenate([edges[:, 1], edges[:, 0]])[order]
    ncap[tail[order], slot] = np.concatenate([edge_cap, edge_cap])[order]
    return nbr, ncap


def _reduced_cut(graph: GridGraph, table: tuple[np.ndarray, np.ndarray], state: np.ndarray) -> np.ndarray:
    """``max_flow``'s cut side of every node, solving only the nodes left undecided.

    Partial-optimality reduction (Kovtun 2003; Alahari, Kohli & Torr, CVPR
    2008). A node fixed to one side turns each edge to a free neighbour into
    capacity of that neighbour toward the same terminal. With S a free node's
    total edge capacity to free nodes, and its terminal capacities counted
    that way: if its source capacity exceeds its sink capacity plus S
    (strictly), it is on the source side of every minimum cut; if its sink
    capacity is at least its source capacity plus S, some minimum cut has it
    on the sink side, so it is outside the minimal source set that
    ``max_flow`` returns. A tie ``source == sink + S`` stays free for the
    search. Fixing repeats over the free neighbours of the nodes just fixed.
    Every sum is taken afresh over a node's edges, never kept by subtraction,
    so S cannot drift low. ``max_flow`` then runs on the free nodes and the
    edges between them; in exact arithmetic the sides equal its sides on the
    whole graph.

    ``table`` is the graph's ``_neighbour_table``, built once by callers that
    cut graphs of one topology many times. ``state`` gives each node's
    starting state: ``_FREE``, ``_SOURCE`` or ``_SINK``. A node that starts
    fixed keeps its side, its own terminal capacities go unread, and its
    edges count toward the terminal of its side; fixing starts from the
    nodes that start free.
    """
    n = graph.source_cap.shape[0]
    edges = graph.edges.astype(np.int64)
    nbr, ncap = table
    state = np.append(state, _ABSENT).astype(np.int8)

    def terminal_caps(nodes):
        # per node, its edge capacity to neighbours in each state, in row order
        key = 4 * np.arange(nodes.size)[:, None] + state[nbr[nodes]]
        by_state = np.bincount(key.ravel(), ncap[nodes].ravel(), 4 * nodes.size).reshape(-1, 4)
        return (
            graph.source_cap[nodes] + by_state[:, _SOURCE],
            graph.sink_cap[nodes] + by_state[:, _SINK],
            by_state[:, _FREE],
        )

    work = np.flatnonzero(state[:n] == _FREE)
    while work.size:
        src, snk, s = terminal_caps(work)
        to_src = src > snk + s
        to_snk = snk >= src + s
        fixed = work[to_src | to_snk]
        if not fixed.size:
            break
        state[work[to_src]] = _SOURCE
        state[work[to_snk]] = _SINK
        touched = np.zeros(n + 1, dtype=bool)
        touched[nbr[fixed]] = True
        work = np.flatnonzero(touched[:n] & (state[:n] == _FREE))

    keep = np.flatnonzero(state[:n] == _FREE)
    src, snk, _ = terminal_caps(keep)
    index = np.full(n, -1)
    index[keep] = np.arange(keep.size)
    inner = (index[edges[:, 0]] >= 0) & (index[edges[:, 1]] >= 0)
    _, cut = max_flow(
        GridGraph(source_cap=src, sink_cap=snk, edges=index[edges[inner]], edge_cap=graph.edge_cap[inner])
    )
    side = (state[:n] == _SOURCE).astype(np.uint8)
    side[keep] = cut
    return side


# --- the refinement loop ---


def _window_edges(z: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Every 8-neighbour pair of a window and its contrast-sensitive smoothness weight.

    ``edges`` (m, 2) holds the flat window indices of each pair, ordered by
    direction and then row-major. The weight between neighbours p, q is
    gamma * exp(-beta * ||z_p - z_q||^2) divided by their distance, with
    beta = 1 / (2 * mean squared color difference over all pairs). A
    constant image makes that mean zero; beta falls back to 0 and the
    weights become uniform gamma / dist.
    """
    h, w = z.shape[:2]
    index = np.arange(h * w).reshape(h, w)
    pairs, diffs = [], []
    for dr, dc, _ in _DIRECTIONS:
        first = np.s_[: h - dr, max(0, -dc) : w - max(0, dc)]  # the first pixel of each pair
        p = index[first].ravel()
        pairs.append(np.stack([p, p + dr * w + dc], axis=1))
        diffs.append(((z[first] - z[dr:, max(0, dc) : w - max(0, -dc)]) ** 2).sum(axis=2).ravel())
    count = sum(d.size for d in diffs)
    mean_sq = sum(float(d.sum()) for d in diffs) / count if count else 0.0
    beta = 0.0 if mean_sq == 0.0 else 1.0 / (2.0 * mean_sq)
    weights = [gamma * np.exp(-beta * d) / dist for (_, _, dist), d in zip(_DIRECTIONS, diffs)]
    return np.concatenate(pairs), np.concatenate(weights)


def _labeling_energy(alpha, data_fg, data_bg, edges, edge_cap) -> float:
    """Gibbs energy of a labeling: data terms (one per pixel, flat) plus crossing edge weights."""
    a = alpha.reshape(-1)
    crossing = a[edges[:, 0]] != a[edges[:, 1]]
    return float(data_fg[a].sum() + data_bg[~a].sum()) + float(edge_cap[crossing].sum())


def _window_cut(trimap: Trimap, edges: np.ndarray, edge_cap: np.ndarray):
    """The min-cut of a window's trimap, as a function of the round's data terms.

    The graph is the window's own: every window pixel is a node and
    ``edges`` (from ``_window_edges``) is its edge list. The definite pixels
    start fixed to their side in ``_reduced_cut``, so an edge between two of
    them is never read and an edge from one to an ambiguous pixel counts
    toward the terminal of its side. The neighbour table and the starting
    states are built once; the returned function maps the data terms (flat
    over the window) to the window's foreground after the cut.
    """
    table = _neighbour_table(trimap.data.size, edges, edge_cap)
    state = np.select([trimap.definite_fg(), trimap.definite_bg()], [_SOURCE, _SINK], _FREE).reshape(-1)

    def cut(data_fg: np.ndarray, data_bg: np.ndarray) -> np.ndarray:
        # source side = foreground: the link a cut severs is the one to the
        # terminal the pixel does NOT join, hence the opposite model; the same
        # constant on both terminals of a pixel moves every cut equally
        shift = np.minimum(data_fg, data_bg)
        graph = GridGraph(data_bg - shift, data_fg - shift, edges, edge_cap)
        return _reduced_cut(graph, table, state).astype(bool).reshape(trimap.data.shape)

    return cut


def _window(mask: np.ndarray, margin: int) -> tuple[slice, slice]:
    """The mask's bounding box grown by ``margin`` on each side, clipped to
    the frame; the whole frame for an empty mask."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if not rows.size:
        return slice(None), slice(None)
    h, w = mask.shape
    return (
        slice(max(0, int(rows[0]) - margin), min(h, int(rows[-1]) + 1 + margin)),
        slice(max(0, int(cols[0]) - margin), min(w, int(cols[-1]) + 1 + margin)),
    )


def grabcut_refine(image, init, params: GrabcutParams | None = None):
    """Refine a binary mask against its image; returns (mask, energy_trace).

    All work happens in a window: the init mask's bounding box grown by
    ``2 * dilate_radius + 1`` pixels on each side and clipped to the frame.
    Every ambiguous pixel and its 8 neighbours lie inside it, and so does a
    ring of definite background at least ``dilate_radius + 1`` wide around
    the dilated envelope, except where the window meets the frame edge. The
    trimap built on the window equals the full-frame trimap cut to it, and
    pixels outside the window come back 0. The background mixture, the
    contrast constant beta and the labeling energy are local to the window;
    the foreground mixture sees the same pixels as on the whole frame.

    Alternates seeded GMM refits with min-cuts, recording the labeling energy
    after each cut. Each round scores every window pixel once per model, as
    the capped -log likelihood; that one data term per model gives both the
    t-link capacities and the energy. Each cut minimizes the energy for its
    round's models, but a refit can raise it, so the trace need not fall.
    Definite trimap pixels never change side, so the result always contains
    the eroded core and never touches pixels far outside the dilated
    envelope. A round is a deterministic function of its input partition,
    so rounds stop after ``params.iterations`` or once a cut returns its
    input; the trace still holds one energy per iteration, the last repeated.

    Each cut is ``_window_cut``: the partial-optimality reduction of
    ``_reduced_cut`` on the window's own 8-neighbour graph, with every
    definite pixel fixed to its side from the start. In exact arithmetic it
    is the minimum cut with the smallest foreground; where several cuts have
    the same energy, as on a frame of one colour, rounding may pick another
    of them.
    """
    if params is None:
        params = GrabcutParams()
    img = ensure_rgb_image(image)
    mask = ensure_binary_mask(init)
    if img.shape[:2] != mask.shape:
        raise ShapeMismatch(f"image {img.shape[:2]} and mask {mask.shape} differ")

    window = _window(mask, 2 * params.dilate_radius + 1)
    crop = mask[window]
    trimap = build_trimap(crop, params)
    z = img[window].astype(np.float64)
    edges, edge_cap = _window_edges(z, params.gamma)
    window_cut = _window_cut(trimap, edges, edge_cap)

    # one fixed fitting seed per side, reused every round: the fit depends
    # only on the current partition, never on iteration count
    fg_seed, bg_seed = (int(v) for v in np.random.SeedSequence(params.rng_seed).generate_state(2, dtype=np.uint64))

    alpha = crop.astype(bool)
    bg_gmm = None
    flat = z.reshape(-1, 3)
    trace: list[float] = []
    for _ in range(params.iterations):
        fg_px = z[alpha]  # never empty: alpha holds the trimap's definite foreground
        bg_px = z[~alpha]
        fg_gmm = fit_gmm(fg_px, min(params.components_k, fg_px.shape[0]), fg_seed)
        if bg_px.shape[0]:  # a cut can take every pixel; the model of the round before stays
            bg_gmm = fit_gmm(bg_px, min(params.components_k, bg_px.shape[0]), bg_seed)
        data_fg = np.minimum(-fg_gmm.log_likelihood(flat), MAX_DATA_TERM)
        data_bg = np.minimum(-bg_gmm.log_likelihood(flat), MAX_DATA_TERM)
        cut = window_cut(data_fg, data_bg)
        trace.append(_labeling_energy(cut, data_fg, data_bg, edges, edge_cap))
        if (cut == alpha).all():
            break  # fixed point: every later round would get this input and repeat this one
        alpha = cut

    trace += trace[-1:] * (params.iterations - len(trace))
    refined = np.zeros(mask.shape, dtype=np.uint8)
    refined[window] = alpha
    return refined, trace


def _refine_class_with_trace(labels, image, class_id: int, params: GrabcutParams | None):
    """``refine_class`` plus the energy trace of its ``grabcut_refine`` call."""
    lm = ensure_label_map(labels)
    if not (lm == class_id).any():
        raise ClassAbsent(f"class {class_id} not present in label map")
    refined, trace = grabcut_refine(image, (lm == class_id).astype(np.uint8), params)
    out = lm.copy()
    out[(lm == class_id) & (refined == 0)] = 0
    out[refined == 1] = class_id
    return out, trace


def refine_class(labels, image, class_id: int, params: GrabcutParams | None = None) -> np.ndarray:
    """Refine one class of a label map in place of its binary mask.

    Pixels the refinement adds take ``class_id``; pixels it removes fall
    back to background (0). Other classes keep their labels unless the
    refined mask claims their pixels.
    """
    return _refine_class_with_trace(labels, image, class_id, params)[0]
