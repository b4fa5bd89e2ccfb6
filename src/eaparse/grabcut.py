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
bit-identical mask. That holds on one machine and numpy build. Nothing here
calls BLAS or LAPACK: each covariance is factored and inverted in closed
form, and pixels are whitened with explicit multiplies and adds, so neither
masks nor energy traces depend on the BLAS kernel or its thread count. They
are not promised across numpy SIMD paths: the mixture likelihood goes
through ``np.exp`` and ``np.log``, whose last bits change with the path, so
the energy trace does too. No mask has been seen to change that way, but
none is promised not to.
"""

from __future__ import annotations

import math
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
from .ensemble import _first_max
from .tensorio import _check_number, ensure_binary_mask, ensure_label_map, ensure_rgb_image

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
    """Every free constant of the refinement, in one place.

    Construction raises ``InvalidRaster`` naming the field unless every count
    (``components_k``, ``iterations``, the two radii, ``rng_seed``) is an
    integer, numpy integers included, and ``gamma`` a finite real number;
    a bool is neither. Each must also lie in its range.
    """

    components_k: int = 5
    gamma: float = 50.0
    iterations: int = 5
    erode_radius: int = 3
    dilate_radius: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        for name, low in (("components_k", 1), ("iterations", None), ("erode_radius", 0), ("dilate_radius", 0)):
            _check_number(name, getattr(self, name), low, integer=True)
        _check_number("rng_seed", self.rng_seed, 0, integer=True)
        _check_number("gamma", self.gamma, 0)
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise InvalidRaster(f"iterations must be in 1..{MAX_ITERATIONS}, got {self.iterations}")


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


def _channels(pixels) -> np.ndarray:
    """(3, N) float64 rows, one per colour channel, of (..., 3) pixels.

    A view where it can be: pixels that are the transpose of a (3, N) array
    come back as that array, with no copy.
    """
    return np.asarray(pixels, dtype=np.float64).reshape(-1, 3).T


@dataclass(frozen=True, eq=False)
class ColorGmm:
    """A K-component full-covariance Gaussian mixture over RGB.

    ``weights`` sum to 1 (components may carry weight 0 after losing all
    members); every covariance is kept positive definite by the fit ridge.
    Construction raises ``InvalidRaster`` unless the shapes agree, every
    value is finite, the weights are >= 0 with a positive sum and every
    covariance is symmetric positive definite: every pivot of its Cholesky
    factor is > 0. It factors each covariance once, Sigma = L L^T, in closed
    form, and keeps what scoring needs: the whitening map A = inv(L), the
    whitened means A mu and each component's log normaliser, with
    log det Sigma = 2 * sum(log diag L). No step calls BLAS or LAPACK, so the
    scores are the same on every BLAS kernel.
    """

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, 3)
    covariances: np.ndarray  # (K, 3, 3)
    _whiten: np.ndarray = field(init=False, repr=False)  # (3, 3, K, 1): A[i, j] of every component
    _white_means: np.ndarray = field(init=False, repr=False)  # (3, K, 1)
    _log_norm: np.ndarray = field(init=False, repr=False)  # (K, 1)

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
        rows = [_cholesky_3x3(c, mu) for c, mu in zip(covs.tolist(), means.tolist())]
        if None in rows:
            raise InvalidRaster("every covariance must be positive definite")
        table = np.array(rows)  # (K, 15): diag L, A = inv(L) row-major, A mu
        if not np.isfinite(table).all():
            raise InvalidRaster("mixture parameters overflow when whitened")
        log_det = 2.0 * np.log(table[:, :3]).sum(axis=1)
        for name, value in (
            ("weights", weights),
            ("means", means),
            ("covariances", covs),
            ("_whiten", table[:, 3:12].T.reshape(3, 3, k, 1)),
            ("_white_means", table[:, 12:].T[..., None]),
            ("_log_norm", -0.5 * (log_det + 3.0 * math.log(2.0 * math.pi))[:, None]),
        ):
            object.__setattr__(self, name, value)

    def _component_logpdf(self, pixels) -> np.ndarray:
        """(N, K) log density of each pixel under each component.

        The Mahalanobis term of component i is ||A_i x - A_i mu_i||^2. Each
        whitened coordinate is built for all K components at once from the
        pixels' channel rows, by explicit multiplies and adds over the lower
        triangle of A, into (K, N) rows; the result is the transpose of those
        rows, so ``.T`` gives them back without a copy.
        """
        x = _channels(pixels)
        out = np.empty((self.weights.shape[0], x.shape[1]))
        white, term = np.empty_like(out), np.empty_like(out)
        for i in range(3):
            np.multiply(self._whiten[i, 0], x[0], out=white)
            for j in range(1, i + 1):
                np.multiply(self._whiten[i, j], x[j], out=term)
                white += term
            white -= self._white_means[i]
            if i == 0:
                np.square(white, out=out)
            else:
                np.square(white, out=white)
                out += white
        out *= -0.5
        out += self._log_norm
        return out.T

    def _scores(self, pixels) -> np.ndarray:
        """(K, N) log weight plus log density of each pixel under each component."""
        with np.errstate(divide="ignore"):
            logw = np.where(self.weights > 0, np.log(self.weights), -np.inf)
        out = self._component_logpdf(pixels).T
        out += logw[:, None]
        return out

    def log_likelihood(self, pixels) -> np.ndarray:
        """(N,) log of the weighted mixture density at each pixel.

        Max, exp, sum and log run across the K score rows, each over all N
        pixels at once.
        """
        scored = self._scores(pixels)
        top = scored.max(axis=0)
        scored -= top
        np.exp(scored, out=scored)
        total = scored.sum(axis=0)
        np.log(total, out=total)
        total += top
        return total


def _cholesky_3x3(cov: list, mean: list) -> list | None:
    """diag(L), the rows of A = inv(L) and A mu, 15 floats, for the lower
    Cholesky factor L of one 3x3 covariance (nested lists, lower triangle
    read), Sigma = L L^T, and the component's mean.

    Closed-form formulas entry by entry; A by forward substitution. None
    unless every pivot is > 0. Python floats round like numpy's, one
    operation at a time, and a result beyond float range becomes inf.
    """
    (c00, _, _), (c10, c11, _), (c20, c21, c22) = cov
    if not c00 > 0:
        return None
    l00 = math.sqrt(c00)
    l10, l20 = c10 / l00, c20 / l00
    pivot = c11 - l10 * l10
    if not pivot > 0:
        return None
    l11 = math.sqrt(pivot)
    l21 = (c21 - l20 * l10) / l11
    pivot = c22 - l20 * l20 - l21 * l21
    if not pivot > 0:
        return None
    l22 = math.sqrt(pivot)
    a00, a11, a22 = 1.0 / l00, 1.0 / l11, 1.0 / l22
    a10 = -l10 * a00 / l11
    a21 = -l21 * a11 / l22
    a20 = -(l20 * a00 + l21 * a10) / l22
    m0, m1, m2 = mean
    return [
        l00, l11, l22,
        a00, 0.0, 0.0, a10, a11, 0.0, a20, a21, a22,
        a00 * m0, a10 * m0 + a11 * m1, a20 * m0 + a21 * m1 + a22 * m2,
    ]  # fmt: skip


# upper-triangle entries of a 3x3 matrix, and the symmetric matrix rebuilt from them
_TRI_ROW, _TRI_COL = np.triu_indices(3)
_FROM_TRI = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])


def _estimate(px: np.ndarray, assign: np.ndarray, k: int, prev_means: np.ndarray) -> ColorGmm:
    """ML re-estimation from a hard assignment, all components in one pass.

    ``px`` is (N, 3) in any memory layout; the work runs on its channel rows.
    A stable sort by component lays each component's members out as one
    segment of every row, in pixel order; segment sums give the means, and,
    once each member has its mean subtracted, the centred second moments.
    Empty components keep weight 0, their previous mean and a ridge-only
    covariance.
    """
    x = _channels(px)
    n = x.shape[1]
    counts = np.bincount(assign, minlength=k)
    full = counts > 0
    starts = (np.cumsum(counts) - counts)[full]
    members = np.take(x, np.argsort(assign, kind="stable"), axis=1)
    means = prev_means.copy()
    means[full] = (np.add.reduceat(members, starts, axis=1) / counts[full]).T
    members -= np.repeat(means.T, counts, axis=1)
    products = np.empty((6, n))
    for row, (a, b) in enumerate(zip(_TRI_ROW, _TRI_COL)):
        np.multiply(members[a], members[b], out=products[row])
    moments = np.zeros((k, 6))
    moments[full] = (np.add.reduceat(products, starts, axis=1) / counts[full]).T
    covs = moments[:, _FROM_TRI].reshape(k, 3, 3) + COV_RIDGE * np.eye(3)
    return ColorGmm(weights=counts / n, means=means, covariances=covs)


def _square_distance(x: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """Squared distance of channel rows ``x`` to one centre, or to channel rows
    of the same shape, summed over R, then G, then B."""
    return (x[0] - centre[0]) ** 2 + (x[1] - centre[1]) ** 2 + (x[2] - centre[2]) ** 2


def fit_gmm(pixels, k: int, rng_seed) -> ColorGmm:
    """Fit a K-component mixture by seeded k-means++ plus hard refit rounds.

    Each round scores the current model once, in ``ColorGmm``'s factorised
    form, assigns every pixel to its highest-scoring component and then
    re-estimates weights, means and ridge-regularized covariances from the
    members, for ``_GMM_ROUNDS`` rounds or until the assignment repeats (its
    refit would rebuild the same model bit for bit). The pixels are held as
    channel rows and the scores as component rows throughout. Fully
    deterministic for a fixed seed, an integer >= 0.
    """
    px = np.asarray(pixels, dtype=np.float64)
    if px.shape[-1:] != (3,) or not np.isfinite(px).all():
        raise InvalidRaster(f"pixels must be finite RGB values of shape (..., 3), got shape {px.shape}")
    x = np.ascontiguousarray(_channels(px))
    n = x.shape[1]
    _check_number("k", k, 1, integer=True)
    _check_number("rng_seed", rng_seed, 0, integer=True)
    if n < k:
        raise TooFewPixels(f"{n} pixels cannot support {k} mixture components")

    rng = np.random.default_rng(rng_seed)
    centers = [x[:, int(rng.integers(n))]]
    d2 = _square_distance(x, centers[0])  # to the nearest centre so far
    assign = np.zeros(n, dtype=np.intp)  # that centre; the first one on ties
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers.append(x[:, idx])
        d = _square_distance(x, centers[i])
        assign[d < d2] = i
        np.minimum(d2, d, out=d2)

    gmm = _estimate(x.T, assign, k, prev_means=np.array(centers))
    for _ in range(_GMM_ROUNDS):
        new_assign = _first_max(gmm._scores(x.T))[0]
        if (new_assign == assign).all():
            break
        assign = new_assign
        gmm = _estimate(x.T, assign, k, prev_means=gmm.means)
    return gmm


# --- grid graph and max-flow ---


@dataclass(frozen=True, eq=False)
class GridGraph:
    """An s-t network over n nodes, in refinement the pixels of a window.

    ``source_cap``/``sink_cap`` hold the terminal link capacities per node;
    ``edges`` (m, 2) lists undirected neighbor pairs whose shared capacity
    sits in ``edge_cap``. All capacities must be finite and non-negative.
    Construction takes each field through ``np.asarray``, so lists serve too.
    """

    source_cap: np.ndarray
    sink_cap: np.ndarray
    edges: np.ndarray
    edge_cap: np.ndarray

    def __post_init__(self):
        for name in ("source_cap", "sink_cap", "edges", "edge_cap"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))

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
            if not np.issubdtype(self.edges.dtype, np.integer):
                raise InvalidRaster(f"edges must hold integer node indices, got dtype {self.edges.dtype}")
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
    fixed order and its flow and cut are deterministic. Each phase walks
    from s along per-node arc pointers; after an augmentation the walk
    restarts from s, and since each path node's pointer still rests on its
    path arc, it stops at the first saturated arc: the same arcs in the same
    order as a walk that retreats there. Returns the flow
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
        queue = [s]
        for u in queue:  # first in, first out: the loop reads the list as it grows
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
                for a in path:
                    cap[a] -= bottleneck
                    cap[rev[a]] += bottleneck
                path, u = [], s  # the pointers lead back to the first saturated arc
                continue
            for a in range(ptr[u], start[u + 1]):
                if cap[a] > 0.0 and level[to[a]] == level[u] + 1:
                    ptr[u] = a
                    path.append(a)
                    u = to[a]
                    break
            else:
                level[u] = -1  # dead end for this phase
                if u == s:
                    break
                u = to[rev[path.pop()]]
                ptr[u] += 1


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

    ``table`` (nbr, ncap) is the graph's padded adjacency, built once by
    callers that cut graphs of one topology many times: row i holds i's
    neighbours (n in a slot with none) and the capacities of the edges to
    them. Its present neighbours come in the order of ``edges``, first the
    edges with i as first end, then those with i as second end; each node's
    sums run in that order. ``state`` gives each node's starting state:
    ``_FREE``, ``_SOURCE`` or ``_SINK``. A node that starts fixed keeps its
    side, its own terminal capacities go unread, and its edges count toward
    the terminal of its side; fixing starts from the nodes that start free.
    """
    n = graph.source_cap.shape[0]
    edges = graph.edges.astype(np.int64, copy=False)
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


def _direction_pairs(h: int, w: int, dr: int, dc: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """Slices of an h x w grid holding the first and the second pixel of every
    pair one step (dr, dc) apart, in the same row-major order."""
    first = np.s_[: h - dr, max(0, -dc) : w - max(0, dc)]
    second = np.s_[dr:, max(0, dc) : w - max(0, -dc)]
    return first, second


def _window_edges(x: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """A window's 8-neighbour graph: every pair, its smoothness weight and ``_reduced_cut``'s table.

    ``x`` holds the window's colours as (3, h, w) channel rows. ``edges``
    (m, 2) holds the flat window indices of each pair, ordered by direction
    and then row-major. The weight between neighbours p, q is
    gamma * exp(-beta * ||x_p - x_q||^2) divided by their distance, with
    beta = 1 / (2 * mean squared color difference over all pairs), each
    squared difference summed over R, then G, then B. A constant image makes
    that mean zero; beta falls back to 0 and the weights become uniform
    gamma / dist.

    The table (nbr, ncap) is built here, in the same pass over the grid, and
    nowhere else. Row p has 8 slots: p's neighbour to the right, below,
    below-right and below-left, then the pixel that has p as that neighbour,
    in the same direction order (left, above, above-left, above-right); a
    slot off the window holds h * w and capacity 0. So each row's present
    neighbours come in the order of its edges.
    """
    _, h, w = x.shape
    index = np.arange(h * w).reshape(h, w)
    nbr, ncap = np.full((h, w, 8), h * w), np.zeros((h, w, 8))
    slots, pairs, diffs = [], [], []
    for d, (dr, dc, _) in enumerate(_DIRECTIONS):
        first, second = _direction_pairs(h, w, dr, dc)
        outgoing, incoming = first + (d,), second + (4 + d,)
        nbr[outgoing], nbr[incoming] = index[second], index[first]
        slots.append((outgoing, incoming))
        pairs.append(np.stack([index[first].ravel(), index[second].ravel()], axis=1))
        diffs.append(_square_distance(x[(slice(None), *first)], x[(slice(None), *second)]))
    count = sum(d.size for d in diffs)
    mean_sq = sum(float(d.sum()) for d in diffs) / count if count else 0.0
    beta = 0.0 if mean_sq == 0.0 else 1.0 / (2.0 * mean_sq)
    weights = [gamma * np.exp(-beta * d) / dist for (_, _, dist), d in zip(_DIRECTIONS, diffs)]
    for (outgoing, incoming), weight in zip(slots, weights):
        ncap[outgoing] = ncap[incoming] = weight
    table = nbr.reshape(h * w, 8), ncap.reshape(h * w, 8)
    return np.concatenate(pairs), np.concatenate([weight.ravel() for weight in weights]), table


def _labeling_energy(alpha, data_fg, data_bg, edges, edge_cap) -> float:
    """Gibbs energy of a labeling: data terms (one per pixel, flat) plus crossing edge weights."""
    a = alpha.reshape(-1)
    crossing = a[edges[:, 0]] != a[edges[:, 1]]
    return float(data_fg[a].sum() + data_bg[~a].sum()) + float(edge_cap[crossing].sum())


def _window_cut(trimap: Trimap, edges: np.ndarray, edge_cap: np.ndarray, table: tuple[np.ndarray, np.ndarray]):
    """The min-cut of a window's trimap, as a function of the round's data terms.

    The graph is the window's own: every window pixel is a node, and
    ``edges``, ``edge_cap`` and the neighbour ``table`` all come from
    ``_window_edges``, which builds them once per window. The definite
    pixels start fixed to their side in ``_reduced_cut``, so an edge between
    two of them is never read and an edge from one to an ambiguous pixel
    counts toward the terminal of its side; their own data terms are never
    read either. The starting states are built here, once; the returned
    function maps the data terms (flat over the window) to the window's
    foreground after the cut.
    """
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
    return _grabcut(image, init, params, record_trace=True)


def _grabcut(image, init, params: GrabcutParams | None, record_trace: bool):
    """``grabcut_refine``, with its energy trace or, without ``record_trace``, None.

    The cut reads the data terms of the ambiguous pixels only, so without a
    trace only they are scored and no energy is computed; the mask is the
    same either way, since each pixel's score depends on that pixel alone.
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
    x = img[window].transpose(2, 0, 1).astype(np.float64, order="C")  # (3, h, w) channel rows
    edges, edge_cap, table = _window_edges(x, params.gamma)
    window_cut = _window_cut(trimap, edges, edge_cap, table)

    # one fixed fitting seed per side, reused every round: the fit depends
    # only on the current partition, never on iteration count
    fg_seed, bg_seed = (int(v) for v in np.random.SeedSequence(params.rng_seed).generate_state(2, dtype=np.uint64))

    pixels = x.reshape(3, -1)
    scored = slice(None) if record_trace else trimap.probable().reshape(-1)
    scored_px = pixels[:, scored].T
    data_fg, data_bg = np.zeros(crop.size), np.zeros(crop.size)
    alpha = crop.astype(bool)
    bg_gmm = None
    trace: list[float] = []
    for _ in range(params.iterations):
        side = alpha.reshape(-1)
        fg_px = pixels[:, side].T  # never empty: alpha holds the trimap's definite foreground
        bg_px = pixels[:, ~side].T
        fg_gmm = fit_gmm(fg_px, min(params.components_k, len(fg_px)), fg_seed)
        if len(bg_px):  # a cut can take every pixel; the model of the round before stays
            bg_gmm = fit_gmm(bg_px, min(params.components_k, len(bg_px)), bg_seed)
        data_fg[scored] = np.minimum(-fg_gmm.log_likelihood(scored_px), MAX_DATA_TERM)
        data_bg[scored] = np.minimum(-bg_gmm.log_likelihood(scored_px), MAX_DATA_TERM)
        cut = window_cut(data_fg, data_bg)
        if record_trace:
            trace.append(_labeling_energy(cut, data_fg, data_bg, edges, edge_cap))
        if (cut == alpha).all():
            break  # fixed point: every later round would get this input and repeat this one
        alpha = cut

    trace += trace[-1:] * (params.iterations - len(trace))
    refined = np.zeros(mask.shape, dtype=np.uint8)
    refined[window] = alpha
    return refined, trace if record_trace else None


def _refine_class(labels, image, class_id: int, params: GrabcutParams | None, record_trace: bool):
    """``refine_class`` plus, with ``record_trace``, the energy trace of its refinement."""
    _check_number("class_id", class_id, integer=True)
    lm = ensure_label_map(labels)
    if not (lm == class_id).any():
        raise ClassAbsent(f"class {class_id} not present in label map")
    refined, trace = _grabcut(image, (lm == class_id).astype(np.uint8), params, record_trace)
    out = lm.copy()
    out[(lm == class_id) & (refined == 0)] = 0
    out[refined == 1] = class_id
    return out, trace


def refine_class(labels, image, class_id: int, params: GrabcutParams | None = None) -> np.ndarray:
    """Refine one class of a label map in place of its binary mask.

    Pixels the refinement adds take ``class_id``; pixels it removes fall
    back to background (0). Other classes keep their labels unless the
    refined mask claims their pixels. The mask is ``grabcut_refine``'s, found
    without its energy trace. ``class_id`` is an integer, numpy integers
    included, else InvalidRaster; one the map does not hold (any id outside
    0..255 among them) raises ClassAbsent.
    """
    return _refine_class(labels, image, class_id, params, record_trace=False)[0]
