"""Trimap seeding, mixture fits, exact min-cuts and mask refinement."""

import dataclasses
import warnings

import numpy as np
import pytest

import helpers
import eaparse as ea
from eaparse import grabcut
from eaparse.errors import ClassAbsent, DegenerateMask, InvalidRaster, ShapeMismatch, TooFewPixels
from eaparse.grabcut import (
    _GMM_ROUNDS,
    TRIMAP_BG,
    TRIMAP_FG,
    TRIMAP_PROB_BG,
    TRIMAP_PROB_FG,
    ColorGmm,
    GridGraph,
    build_trimap,
    fit_gmm,
    max_flow,
)


# --- trimap ---


def test_trimap_states_follow_erode_and_dilate():
    mask = helpers.disk_mask()
    params = ea.GrabcutParams(erode_radius=3, dilate_radius=10)
    tm = build_trimap(mask, params)
    core = ea.erode_mask(mask, 3).astype(bool)
    envelope = ea.dilate_mask(mask, 10).astype(bool)
    assert (tm.definite_fg() == core).all()
    assert (tm.definite_bg() == ~envelope).all()
    inside = mask.astype(bool) & ~core
    outside = envelope & ~mask.astype(bool)
    assert (tm.data[inside] == TRIMAP_PROB_FG).all()
    assert (tm.data[outside] == TRIMAP_PROB_BG).all()


def test_trimap_keeps_whole_mask_when_erosion_empties_it():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[3:5, 3:5] = 1
    tm = build_trimap(mask, ea.GrabcutParams(erode_radius=3, dilate_radius=1))
    assert (tm.definite_fg() == mask.astype(bool)).all()


def test_trimap_rejects_degenerate_masks():
    with pytest.raises(DegenerateMask):
        build_trimap(np.zeros((4, 4), dtype=np.uint8), ea.GrabcutParams())
    with pytest.raises(DegenerateMask):
        build_trimap(np.ones((4, 4), dtype=np.uint8), ea.GrabcutParams())
    with pytest.raises(DegenerateMask):  # an empty init mask: the window is the whole frame
        ea.grabcut_refine(np.zeros((4, 4, 3), dtype=np.uint8), np.zeros((4, 4), dtype=np.uint8))


# --- GMM fitting ---


def test_gmm_constant_pixels():
    px = np.full((10, 3), 40.0)
    gmm = fit_gmm(px, 1, 0)
    assert gmm.weights.tolist() == [1.0]
    assert np.allclose(gmm.means[0], 40.0)
    assert np.allclose(gmm.covariances[0], 1e-3 * np.eye(3), atol=1e-15)


def test_gmm_two_well_separated_clusters():
    rng = np.random.default_rng(0)
    a = rng.normal((10, 10, 10), 1.0, (50, 3))
    b = rng.normal((200, 200, 200), 1.0, (50, 3))
    px = np.vstack([a, b])
    gmm = fit_gmm(px, 2, 7)
    assert sorted(gmm.weights.tolist()) == [0.5, 0.5]
    got = sorted(gmm.means[:, 0].tolist())
    assert abs(got[0] - 10) < 1.0 and abs(got[1] - 200) < 1.0
    want, trace, _ = helpers.oracle_fit_gmm(px, 2, 7)
    for name in ("weights", "means", "covariances"):
        assert getattr(gmm, name).tobytes() == getattr(want, name).tobytes()
    assert all(t2 >= t1 - 1e-9 for t1, t2 in zip(trace, trace[1:]))


def test_gmm_is_deterministic_per_seed():
    rng = np.random.default_rng(1)
    px = rng.uniform(0, 255, (60, 3))
    g1 = fit_gmm(px, 3, 123)
    g2 = fit_gmm(px, 3, 123)
    assert (g1.weights == g2.weights).all()
    assert (g1.means == g2.means).all()
    assert (g1.covariances == g2.covariances).all()


def test_gmm_likelihood_matches_single_gaussian_formula():
    px = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    gmm = fit_gmm(px, 1, 0)
    # mean (1,0,0), cov diag(1 + ridge, ridge, ridge)
    var = np.array([1.0 + 1e-3, 1e-3, 1e-3])
    diff = px - np.array([1.0, 0.0, 0.0])
    expected = -0.5 * ((diff**2 / var).sum(axis=1) + np.log(var).sum() + 3 * np.log(2 * np.pi))
    assert np.allclose(gmm.log_likelihood(px), expected, atol=1e-12)


def _random_pixels(rng, style, n):
    """Continuous, quantised or clustered pixels."""
    if style == 0:
        return rng.uniform(0, 255, (n, 3))
    if style == 1:
        return (rng.integers(0, 4, (n, 3)) * 60).astype(np.float64)  # many exact ties
    return rng.normal(128, 40, (n, 3))


def _oracle_fit_inputs():
    """Seeded fit inputs: k from 1 to 5, continuous, quantised and clustered pixels."""
    rng = np.random.default_rng(11)
    for case in range(60):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(max(k, 5), 300))
        yield _random_pixels(rng, case % 3, n), k, case


def test_gmm_matches_refit_loop_oracle():
    capped = 0
    for px, k, seed in _oracle_fit_inputs():
        want, _, stable = helpers.oracle_fit_gmm(px, k, seed)
        got = fit_gmm(px, k, seed)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.means.tobytes() == want.means.tobytes()
        assert got.covariances.tobytes() == want.covariances.tobytes()
        capped += not stable
    assert capped > 0  # some fits must end on the round cap, not on a repeat
    assert capped < 60


def test_gmm_scores_each_model_once(monkeypatch):
    counts = {"models": 0, "scored": 0}
    estimate = grabcut._estimate
    logpdf = grabcut.ColorGmm._component_logpdf

    def counting_estimate(*args, **kwargs):
        counts["models"] += 1
        return estimate(*args, **kwargs)

    def counting_logpdf(self, pixels):
        counts["scored"] += 1
        return logpdf(self, pixels)

    monkeypatch.setattr(grabcut, "_estimate", counting_estimate)
    monkeypatch.setattr(grabcut.ColorGmm, "_component_logpdf", counting_logpdf)
    for px, k, seed in _oracle_fit_inputs():
        counts.update(models=0, scored=0)
        fit_gmm(px, k, seed)
        assert 1 <= counts["scored"] <= counts["models"] <= _GMM_ROUNDS + 1


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def _random_models(rng, count):
    """Seeded mixtures: covariances of condition <= 1e4 at every scale from
    the ridge up, the ridge floor itself, tight clusters just above it, and
    models estimated from assignments that leave components empty."""
    for case in range(count):
        k = int(rng.integers(1, 7))
        style = case % 4
        if style == 3:
            px = _random_pixels(rng, case % 3, 300)
            assign = rng.choice(rng.permutation(k)[: max(1, k - 1)], px.shape[0])
            yield grabcut._estimate(px, assign, k, rng.uniform(0, 255, (k, 3)))
            continue
        covs = np.empty((k, 3, 3))
        for i in range(k):
            if style == 0:
                low = np.exp(rng.uniform(np.log(grabcut.COV_RIDGE), np.log(1e4)))
                q = _random_rotation(rng)
                covs[i] = (q * (low * np.exp(rng.uniform(0, np.log(1e4), 3)))) @ q.T
                covs[i] = (covs[i] + covs[i].T) / 2
            elif style == 1:
                covs[i] = grabcut.COV_RIDGE * np.eye(3)
            else:
                d = rng.normal(0, 0.03, (50, 3))
                d -= d.mean(axis=0)
                covs[i] = d.T @ d / 50 + grabcut.COV_RIDGE * np.eye(3)
        yield ColorGmm(weights=rng.dirichlet(np.ones(k)), means=rng.uniform(0, 255, (k, 3)), covariances=covs)


def test_component_logpdf_matches_inverse_oracle():
    rng = np.random.default_rng(12)
    worst = 0.0
    for gmm in _random_models(rng, 500):
        at_means = np.vstack([gmm.means, gmm.means + rng.normal(0, 0.01, gmm.means.shape)])
        px = np.vstack([rng.uniform(0, 255, (100, 3)), at_means])
        got = gmm._component_logpdf(px)
        want = helpers.oracle_component_logpdf(gmm, px)
        worst = max(worst, float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max()))
    assert worst <= 1e-9


def test_component_logpdf_on_ill_conditioned_covariances():
    # wide scatter along one or two colour directions over the ridge: any
    # float factorisation loses about cond * eps here, the old inverse form
    # too, so both are held to the exact value within a few cond * eps
    rng = np.random.default_rng(13)
    eps = np.finfo(np.float64).eps
    for _ in range(100):
        v = rng.normal(0, rng.uniform(1, 100), (3, int(rng.integers(1, 3))))
        cov = v @ v.T + grabcut.COV_RIDGE * np.eye(3)
        mean = rng.uniform(0, 255, 3)
        gmm = ColorGmm(weights=np.ones(1), means=mean[None], covariances=cov[None])
        px = np.vstack([rng.uniform(0, 255, (4, 3)), mean])
        _, logdet = np.linalg.slogdet(cov)
        exact = np.array([helpers.exact_mahalanobis(cov, p - mean) for p in px])
        want = -0.5 * (exact + logdet + 3.0 * np.log(2.0 * np.pi))
        bound = 4 * eps * np.linalg.cond(cov) * np.maximum(1.0, np.abs(want))
        assert (np.abs(gmm._component_logpdf(px)[:, 0] - want) <= bound).all()
        assert (np.abs(helpers.oracle_component_logpdf(gmm, px)[:, 0] - want) <= bound).all()


def test_estimate_matches_per_component_oracle():
    rng = np.random.default_rng(14)
    ridge = grabcut.COV_RIDGE * np.eye(3)
    for case in range(200):
        k = int(rng.integers(1, 7))
        px = _random_pixels(rng, case % 3, int(rng.integers(k, 400)))
        used = rng.permutation(k)[: int(rng.integers(1, k + 1))]
        assign = rng.choice(used, px.shape[0])
        prev = rng.uniform(0, 255, (k, 3))
        got = grabcut._estimate(px, assign, k, prev)
        weights, means, covs = helpers.oracle_estimate(px, assign, k, prev)
        assert got.weights.tobytes() == weights.tobytes()
        for a, b in ((got.means, means), (got.covariances, covs)):
            assert (np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))).all()
        empty = np.setdiff1d(np.arange(k), assign)
        assert (got.weights[empty] == 0).all()
        assert (got.means[empty] == prev[empty]).all()
        assert (got.covariances[empty] == ridge).all()


_GOOD = dict(weights=np.array([0.25, 0.75]), means=np.zeros((2, 3)), covariances=np.tile(np.eye(3), (2, 1, 1)))


def _with(**changes):
    return {**_GOOD, **changes}


@pytest.mark.parametrize(
    "fields",
    [
        _with(weights=np.array([[0.25, 0.75]])),
        _with(weights=np.zeros(0), means=np.zeros((0, 3)), covariances=np.zeros((0, 3, 3))),
        _with(means=np.zeros((2, 2))),
        _with(means=np.zeros((3, 3))),
        _with(covariances=np.tile(np.eye(2), (2, 1, 1))),
        _with(covariances=np.eye(3)),
        _with(weights=np.array([0.25, np.nan])),
        _with(weights=np.array([-0.25, 1.25])),
        _with(weights=np.zeros(2)),
        _with(means=np.array([[0.0, 0.0, np.inf], [0.0, 0.0, 0.0]])),
        _with(covariances=np.stack([np.eye(3), np.full((3, 3), np.nan)])),
        _with(covariances=np.stack([np.eye(3), np.zeros((3, 3))])),
        _with(covariances=np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0])])),
        _with(covariances=np.stack([np.eye(3), np.ones((3, 3))])),  # singular
        _with(covariances=np.stack([np.eye(3), np.eye(3) + np.triu(np.ones((3, 3)), 1)])),  # asymmetric
        _with(means=np.full((2, 3), 1e307), covariances=np.tile(1e-6 * np.eye(3), (2, 1, 1))),
        _with(means=[["a", "b", "c"], ["d", "e", "f"]]),
    ],
    ids=[
        "weights-2d", "no-components", "means-k-by-2", "means-k-mismatch", "covs-2x2", "covs-unstacked",
        "weight-nan", "weight-negative", "weights-all-zero", "mean-inf", "cov-nan", "cov-zero",
        "cov-indefinite", "cov-singular", "cov-asymmetric", "whitened-overflow", "means-text",
    ],
)
def test_color_gmm_rejects_bad_parameters(fields):
    with pytest.raises(InvalidRaster):
        ColorGmm(**fields)


def test_color_gmm_factors_once_at_construction(monkeypatch):
    # each component's factor and its inverse are written out, so LAPACK is never called
    calls = {"cholesky": 0, "inv": 0, "_cholesky_3x3": 0}
    for owner, name in ((np.linalg, "cholesky"), (np.linalg, "inv"), (grabcut, "_cholesky_3x3")):
        real = getattr(owner, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    gmm = ColorGmm(**_GOOD)
    once = {"cholesky": 0, "inv": 0, "_cholesky_3x3": len(_GOOD["weights"])}
    assert calls == once
    px = np.random.default_rng(0).uniform(-3, 3, (20, 3))
    gmm.log_likelihood(px)
    gmm._scores(px)
    assert calls == once


def test_gmm_too_few_pixels():
    with pytest.raises(TooFewPixels):
        fit_gmm(np.zeros((2, 3)), 5, 0)
    with pytest.raises(InvalidRaster):
        fit_gmm(np.zeros((2, 3)), 0, 0)


def _nan_pixels() -> np.ndarray:
    px = np.random.default_rng(4).uniform(0, 255, (10, 3))
    px[3, 1] = np.nan
    return px


@pytest.mark.parametrize(
    "pixels, k, name",
    [
        (np.zeros((10, 4)), 2, "pixels"),
        (np.zeros(6), 2, "pixels"),
        (_nan_pixels(), 2, "pixels"),
        (np.full((10, 3), np.inf), 1, "pixels"),
        (np.zeros((10, 3)), 2.5, "k"),
        (np.zeros((10, 3)), 2.0, "k"),
        (np.zeros((10, 3)), True, "k"),
    ],
    ids=["four-channels", "flat", "nan", "inf", "k-fraction", "k-float", "k-bool"],
)
def test_gmm_names_its_bad_argument_without_a_warning(pixels, k, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidRaster, match=f"^{name} must be "):
            fit_gmm(pixels, k, 0)


def test_gmm_accepts_a_numpy_integer_count():
    px = np.random.default_rng(5).uniform(0, 255, (40, 3))
    want = fit_gmm(px, 3, 7)
    got = fit_gmm(px, np.int64(3), 7)
    for a, b in ((want.weights, got.weights), (want.means, got.means), (want.covariances, got.covariances)):
        assert a.tobytes() == b.tobytes()


# --- max flow ---


@pytest.mark.parametrize("edges", [[[0.5, 1.0]], [[0.0, 1.0]], [[True, False]]], ids=["fraction", "float", "bool"])
def test_max_flow_rejects_edge_endpoints_that_are_not_integers(edges):
    g = GridGraph(np.ones(2), np.ones(2), np.array(edges), np.ones(1))
    with pytest.raises(InvalidRaster, match="^edges must hold integer node indices"):
        max_flow(g)


def test_max_flow_single_node():
    g = GridGraph(
        source_cap=np.array([3.0]),
        sink_cap=np.array([1.0]),
        edges=np.zeros((0, 2), dtype=np.int64),
        edge_cap=np.zeros(0),
    )
    flow, side = max_flow(g)
    assert flow == 1.0
    assert side.tolist() == [1]


def test_max_flow_on_no_nodes():
    g = GridGraph(np.zeros(0), np.zeros(0), np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    flow, side = max_flow(g)
    assert flow == 0.0
    assert side.dtype == np.uint8 and side.shape == (0,)


def test_max_flow_two_nodes_bottleneck_edge():
    # strong source at node 0, strong sink at node 1, weak edge between:
    # cheapest cut severs the 0.5 edge plus the two weak terminal links
    g = GridGraph(
        source_cap=np.array([4.0, 0.25]),
        sink_cap=np.array([0.25, 4.0]),
        edges=np.array([[0, 1]]),
        edge_cap=np.array([0.5]),
    )
    flow, side = max_flow(g)
    assert flow == 1.0
    assert side.tolist() == [1, 0]
    assert helpers.cut_value(g, side) == 1.0


def test_max_flow_matches_enumeration_on_seeded_grids():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = helpers.random_grid_graph(rng)
        flow, side = max_flow(g)
        best = helpers.oracle_min_cut(g)
        assert flow == best
        assert helpers.cut_value(g, side) == flow


def _grid_edges(h: int, w: int) -> np.ndarray:
    """Every 8-neighbour pair of an h x w grid, nodes numbered row by row."""
    idx = np.arange(h * w).reshape(h, w)
    return np.concatenate(
        [
            np.stack(
                [
                    idx[: h - dr, max(0, -dc) : w - max(0, dc)].ravel(),
                    idx[dr:, max(0, dc) : w - max(0, -dc)].ravel(),
                ],
                axis=1,
            )
            for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1))
        ]
    )


def _oracle_grid_graphs():
    """Seeded 8-connected grids up to 40x40, some with dropped edges, some with
    capacities spread over 1e-9..1e9 so that residuals hit exactly 0.0 late."""
    rng = np.random.default_rng(5)
    for case in range(40):
        h, w = int(rng.integers(1, 41)), int(rng.integers(1, 41))
        edges = _grid_edges(h, w)
        if case % 2:
            edges = edges[rng.random(len(edges)) < 0.7]
        n, m = h * w, len(edges)
        if case % 3 == 0:
            caps = [10.0 ** rng.uniform(-9, 9, size) for size in (n, n, m)]
        else:
            caps = [rng.random(n) * 10, rng.random(n) * 10, rng.random(m) * 3]
        yield GridGraph(caps[0], caps[1], edges, caps[2])


def test_max_flow_matches_list_dinic_oracle():
    for g in _oracle_grid_graphs():
        flow, side = max_flow(g)
        want_flow, want_side = helpers.oracle_max_flow(g)
        assert flow == want_flow
        assert side.dtype == want_side.dtype
        assert side.tobytes() == want_side.tobytes()


def _reduction_grids():
    """Seeded 8-connected grids up to 40x40 in four kinds, cycling: capacities
    log-uniform over 1e-9..1e9; floats with ~30 % zero terminal links; small
    integers where ~30 % of nodes have source == sink + S and ~30 % sink ==
    source + S exactly (S: the node's summed edge capacity); and GrabCut's
    shape, one terminal link zero per node."""
    rng = np.random.default_rng(11)
    for case in range(48):
        h, w = int(rng.integers(1, 41)), int(rng.integers(1, 41))
        edges = _grid_edges(h, w)
        if case % 3 == 1:
            edges = edges[rng.random(len(edges)) < 0.7]
        n, m = h * w, len(edges)
        kind = case % 4
        if kind == 0:
            src, snk, cap = (10.0 ** rng.uniform(-9, 9, size) for size in (n, n, m))
        elif kind == 1:
            src, snk, cap = rng.random(n) * 10, rng.random(n) * 10, rng.random(m) * 3
            src[rng.random(n) < 0.3] = 0.0
            snk[rng.random(n) < 0.3] = 0.0
        elif kind == 2:
            src, snk = (rng.integers(0, 6, n).astype(np.float64) for _ in range(2))
            cap = rng.integers(0, 3, m).astype(np.float64)
            s = np.bincount(edges[:, 0], cap, n) + np.bincount(edges[:, 1], cap, n)
            pick = rng.random(n)
            src[pick < 0.3] = snk[pick < 0.3] + s[pick < 0.3]
            snk[pick > 0.7] = src[pick > 0.7] + s[pick > 0.7]
        else:
            a, b = rng.random(n) * 20, rng.random(n) * 20
            src, snk, cap = a - np.minimum(a, b), b - np.minimum(a, b), rng.random(m) * 2
        yield GridGraph(src, snk, edges, cap)


def _reduced_cut_all_free(g: GridGraph) -> np.ndarray:
    n = len(g.source_cap)
    return grabcut._reduced_cut(g, helpers.neighbour_table(n, g.edges, g.edge_cap), np.full(n, grabcut._FREE))


def test_reduced_cut_matches_max_flow_on_the_whole_graph(monkeypatch):
    calls = _count_max_flow(monkeypatch)
    nodes = fixed = 0
    for g in _reduction_grids():
        calls.clear()
        side = _reduced_cut_all_free(g)
        want = max_flow(g)[1]
        assert side.dtype == want.dtype
        assert side.tobytes() == want.tobytes()
        nodes += len(g.source_cap)
        fixed += len(g.source_cap) - len(calls[0].source_cap)
    assert fixed > nodes // 4  # the reduction does fix nodes


def _tied_path(source_ties: bool) -> GridGraph:
    """A 6-node path where every node has source == sink + S (or the mirror)."""
    edges = np.array([[i, i + 1] for i in range(5)])
    cap = np.array([1.0, 2.0, 1.0, 3.0, 1.0])
    s = np.bincount(edges[:, 0], cap, 6) + np.bincount(edges[:, 1], cap, 6)
    base = np.array([0.0, 1.0, 0.0, 2.0, 0.0, 1.0])
    return GridGraph(base + s, base, edges, cap) if source_ties else GridGraph(base, base + s, edges, cap)


def test_reduction_leaves_source_ties_free_and_fixes_sink_ties(monkeypatch):
    calls = _count_max_flow(monkeypatch)
    for source_ties, searched in ((True, 6), (False, 0)):
        calls.clear()
        g = _tied_path(source_ties)
        side = _reduced_cut_all_free(g)
        assert len(calls[0].source_cap) == searched
        assert side.tobytes() == max_flow(g)[1].tobytes()


def _random_windows(seed: int, count: int, one_colour: bool = False):
    """Seeded (z, trimap, data_fg, data_bg, gamma) windows; trimap radii 0-2,
    so some windows have definite foreground next to definite background."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        h, w = (int(v) for v in rng.integers(5, 25, 2))
        rr, cc = np.mgrid[0:h, 0:w]
        cy, cx = rng.uniform(0.3, 0.7, 2) * (h, w)
        ry, rx = rng.uniform(0.2, 0.4, 2) * (h, w)
        mask = ((rr - cy) / ry) ** 2 + ((cc - cx) / rx) ** 2 <= 1
        if mask.all() or not mask.any():
            mask[0, 0] = not mask[0, 0]
        params = ea.GrabcutParams(erode_radius=int(rng.integers(0, 3)), dilate_radius=int(rng.integers(0, 3)))
        trimap = build_trimap(mask.astype(np.uint8), params)
        gamma = float(rng.uniform(1.0, 60.0))
        if one_colour:
            z = np.broadcast_to(rng.integers(0, 256, 3), (h, w, 3)).astype(np.float64)
            data_fg = np.full(h * w, rng.uniform(0.0, 20.0))
            data_bg = data_fg if rng.random() < 0.5 else data_fg + rng.uniform(-1.0, 1.0)
        else:
            fg, bg = rng.integers(0, 256, 3), rng.integers(0, 256, 3)
            z = np.clip(np.where(mask[..., None], fg, bg) + rng.normal(0, 25, (h, w, 3)), 0, 255).round()
            data_fg = rng.uniform(0.0, 2.0 * gamma, h * w)
            data_bg = rng.uniform(0.0, 2.0 * gamma, h * w)
        yield z, trimap, data_fg, data_bg, gamma


def _oracle_cut(z, trimap, data_fg, data_bg, gamma) -> np.ndarray:
    """The window's mask after ``max_flow`` on the hand-folded probable-only graph."""
    graph, probable = helpers.oracle_folded_graph(z, trimap, data_fg, data_bg, gamma)
    cut = trimap.definite_fg().copy()
    cut[probable] = max_flow(graph)[1].astype(bool)
    return cut


def test_window_cut_equals_max_flow_on_the_folded_graph():
    cases = searched = 0
    for z, trimap, data_fg, data_bg, gamma in _random_windows(12, 56):
        edges, edge_cap, table = grabcut._window_edges(np.moveaxis(z, 2, 0), gamma)
        got = grabcut._window_cut(trimap, edges, edge_cap, table)(data_fg, data_bg)
        want = _oracle_cut(z, trimap, data_fg, data_bg, gamma)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        cases += 1
        searched += int(trimap.probable().any())
    assert cases == 56 and searched >= 40


@pytest.mark.parametrize("shape", [(5, 7), (1, 4), (6, 1), (9, 9), (1, 1), (2, 2)])
def test_grid_table_lists_the_edge_list_neighbours_in_its_order(shape):
    z = np.random.default_rng(sum(shape)).integers(0, 256, shape + (3,)).astype(np.float64)
    edges, edge_cap, (nbr, ncap) = grabcut._window_edges(np.moveaxis(z, 2, 0), 10.0)
    n = z.shape[0] * z.shape[1]
    assert nbr.shape == ncap.shape == (n, 8)
    want_nbr, want_cap = helpers.neighbour_table(n, edges, edge_cap)
    for row in range(n):
        present = nbr[row] < n
        assert nbr[row][present].tolist() == want_nbr[row][want_nbr[row] < n].tolist()
        assert ncap[row][present].tobytes() == want_cap[row][want_nbr[row] < n].tobytes()
        assert (ncap[row][~present] == 0).all()


def test_window_cut_on_one_colour_windows_has_the_folded_cut_energy():
    for z, trimap, data_fg, data_bg, gamma in _random_windows(13, 24, one_colour=True):
        edges, edge_cap, table = grabcut._window_edges(np.moveaxis(z, 2, 0), gamma)
        got = grabcut._window_cut(trimap, edges, edge_cap, table)(data_fg, data_bg)
        want = _oracle_cut(z, trimap, data_fg, data_bg, gamma)
        e_got = grabcut._labeling_energy(got, data_fg, data_bg, edges, edge_cap)
        e_want = grabcut._labeling_energy(want, data_fg, data_bg, edges, edge_cap)
        assert abs(e_got - e_want) <= 1e-9 * max(abs(e_want), 1.0)
        assert got[trimap.definite_fg()].all() and not got[trimap.definite_bg()].any()


def test_labeling_energy_equals_the_double_loop():
    rng = np.random.default_rng(14)
    radii_zero = 0
    for one_colour in (False, True):
        for z, trimap, data_fg, data_bg, gamma in _random_windows(15 + one_colour, 16, one_colour):
            edges, edge_cap, table = grabcut._window_edges(np.moveaxis(z, 2, 0), gamma)
            cut = grabcut._window_cut(trimap, edges, edge_cap, table)(data_fg, data_bg)
            for alpha in (cut, trimap.definite_fg(), rng.random(cut.shape) < 0.5):
                got = grabcut._labeling_energy(alpha, data_fg, data_bg, edges, edge_cap)
                want = helpers.oracle_labeling_energy(alpha, data_fg, data_bg, z, gamma)
                assert abs(got - want) <= 1e-12 * abs(want)
            radii_zero += not trimap.probable().any()
    assert radii_zero > 0  # some windows had definite foreground next to definite background


def test_graph_validation_errors():
    with pytest.raises(ShapeMismatch):
        GridGraph(np.zeros(2), np.zeros(3), np.zeros((0, 2), dtype=int), np.zeros(0)).validate()
    with pytest.raises(InvalidRaster):
        GridGraph(np.array([-1.0]), np.zeros(1), np.zeros((0, 2), dtype=int), np.zeros(0)).validate()
    with pytest.raises(InvalidRaster):
        GridGraph(np.zeros(2), np.zeros(2), np.array([[0, 0]]), np.ones(1)).validate()
    with pytest.raises(InvalidRaster):
        GridGraph(np.zeros(2), np.zeros(2), np.array([[0, 5]]), np.ones(1)).validate()


# --- refinement ---


def test_refine_recovers_disk_hole():
    image, truth, init = helpers.disk_scene()
    params = ea.GrabcutParams(rng_seed=3)
    refined, trace = ea.grabcut_refine(image, init, params)
    assert ea.region_jaccard(refined, truth, 1) >= 0.99
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    assert len(trace) == params.iterations


def test_refine_is_bit_identical_across_reruns():
    image, _, init = helpers.disk_scene()
    r1, t1 = ea.grabcut_refine(image, init, ea.GrabcutParams(rng_seed=3))
    r2, t2 = ea.grabcut_refine(image, init, ea.GrabcutParams(rng_seed=3))
    assert (r1 == r2).all()
    assert t1 == t2


def _count_max_flow(monkeypatch) -> list:
    calls = []
    solve = grabcut.max_flow

    def counting(graph):
        calls.append(graph)
        return solve(graph)

    monkeypatch.setattr(grabcut, "max_flow", counting)
    return calls


def test_refine_stops_at_fixed_point_and_pads_trace(monkeypatch):
    image, _, init = helpers.disk_scene()
    params = ea.GrabcutParams(rng_seed=3)
    calls = _count_max_flow(monkeypatch)
    refined, trace = ea.grabcut_refine(image, init, params)
    rounds = len(calls)
    assert 0 < rounds < params.iterations
    assert len(trace) == params.iterations
    assert trace[rounds - 1 :] == [trace[-1]] * (params.iterations - rounds + 1)
    short, short_trace = ea.grabcut_refine(image, init, ea.GrabcutParams(rng_seed=3, iterations=rounds))
    assert (short == refined).all()
    assert short_trace == trace[:rounds]


def test_refine_scores_each_mixture_once_per_round(monkeypatch):
    # one capped data term per model per round feeds both the t-links and the energy
    log_likelihood = grabcut.ColorGmm.log_likelihood
    scored = []

    def counting(self, pixels):
        scored.append(len(pixels))
        return log_likelihood(self, pixels)

    monkeypatch.setattr(grabcut.ColorGmm, "log_likelihood", counting)
    image, _, init = helpers.disk_scene()
    ramp, ramp_init = helpers.ramp_scene(8)
    cases = [
        (image, init, ea.GrabcutParams(rng_seed=3)),
        (
            ramp,
            ramp_init,
            ea.GrabcutParams(rng_seed=8, gamma=1.0, components_k=3, erode_radius=2, dilate_radius=8),
        ),
    ]
    calls = _count_max_flow(monkeypatch)
    for img, mask, params in cases:
        scored.clear()
        calls.clear()
        ea.grabcut_refine(img, mask, params)
        assert len(calls) > 0
        assert len(scored) == 2 * len(calls)
        assert set(scored) == {mask.size}  # the whole frame, once per model


def test_refine_searches_fewer_nodes_than_the_probable_band(monkeypatch):
    image, _, init = helpers.disk_scene()
    params = ea.GrabcutParams(rng_seed=3)
    band = int(build_trimap(init, params).probable().sum())
    calls = _count_max_flow(monkeypatch)
    ea.grabcut_refine(image, init, params)
    assert calls
    assert all(len(g.source_cap) < band for g in calls)


def test_refine_runs_every_round_while_partition_changes(monkeypatch):
    image, init = helpers.ramp_scene(8)
    kw = dict(rng_seed=8, gamma=1.0, components_k=3, erode_radius=2, dilate_radius=8)
    four, trace4 = ea.grabcut_refine(image, init, ea.GrabcutParams(iterations=4, **kw))
    calls = _count_max_flow(monkeypatch)
    five, trace5 = ea.grabcut_refine(image, init, ea.GrabcutParams(iterations=5, **kw))
    assert (four != five).any()  # the fifth cut still moved pixels
    assert len(calls) == 5
    assert trace5[:4] == trace4 and len(trace5) == 5


def test_refine_without_ambiguous_pixels_returns_the_init_mask():
    image, _, init = helpers.disk_scene(noise_seed=2)
    params = ea.GrabcutParams(rng_seed=3, iterations=4, erode_radius=0, dilate_radius=0)
    assert not build_trimap(init, params).probable().any()
    refined, trace = ea.grabcut_refine(image, init, params)
    assert refined.dtype == np.uint8 and (refined == init).all()
    assert len(trace) == params.iterations and len(set(trace)) == 1


def test_refine_respects_definite_regions():
    image, _, init = helpers.disk_scene()
    params = ea.GrabcutParams(rng_seed=0)
    refined, _ = ea.grabcut_refine(image, init, params)
    tm = build_trimap(init, params)
    assert (refined[tm.definite_fg()] == 1).all()
    assert (refined[tm.definite_bg()] == 0).all()


# --- the refinement window ---


def _window_of(mask: np.ndarray, dilate_radius: int) -> tuple[slice, slice]:
    """The mask's bounding box grown by 2 * dilate_radius + 1, clipped to the frame."""
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    m = 2 * dilate_radius + 1
    return (
        slice(max(0, rows[0] - m), rows[-1] + 1 + m),
        slice(max(0, cols[0] - m), cols[-1] + 1 + m),
    )


def _outside(shape, win) -> np.ndarray:
    out = np.ones(shape, dtype=bool)
    out[win] = False
    return out


def _noise_canvas(rng, image, init, dilate_radius, shape, at):
    """``image`` and ``init`` placed at ``at`` in a frame of ``shape`` whose
    pixels outside the window (the scene's pixels there too) are noise."""
    canvas = rng.integers(0, 256, shape + (3,), dtype=np.uint8)
    mask = np.zeros(shape, dtype=np.uint8)
    r, c = at
    mask[r : r + init.shape[0], c : c + init.shape[1]] = init
    win = _window_of(mask, dilate_radius)
    placed = canvas.copy()
    placed[r : r + init.shape[0], c : c + init.shape[1]] = image
    canvas[win] = placed[win]
    return canvas, mask, win


def test_refine_ignores_pixels_outside_the_window():
    image, _, init = helpers.disk_scene(noise_seed=4)
    params = ea.GrabcutParams(rng_seed=3, erode_radius=2, dilate_radius=2)
    win = _window_of(init, params.dilate_radius)
    assert win[0].start > 0 and win[0].stop < init.shape[0]  # the window is inside the scene
    want, want_trace = ea.grabcut_refine(image, init, params)
    assert not want[_outside(want.shape, win)].any()
    rng = np.random.default_rng(0)
    for shape, at in (((96, 96), (40, 30)), ((64, 150), (0, 100)), ((40, 40), (3, 5))):
        canvas, mask, cwin = _noise_canvas(rng, image, init, params.dilate_radius, shape, at)
        got, trace = ea.grabcut_refine(canvas, mask, params)
        r, c = at
        assert (got[r : r + 32, c : c + 32] == want).all()
        assert trace == want_trace
        assert not got[_outside(shape, cwin)].any()


@pytest.mark.parametrize("corner", [(0, 0), (0, 1), (1, 0), (1, 1), (0, None), (None, 1)])
def test_refine_of_a_mask_on_the_frame_edge(corner):
    scene = helpers.disk_scene(size=56, noise_seed=5)
    # cut and flip the scene so that the disk (rows and columns 7..25)
    # touches the chosen edges: 0 the first row or column, 1 the last
    for axis, side in enumerate(corner):
        if side is not None:
            cut = (slice(None),) * axis + (slice(7, None),)
            scene = [np.flip(a[cut], axis) if side else a[cut] for a in scene]
    image, truth, init = scene
    params = ea.GrabcutParams(rng_seed=3, erode_radius=2, dilate_radius=3)
    win = _window_of(init, params.dilate_radius)
    assert _outside(init.shape, win).any()
    refined, trace = ea.grabcut_refine(image, init, params)
    assert refined.shape == init.shape
    assert ea.region_jaccard(refined, truth, 1) >= 0.99
    tm = build_trimap(init, params)
    assert (refined[tm.definite_fg()] == 1).all()
    assert (refined[tm.definite_bg()] == 0).all()
    # the frame cut to the window gives the same mask and energies
    part, part_trace = ea.grabcut_refine(image[win], init[win], params)
    assert (refined[win] == part).all()
    assert part_trace == trace
    # and noise beyond the window changes nothing
    canvas = np.random.default_rng(1).integers(0, 256, image.shape, dtype=np.uint8)
    canvas[win] = image[win]
    again, again_trace = ea.grabcut_refine(canvas, init, params)
    assert (again == refined).all() and again_trace == trace


def test_background_fit_sees_only_the_window(monkeypatch):
    fitted = []
    fit = grabcut.fit_gmm

    def spy(pixels, k, rng_seed, **kwargs):
        fitted.append(len(pixels))
        return fit(pixels, k, rng_seed, **kwargs)

    monkeypatch.setattr(grabcut, "fit_gmm", spy)
    image, _, init = helpers.disk_scene(noise_seed=6)
    params = ea.GrabcutParams(rng_seed=3, dilate_radius=2)
    canvas, mask, win = _noise_canvas(np.random.default_rng(2), image, init, params.dilate_radius, (120, 100), (50, 40))
    ea.grabcut_refine(canvas, mask, params)
    window_px = canvas[win].shape[0] * canvas[win].shape[1]
    assert window_px * 3 < mask.size
    assert len(fitted) >= 2 and len(fitted) % 2 == 0
    assert all(n <= window_px for n in fitted)
    assert all(n > int(mask.sum()) for n in fitted[1::2])  # the background fits, one per round


def _random_masks():
    """Seeded masks of 1..3 rectangles and disks, some on the border, with radii."""
    rng = np.random.default_rng(21)
    for case in range(80):
        h, w = int(rng.integers(4, 40)), int(rng.integers(4, 40))
        mask = np.zeros((h, w), dtype=np.uint8)
        yy, xx = np.mgrid[0:h, 0:w]
        for _ in range(int(rng.integers(1, 4))):
            cy, cx = rng.integers(0, h), rng.integers(0, w)
            if case % 4 == 0:  # pin the shape to an edge or a corner
                cy = rng.choice([0, h - 1, cy])
                cx = rng.choice([0, w - 1])
            r = rng.uniform(0.5, 6)
            if rng.random() < 0.5:
                mask[(yy - cy) ** 2 + (xx - cx) ** 2 <= r * r] = 1
            else:
                mask[max(0, cy - int(r)) : cy + int(r) + 1, cx : cx + int(rng.integers(1, 8))] = 1
        if mask.all():
            mask[0, 0] = 0
        erode = 0 if case % 3 == 0 else int(rng.integers(1, 6))
        yield mask, ea.GrabcutParams(erode_radius=erode, dilate_radius=int(rng.integers(0, 7)))


def test_trimap_on_the_window_equals_the_frame_trimap_cut_to_it():
    on_border = small = 0
    for mask, params in _random_masks():
        win = _window_of(mask, params.dilate_radius)
        full = build_trimap(mask, params).data
        assert (build_trimap(mask[win], params).data == full[win]).all()
        outside = _outside(mask.shape, win)
        assert (full[outside] == TRIMAP_BG).all()
        on_border += bool(mask[0].any() or mask[-1].any() or mask[:, 0].any() or mask[:, -1].any())
        small += bool(outside.any())
    assert on_border >= 20 and small >= 20


def _record_fit_sizes(monkeypatch) -> list:
    sizes = []
    fit = grabcut.fit_gmm

    def spy(pixels, k, rng_seed, **kwargs):
        sizes.append(len(pixels))
        return fit(pixels, k, rng_seed, **kwargs)

    monkeypatch.setattr(grabcut, "fit_gmm", spy)
    return sizes


def test_refine_fits_only_the_foreground_once_the_cut_takes_every_pixel(monkeypatch):
    # one colour: the first cut takes all 64 pixels, so round 2 has no
    # background pixels and keeps the background model of round 1
    sizes = _record_fit_sizes(monkeypatch)
    image = np.full((8, 8, 3), 120, dtype=np.uint8)
    init = np.ones((8, 8), dtype=np.uint8)
    init[-1] = 0
    params = ea.GrabcutParams(components_k=2, erode_radius=1, dilate_radius=4, iterations=3, rng_seed=0)
    refined, trace = ea.grabcut_refine(image, init, params)
    assert sizes == [56, 8, 64]
    assert refined.dtype == np.uint8 and (refined == 1).all()
    assert len(trace) == 3


def test_refine_never_fits_a_mixture_to_no_pixels(monkeypatch):
    sizes = _record_fit_sizes(monkeypatch)
    rng = np.random.default_rng(22)
    for i, (mask, params) in enumerate(_random_masks()):
        colours = rng.integers(0, 256, (2, 3))
        image = colours[mask].astype(np.float64)
        if i % 3 == 0:
            image[:] = colours[0]  # one colour: every cut of equal energy is a candidate
        else:
            image += rng.normal(0, rng.uniform(2, 40), image.shape)
        image = np.clip(image, 0, 255).astype(np.uint8)
        k, iterations = (int(v) for v in rng.integers(1, 6, 2))
        ea.grabcut_refine(image, mask, dataclasses.replace(params, components_k=k, iterations=iterations, rng_seed=i))
    assert len(sizes) >= 160 and min(sizes) > 0


def test_refine_class_relabels_only_its_class():
    image, truth, init = helpers.disk_scene()
    labels = init.copy()
    labels[init == 1] = 4
    labels[0, 0] = 9  # unrelated class far outside the disk
    out = ea.refine_class(labels, image, 4, ea.GrabcutParams(rng_seed=3))
    assert out[0, 0] == 9
    assert ea.region_jaccard((out == 4).astype(np.uint8), truth, 1) >= 0.99
    assert set(np.unique(out)) <= {0, 4, 9}


def test_refine_class_scores_only_the_ambiguous_pixels_and_no_energy(monkeypatch):
    log_likelihood = grabcut.ColorGmm.log_likelihood
    scored, energies = [], []

    def counting(self, pixels):
        scored.append(len(pixels))
        return log_likelihood(self, pixels)

    monkeypatch.setattr(grabcut.ColorGmm, "log_likelihood", counting)
    monkeypatch.setattr(grabcut, "_labeling_energy", lambda *args: energies.append(args))
    image, _, init = helpers.disk_scene()
    params = ea.GrabcutParams(rng_seed=3)
    band = int(build_trimap(init, params).probable().sum())
    ea.refine_class(init, image, 1, params)
    assert scored and set(scored) == {band} and band < init.size
    assert energies == []


def test_refine_class_has_grabcut_refine_s_mask():
    rng = np.random.default_rng(23)
    cases = 0
    for i, (mask, params) in enumerate(_random_masks()):
        colours = rng.integers(0, 256, (2, 3))
        image = colours[mask].astype(np.float64)
        if i % 3 == 0:
            image[:] = colours[0]
        else:
            image += rng.normal(0, rng.uniform(2, 40), image.shape)
        image = np.clip(image, 0, 255).astype(np.uint8)
        params = dataclasses.replace(params, components_k=int(rng.integers(1, 6)), rng_seed=i)
        refined, _ = ea.grabcut_refine(image, mask, params)
        got = ea.refine_class(mask * 4, image, 4, params)
        assert got.tobytes() == (refined * 4).tobytes()
        cases += 1
    assert cases == 80


def test_refine_class_requires_class_present():
    image, _, init = helpers.disk_scene()
    with pytest.raises(ClassAbsent):
        ea.refine_class(init, image, 7)


def test_refine_shape_mismatch():
    image, _, init = helpers.disk_scene()
    with pytest.raises(ShapeMismatch):
        ea.grabcut_refine(image[:16], init)


def test_params_validation():
    with pytest.raises(InvalidRaster):
        ea.GrabcutParams(components_k=0)
    for iterations in (0, grabcut.MAX_ITERATIONS + 1, 10**9):
        with pytest.raises(InvalidRaster, match=f"iterations must be in 1..{grabcut.MAX_ITERATIONS}"):
            ea.GrabcutParams(iterations=iterations)
    assert ea.GrabcutParams(iterations=grabcut.MAX_ITERATIONS).iterations == grabcut.MAX_ITERATIONS
    with pytest.raises(InvalidRaster):
        ea.GrabcutParams(gamma=-1.0)
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(InvalidRaster):
            ea.GrabcutParams(gamma=gamma)
    with pytest.raises(InvalidRaster):
        ea.GrabcutParams(rng_seed=-1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("iterations", 2.5),
        ("components_k", 2.0),
        ("erode_radius", 1.5),
        ("dilate_radius", np.float64(2.0)),
        ("components_k", "3"),
        ("iterations", True),
        ("rng_seed", 0.0),
        ("gamma", True),
        ("gamma", "50"),
        ("gamma", 10**400),
        ("gamma", None),
    ],
)
def test_params_reject_values_of_the_wrong_type(field, value):
    with pytest.raises(InvalidRaster, match=f"^{field} must be an? "):
        ea.GrabcutParams(**{field: value})


def test_params_accept_numpy_numbers_as_their_python_equals():
    image, _, init = helpers.disk_scene()
    plain = ea.GrabcutParams(components_k=3, iterations=2, erode_radius=1, gamma=10.0, rng_seed=4)
    numpy_typed = ea.GrabcutParams(
        components_k=np.int64(3), iterations=np.int32(2), erode_radius=np.uint8(1), gamma=np.float32(10.0),
        rng_seed=np.int64(4),
    )
    want, want_trace = ea.grabcut_refine(image, init, plain)
    got, got_trace = ea.grabcut_refine(image, init, numpy_typed)
    assert got.tobytes() == want.tobytes() and got_trace == want_trace


# --- identity semantics of the array-holding dataclasses ---


def _assert_identity_semantics(make):
    a, b = make(), make()
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == hash(a)
    assert {a, b, a} == {a, b} and len({a, b}) == 2
    assert a in {a} and b not in {a}


def test_array_dataclasses_compare_and_hash_by_identity():
    px = np.random.default_rng(0).uniform(0, 255, (60, 3))
    _assert_identity_semantics(lambda: fit_gmm(px, 2, 0))
    mask = helpers.disk_mask()
    _assert_identity_semantics(lambda: build_trimap(mask, ea.GrabcutParams()))
    _assert_identity_semantics(
        lambda: GridGraph(np.ones(2), np.ones(2), np.array([[0, 1]], dtype=np.int64), np.ones(1))
    )


def test_graph_validation_names_edges_and_edge_caps_of_the_wrong_shape():
    with pytest.raises(ShapeMismatch, match=r"edges must be \(m, 2\), got \(2, 3\)"):
        GridGraph(np.zeros(4), np.zeros(4), np.zeros((2, 3), dtype=int), np.zeros(2)).validate()
    with pytest.raises(ShapeMismatch, match=r"edges must be \(m, 2\), got \(2,\)"):
        GridGraph(np.zeros(4), np.zeros(4), np.array([0, 1]), np.zeros(2)).validate()
    with pytest.raises(ShapeMismatch, match="one capacity per edge required"):
        GridGraph(np.zeros(2), np.zeros(2), np.array([[0, 1]]), np.ones(2)).validate()


def test_max_flow_takes_graph_fields_given_as_lists():
    flow, side = max_flow(GridGraph([1.0], [1.0], np.zeros((0, 2), int), np.zeros(0)))
    assert flow == 1.0 and side.tolist() == [0]
    listed = GridGraph([3.0, 0.0, 1.0], [0.0, 2.0, 1.5], [[0, 1], [1, 2]], [1.0, 0.5])
    arrays = GridGraph(*(np.array(v) for v in ([3.0, 0.0, 1.0], [0.0, 2.0, 1.5], [[0, 1], [1, 2]], [1.0, 0.5])))
    got, want = max_flow(listed), max_flow(arrays)
    assert got[0] == want[0] and got[1].tolist() == want[1].tolist()
    assert isinstance(listed.edges, np.ndarray) and listed.validate() == 3
