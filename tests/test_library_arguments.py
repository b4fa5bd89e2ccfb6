"""Every scalar argument of the public API against one set of bad values.

The library's counterpart of the bad-argument harness in ``tests/test_cli.py``.
``SCALARS`` holds, for each public callable that takes a scalar, a valid call
by keyword and, for each scalar parameter, its kind and how messages name it.
The harness replaces one parameter at a time with a string, None, a bool, a
float where a count or a choice is wanted, NaN, infinity and a value outside
the parameter's range. Each call must raise a ``ToolkitError`` whose message
holds the parameter's name, or be accepted with the meaning that the
callable's docstring gives that value (listed with the parameter).

``EXEMPT`` lists every other public callable with the reason it has no
entry: it takes arrays, paths or parameter objects only (out of scope here),
or it is a record of results. The completeness test fails on a public
callable in neither table, and on an entry whose valid call does not name
every parameter of its signature.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import eaparse as ea

_NO_RANGE = object()  # a parameter whose every value of its kind is in range


@dataclasses.dataclass(frozen=True)
class Scalar:
    kind: str  # "count" (an integer), "real" (a finite number) or "choice"
    name: str  # what the callable's messages call it
    beyond: object = _NO_RANGE  # a value of its kind outside its range
    accepted: tuple = ()  # the bad-value keys its docstring gives a meaning
    as_list: bool = False  # the parameter is a list of such scalars


def _bad_values(spec: Scalar) -> dict:
    values = {"str": "1", "None": None, "bool": True, "nan": math.nan, "inf": math.inf}
    if spec.kind != "real":  # a float where a count or a choice is wanted
        values["float"] = 1.5
    if spec.beyond is not _NO_RANGE:
        values["out-of-range"] = spec.beyond
    return values


def count(name, beyond=_NO_RANGE, **kw):
    return Scalar("count", name, beyond, **kw)


def real(name, beyond=_NO_RANGE, **kw):
    return Scalar("real", name, beyond, **kw)


_MASK = np.zeros((8, 8), dtype=np.uint8)
_MASK[2:6, 2:6] = 1
_LABELS = _MASK.copy()
_LABELS[3:5, 3:5] = 2
_IMAGE = np.stack([_MASK * 200, _LABELS * 50, np.full((8, 8), 30, np.uint8)], axis=-1).astype(np.uint8)
_LOGITS = np.random.default_rng(0).normal(size=(3, 8, 8)).astype(np.float32)
_PIXELS = np.random.default_rng(1).uniform(0, 255, (40, 3))
_RADIUS = count("radius", -1)

# callable: (valid call by keyword, {scalar parameter: how it is checked})
SCALARS = {
    # a box may lie partly or wholly outside a frame (Box docstring)
    "Box": (dict(x0=0, y0=0, x1=4, y1=4), {k: count("box coordinates") for k in ("x0", "y0", "x1", "y1")}),
    "expand_box": (
        dict(box=ea.Box(2, 2, 4, 4), ratio=0.2, frame_w=10, frame_h=10),
        {"ratio": real("ratio", -0.1), "frame_w": count("frame_w", 0), "frame_h": count("frame_h", 0)},
    ),
    "rotate_quarter": (dict(image=_IMAGE, labels=_LABELS, quarters=1), {"quarters": count("quarters", 2)}),
    "cut_half": (dict(image=_IMAGE, labels=_LABELS, side="left"), {"side": Scalar("choice", "side", "middle")}),
    "dilate_mask": (dict(mask=_MASK, radius=1), {"radius": _RADIUS}),
    "erode_mask": (dict(mask=_MASK, radius=1), {"radius": _RADIUS}),
    "edge_attention_mask": (dict(label_map=_LABELS, radius=1), {"radius": _RADIUS}),
    "disk_offsets": (dict(radius=1), {"radius": _RADIUS}),
    "default_tolerance": (dict(height=8, width=8), {"height": count("height", 0), "width": count("width", 0)}),
    # a class id outside 0..255 is absent from every frame (metrics docstring), so
    # every integer is in range
    "region_jaccard": (dict(pred=_LABELS, gt=_MASK, class_id=1), {"class_id": count("class_id")}),
    "boundary_f": (
        dict(pred=_LABELS, gt=_MASK, class_id=1, tolerance=1),
        # None: default_tolerance; the maps both have a boundary of class 1
        {"class_id": count("class_id"), "tolerance": count("tolerance", -1, accepted=("None",))},
    ),
    "evaluate_frames": (
        dict(preds=[_LABELS], gts=[_MASK], class_ids=[1, 2], tolerance=1),
        {"class_ids": count("class_ids", as_list=True), "tolerance": count("tolerance", -1, accepted=("None",))},
    ),
    # an id the map does not hold raises ClassAbsent (refine_class docstring)
    "refine_class": (dict(labels=_LABELS, image=_IMAGE, class_id=1, params=None), {"class_id": count("class_id")}),
    "fit_gmm": (dict(pixels=_PIXELS, k=2, rng_seed=0), {"k": count("k", 0), "rng_seed": count("rng_seed", -1)}),
    "GrabcutParams": (
        dict(components_k=2, gamma=5.0, iterations=2, erode_radius=1, dilate_radius=2, rng_seed=0),
        {
            "components_k": count("components_k", 0),
            "gamma": real("gamma", -1.0),
            "iterations": count("iterations", 101),
            "erode_radius": count("erode_radius", -1),
            "dilate_radius": count("dilate_radius", -1),
            "rng_seed": count("rng_seed", -1),
        },
    ),
    "LossWeights": (
        dict(lambda_edge=0.5, lambda_boundary=0.5),
        {"lambda_edge": real("lambda_edge", -1.0), "lambda_boundary": real("lambda_boundary", -1.0)},
    ),
    # None: the first member's grid (ensemble_probabilities docstring)
    "ensemble_probabilities": (
        dict(logits_list=[_LOGITS], out_height=4, out_width=4),
        {k: count(k, 0, accepted=("None",)) for k in ("out_height", "out_width")},
    ),
    "ensemble_argmax": (
        dict(logits_list=[_LOGITS], out_height=4, out_width=4),
        {k: count(k, 0, accepted=("None",)) for k in ("out_height", "out_width")},
    ),
    # an id outside 0..255 is absent from every map and skipped (fuse_frame docstring)
    "fuse_frame": (
        dict(image=_IMAGE, boxes=[ea.Box(1, 1, 7, 7)], members=[[_LOGITS]], expand_ratio=0.2, refine_ids=[1], params=None),
        {"expand_ratio": real("ratio", -0.1), "refine_ids": count("refine_ids", as_list=True)},
    ),
    "resize_bilinear": (
        dict(tensor=_LOGITS, out_height=4, out_width=4),
        {k: count(k, 0) for k in ("out_height", "out_width")},
    ),
}

_ARRAYS = "takes arrays, paths or parameter objects only"
_FLAG = "takes arrays and want_gradient, a keyword switch read for its truth, not a number"
_RECORD = "a record of results the library builds; it checks no field"
EXEMPT = {
    **dict.fromkeys(
        [
            "ColorGmm", "GridGraph", "Trimap", "SwapTable", "build_trimap", "grabcut_refine", "max_flow",
            "hflip_with_swap", "crop", "paste", "extract_boundary", "softmax_map", "total_loss",
            "ensure_binary_mask", "ensure_label_map", "ensure_logits", "ensure_rgb_image",
            "read_label_map", "read_logits", "read_rgb_image", "write_label_map", "write_logits", "write_rgb_image",
        ],
        _ARRAYS,
    ),  # fmt: skip
    **dict.fromkeys(["softmax_cross_entropy", "edge_attention_loss", "boundary_bce"], _FLAG),
    **dict.fromkeys(["ClassScore", "EvalReport", "LossResult"], _RECORD),
}


def _public_callables() -> set:
    return {
        name
        for name in dir(ea)
        if not name.startswith("_")
        and callable(getattr(ea, name))
        and not (isinstance(getattr(ea, name), type) and issubclass(getattr(ea, name), BaseException))
    }


def test_every_public_callable_has_an_entry_or_a_stated_exemption():
    public = _public_callables()
    assert public - set(SCALARS) - set(EXEMPT) == set()
    assert set(SCALARS) & set(EXEMPT) == set()
    assert set(SCALARS) | set(EXEMPT) <= public  # no stale entry
    for name, (call, scalars) in SCALARS.items():
        # the valid call names every parameter, so a new one needs an entry
        assert set(inspect.signature(getattr(ea, name)).parameters) == set(call), name
        assert set(scalars) <= set(call), name


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_valid_call_is_accepted(name):
    call, _ = SCALARS[name]
    getattr(ea, name)(**call)


_CASES = [(name, param) for name in sorted(SCALARS) for param in SCALARS[name][1]]


@pytest.mark.parametrize("name, param", _CASES, ids=[f"{n}-{p}" for n, p in _CASES])
def test_bad_scalar_is_named_or_has_a_stated_meaning(name, param):
    call, scalars = SCALARS[name]
    spec = scalars[param]
    fn = getattr(ea, name)
    problems = []
    for key, value in _bad_values(spec).items():
        try:
            fn(**{**call, param: [value] if spec.as_list else value})
        except Exception as exc:  # noqa: BLE001 - every outcome is reported, not raised
            if key in spec.accepted or not isinstance(exc, ea.ToolkitError):
                problems.append(f"{key}: {type(exc).__name__}: {exc}")
            elif spec.name not in str(exc):
                problems.append(f"{key}: the message does not name {spec.name!r}: {exc}")
        else:
            if key not in spec.accepted:
                problems.append(f"{key}: {value!r} was accepted")
    assert not problems, problems
