"""The eaparse executable: flags, exit codes, file outputs, determinism."""

import argparse
import copy
import dataclasses
import errno
import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import helpers
import eaparse as ea
from eaparse import cli, grabcut, metrics
from eaparse.cli import main
from eaparse.tensorio import _label_map_bytes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- global flags and config ---


def test_print_config_defaults(capsys):
    code, out, _ = run(capsys, "--print-config")
    assert code == 0
    cfg = json.loads(out)
    assert cfg["rng_seed"] == 0
    assert cfg["edge_radius"] == 2
    assert cfg["grabcut"]["components_k"] == 5


def test_seed_flag_overrides_config(capsys, tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"rng_seed": 11}')
    code, out, _ = run(capsys, "--config", str(p), "--print-config")
    assert code == 0 and json.loads(out)["rng_seed"] == 11
    code, out, _ = run(capsys, "--config", str(p), "--seed", "7", "--print-config")
    assert code == 0 and json.loads(out)["rng_seed"] == 7


def test_config_merges_nested_keys(capsys, tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"grabcut": {"gamma": 9.5}, "edge_radius": 4}')
    code, out, _ = run(capsys, "--config", str(p), "--print-config")
    cfg = json.loads(out)
    assert code == 0
    assert cfg["grabcut"]["gamma"] == 9.5
    assert cfg["grabcut"]["iterations"] == 5
    assert cfg["edge_radius"] == 4


def test_unknown_config_key_is_exit_2(capsys, tmp_path):
    p = tmp_path / "c.json"
    p.write_text('{"bogus": 1}')
    code, _, err = run(capsys, "--config", str(p), "--print-config")
    assert code == 2
    assert "unknown config key: config.bogus" in err


def test_non_object_config_is_exit_2(capsys, tmp_path):
    p = tmp_path / "c.json"
    p.write_text("[1, 2]")
    code, _, err = run(capsys, "--config", str(p), "--print-config")
    assert code == 2 and "error:" in err


# the required arguments of each subcommand; --print-config reads none of them
REQUIRED = {
    "edges": ["edges", "--labels", "l.pgm", "--out", "o.pgm"],
    "loss": ["loss", "--logits", "x.fplt", "--labels", "y.pgm"],
    "grabcut": ["grabcut", "--image", "i.ppm", "--labels", "l.pgm", "--class", "1", "--out", "o"],
    "eval": ["eval", "--pred-dir", "p", "--gt-dir", "g", "--out", "r.json"],
    "pipeline": ["pipeline", "--images", "i", "--boxes", "b.jsonl", "--logits-dir", "d"]
    + ["--gt-dir", "g", "--out-dir", "o"],
}

# (subcommand or None for a global flag, flag, config path, flag text, its value,
#  a config value that differs from both the flag's and the default). Some number
#  keys get an integer config value, which a float flag must still beat.
CONFIG_FLAGS = [
    (None, "--seed", "rng_seed", "6", 6, 11),
    ("edges", "--radius", "edge_radius", "5", 5, 4),
    ("loss", "--edge-weight", "loss_weights.lambda_edge", "0.5", 0.5, 2),
    ("loss", "--boundary-weight", "loss_weights.lambda_boundary", "3", 3.0, 0.25),
    ("grabcut", "--gamma", "grabcut.gamma", "7.5", 7.5, 20),
    ("grabcut", "--components", "grabcut.components_k", "2", 2, 3),
    ("grabcut", "--iters", "grabcut.iterations", "9", 9, 2),
    ("grabcut", "--erode", "grabcut.erode_radius", "1", 1, 4),
    ("grabcut", "--dilate", "grabcut.dilate_radius", "6", 6, 12),
    ("grabcut", "--seed", "rng_seed", "9", 9, 4),
    ("eval", "--classes", "classes", "1,3", [1, 3], [2]),
    ("eval", "--tolerance", "metric_tolerance", "2", 2, 5),
    ("pipeline", "--expand", "expand_ratio", "0.5", 0.5, 0),
    ("pipeline", "--refine-classes", "grabcut.classes", "1,2", [1, 2], [3]),
    ("pipeline", "--classes", "classes", "4", [4], [1, 2]),
    ("pipeline", "--tolerance", "metric_tolerance", "3", 3, 1),
]


def _at(cfg, path):
    for key in path.split("."):
        cfg = cfg[key]
    return cfg


def _nested(path, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


def test_config_flag_table_covers_every_config_flag():
    found = set()

    def walk(parser, command):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, subparser in action.choices.items():
                    walk(subparser, name)
            elif action.dest.split(".")[0] in cli.DEFAULT_CONFIG:
                found.update((command, flag) for flag in action.option_strings)

    walk(cli._build_parser(), None)
    assert found == {(command, flag) for command, flag, *_ in CONFIG_FLAGS}


@pytest.mark.parametrize(
    "command, flag, path, text, value, cfg_value",
    CONFIG_FLAGS,
    ids=[f"{c or 'global'}{f}" for c, f, *_ in CONFIG_FLAGS],
)
def test_flag_beats_config_beats_default(capsys, tmp_path, command, flag, path, text, value, cfg_value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_nested(path, cfg_value)))
    sub = REQUIRED[command or "edges"]
    flag_args = [flag, text]
    seen = []
    for argv in (
        ["--print-config"] + sub,
        ["--config", str(config), "--print-config"] + sub,
        ["--config", str(config), "--print-config"]
        + (flag_args + sub if command is None else sub + flag_args),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        seen.append(_at(json.loads(out), path))
    assert seen == [_at(cli.DEFAULT_CONFIG, path), cfg_value, value]


@pytest.mark.parametrize(
    "sub, key, cfg_value",
    [
        (["ensemble", "--inputs", "x.fplt", "--height", "5", "--width", "6", "--out", "e.pgm"], "ensemble_size", [7, 8]),
        (
            ["augment", "--op", "hflip", "--image", "i.ppm", "--labels", "l.pgm", "--config", "swaps.json"]
            + ["--out-prefix", "p"],
            "swap_pairs",
            [[1, 2]],
        ),
    ],
    ids=["ensemble-size", "augment-swaps"],
)
def test_print_config_omits_the_flags_their_handlers_merge(capsys, tmp_path, sub, key, cfg_value):
    # the handlers apply these flags over cfg themselves; the swaps file is never read here
    code, out, err = run(capsys, "--print-config", *sub)
    assert code == 0, err
    assert json.loads(out) == cli.DEFAULT_CONFIG
    config = tmp_path / "c.json"
    config.write_text(json.dumps({key: cfg_value}))
    code, out, err = run(capsys, "--config", str(config), "--print-config", *sub)
    assert code == 0, err
    assert json.loads(out) == {**cli.DEFAULT_CONFIG, key: cfg_value}


MISTYPED = {
    "gamma-string": ('{"grabcut": {"gamma": "abc"}}', "grabcut.gamma"),
    "radius-fraction": ('{"edge_radius": 1.7}', "edge_radius"),
    "radius-string": ('{"edge_radius": "2"}', "edge_radius"),
    "radius-bool": ('{"edge_radius": true}', "edge_radius"),
    "radius-integral-float": ('{"edge_radius": 2.0}', "edge_radius"),
    "radius-null": ('{"edge_radius": null}', "edge_radius"),
    "size-int": ('{"ensemble_size": 5}', "ensemble_size"),
    "size-triple": ('{"ensemble_size": [1, 2, 3]}', "ensemble_size"),
    "weight-string": ('{"loss_weights": {"lambda_edge": "x"}}', "loss_weights.lambda_edge"),
    "gamma-nan": ('{"grabcut": {"gamma": NaN}}', "grabcut.gamma"),
    "gamma-overflow": ('{"grabcut": {"gamma": 1e999}}', "grabcut.gamma"),
    "classes-strings": ('{"classes": ["1"]}', "classes"),
    "refine-null": ('{"grabcut": {"classes": null}}', "grabcut.classes"),
    "tolerance-float": ('{"metric_tolerance": 1.5}', "metric_tolerance"),
    "gamma-nan-flag": (None, "grabcut.gamma"),  # grabcut --gamma nan
}


@pytest.mark.parametrize("doc, path", MISTYPED.values(), ids=MISTYPED.keys())
def test_mistyped_setting_is_exit_2(capsys, tmp_path, doc, path):
    if doc is None:
        argv = ["--print-config", *REQUIRED["grabcut"], "--gamma", "nan"]
    else:
        config = tmp_path / "c.json"
        config.write_text(doc)
        argv = ["--config", str(config), "--print-config"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: config.{path} must be ")
    assert "Traceback" not in err


def test_mistyped_config_value_is_rejected_even_where_a_flag_wins(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text('{"grabcut": {"gamma": "abc"}}')
    argv = ["--config", str(config), "--print-config", *REQUIRED["grabcut"], "--gamma", "7.5"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: config.grabcut.gamma must be a finite number")


def test_null_defaults_may_be_set_and_reset(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text('{"ensemble_size": [3, 4], "metric_tolerance": null, "classes": [1]}')
    code, out, _ = run(capsys, "--config", str(config), "--print-config")
    cfg = json.loads(out)
    assert code == 0
    assert (cfg["ensemble_size"], cfg["metric_tolerance"], cfg["classes"]) == ([3, 4], None, [1])


@pytest.mark.parametrize("command", ["eval", "pipeline"])
def test_bad_class_list_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(REQUIRED[command] + ["--classes", "1,x"])
    assert exc.value.code == 2
    assert "argument --classes: class list must be comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--classes", "1,2,1"], "config.classes must be a list of distinct integers in 0..255 or null, got [1, 2, 1]"),
        (["--classes", "1,256"], "config.classes must be a list of distinct integers in 0..255 or null, got [1, 256]"),
        (["--refine-classes", "-1"], "config.grabcut.classes must be a list of distinct integers in 0..255, got [-1]"),
    ],
    ids=["repeated", "above-255", "negative"],
)
def test_class_list_must_hold_distinct_label_ids(capsys, argv, message):
    code, out, err = run(capsys, "--print-config", *REQUIRED["pipeline"], *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    code, out, _ = run(capsys, "--print-config", *REQUIRED["pipeline"], "--classes", "0,255", "--refine-classes", "")
    assert code == 0 and json.loads(out)["classes"] == [0, 255]


def test_readme_default_config_matches_the_code():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("Default configuration:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == cli.DEFAULT_CONFIG


def test_default_config_holds_the_library_defaults():
    def typed(d):
        return {key: (type(value), value) for key, value in d.items()}

    settings = {key: value for key, value in cli.DEFAULT_CONFIG["grabcut"].items() if key != "classes"}
    settings["rng_seed"] = cli.DEFAULT_CONFIG["rng_seed"]
    assert typed(settings) == typed(dataclasses.asdict(ea.GrabcutParams()))
    assert typed(cli.DEFAULT_CONFIG["loss_weights"]) == typed(dataclasses.asdict(ea.LossWeights()))


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


REPO_ROOT = Path(__file__).resolve().parent.parent


def _assert_prints_default_config(proc):
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["rng_seed"] == 0, proc.stderr


def test_installed_entry_point(tmp_path):
    # Runs the `eaparse` script declared in pyproject.toml the way pip's
    # generated wrapper does, so the declaration is checked without an install.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["eaparse"]
    module, _, func = target.partition(":")
    wrapper = (
        'import sys; sys.argv[0] = "eaparse"; '
        f"from {module} import {func}; sys.exit({func}())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--print-config"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    _assert_prints_default_config(proc)


@pytest.mark.skipif(shutil.which("eaparse") is None, reason="eaparse is not installed on PATH")
def test_console_script_on_path(tmp_path):
    proc = subprocess.run(
        ["eaparse", "--print-config"], capture_output=True, text=True, cwd=tmp_path
    )
    _assert_prints_default_config(proc)


# --- edges ---


def test_edges_writes_attention_mask(capsys, tmp_path):
    labels = np.zeros((8, 8), dtype=np.uint8)
    labels[2:6, 2:6] = 1
    ea.write_label_map(labels, tmp_path / "l.pgm")
    out = tmp_path / "m.pgm"
    code, _, _ = run(capsys, "edges", "--labels", str(tmp_path / "l.pgm"), "--out", str(out))
    assert code == 0
    assert (ea.read_label_map(out) == ea.edge_attention_mask(labels, 2)).all()
    code, _, _ = run(
        capsys, "edges", "--labels", str(tmp_path / "l.pgm"), "--radius", "0", "--out", str(out)
    )
    assert code == 0
    assert (ea.read_label_map(out) == ea.extract_boundary(labels)).all()


def test_edges_huge_radius_finishes(capsys, tmp_path, monkeypatch):
    labels = np.zeros((8, 8), dtype=np.uint8)
    labels[2:6, 2:6] = 1
    ea.write_label_map(labels, tmp_path / "l.pgm")
    helpers.forbid_disks_beyond(monkeypatch, 16)
    out = tmp_path / "m.pgm"
    argv = ["edges", "--labels", str(tmp_path / "l.pgm"), "--out", str(out)]
    code, _, err = run(capsys, *argv, "--radius", "1000000000")
    assert code == 0, err
    assert ea.read_label_map(out).all()
    config = tmp_path / "c.json"
    config.write_text('{"edge_radius": 1000000000}')
    code, _, err = run(capsys, "--config", str(config), *argv)
    assert code == 0, err


# --- loss ---


def _loss_fixture(tmp_path):
    rng = np.random.default_rng(5)
    logits = rng.uniform(-2, 2, (3, 6, 6)).astype(np.float32)
    labels = rng.integers(0, 3, (6, 6)).astype(np.uint8)
    ea.write_logits(logits, tmp_path / "x.fplt")
    ea.write_label_map(labels, tmp_path / "y.pgm")
    return logits, labels


def test_loss_prints_value_and_writes_gradient(capsys, tmp_path):
    logits, labels = _loss_fixture(tmp_path)
    grad_path = tmp_path / "g.fplt"
    code, out, _ = run(
        capsys,
        "loss",
        "--logits",
        str(tmp_path / "x.fplt"),
        "--labels",
        str(tmp_path / "y.pgm"),
        "--grad-out",
        str(grad_path),
    )
    assert code == 0
    got = json.loads(out)
    want = ea.softmax_cross_entropy(logits, labels, want_gradient=True)
    assert got["loss"] == pytest.approx(want.loss, abs=1e-12)
    assert got["pixels"] == 36
    assert np.allclose(ea.read_logits(grad_path), want.gradient.astype(np.float32), atol=0)


def test_loss_combines_edge_and_boundary_terms(capsys, tmp_path):
    logits, labels = _loss_fixture(tmp_path)
    rng = np.random.default_rng(6)
    edge_logits = rng.uniform(-1, 1, (1, 6, 6)).astype(np.float32)
    ea.write_logits(edge_logits, tmp_path / "e.fplt")
    code, out, _ = run(
        capsys,
        "loss",
        "--logits",
        str(tmp_path / "x.fplt"),
        "--labels",
        str(tmp_path / "y.pgm"),
        "--edge-mask-radius",
        "1",
        "--edge-weight",
        "0.5",
        "--edge-logits",
        str(tmp_path / "e.fplt"),
        "--boundary-weight",
        "2.0",
    )
    assert code == 0
    seg = ea.softmax_cross_entropy(logits, labels)
    edge = ea.edge_attention_loss(logits, labels, ea.edge_attention_mask(labels, 1))
    bnd = ea.boundary_bce(edge_logits, ea.extract_boundary(labels))
    want = seg.loss + 0.5 * edge.loss + 2.0 * bnd.loss
    assert json.loads(out)["loss"] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "flag, value, name",
    [("--edge-weight", "-1", "lambda_edge"), ("--boundary-weight", "-0.5", "lambda_boundary")],
)
def test_loss_rejects_a_negative_weight(capsys, tmp_path, flag, value, name):
    _loss_fixture(tmp_path)
    before = _tree(tmp_path)
    argv = ["loss", "--logits", str(tmp_path / "x.fplt"), "--labels", str(tmp_path / "y.pgm")]
    code, out, err = run(capsys, *argv, "--grad-out", str(tmp_path / "g.fplt"), flag, value)
    assert code == 2 and out == ""
    assert err == f"error: {name} must be a finite number >= 0, got {float(value)}\n"
    assert _tree(tmp_path) == before


# --- augment ---


def test_augment_hflip_with_swaps_file(capsys, tmp_path):
    rng = np.random.default_rng(7)
    image = rng.integers(0, 256, (4, 5, 3)).astype(np.uint8)
    labels = rng.integers(0, 4, (4, 5)).astype(np.uint8)
    ea.write_rgb_image(image, tmp_path / "i.ppm")
    ea.write_label_map(labels, tmp_path / "l.pgm")
    swaps = tmp_path / "swaps.json"
    swaps.write_text("[[1, 2]]")
    prefix = str(tmp_path / "out_")
    code, _, _ = run(
        capsys,
        "augment",
        "--op",
        "hflip",
        "--image",
        str(tmp_path / "i.ppm"),
        "--labels",
        str(tmp_path / "l.pgm"),
        "--config",
        str(swaps),
        "--out-prefix",
        prefix,
    )
    assert code == 0
    want_img, want_lab = ea.hflip_with_swap(image, labels, ea.SwapTable([(1, 2)]))
    assert (ea.read_rgb_image(prefix + "image.ppm") == want_img).all()
    assert (ea.read_label_map(prefix + "labels.pgm") == want_lab).all()


BAD_SWAP_PAIRS = {
    "one-id": "[[1]]",
    "three-ids": "[[1, 2, 3]]",
    "string": '[["a", 2]]',
    "fraction": "[[1.5, 2]]",
    "not-a-list": "5",
}


@pytest.mark.parametrize("route", ["global", "augment"])
@pytest.mark.parametrize("pairs", BAD_SWAP_PAIRS.values(), ids=BAD_SWAP_PAIRS.keys())
def test_augment_rejects_malformed_swap_pairs(capsys, tmp_path, pairs, route):
    ea.write_rgb_image(np.zeros((4, 5, 3), dtype=np.uint8), tmp_path / "i.ppm")
    ea.write_label_map(np.zeros((4, 5), dtype=np.uint8), tmp_path / "l.pgm")
    config = tmp_path / "c.json"
    config.write_text('{"swap_pairs": %s}' % pairs)
    argv = ["augment", "--op", "hflip", "--image", str(tmp_path / "i.ppm")]
    argv += ["--labels", str(tmp_path / "l.pgm"), "--out-prefix", str(tmp_path / "out_")]
    if route == "global":
        argv = ["--config", str(config)] + argv
    else:
        argv += ["--config", str(config)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: swap pair")
    assert "Traceback" not in err
    assert not list(tmp_path.glob("out_*"))


def test_augment_cuthalf_requires_side(capsys, tmp_path):
    image = np.zeros((4, 4, 3), dtype=np.uint8)
    labels = np.zeros((4, 4), dtype=np.uint8)
    ea.write_rgb_image(image, tmp_path / "i.ppm")
    ea.write_label_map(labels, tmp_path / "l.pgm")
    code, _, err = run(
        capsys,
        "augment",
        "--op",
        "cuthalf",
        "--image",
        str(tmp_path / "i.ppm"),
        "--labels",
        str(tmp_path / "l.pgm"),
        "--out-prefix",
        str(tmp_path / "o_"),
    )
    assert code == 2 and "--side" in err


def test_augment_rot90_files(capsys, tmp_path):
    rng = np.random.default_rng(8)
    image = rng.integers(0, 256, (2, 3, 3)).astype(np.uint8)
    labels = rng.integers(0, 4, (2, 3)).astype(np.uint8)
    ea.write_rgb_image(image, tmp_path / "i.ppm")
    ea.write_label_map(labels, tmp_path / "l.pgm")
    prefix = str(tmp_path / "r_")
    code, _, _ = run(
        capsys,
        "augment",
        "--op",
        "rot90",
        "--image",
        str(tmp_path / "i.ppm"),
        "--labels",
        str(tmp_path / "l.pgm"),
        "--out-prefix",
        prefix,
    )
    assert code == 0
    _, want_lab = ea.rotate_quarter(image, labels, 1)
    assert (ea.read_label_map(prefix + "labels.pgm") == want_lab).all()


# --- grabcut ---


def test_grabcut_refines_and_writes_trace(capsys, tmp_path):
    image, _, init = helpers.disk_scene()
    ea.write_rgb_image(image, tmp_path / "i.ppm")
    ea.write_label_map(init, tmp_path / "l.pgm")
    out = tmp_path / "refined.pgm"
    trace_path = tmp_path / "trace.json"
    code, _, _ = run(
        capsys,
        "--seed",
        "3",
        "grabcut",
        "--image",
        str(tmp_path / "i.ppm"),
        "--labels",
        str(tmp_path / "l.pgm"),
        "--class",
        "1",
        "--out",
        str(out),
        "--energy-trace",
        str(trace_path),
    )
    assert code == 0
    want = ea.refine_class(init, image, 1, ea.GrabcutParams(rng_seed=3))
    assert (ea.read_label_map(out) == want).all()
    trace = json.loads(trace_path.read_text())
    assert len(trace) == 5
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_grabcut_subcommand_seed_flag(capsys, tmp_path):
    image, _, init = helpers.disk_scene()
    ea.write_rgb_image(image, tmp_path / "i.ppm")
    ea.write_label_map(init, tmp_path / "l.pgm")
    out = tmp_path / "refined.pgm"
    code, _, _ = run(
        capsys,
        "grabcut",
        "--image",
        str(tmp_path / "i.ppm"),
        "--labels",
        str(tmp_path / "l.pgm"),
        "--class",
        "1",
        "--seed",
        "9",
        "--iters",
        "2",
        "--out",
        str(out),
    )
    assert code == 0
    want = ea.refine_class(init, image, 1, ea.GrabcutParams(rng_seed=9, iterations=2))
    assert (ea.read_label_map(out) == want).all()


def _grabcut_argv(tmp_path):
    image, _, init = helpers.disk_scene()
    ea.write_rgb_image(image, tmp_path / "i.ppm")
    ea.write_label_map(init, tmp_path / "l.pgm")
    argv = ["grabcut", "--image", str(tmp_path / "i.ppm"), "--labels", str(tmp_path / "l.pgm")]
    return argv + ["--class", "1", "--out", str(tmp_path / "o.pgm")]


@pytest.mark.parametrize("spelling", ["same", "dotdot"])
@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_grabcut_out_and_energy_trace_naming_one_file_is_exit_2(capsys, tmp_path, spelling, existing):
    (tmp_path / "d").mkdir()
    out = tmp_path / "o.pgm"
    trace = out if spelling == "same" else tmp_path / "d" / ".." / "o.pgm"
    argv = _grabcut_argv(tmp_path) + ["--energy-trace", str(trace)]
    if existing:
        out.write_bytes(b"old bytes")
    before = _tree(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "o.pgm" in err and "Traceback" not in err
    assert _tree(tmp_path) == before


def test_grabcut_huge_trimap_radii_finish(capsys, tmp_path, monkeypatch):
    argv = _grabcut_argv(tmp_path)
    config = tmp_path / "c.json"
    config.write_text('{"grabcut": {"erode_radius": 1000000000, "dilate_radius": 1000000000}}')
    helpers.forbid_disks_beyond(monkeypatch, 64)
    code, _, err = run(capsys, "--config", str(config), *argv)
    assert code == 0, err
    assert (tmp_path / "o.pgm").exists()


@pytest.mark.parametrize(
    "extra",
    [["--gamma", "nan"], ["--gamma", "inf"], ["--seed", "-1"], ["--erode", "-1"], ["--dilate", "-1"]],
    ids=["nan", "inf", "seed", "erode", "dilate"],
)
def test_grabcut_rejects_bad_params(capsys, tmp_path, extra):
    code, _, err = run(capsys, *_grabcut_argv(tmp_path), *extra)
    assert code == 2 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o.pgm").exists()


def _forbid_refinement(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("grabcut_refine ran")

    monkeypatch.setattr(grabcut, "grabcut_refine", refuse)


@pytest.mark.parametrize("route", ["flag", "config"])
def test_grabcut_rejects_too_many_iterations_before_any_work(capsys, tmp_path, monkeypatch, route):
    _forbid_refinement(monkeypatch)
    too_many = grabcut.MAX_ITERATIONS + 1
    argv = _grabcut_argv(tmp_path)
    if route == "flag":
        argv += ["--iters", str(too_many)]
    else:
        config = tmp_path / "c.json"
        config.write_text('{"grabcut": {"iterations": %d}}' % too_many)
        argv = ["--config", str(config)] + argv
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: iterations must be in 1..{grabcut.MAX_ITERATIONS}, got {too_many}\n"
    assert not (tmp_path / "o.pgm").exists()


def _grabcut_absent_class(capsys, tmp_path, *extra):
    image, _, init = helpers.disk_scene()
    ea.write_rgb_image(image, tmp_path / "i.ppm")
    ea.write_label_map(init, tmp_path / "l.pgm")
    code, _, err = run(
        capsys,
        "grabcut",
        "--image",
        str(tmp_path / "i.ppm"),
        "--labels",
        str(tmp_path / "l.pgm"),
        "--class",
        "7",
        "--out",
        str(tmp_path / "o.pgm"),
        *extra,
    )
    assert code == 2
    assert err == "error: class 7 not present in label map\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["i.ppm", "l.pgm"]


def test_grabcut_missing_class_is_exit_2(capsys, tmp_path):
    _grabcut_absent_class(capsys, tmp_path)


def test_grabcut_missing_class_with_energy_trace_is_exit_2(capsys, tmp_path):
    _grabcut_absent_class(capsys, tmp_path, "--energy-trace", str(tmp_path / "t.json"))


# --- ensemble ---


def test_ensemble_cmd(capsys, tmp_path):
    rng = np.random.default_rng(9)
    a = rng.uniform(-2, 2, (3, 6, 6)).astype(np.float32)
    b = rng.uniform(-2, 2, (3, 4, 4)).astype(np.float32)
    ea.write_logits(a, tmp_path / "a.fplt")
    ea.write_logits(b, tmp_path / "b.fplt")
    out = tmp_path / "pred.pgm"
    code, _, _ = run(
        capsys,
        "ensemble",
        "--inputs",
        str(tmp_path / "a.fplt"),
        str(tmp_path / "b.fplt"),
        "--out",
        str(out),
    )
    assert code == 0
    assert (ea.read_label_map(out) == ea.ensemble_argmax([a, b])).all()


# --- eval ---


def test_eval_writes_sorted_pretty_report(capsys, tmp_path):
    (tmp_path / "pred").mkdir()
    (tmp_path / "gt").mkdir()
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    pred = gt.copy()
    pred[2, 2] = 0
    for i in range(2):
        ea.write_label_map(pred, tmp_path / "pred" / f"{i}.pgm")
        ea.write_label_map(gt, tmp_path / "gt" / f"{i}.pgm")
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        "eval",
        "--pred-dir",
        str(tmp_path / "pred"),
        "--gt-dir",
        str(tmp_path / "gt"),
        "--out",
        str(out),
    )
    assert code == 0
    want = ea.evaluate_frames([pred, pred], [gt, gt], [1]).to_json_dict()
    payload = out.read_text()
    assert payload == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_eval_missing_gt_leaves_no_output(capsys, tmp_path):
    (tmp_path / "pred").mkdir()
    (tmp_path / "gt").mkdir()
    gt = np.zeros((4, 4), dtype=np.uint8)
    gt[1:3, 1:3] = 1
    ea.write_label_map(gt, tmp_path / "pred" / "0.pgm")
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys,
        "eval",
        "--pred-dir",
        str(tmp_path / "pred"),
        "--gt-dir",
        str(tmp_path / "gt"),
        "--out",
        str(out),
    )
    assert code == 2 and "error:" in err
    assert not out.exists()


def test_ground_truth_of_another_size_is_named_in_frame_order(capsys, tmp_path):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=3)
    shutil.copytree(paths["gt"], tmp_path / "pred")
    gt = paths["gt"] / "001.pgm"
    ea.write_label_map(np.zeros((10, 12), dtype=np.uint8), gt)
    member = paths["degraded"] / "002__0.fplt"  # a later frame fails too, and is not the one reported
    member.write_bytes(member.read_bytes()[:-5])
    want = f"{gt}: prediction shape (32, 32) != ground truth shape (10, 12)\n"
    for jobs in ("1", "2", "3"):
        code, out, err = run(capsys, "--jobs", jobs, *_pipeline_argv(paths, tmp_path / "out"))
        assert code == 2 and out == "" and err == f"error: frame 001: {want}"
        assert not (tmp_path / "out").exists()
    argv = ["eval", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(paths["gt"])]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "report.json"))
    assert code == 2 and out == "" and err == f"error: {want}"
    assert not (tmp_path / "report.json").exists()


def _ground_truths(rng) -> list:
    """Random uint8 ground truths: some all zero, class 255 in some, and one class
    that only one frame holds."""
    values = rng.choice(np.arange(1, 255), size=rng.integers(1, 6), replace=False)
    gts = []
    for _ in range(rng.integers(1, 6)):
        shape = tuple(rng.integers(1, 12, size=2))
        if rng.random() < 0.3:
            gts.append(np.zeros(shape, dtype=np.uint8))
            continue
        pool = np.concatenate([[0], values, [255] if rng.random() < 0.5 else []])
        gts.append(rng.choice(pool, size=shape).astype(np.uint8))
    lone = int(rng.integers(1, 256))
    only = gts[rng.integers(len(gts))]
    only[tuple(rng.integers(only.shape))] = lone
    for g in gts:
        if g is not only:
            g[g == lone] = 0
    return gts


def _scored_report_json(cfg, preds, gts) -> bytes:
    """``cli._report_json`` of the frames' records, each scored as a frame of
    ``eval`` or ``pipeline`` scores it under ``cfg``."""
    records = [metrics._frame_scores(p, g, cfg["classes"], cfg["metric_tolerance"]) for p, g in zip(preds, gts)]
    return cli._report_json(cfg, records)


def test_default_classes_are_the_nonzero_ground_truth_classes():
    rng = np.random.default_rng(16)
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    for _ in range(200):
        gts = _ground_truths(rng)
        preds = [rng.integers(0, 256, g.shape, dtype=np.uint8) for g in gts]
        want = sorted(set(np.unique(np.concatenate([g.ravel() for g in gts])).tolist()) - {0})
        payload = _scored_report_json(cfg, preds, gts)
        assert sorted(map(int, json.loads(payload)["per_class"])) == want
        assert payload == _scored_report_json({**cfg, "classes": want}, preds, gts)


def test_default_classes_of_all_zero_ground_truths_are_none():
    gts = [np.zeros((3, 4), dtype=np.uint8), np.zeros((1, 1), dtype=np.uint8)]
    with pytest.raises(ea.NoClassEverPresent):
        _scored_report_json(copy.deepcopy(cli.DEFAULT_CONFIG), gts, gts)


def _eval_dirs(tmp_path):
    (tmp_path / "pred").mkdir()
    (tmp_path / "gt").mkdir()
    gt = np.zeros((8, 8), dtype=np.uint8)
    gt[2:6, 2:6] = 1
    ea.write_label_map(gt, tmp_path / "pred" / "0.pgm")
    ea.write_label_map(gt, tmp_path / "gt" / "0.pgm")
    return ["eval", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt")]


def test_eval_huge_tolerance_finishes(capsys, tmp_path, monkeypatch):
    out = tmp_path / "r.json"
    helpers.forbid_disks_beyond(monkeypatch, 16)
    code, _, err = run(capsys, *_eval_dirs(tmp_path), "--tolerance", "1000000000", "--out", str(out))
    assert code == 0, err
    assert json.loads(out.read_text())["J_and_F"] == 1.0


@pytest.mark.parametrize("command", ["eval", "edges"])
def test_failed_write_keeps_old_output(capsys, tmp_path, monkeypatch, command):
    if command == "eval":
        argv = _eval_dirs(tmp_path)
    else:
        ea.write_label_map(np.eye(4, dtype=np.uint8), tmp_path / "l.pgm")
        argv = ["edges", "--labels", str(tmp_path / "l.pgm")]
    (tmp_path / "outs").mkdir()
    out = tmp_path / "outs" / "o"
    out.write_bytes(b"old bytes")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and "rename refused" in err
    assert out.read_bytes() == b"old bytes"
    assert [p.name for p in out.parent.iterdir()] == ["o"]


def _tree(root: Path) -> dict:
    """Every path under ``root`` with its bytes, None for a directory."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


def _multi_output_case(tmp_path, command):
    """argv of a command that writes several files, the files it writes besides
    the last one, and the last one."""
    if command == "augment":
        rng = np.random.default_rng(9)
        ea.write_rgb_image(rng.integers(0, 256, (3, 4, 3)).astype(np.uint8), tmp_path / "i.ppm")
        ea.write_label_map(rng.integers(0, 4, (3, 4)).astype(np.uint8), tmp_path / "l.pgm")
        argv = ["augment", "--op", "rot90", "--image", str(tmp_path / "i.ppm"), "--labels", str(tmp_path / "l.pgm")]
        argv += ["--out-prefix", str(tmp_path / "r_")]
        return argv, [tmp_path / "r_image.ppm"], tmp_path / "r_labels.pgm"
    if command == "grabcut":
        argv = _grabcut_argv(tmp_path) + ["--energy-trace", str(tmp_path / "trace.json")]
        return argv, [tmp_path / "o.pgm"], tmp_path / "trace.json"
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    out_dir = tmp_path / "out"
    argv = ["--jobs", "1", *_pipeline_argv(paths, out_dir)]
    return argv, [out_dir / "000.pgm", out_dir / "001.pgm"], out_dir / "report.json"


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
@pytest.mark.parametrize("command", ["augment", "grabcut", "pipeline"])
def test_multi_file_command_writes_all_outputs_or_none(capsys, tmp_path, command, existing):
    argv, first, last = _multi_output_case(tmp_path, command)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    for path in first + [last]:
        assert path.is_file()
        path.unlink()
    last.mkdir()  # the last target cannot be replaced
    (last / "kept").write_bytes(b"inside")
    for path in first if existing else []:
        path.write_bytes(b"old bytes")
    before = _tree(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: cannot write {last}: it is a directory\n"
    assert _tree(tmp_path) == before
    assert not list(tmp_path.rglob(".*.tmp"))


# --- roi ---


def test_roi_crop_box_and_expand(capsys, tmp_path):
    rng = np.random.default_rng(10)
    labels = rng.integers(0, 5, (12, 12)).astype(np.uint8)
    ea.write_label_map(labels, tmp_path / "l.pgm")
    out = tmp_path / "c.pgm"
    code, _, _ = run(
        capsys,
        "roi",
        "crop",
        "--labels",
        str(tmp_path / "l.pgm"),
        "--box",
        "2,2,6,6",
        "--out",
        str(out),
    )
    assert code == 0
    assert (ea.read_label_map(out) == ea.crop(labels, ea.Box(2, 2, 6, 6))).all()
    code, _, _ = run(
        capsys,
        "roi",
        "crop",
        "--labels",
        str(tmp_path / "l.pgm"),
        "--box",
        "2,2,6,6",
        "--expand",
        "0.5",
        "--out",
        str(out),
    )
    assert code == 0
    want_box = ea.expand_box(ea.Box(2, 2, 6, 6), 0.5, 12, 12)
    assert (ea.read_label_map(out) == ea.crop(labels, want_box)).all()


def test_roi_crop_without_expand_ignores_config_ratio(capsys, tmp_path):
    labels = np.arange(144, dtype=np.uint8).reshape(12, 12)
    ea.write_label_map(labels, tmp_path / "l.pgm")
    config = tmp_path / "c.json"
    config.write_text('{"expand_ratio": 0.9}')
    out = tmp_path / "c.pgm"
    argv = ["roi", "crop", "--labels", str(tmp_path / "l.pgm"), "--box", "2,3,6,8"]
    code, _, _ = run(capsys, "--config", str(config), *argv, "--out", str(out))
    assert code == 0
    assert (ea.read_label_map(out) == labels[3:8, 2:6]).all()


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_roi_crop_rejects_non_finite_expand(capsys, tmp_path, ratio):
    ea.write_label_map(np.zeros((8, 8), dtype=np.uint8), tmp_path / "l.pgm")
    out = tmp_path / "c.pgm"
    argv = ["roi", "crop", "--labels", str(tmp_path / "l.pgm"), "--box", "2,2,4,4"]
    code, _, err = run(capsys, *argv, "--expand", ratio, "--out", str(out))
    assert code == 2
    assert err.startswith("error: expand ratio must be finite")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("box", ["1,2,3", "1,2,3,4,5", "a,b,c,d", "1,2,3,", ""])
def test_roi_crop_rejects_malformed_box(capsys, tmp_path, box):
    ea.write_label_map(np.zeros((8, 8), dtype=np.uint8), tmp_path / "l.pgm")
    before = _tree(tmp_path)
    argv = ["roi", "crop", "--labels", str(tmp_path / "l.pgm"), "--box", box]
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "c.pgm"))
    assert code == 2 and out == ""
    assert err == f"error: box must be x0,y0,x1,y1 with integers, got {box!r}\n"
    assert _tree(tmp_path) == before


def test_roi_crop_from_jsonl(capsys, tmp_path):
    labels = np.arange(16, dtype=np.uint8).reshape(4, 4)
    ea.write_label_map(labels, tmp_path / "l.pgm")
    jl = tmp_path / "boxes.jsonl"
    jl.write_text('{"frame": "f0", "box": [1, 0, 3, 2]}\n')
    out = tmp_path / "c.pgm"
    code, _, _ = run(
        capsys,
        "roi",
        "crop",
        "--labels",
        str(tmp_path / "l.pgm"),
        "--boxes-jsonl",
        str(jl),
        "--frame",
        "f0",
        "--out",
        str(out),
    )
    assert code == 0
    assert (ea.read_label_map(out) == labels[0:2, 1:3]).all()
    code, _, err = run(
        capsys,
        "roi",
        "crop",
        "--labels",
        str(tmp_path / "l.pgm"),
        "--boxes-jsonl",
        str(jl),
        "--frame",
        "nope",
        "--out",
        str(out),
    )
    assert code == 2 and "no box for frame" in err


# frame names that are not JSON strings, and the --frame that once matched each
NON_STRING_FRAMES = {
    "null": ("null", "None"),
    "number": ("7", "7"),
    "list": ('["f0"]', "['f0']"),
    "object": ('{"a": 1}', "{'a': 1}"),
}


@pytest.mark.parametrize("name, frame", NON_STRING_FRAMES.values(), ids=NON_STRING_FRAMES.keys())
def test_roi_crop_rejects_a_frame_name_that_is_not_a_string(capsys, tmp_path, name, frame):
    ea.write_label_map(np.zeros((8, 8), dtype=np.uint8), tmp_path / "l.pgm")
    jl = tmp_path / "boxes.jsonl"
    jl.write_text('{"frame": "f0", "box": [0, 0, 4, 4]}\n{"frame": %s, "box": [0, 0, 4, 4]}\n' % name)
    out = tmp_path / "c.pgm"
    argv = ["roi", "crop", "--labels", str(tmp_path / "l.pgm"), "--boxes-jsonl", str(jl), "--frame", frame]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == f'error: {jl}:2: expected {{"frame": name, "box": [x0,y0,x1,y1]}}\n'
    assert not out.exists()


# JSON box coordinates that are not plain integers
BAD_BOXES = {
    "string": '["x", 0, 4, 4]',
    "fraction": "[0.9, 0, 4.7, 4]",
    "bool": "[true, 0, 4, 4]",
    "integral-float": "[0, 0, 4.0, 4]",
}


@pytest.mark.parametrize("box", BAD_BOXES.values(), ids=BAD_BOXES.keys())
def test_roi_crop_rejects_non_integer_jsonl_box(capsys, tmp_path, box):
    ea.write_label_map(np.zeros((8, 8), dtype=np.uint8), tmp_path / "l.pgm")
    jl = tmp_path / "boxes.jsonl"
    jl.write_text('{"frame": "f0", "box": %s}\n' % box)
    code, _, err = run(
        capsys,
        "roi",
        "crop",
        "--labels",
        str(tmp_path / "l.pgm"),
        "--boxes-jsonl",
        str(jl),
        "--frame",
        "f0",
        "--out",
        str(tmp_path / "c.pgm"),
    )
    assert code == 2
    assert err.startswith(f"error: {jl}:1: box coordinates must be integers")
    assert "Traceback" not in err
    assert not (tmp_path / "c.pgm").exists()


def test_roi_paste(capsys, tmp_path):
    canvas = np.zeros((4, 4), dtype=np.uint8)
    patch = np.full((2, 2), 3, dtype=np.uint8)
    ea.write_label_map(canvas, tmp_path / "c.pgm")
    ea.write_label_map(patch, tmp_path / "p.pgm")
    out = tmp_path / "o.pgm"
    code, _, _ = run(
        capsys,
        "roi",
        "paste",
        "--canvas",
        str(tmp_path / "c.pgm"),
        "--patch",
        str(tmp_path / "p.pgm"),
        "--box",
        "1,1,3,3",
        "--out",
        str(out),
    )
    assert code == 0
    assert (ea.read_label_map(out) == ea.paste(canvas, patch, ea.Box(1, 1, 3, 3))).all()


@pytest.mark.parametrize("given", ["jsonl", "frame", "both"])
@pytest.mark.parametrize("op", ["crop", "paste"])
def test_roi_box_excludes_boxes_jsonl_and_frame(capsys, tmp_path, op, given):
    ea.write_label_map(np.zeros((8, 8), dtype=np.uint8), tmp_path / "l.pgm")
    ea.write_label_map(np.ones((2, 2), dtype=np.uint8), tmp_path / "p.pgm")
    jl = tmp_path / "boxes.jsonl"
    jl.write_text('{"frame": "f0", "box": [1, 1, 3, 3]}\n')
    if op == "crop":
        argv = ["roi", "crop", "--labels", str(tmp_path / "l.pgm")]
    else:
        argv = ["roi", "paste", "--canvas", str(tmp_path / "l.pgm"), "--patch", str(tmp_path / "p.pgm")]
    argv += ["--box", "1,1,3,3", "--out", str(tmp_path / "o.pgm")]
    if given in ("jsonl", "both"):
        argv += ["--boxes-jsonl", str(jl)]
    if given in ("frame", "both"):
        argv += ["--frame", "f0"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err == "error: give either --box or both --boxes-jsonl and --frame\n"
    assert not (tmp_path / "o.pgm").exists()


# --- error paths ---


def test_missing_input_file_is_exit_2(capsys, tmp_path):
    code, _, err = run(
        capsys, "edges", "--labels", str(tmp_path / "absent.pgm"), "--out", str(tmp_path / "o.pgm")
    )
    assert code == 2 and "error:" in err


def test_corrupt_input_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\nxx")  # payload shorter than 16 bytes
    code, _, err = run(capsys, "edges", "--labels", str(bad), "--out", str(tmp_path / "o.pgm"))
    assert code == 2 and "error:" in err


def _non_utf8_case(tmp_path, route) -> tuple[list, Path]:
    """argv whose run reads a file holding the byte 0xff by ``route``, and that file."""
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    config = tmp_path / "c.json"
    config.write_bytes(b'{"rng_seed": \xff}')
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_bytes(paths["boxes"].read_bytes() + b'{"frame": "\xff", "box": [4, 4, 28, 28]}\n')
    image, labels = str(paths["images"] / "000.ppm"), str(paths["gt"] / "000.pgm")
    out = str(tmp_path / "out")
    if route == "print-config":
        return ["--config", str(config), "--print-config"], config
    if route == "config":
        return ["--config", str(config), "edges", "--labels", labels, "--out", out], config
    if route == "augment-config":
        argv = ["augment", "--op", "hflip", "--image", image, "--labels", labels]
        return argv + ["--config", str(config), "--out-prefix", out], config
    if route == "pipeline-boxes":
        return _pipeline_argv({**paths, "boxes": boxes}, out), boxes
    argv = ["roi", "crop", "--labels", labels, "--boxes-jsonl", str(boxes), "--frame", "000"]
    return argv + ["--out", out], boxes


@pytest.mark.parametrize(
    "route", ["print-config", "config", "augment-config", "pipeline-boxes", "roi-boxes-jsonl"]
)
def test_non_utf8_text_input_is_exit_2(capsys, tmp_path, route):
    argv, bad = _non_utf8_case(tmp_path, route)
    before = _tree(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: not UTF-8 text")
    assert "Traceback" not in err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize(
    "route", ["print-config", "config", "augment-config", "pipeline-boxes", "roi-boxes-jsonl"]
)
def test_unreadable_text_input_is_cannot_read(capsys, tmp_path, route, kind):
    argv, bad = _non_utf8_case(tmp_path, route)
    bad.unlink()
    if kind == "directory":
        bad.mkdir()
    before = _tree(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {bad}: ") and "Traceback" not in err, err
    assert _tree(tmp_path) == before


def _text_mode_error(path) -> str:
    """What ``json.load`` on ``path`` opened in text mode as UTF-8 raises, as text."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return str(exc)
    raise AssertionError(f"{path} is valid JSON")


@pytest.mark.parametrize(
    "data, what",
    [
        (b'{\r\n  "rng_seed": 1,\r\n  "edge_radius": ,\r\n}\r\n', "not valid JSON"),
        (b'{\r  "rng_seed": 1,\r  "edge_radius": ,\r}\r', "not valid JSON"),
        (b'{"rng_seed": 1,\n "edge_radius": 2\n}\n}', "not valid JSON"),
        (b'{"rng_seed": 1, "name": "\xc3"}', "not UTF-8 text"),
    ],
    ids=["crlf", "cr", "lf-extra", "utf8-cut"],
)
def test_config_errors_read_as_text_mode_reads_them(capsys, tmp_path, data, what):
    config = tmp_path / "c.json"
    config.write_bytes(data)
    code, out, err = run(capsys, "--config", str(config), "--print-config")
    assert code == 2 and out == ""
    assert err == f"error: {config}: {what}: {_text_mode_error(config)}\n"


def test_boxes_jsonl_splits_lines_as_text_mode_does(tmp_path):
    # "\u2028" and "\x85" end a line for str.splitlines, but not in text mode
    lines = [
        '{"frame": "a\u2028b", "box": [0, 0, 2, 2]}',
        '{"frame": "c\x85", "box": [1, 1, 3, 3]}',
        "  ",
        '{"frame": "a\u2028b", "box": [2, 2, 4, 4]}',
        "",
    ]
    path = tmp_path / "boxes.jsonl"
    path.write_bytes("\r".join(lines[:2]).encode() + b"\r\n" + "\n".join(lines[2:]).encode())
    assert cli._read_boxes_jsonl(path) == {
        "a\u2028b": [ea.Box(0, 0, 2, 2), ea.Box(2, 2, 4, 4)],
        "c\x85": [ea.Box(1, 1, 3, 3)],
    }
    path.write_bytes(b'{"frame": "a", "box": [0, 0, 2, 2]}\r\n\r{"frame": }\n')
    with pytest.raises(ea.ToolkitError, match=r":3: not valid JSON: Expecting value"):
        cli._read_boxes_jsonl(path)


@pytest.mark.parametrize("flag", ["--mask", "--edge-logits"])
def test_loss_empty_optional_path_is_exit_2(capsys, tmp_path, flag):
    _loss_fixture(tmp_path)
    before = _tree(tmp_path)
    code, out, err = run(
        capsys, "loss", "--logits", str(tmp_path / "x.fplt"), "--labels", str(tmp_path / "y.pgm"), flag, ""
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read : ") and "Traceback" not in err, err
    assert _tree(tmp_path) == before


# --- pipeline ---


def test_pipeline_outputs_identical_across_jobs(capsys, tmp_path):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    outs = []
    for jobs, name in ((1, "out1"), (8, "out8")):
        out_dir = tmp_path / name
        code, _, _ = run(
            capsys,
            "--jobs",
            str(jobs),
            "pipeline",
            "--images",
            str(paths["images"]),
            "--boxes",
            str(paths["boxes"]),
            "--logits-dir",
            str(paths["clean"]),
            "--logits-dir",
            str(paths["degraded"]),
            "--gt-dir",
            str(paths["gt"]),
            "--out-dir",
            str(out_dir),
            "--refine-classes",
            "1",
        )
        assert code == 0
        outs.append(out_dir)
    files1 = sorted(p.name for p in outs[0].iterdir())
    files8 = sorted(p.name for p in outs[1].iterdir())
    assert files1 == files8 == ["000.pgm", "001.pgm", "report.json"]
    for name in files1:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = helpers.read_report(outs[0])
    assert report["J_and_F"] > 0.9


def test_pipeline_rerun_leaves_exactly_its_outputs(capsys, tmp_path):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    out_dir = tmp_path / "out"
    argv = ["pipeline", "--images", str(paths["images"]), "--boxes", str(paths["boxes"])]
    argv += ["--logits-dir", str(paths["degraded"]), "--gt-dir", str(paths["gt"])]
    argv += ["--out-dir", str(out_dir)]
    digests = []
    for _ in range(2):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert sorted(p.name for p in out_dir.iterdir()) == ["000.pgm", "001.pgm", "report.json"]
        digests.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert digests[0] == digests[1]


@pytest.mark.parametrize(
    "extra",
    [["--seed", "-1"], ["--expand", "nan"], ["--expand", "1e308"]],
    ids=["negative-seed", "nan-expand", "huge-expand"],
)
def test_pipeline_rejects_bad_settings(capsys, tmp_path, extra):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=1)
    argv = ["pipeline", "--images", str(paths["images"]), "--boxes", str(paths["boxes"])]
    argv += ["--logits-dir", str(paths["clean"]), "--gt-dir", str(paths["gt"])]
    argv += ["--out-dir", str(tmp_path / "out")]
    if extra[0] == "--seed":
        argv = extra + argv
    else:
        argv += extra
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_pipeline_rejects_too_many_iterations_before_any_work(capsys, tmp_path, monkeypatch):
    _forbid_refinement(monkeypatch)
    paths = helpers.write_clip(tmp_path / "clip", n_frames=1)
    config = tmp_path / "c.json"
    config.write_text('{"grabcut": {"iterations": 1000000000}}')
    code, _, err = run(capsys, "--config", str(config), *_pipeline_argv(paths, tmp_path / "out"))
    assert code == 2
    assert err == f"error: iterations must be in 1..{grabcut.MAX_ITERATIONS}, got 1000000000\n"
    assert not (tmp_path / "out").exists()


def _pipeline_argv(paths, out_dir) -> list:
    argv = ["pipeline", "--images", str(paths["images"]), "--boxes", str(paths["boxes"])]
    argv += ["--logits-dir", str(paths["clean"]), "--logits-dir", str(paths["degraded"])]
    return argv + ["--gt-dir", str(paths["gt"]), "--out-dir", str(out_dir), "--refine-classes", "1"]


def _rename_members(paths, name) -> None:
    """Give every member file ``<stem>__0.fplt`` of the clip the name ``name(stem)``."""
    for member in ("clean", "degraded"):
        for f in sorted(paths[member].glob("*__0.fplt")):
            f.rename(f.with_name(name(f.name[: -len("__0.fplt")])))


def test_pipeline_reads_stem_fplt_for_a_single_box_frame(capsys, tmp_path):
    outputs = []
    for name in ("indexed", "bare"):
        paths = helpers.write_clip(tmp_path / name, n_frames=2)
        if name == "bare":
            _rename_members(paths, lambda stem: f"{stem}.fplt")
            assert sorted(f.name for f in paths["clean"].iterdir()) == ["000.fplt", "001.fplt"]
        code, _, err = run(capsys, *_pipeline_argv(paths, tmp_path / name / "out"))
        assert code == 0, err
        outputs.append({f.name: f.read_bytes() for f in (tmp_path / name / "out").iterdir()})
    assert sorted(outputs[0]) == ["000.pgm", "001.pgm", "report.json"]
    assert outputs[0] == outputs[1]


def test_pipeline_prefers_the_indexed_member_name(capsys, tmp_path):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    code, _, err = run(capsys, *_pipeline_argv(paths, tmp_path / "want"))
    assert code == 0, err
    for member in ("clean", "degraded"):
        for stem in ("000", "001"):
            (paths[member] / f"{stem}.fplt").write_bytes(b"not an FPLT file")  # exit 2 if read
    code, _, err = run(capsys, *_pipeline_argv(paths, tmp_path / "got"))
    assert code == 0, err
    for f in (tmp_path / "want").iterdir():
        assert (tmp_path / "got" / f.name).read_bytes() == f.read_bytes()


def test_pipeline_needs_indexed_members_for_a_two_box_frame(capsys, tmp_path):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=1)
    _rename_members(paths, lambda stem: f"{stem}.fplt")
    line = json.dumps({"frame": "000", "box": [4, 4, 28, 28]}) + "\n"
    paths["boxes"].write_text(line * 2, encoding="utf-8")
    code, out, err = run(capsys, *_pipeline_argv(paths, tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.startswith("error: frame 000: ") and "000__0.fplt" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_pipeline_frame_error_is_the_same_for_any_jobs(capsys, tmp_path):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=3)
    member = paths["degraded"] / "001__0.fplt"
    member.write_bytes(member.read_bytes()[:-5])
    errors = []
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"out{jobs}"
        code, _, err = run(capsys, "--jobs", jobs, *_pipeline_argv(paths, out_dir))
        assert code == 2
        assert err.startswith("error: frame 001: ") and "Traceback" not in err
        assert not out_dir.exists()
        errors.append(err.replace(str(out_dir), "OUT"))
    assert errors[0] == errors[1]


def test_pipeline_nan_in_a_low_resolution_member_is_exit_2_for_any_jobs(capsys, tmp_path):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=3)
    lowres = tmp_path / "clip" / "lowres"
    lowres.mkdir()
    for member in sorted(paths["clean"].iterdir()):
        # half resolution: the ensemble resizes this member back up
        ea.write_logits(ea.read_logits(member)[:, ::2, ::2], lowres / member.name)
    code, _, _ = run(capsys, *_pipeline_argv(paths, tmp_path / "ok"), "--logits-dir", str(lowres))
    assert code == 0
    bad = lowres / "001__0.fplt"
    logits = ea.read_logits(bad)
    logits[1, 3, 2] = np.nan  # write_logits refuses NaN, so the file is built by hand
    bad.write_bytes(b"FPLT" + np.array([1, *logits.shape], dtype="<u4").tobytes() + logits.astype("<f4").tobytes())
    errors = []
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"out{jobs}"
        argv = _pipeline_argv(paths, out_dir) + ["--logits-dir", str(lowres)]
        code, _, err = run(capsys, "--jobs", jobs, *argv)
        assert code == 2
        assert err.startswith("error: frame 001: ") and "Traceback" not in err
        assert not out_dir.exists()
        errors.append(err.replace(str(out_dir), "OUT"))
    assert errors[0] == errors[1]


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_pipeline_pool_has_at_most_one_worker_per_frame(capsys, tmp_path, monkeypatch):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=3)
    code, _, err = run(capsys, "--jobs", "1", *_pipeline_argv(paths, tmp_path / "serial"))
    assert code == 0, err
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)  # counted in this process only; a child's copy of the list is its own
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    code, _, err = run(capsys, "--jobs", "64", *_pipeline_argv(paths, tmp_path / "pooled"))
    assert code == 0, err
    assert len(forks) == 2  # this process runs one share of the frames itself
    for name in ("000.pgm", "001.pgm", "002.pgm", "report.json"):
        assert (tmp_path / "pooled" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


def test_pipeline_runs_frames_in_turn_without_fork(capsys, tmp_path, monkeypatch):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    code, _, err = run(capsys, "--jobs", "1", *_pipeline_argv(paths, tmp_path / "serial"))
    assert code == 0, err
    monkeypatch.delattr(os, "fork")
    code, _, err = run(capsys, "--jobs", "2", *_pipeline_argv(paths, tmp_path / "plain"))
    assert code == 0, err
    for name in ("000.pgm", "001.pgm", "report.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


@pytest.mark.parametrize(
    "broken, reported", [(("001", "002"), "001"), (("000", "003"), "000"), (("002", "003"), "002")]
)
def test_pipeline_reports_the_earliest_failing_frame_of_any_worker(capsys, tmp_path, broken, reported):
    # at --jobs 2 this process runs frames 000 and 002 and one child runs 001 and 003;
    # at --jobs 3 this process runs 000 and 003, the first child 001, the second 002
    paths = helpers.write_clip(tmp_path / "clip", n_frames=4)
    for stem in broken:
        member = paths["degraded"] / f"{stem}__0.fplt"
        member.write_bytes(member.read_bytes()[:-5])
    errors = []
    for jobs in ("1", "2", "3"):
        out_dir = tmp_path / f"out{jobs}"
        code, out, err = run(capsys, "--jobs", jobs, *_pipeline_argv(paths, out_dir))
        assert code == 2 and out == ""
        assert err.startswith(f"error: frame {reported}: ") and "Traceback" not in err
        assert not out_dir.exists()
        assert _no_child_left()
        errors.append(err.replace(str(out_dir), "OUT"))
    assert errors[0] == errors[1] == errors[2]


def test_pipeline_worker_that_dies_without_a_result_is_an_internal_error(capsys, tmp_path, monkeypatch):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=3)
    parent = os.getpid()
    frame = cli._pipeline_frame

    def dying(task):
        if os.getpid() != parent:
            os._exit(3)
        return frame(task)

    monkeypatch.setattr(cli, "_pipeline_frame", dying)
    code, out, err = run(capsys, "--jobs", "2", *_pipeline_argv(paths, tmp_path / "out"))
    assert code == 1 and out == ""
    assert "frame worker" in err and "status 3" in err
    assert not (tmp_path / "out").exists()
    assert _no_child_left()


def test_eval_worker_that_dies_without_a_result_is_an_internal_error(capsys, tmp_path, monkeypatch):
    argv = _eval_dirs(tmp_path)
    for name in ("1.pgm", "2.pgm"):
        for side in ("pred", "gt"):
            shutil.copy(tmp_path / side / "0.pgm", tmp_path / side / name)
    parent = os.getpid()
    frame = cli._eval_frame

    def dying(task):
        if os.getpid() != parent:
            os._exit(3)
        return frame(task)

    monkeypatch.setattr(cli, "_eval_frame", dying)
    code, out, err = run(capsys, "--jobs", "2", *argv, "--out", str(tmp_path / "r.json"))
    assert code == 1 and out == ""
    assert "frame worker" in err and "status 3" in err
    assert not (tmp_path / "r.json").exists()
    assert _no_child_left()


def test_pipeline_worker_that_dies_stops_the_other_workers(tmp_path):
    # a fresh interpreter, whose stderr holds what the children print; the second
    # child's record of its one 256 x 256 frame (a 65,536-byte PGM payload plus
    # its header and scores) is more than a 64 KiB pipe buffer, so a child left
    # running would block on its write until its pipe is closed
    argv = _write_wide_clip(tmp_path / "clip", n_frames=3, size=256)
    argv[argv.index("--jobs") + 1] = "3"
    script = (
        "import json, os, sys; from eaparse import cli; parent = os.getpid(); frame = cli._pipeline_frame\n"
        "def dying(task):\n"
        "    if os.getpid() != parent and task[2] == 1: os._exit(3)\n"
        "    return frame(task)\n"
        "cli._pipeline_frame = dying; code = cli.main(json.loads(sys.argv[1]))\n"
        "try: os.waitpid(-1, os.WNOHANG); left = True\n"
        "except ChildProcessError: left = False\n"
        "print(json.dumps([code, left]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == [1, False], proc.stderr
    assert "frame worker" in proc.stderr and "status 3" in proc.stderr
    assert "BrokenPipeError" not in proc.stderr, proc.stderr
    assert not (tmp_path / "clip" / "out").exists()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open descriptors under /proc/self/fd")
def test_pipeline_failed_fork_closes_its_pipe(capsys, tmp_path, monkeypatch):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=3)
    forks = []
    fork = os.fork

    def failing_second():
        forks.append(1)  # counted in this process only
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", failing_second)
    open_fds = len(os.listdir("/proc/self/fd"))
    code, out, err = run(capsys, "--jobs", "3", *_pipeline_argv(paths, tmp_path / "out"))
    assert code == 1 and out == ""  # a failure of the machine, not malformed input
    assert err.startswith("error: ") and "Resource temporarily unavailable" in err and "Traceback" not in err
    assert len(forks) == 2
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert _no_child_left()
    assert not (tmp_path / "out").exists()


def _break_member(paths, stem: str) -> None:
    member = paths["degraded"] / f"{stem}__0.fplt"
    member.write_bytes(member.read_bytes()[:-5])


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_pipeline_failing_first_frame_stops_every_child(capsys, tmp_path, monkeypatch, jobs):
    # this process runs frame 000 first and fails it; every child, whose frames
    # would take 20 s each, is killed without being waited for
    paths = helpers.write_clip(tmp_path / "clip", n_frames=4)
    _break_member(paths, "000")
    parent = os.getpid()
    frame = cli._pipeline_frame

    def slow_in_a_child(task):
        if os.getpid() != parent:
            time.sleep(20)
        return frame(task)

    monkeypatch.setattr(cli, "_pipeline_frame", slow_in_a_child)
    start = time.monotonic()
    code, out, err = run(capsys, "--jobs", jobs, *_pipeline_argv(paths, tmp_path / "out"))
    assert time.monotonic() - start < 10
    assert code == 2 and out == ""
    assert err.startswith("error: frame 000: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert _no_child_left()


def test_pipeline_failure_in_a_child_stops_the_later_children(capsys, tmp_path, monkeypatch):
    # at --jobs 3 the first child fails frame 001 at once; the second child, whose
    # frame 002 would take 20 s, is killed once frame 001's share is read
    paths = helpers.write_clip(tmp_path / "clip", n_frames=3)
    _break_member(paths, "001")
    parent = os.getpid()
    frame, fork, kill = cli._pipeline_frame, os.fork, os.kill
    forks, kills = [], []

    def slow_in_the_second_child(task):
        if os.getpid() != parent and task[2] == 2:
            time.sleep(20)
        return frame(task)

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def recording_kill(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(cli, "_pipeline_frame", slow_in_the_second_child)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "kill", recording_kill)
    start = time.monotonic()
    code, out, err = run(capsys, "--jobs", "3", *_pipeline_argv(paths, tmp_path / "out"))
    assert time.monotonic() - start < 10
    assert code == 2 and out == ""
    assert err.startswith("error: frame 001: ") and "Traceback" not in err
    assert len(forks) == 2 and kills == [(forks[1], signal.SIGKILL)]
    assert not (tmp_path / "out").exists()
    assert _no_child_left()


def test_pipeline_failure_in_a_child_is_met_before_the_next_frame_of_this_process(capsys, tmp_path, monkeypatch):
    # at --jobs 2 the child fails frame 001 at once, and this process's frame 002
    # would take 20 s: the walk reads frame 001's record before it runs frame 002
    paths = helpers.write_clip(tmp_path / "clip", n_frames=4)
    _break_member(paths, "001")
    parent = os.getpid()
    frame = cli._pipeline_frame

    def slow_here(task):
        if os.getpid() == parent and task[2] == 2:
            time.sleep(20)
        return frame(task)

    monkeypatch.setattr(cli, "_pipeline_frame", slow_here)
    start = time.monotonic()
    code, out, err = run(capsys, "--jobs", "2", *_pipeline_argv(paths, tmp_path / "out"))
    assert time.monotonic() - start < 10
    assert code == 2 and out == ""
    assert err.startswith("error: frame 001: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert _no_child_left()


def test_pipeline_worker_that_dies_after_sending_a_record_is_an_internal_error(capsys, tmp_path, monkeypatch):
    # at --jobs 2 the child sends frame 001's record, then dies in frame 003
    paths = helpers.write_clip(tmp_path / "clip", n_frames=4)
    parent = os.getpid()
    frame = cli._pipeline_frame

    def dying_late(task):
        if os.getpid() != parent and task[2] == 3:
            os._exit(3)
        return frame(task)

    monkeypatch.setattr(cli, "_pipeline_frame", dying_late)
    code, out, err = run(capsys, "--jobs", "2", *_pipeline_argv(paths, tmp_path / "out"))
    assert code == 1 and out == ""
    assert "frame worker" in err and "status 3" in err
    assert not (tmp_path / "out").exists()
    assert _no_child_left()


def test_pipeline_names_a_member_in_a_directory_it_cannot_search(capsys, tmp_path, monkeypatch):
    # as for a member directory without search permission, which a root user does
    # not see: every stat and open of a path inside it is refused
    paths = helpers.write_clip(tmp_path / "clip", n_frames=1)
    denied = f"{paths['degraded']}{os.sep}"

    def refused(call):
        def refusing(path, *rest, **kwargs):
            if str(path).startswith(denied):
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return call(path, *rest, **kwargs)

        return refusing

    monkeypatch.setattr(os, "stat", refused(os.stat))
    monkeypatch.setattr(ea.tensorio, "open", refused(open), raising=False)
    code, out, err = run(capsys, "--jobs", "1", *_pipeline_argv(paths, tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.startswith(f"error: frame 000: cannot read {paths['degraded'] / '000__0.fplt'}: "), err
    assert not (tmp_path / "out").exists()


def test_pipeline_rejects_a_negative_tolerance_before_any_frame(capsys, tmp_path, monkeypatch):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=6)
    frame, calls = cli._pipeline_frame, []

    def counting(task):
        calls.append(task[2])
        return frame(task)

    monkeypatch.setattr(cli, "_pipeline_frame", counting)
    argv = ["--jobs", "1", *_pipeline_argv(paths, tmp_path / "out"), "--tolerance", "-1"]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: tolerance must be an integer >= 0, got -1\n")
    assert calls == []
    assert not (tmp_path / "out").exists()


def _counting_forks(monkeypatch) -> list:
    """Make ``os.fork`` append to the returned list in this process at each call."""
    forks, fork = [], os.fork

    def counting():
        forks.append(1)  # a child's copy of the list is its own
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="eval runs its frames in forked workers")
def test_eval_runs_through_the_frame_walk_with_the_same_report_for_any_jobs(capsys, tmp_path, monkeypatch):
    # eval scores a pipeline's PGMs as the pipeline scored its label maps
    paths = helpers.write_clip(tmp_path / "clip", n_frames=5)
    code, _, err = run(capsys, "--jobs", "1", *_pipeline_argv(paths, tmp_path / "out"))
    assert code == 0, err
    want = (tmp_path / "out" / "report.json").read_bytes()
    forks = _counting_forks(monkeypatch)
    for jobs in (1, 2, 3):
        report = tmp_path / f"report{jobs}.json"
        argv = ["--jobs", str(jobs), "eval", "--pred-dir", str(tmp_path / "out"), "--gt-dir", str(paths["gt"])]
        code, _, err = run(capsys, *argv, "--out", str(report))
        assert code == 0, err
        assert report.read_bytes() == want
        assert len(forks) == jobs - 1
        forks.clear()
        assert _no_child_left()


def test_eval_names_the_earliest_frame_error_for_any_jobs(capsys, tmp_path):
    # frame 0's ground truth and frame 1's prediction are both cut short;
    # every --jobs reads frame 0's pair before it meets frame 1's
    labels = np.zeros((8, 8), dtype=np.uint8)
    labels[2:6, 2:6] = 1
    for name in ("p", "g"):
        (tmp_path / name).mkdir()
        for i in range(4):
            ea.write_label_map(labels, tmp_path / name / f"f{i:03d}.pgm")
    for bad in (tmp_path / "g" / "f000.pgm", tmp_path / "p" / "f001.pgm"):
        bad.write_bytes(bad.read_bytes()[:-5])
    argv = ["eval", "--pred-dir", str(tmp_path / "p"), "--gt-dir", str(tmp_path / "g")]
    for jobs in ("1", "2", "3"):
        code, out, err = run(capsys, "--jobs", jobs, *argv, "--out", str(tmp_path / "r.json"))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {tmp_path / 'g' / 'f000.pgm'}: "), err
        assert not (tmp_path / "r.json").exists()
        assert _no_child_left()


def _peak_traced_bytes(argv) -> int:
    """The tracemalloc peak of one in-process ``main(argv)``; numpy reports its
    array buffers to tracemalloc, so they count."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pipeline_keeps_about_one_pgm_per_frame_until_it_writes(tmp_path):
    # from N to 4N frames the peak grows by what the walk keeps of each frame:
    # its h x w PGM and a few scores, not its label map and ground truth as well
    n, size = 4, 128
    argvs = {count: _write_wide_clip(tmp_path / f"clip{count}", count, size) for count in (n, 4 * n)}
    _peak_traced_bytes(argvs[n])  # imports and first-call caches
    growth = _peak_traced_bytes(argvs[4 * n]) - _peak_traced_bytes(argvs[n])
    assert growth <= 1.25 * 3 * n * size * size, f"{growth / (3 * n * size * size):.2f} x h x w per frame"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_pipeline_rejects_jobs_below_one(capsys, tmp_path, jobs):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=1)
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "--jobs",
                jobs,
                "pipeline",
                "--images",
                str(paths["images"]),
                "--boxes",
                str(paths["boxes"]),
                "--logits-dir",
                str(paths["clean"]),
                "--gt-dir",
                str(paths["gt"]),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --jobs: must be >= 1" in err
    assert not (tmp_path / "out").exists()


def test_pipeline_runtime_does_not_import_scipy_or_numba(tmp_path):
    # a fresh interpreter, so no other test's imports leak into sys.modules;
    # at --jobs 1 the worker pool's modules stay unloaded too
    paths = helpers.write_clip(tmp_path / "clip", n_frames=1)
    argv = ["--jobs", "1", "pipeline", "--images", str(paths["images"])]
    argv += ["--boxes", str(paths["boxes"]), "--logits-dir", str(paths["degraded"])]
    argv += ["--gt-dir", str(paths["gt"]), "--out-dir", str(tmp_path / "out")]
    argv += ["--refine-classes", "1"]
    script = (
        "import json, sys; from eaparse.cli import main; code = main(json.loads(sys.argv[1])); "
        "print(json.dumps([code, sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'numba', 'concurrent', 'multiprocessing'))]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, []]
    assert (tmp_path / "out" / "000.pgm").exists()


def test_pipeline_workers_load_no_process_pool_modules(tmp_path):
    # the workers are forked children of the main process, with no pool around them
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    argv = ["--jobs", "2", *_pipeline_argv(paths, tmp_path / "out"), "--refine-classes", "1"]
    script = (
        "import json, sys; from eaparse.cli import main; code = main(json.loads(sys.argv[1])); "
        "print(json.dumps([code, sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing'))]))"
    )
    assert _python_json(script, json.dumps(argv), cwd=tmp_path) == [0, []]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["000.pgm", "001.pgm", "report.json"]


def test_pipeline_missing_box_is_exit_2(capsys, tmp_path):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    paths["boxes"].write_text('{"frame": "000", "box": [4, 4, 28, 28]}\n')
    code, _, err = run(
        capsys,
        "pipeline",
        "--images",
        str(paths["images"]),
        "--boxes",
        str(paths["boxes"]),
        "--logits-dir",
        str(paths["clean"]),
        "--gt-dir",
        str(paths["gt"]),
        "--out-dir",
        str(tmp_path / "out"),
    )
    assert code == 2 and "no box for frame" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("box", BAD_BOXES.values(), ids=BAD_BOXES.keys())
def test_pipeline_rejects_non_integer_box(capsys, tmp_path, box):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    paths["boxes"].write_text(
        '{"frame": "000", "box": [4, 4, 28, 28]}\n{"frame": "001", "box": %s}\n' % box
    )
    code, _, err = run(
        capsys,
        "pipeline",
        "--images",
        str(paths["images"]),
        "--boxes",
        str(paths["boxes"]),
        "--logits-dir",
        str(paths["clean"]),
        "--gt-dir",
        str(paths["gt"]),
        "--out-dir",
        str(tmp_path / "out"),
    )
    assert code == 2
    assert err.startswith(f"error: {paths['boxes']}:2: box coordinates must be integers")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# --- allocator policy ---


def _on_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def _python_json(script: str, *args: str, cwd, env_extra=None) -> object:
    """Run ``script`` in a fresh interpreter on this checkout, with ``env_extra`` over
    this environment; its last stdout line, as JSON."""
    env = {**os.environ, **(env_extra or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, cwd=cwd, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _write_wide_clip(root: Path, n_frames: int = 6, size: int = 128) -> list:
    """pipeline argv over random frames whose padded box is the whole 128 x 128 frame:
    one member at that size and one at half of it, so each box fuses 3 x 128 x 128
    float64 stacks (384 KiB, above glibc's default 128 KiB mmap threshold)."""
    rng = np.random.default_rng(0)
    for sub in ("images", "gt", "full", "half"):
        (root / sub).mkdir(parents=True)
    box = ea.Box(8, 8, size - 8, size - 8)
    roi = ea.expand_box(box, cli.DEFAULT_EXPAND_RATIO, size, size)
    lines = []
    for i in range(n_frames):
        stem = f"{i:03d}"
        image = rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
        ea.write_rgb_image(image, root / "images" / f"{stem}.ppm")
        ea.write_label_map(rng.integers(0, 3, (size, size), dtype=np.uint8), root / "gt" / f"{stem}.pgm")
        for sub, scale in (("full", 1), ("half", 2)):
            logits = rng.standard_normal((3, roi.height // scale, roi.width // scale))
            ea.write_logits(logits.astype(np.float32), root / sub / f"{stem}__0.fplt")
        lines.append(json.dumps({"frame": stem, "box": [box.x0, box.y0, box.x1, box.y1]}))
    (root / "boxes.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["--jobs", "1", "pipeline", "--images", str(root / "images")]
    argv += ["--boxes", str(root / "boxes.jsonl"), "--gt-dir", str(root / "gt")]
    argv += ["--logits-dir", str(root / "full"), "--logits-dir", str(root / "half")]
    return argv + ["--out-dir", str(root / "out")]


@pytest.mark.skipif(not _on_glibc(), reason="the allocator policy applies on glibc only")
def test_pipeline_rerun_reuses_freed_heap_pages(tmp_path):
    # a fresh interpreter, so that no earlier test has set the allocator policy;
    # the second run's boxes find the first run's freed pages still mapped.
    # Measured second-run minor faults: ~3,200 under glibc's defaults, ~60 with the policy
    argv = _write_wide_clip(tmp_path / "clip")
    script = (
        "import json, resource, sys; from eaparse.cli import main; argv = json.loads(sys.argv[1]); "
        "codes = [main(argv)]; before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
        "codes.append(main(argv)); "
        "print(json.dumps([codes, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before]))"
    )
    codes, faults = _python_json(script, json.dumps(argv), cwd=tmp_path)
    assert codes == [0, 0]
    assert faults < 1000


def _fake_libc(calls: list):
    """A stand-in for ``ctypes.CDLL`` whose ``mallopt`` records its arguments."""

    def load(*args, **kwargs):
        return argparse.Namespace(mallopt=lambda param, value: calls.append((param, value)))

    return load


def _no_confstr(monkeypatch):
    monkeypatch.delattr(os, "confstr")


def _unknown_confstr_name(monkeypatch):
    def confstr(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(os, "confstr", confstr)


def _other_libc(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: None)


def _no_mallopt(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda *args, **kwargs: argparse.Namespace())


def _no_libc(monkeypatch):
    def load(*args, **kwargs):
        raise OSError("cannot load the C library")

    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(cli.ctypes, "CDLL", load)


@pytest.mark.parametrize(
    "break_policy", [_no_confstr, _unknown_confstr_name, _other_libc, _no_mallopt, _no_libc]
)
def test_pipeline_without_the_allocator_policy_writes_the_same_bytes(
    capsys, tmp_path, monkeypatch, break_policy
):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    assert run(capsys, *_pipeline_argv(paths, tmp_path / "with"))[0] == 0
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", _fake_libc(calls))
    break_policy(monkeypatch)
    assert run(capsys, *_pipeline_argv(paths, tmp_path / "without"))[0] == 0
    assert calls == []
    assert _tree(tmp_path / "without") == _tree(tmp_path / "with")


def test_main_sets_the_mmap_and_trim_thresholds_on_glibc(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.ctypes, "CDLL", _fake_libc(calls))
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    assert run(capsys, "--print-config")[0] == 0
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def test_importing_eaparse_leaves_the_allocator_alone(tmp_path):
    # numpy loads first and keeps the real ctypes; only eaparse's own calls meet the fake
    script = (
        "import contextlib, ctypes, io, json, types, numpy\n"
        "calls = []\n"
        "ctypes.CDLL = lambda *a, **k: types.SimpleNamespace(mallopt=lambda *a: calls.append(a))\n"
        "import eaparse, eaparse.cli\n"
        "on_import = list(calls)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = eaparse.cli.main(['--print-config'])\n"
        "print(json.dumps([on_import, code, len(calls)]))\n"
    )
    on_import, code, in_main = _python_json(script, cwd=tmp_path)
    assert on_import == [] and code == 0
    assert in_main == (2 if _on_glibc() else 0)


# --- exit policy and imports ---


def _pipeline_and_eval_argv(paths, tmp_path, command) -> list:
    """argv of a pipeline without refinement at --jobs 1, or of eval; both score
    the default classes."""
    if command == "eval":
        return ["eval", "--pred-dir", str(paths["gt"]), "--gt-dir", str(paths["gt"]), "--out", str(tmp_path / "r.json")]
    argv = ["--jobs", "1", "pipeline", "--images", str(paths["images"]), "--boxes", str(paths["boxes"])]
    argv += ["--logits-dir", str(paths["clean"]), "--gt-dir", str(paths["gt"])]
    return argv + ["--out-dir", str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["pipeline", "eval"])
def test_pipeline_and_eval_leave_numpy_ma_unloaded(tmp_path, command):
    # np.unique imports numpy.ma (~17 ms); nothing on these paths needs it
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    argv = _pipeline_and_eval_argv(paths, tmp_path, command)
    script = (
        "import json, sys; from eaparse.cli import main; code = main(json.loads(sys.argv[1])); "
        "print(json.dumps([code, 'numpy.ma' in sys.modules]))"
    )
    assert _python_json(script, json.dumps(argv), cwd=tmp_path) == [0, False]


def test_print_config_loads_no_random_or_process_modules(tmp_path):
    script = (
        "import contextlib, io, json, sys\n"
        "from eaparse.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['--print-config'])\n"
        "names = ('numpy.random', 'multiprocessing', 'concurrent.futures')\n"
        "print(json.dumps([code, [m for m in names if m in sys.modules]]))\n"
    )
    assert _python_json(script, cwd=tmp_path) == [0, []]


# an atexit handler registered before ``main`` runs after the handlers ``main`` registers
_FREEZE_COUNT_AT_EXIT = (
    "import atexit, contextlib, gc, io, json\n"
    "atexit.register(lambda: print(json.dumps(gc.get_freeze_count())))\n"
    "import eaparse, eaparse.cli\n"
)


def test_main_freezes_the_heap_at_exit(tmp_path):
    script = _FREEZE_COUNT_AT_EXIT + (
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    eaparse.cli.main(['--print-config'])\n"
        "assert gc.get_freeze_count() == 0\n"  # not before exit
    )
    assert _python_json(script, cwd=tmp_path) > 0


def test_importing_eaparse_leaves_the_heap_unfrozen(tmp_path):
    assert _python_json(_FREEZE_COUNT_AT_EXIT, cwd=tmp_path) == 0


def test_two_main_calls_freeze_the_heap_once(tmp_path):
    # ``main`` looks ``gc.freeze`` up when it runs, so it registers this counting stand-in
    script = (
        "import atexit, contextlib, gc, io, json\n"
        "runs, freeze = [], gc.freeze\n"
        "gc.freeze = lambda: (runs.append(1), freeze())[1]\n"
        "atexit.register(lambda: print(json.dumps([len(runs), gc.get_freeze_count() > 0])))\n"
        "from eaparse.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['--print-config']), main(['--print-config'])]\n"
        "assert codes == [0, 0]\n"
    )
    assert _python_json(script, cwd=tmp_path) == [1, True]


# --- adversarial inputs ---

# each case edits one input of a valid clip so that it must be malformed; the
# seed and the case index fix every edit
_MUTATION_SEED = 20210625


def _other(value: int, rng, high: int) -> int:
    """A value in 0..high-1 other than ``value``."""
    return (value + int(rng.integers(1, high))) % high


def _truncate(data: bytes, rng) -> bytes:
    return data[: int(rng.integers(0, len(data)))]


def _append_byte(data: bytes, rng) -> bytes:
    return data + bytes([int(rng.integers(0, 256))])


def _magic(size: int):
    def edit(data: bytes, rng) -> bytes:
        i = int(rng.integers(0, size))
        return data[:i] + bytes([_other(data[i], rng, 256)]) + data[i + 1 :]

    return edit


def _pnm_field(index: int):
    """Edit width (0), height (1) or maxval (2) of a ``P5``/``P6`` file as the writers lay it out."""

    def edit(data: bytes, rng) -> bytes:
        magic, size, maxval, payload = data.split(b"\n", 3)
        fields = size.split(b" ") + [maxval]
        fields[index] = b"%d" % _other(int(fields[index]), rng, 1000)
        return b"%s\n%s %s\n%s\n" % (magic, *fields) + payload

    return edit


def _fplt_field(index: int):
    """Edit the version (0) or the channel count C (1) of an FPLT file."""

    def edit(data: bytes, rng) -> bytes:
        fields = list(struct.unpack_from("<IIII", data, 4))
        fields[index] = _other(fields[index], rng, 8)
        return data[:4] + struct.pack("<IIII", *fields) + data[20:]

    return edit


def _non_finite(data: bytes, rng) -> bytes:
    i = 20 + 4 * int(rng.integers(0, (len(data) - 20) // 4))
    value = (np.nan, np.inf, -np.inf)[int(rng.integers(0, 3))]
    return data[:i] + struct.pack("<f", value) + data[i + 4 :]


def _non_utf8(data: bytes, rng) -> bytes:
    # the clip's text files are ASCII, where any one byte >= 0x80 is not UTF-8
    i = int(rng.integers(0, len(data) + 1))
    return data[:i] + bytes([int(rng.integers(0x80, 0x100))]) + data[i:]


def _header_flip(data: bytes, rng) -> bytes:
    """Replace one header byte of a PGM, PPM or FPLT file so that the header must be rejected.

    An FPLT byte among magic, version, C, H and W takes any other value: the magic or
    the version is then wrong, a side is 0, or C*H*W no longer fits the payload. A
    PGM/PPM header byte becomes a byte that is neither a digit nor whitespace, which
    the header grammar accepts nowhere: it breaks the magic, takes the place of a
    field's digits or of the whitespace before or after a field.
    """
    if data[:4] == b"FPLT":
        i = int(rng.integers(0, 20))
        value = _other(data[i], rng, 256)
    else:
        i = int(rng.integers(0, len(b"\n".join(data.split(b"\n", 3)[:3])) + 1))
        allowed = [b for b in range(256) if b not in b"0123456789 \t\r\n\x0b\x0c" and b != data[i]]
        value = allowed[int(rng.integers(0, len(allowed)))]
    return data[:i] + bytes([value]) + data[i + 1 :]


def _json_line(edit):
    """Apply ``edit(line, rng)`` to one non-blank line of a JSON or JSONL file; the
    file stays valid UTF-8, so only the JSON rule or the schema can reject it."""

    def apply(data: bytes, rng) -> bytes:
        lines = data.decode("utf-8").split("\n")
        i = rng.choice([j for j, line in enumerate(lines) if line.strip()])
        lines[i] = edit(lines[i], rng)
        return "\n".join(lines).encode("utf-8")

    return apply


def _long_integer(line: str, rng) -> str:
    """Replace one JSON integer outside a string with one of 5,000 digits, past int()'s limit."""
    numbers = list(re.finditer(r'(?<!")\b\d+\b(?!")', line))
    m = numbers[int(rng.integers(0, len(numbers)))]
    return line[: m.start()] + "9" * 5000 + line[m.end() :]


def _entry(edit):
    """Apply ``edit(entry, rng)`` to the object of one boxes line, written back as the clip writes it."""

    def apply(line: str, rng) -> str:
        entry = json.loads(line)
        edit(entry, rng)
        return json.dumps(entry)

    return _json_line(apply)


def _huge_far_side(entry: dict, rng) -> None:
    """Move x1 or y1 beyond float range, where no box expansion can reach."""
    entry["box"][int(rng.integers(2, 4))] = 10**400


def _coordinate(value):
    """Set one box coordinate to ``value(old, rng)``."""

    def edit(entry: dict, rng) -> None:
        i = int(rng.integers(0, 4))
        entry["box"][i] = value(entry["box"][i], rng)

    return _entry(edit)


def _other_size(data: bytes, rng) -> bytes:
    """A valid label map smaller than the clip's 32 x 32 frames, in place of ``data``."""
    h, w = (int(v) for v in rng.integers(1, 32, 2))
    return _label_map_bytes(rng.integers(0, 3, (h, w), dtype=np.uint8))


_MUTATIONS = {
    "truncate": _truncate,
    "append": _append_byte,
    "pnm-magic": _magic(2),
    "width": _pnm_field(0),
    "height": _pnm_field(1),
    "maxval": _pnm_field(2),
    "fplt-magic": _magic(4),
    "version": _fplt_field(0),
    "channels": _fplt_field(1),
    "non-finite": _non_finite,
    "non-utf8": _non_utf8,
    "header-flip": _header_flip,
    "deep-nesting": _json_line(lambda line, rng: "[" * 100_000 + line + "]" * 100_000),
    "long-int": _json_line(_long_integer),
    "huge-coord": _entry(_huge_far_side),
    "array": _json_line(lambda line, rng: f"[{line}]"),
    "box-3": _entry(lambda entry, rng: entry["box"].pop(int(rng.integers(0, 4)))),
    "float-coord": _coordinate(lambda v, rng: float(v)),
    "bool-coord": _coordinate(lambda v, rng: bool(rng.integers(0, 2))),
    "no-frame": _entry(lambda entry, rng: entry.pop("frame")),
    "frame-null": _entry(lambda entry, rng: entry.update(frame=None)),
    "frame-number": _entry(lambda entry, rng: entry.update(frame=7)),
    "frame-list": _entry(lambda entry, rng: entry.update(frame=[entry["frame"]])),
    "frame-object": _entry(lambda entry, rng: entry.update(frame={"name": entry["frame"]})),
    "other-size": _other_size,
}
_PNM_EDITS = ("truncate", "truncate", "append", "pnm-magic", "width", "height", "maxval")
_FPLT_EDITS = ("truncate", "truncate", "append", "fplt-magic", "version", "channels", "non-finite", "non-finite")
# the edits that must break an input of each kind, and the inputs of every
# subcommand but pipeline and eval with their kinds
_EDITS_OF = {
    "pgm": ("truncate", "append", "header-flip"),
    "ppm": ("truncate", "append", "header-flip"),
    "fplt": ("truncate", "append", "header-flip", "non-finite"),
    "text": ("non-utf8",),
}
_COMMAND_INPUTS = {
    "edges": {"labels": "pgm"},
    "loss": {"logits": "fplt", "labels": "pgm", "mask": "pgm", "edge-logits": "fplt"},
    "augment": {"image": "ppm", "labels": "pgm", "swaps": "text"},
    "grabcut": {"image": "ppm", "labels": "pgm"},
    "ensemble": {"member": "fplt"},
    "roi-crop": {"image": "ppm", "boxes": "text"},
    "roi-paste": {"canvas": "pgm", "patch": "pgm", "boxes": "text"},
}
# edits of the JSON and JSONL inputs that keep them valid UTF-8
_JSON_EDITS = ("deep-nesting", "long-int")
_JSONL_EDITS = _JSON_EDITS + ("array", "box-3", "float-coord", "bool-coord", "no-frame", "huge-coord")
# frame names that are not JSON strings
_FRAME_NAME_EDITS = ("frame-null", "frame-number", "frame-list", "frame-object")
_MUTATION_CASES = (
    [("pipeline", target, m) for target in ("image", "gt") for m in _PNM_EDITS]
    + [("pipeline", "member", m) for m in _FPLT_EDITS]
    + [("pipeline", target, "non-utf8") for target in ("boxes", "config") for _ in range(2)]
    + [("pipeline", target, "header-flip") for target in ("image", "gt", "member")]
    + [
        (command, target, m)
        for command, inputs in _COMMAND_INPUTS.items()
        for target, kind in inputs.items()
        for m in _EDITS_OF[kind]
    ]
    + [("pipeline", "config", m) for m in _JSON_EDITS + ("array",)]
    + [("pipeline", "boxes", m) for m in _JSONL_EDITS]
    + [("augment", "swaps", m) for m in _JSON_EDITS]
    + [(command, "boxes", m) for command in ("roi-crop", "roi-paste") for m in _JSONL_EDITS]
    # appended last, so that the earlier cases keep their indices
    + [(command, "boxes", m) for command in ("pipeline", "roi-crop", "roi-paste") for m in _FRAME_NAME_EDITS]
    # a ground truth of another size than its frame, run through pipeline and eval;
    # the two cases resize frame 000 and frame 001
    + [("pipeline", "gt", "other-size")] * 2
)


def _pipeline_case(tmp_path, target: str, rng) -> tuple[list, Path, Path]:
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    shutil.copytree(paths["gt"], tmp_path / "pred")
    config = tmp_path / "config.json"
    config.write_text('{"rng_seed": 5}\n', encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_bytes(b"an earlier report\n")
    stem = f"{int(rng.integers(0, 2)):03d}"
    member = paths[("clean", "degraded")[int(rng.integers(0, 2))]]
    victim = {
        "image": paths["images"] / f"{stem}.ppm",
        "gt": paths["gt"] / f"{stem}.pgm",
        "member": member / f"{stem}__0.fplt",
        "boxes": paths["boxes"],
        "config": config,
    }[target]
    pipeline = ["--config", str(config), *_pipeline_argv(paths, out)]
    runs = [["--jobs", "1", *pipeline], ["--jobs", "2", *pipeline]]
    if target in ("gt", "config"):
        evaluate = ["eval", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(paths["gt"])]
        runs.append(["--config", str(config), *evaluate, "--out", str(out / "report.json")])
    return runs, victim, out / "report.json"


def _command_inputs(root: Path) -> dict:
    """Valid 12 x 12 inputs of every subcommand but ``pipeline`` and ``eval``, by target name."""
    rng = np.random.default_rng(_MUTATION_SEED)
    root.mkdir()
    labels = np.zeros((12, 12), dtype=np.uint8)
    labels[3:9, 2:7], labels[4:10, 7:11] = 1, 2
    image = labels[..., None] * np.array([70, 40, 10]) + rng.integers(0, 30, (12, 12, 3))
    f = {name: root / f"{name}.{ext}" for name, ext in (
        ("labels", "pgm"), ("image", "ppm"), ("logits", "fplt"), ("member", "fplt"),
        ("edge-logits", "fplt"), ("mask", "pgm"), ("patch", "pgm"), ("swaps", "json"), ("boxes", "jsonl"),
    )}
    ea.write_label_map(labels, f["labels"])
    ea.write_rgb_image(image, f["image"])
    ea.write_logits(rng.normal(0, 2, (3, 12, 12)), f["logits"])
    ea.write_logits(rng.normal(0, 2, (3, 8, 8)), f["member"])
    ea.write_logits(rng.normal(0, 2, (1, 12, 12)), f["edge-logits"])
    ea.write_label_map((labels != 0).astype(np.uint8), f["mask"])
    ea.write_label_map(labels[2:8, 3:9], f["patch"])
    f["swaps"].write_text('{"swap_pairs": [[1, 2]]}\n', encoding="utf-8")
    f["boxes"].write_text('{"frame": "f", "box": [3, 2, 9, 8]}\n', encoding="utf-8")
    return {**f, "canvas": f["labels"]}


def _command_case(tmp_path, command: str, target: str) -> tuple[list, Path, Path]:
    f = _command_inputs(tmp_path / "in")
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "edges": ["edges", "--labels", f["labels"], "--out", out / "o.pgm"],
        "loss": [
            "loss", "--logits", f["logits"], "--labels", f["labels"], "--mask", f["mask"],
            "--edge-mask-radius", "1", "--edge-logits", f["edge-logits"], "--grad-out", out / "g.fplt",
        ],
        "augment": [
            "augment", "--op", "hflip", "--image", f["image"], "--labels", f["labels"],
            "--config", f["swaps"], "--out-prefix", f"{out}/a_",
        ],
        "grabcut": [
            "grabcut", "--image", f["image"], "--labels", f["labels"], "--class", "1",
            "--out", out / "r.pgm", "--energy-trace", out / "t.json",
        ],
        "ensemble": ["ensemble", "--inputs", f["logits"], f["member"], "--out", out / "e.pgm"],
        "roi-crop": [
            "roi", "crop", "--image", f["image"], "--boxes-jsonl", f["boxes"], "--frame", "f",
            "--out", out / "c.ppm",
        ],
        "roi-paste": [
            "roi", "paste", "--canvas", f["canvas"], "--patch", f["patch"], "--boxes-jsonl", f["boxes"],
            "--frame", "f", "--out", out / "p.pgm",
        ],
    }[command]
    # a multi-file command's later output, else its one output, exists beforehand
    existing = {"augment": out / "a_labels.pgm", "grabcut": out / "t.json"}.get(command, Path(argv[-1]))
    existing.write_bytes(b"an earlier output\n")
    return [[str(a) for a in argv]], f[target], existing


@pytest.mark.parametrize("command", sorted(_COMMAND_INPUTS))
def test_malformed_input_cases_run_clean_unedited(capsys, tmp_path, command):
    (argv,), _, _ = _command_case(tmp_path, command, next(iter(_COMMAND_INPUTS[command])))
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def _malformed_case(tmp_path, index: int) -> tuple[list, Path]:
    """Write case ``index``'s inputs and edit one of them; its runs, each of which must
    exit 2, and an existing output file that no run may change."""
    command, target, mutation = _MUTATION_CASES[index]
    rng = np.random.default_rng([_MUTATION_SEED, index])
    if command == "pipeline":
        runs, victim, existing = _pipeline_case(tmp_path, target, rng)
    else:
        runs, victim, existing = _command_case(tmp_path, command, target)
    victim.write_bytes(_MUTATIONS[mutation](victim.read_bytes(), rng))
    return runs, existing


def _case_id(index: int) -> str:
    command, target, mutation = _MUTATION_CASES[index]
    return f"{index}-{target}-{mutation}" if command == "pipeline" else f"{index}-{command}-{target}-{mutation}"


@pytest.mark.parametrize("index", range(len(_MUTATION_CASES)), ids=_case_id)
def test_malformed_input_is_exit_2_with_no_output(capsys, tmp_path, index):
    runs, existing = _malformed_case(tmp_path, index)
    earlier = existing.read_bytes()
    before = _tree(tmp_path)
    for argv in runs:
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "", (argv, err)
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert _tree(tmp_path) == before
        assert existing.read_bytes() == earlier


# one case per subcommand that the harness edits, run as a fresh process; a
# pipeline case runs its --jobs 2 run, the second
_PROCESS_CASES = [
    _MUTATION_CASES.index(case)
    for case in (
        ("pipeline", "member", "header-flip"),
        ("edges", "labels", "truncate"),
        ("loss", "edge-logits", "non-finite"),
        ("augment", "swaps", "non-utf8"),
        ("grabcut", "image", "header-flip"),
        ("ensemble", "member", "append"),
        ("roi-crop", "boxes", "non-utf8"),
        ("roi-paste", "patch", "header-flip"),
        ("pipeline", "boxes", "deep-nesting"),
        ("augment", "swaps", "long-int"),
    )
]


@pytest.mark.parametrize("index", _PROCESS_CASES, ids=_case_id)
def test_malformed_input_is_exit_2_with_no_output_in_a_process(tmp_path, index):
    runs, existing = _malformed_case(tmp_path, index)
    earlier = existing.read_bytes()
    before = _tree(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    argv = runs[1] if len(runs) > 1 else runs[0]
    proc = subprocess.run(
        [sys.executable, "-m", "eaparse", *argv], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr
    assert _tree(tmp_path) == before
    assert existing.read_bytes() == earlier


# cases that change an argument rather than an input's bytes: eval's prediction
# directory, an output target that is a directory or lies in a directory that does
# not exist, and an expand ratio whose margin is beyond float range
_ARGUMENT_CASES = (
    [("eval", edit) for edit in ("pred-missing", "pred-file", "pred-no-pgm", "pred-no-gt")]
    + [
        (command, edit)
        for command in ("edges", "loss", "ensemble", "roi-crop", "roi-paste", "eval")
        for edit in ("out-dir", "out-missing-dir")
    ]
    + [("pipeline", "expand-flag"), ("pipeline", "expand-config"), ("roi-crop", "expand-flag")]
    # appended last: class lists with a repeated id or an id that no uint8 label has
    + [("eval", "classes-repeated"), ("pipeline", "refine-classes-300"), ("pipeline", "classes-config")]
)


def _argument_case(tmp_path, command: str, edit: str) -> list:
    """Valid inputs of ``command`` and its runs with the argument ``edit`` names changed."""
    if command in ("pipeline", "eval"):
        paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
        pred = tmp_path / "pred"
        shutil.copytree(paths["gt"], pred)
        if command == "pipeline":
            argv = _pipeline_argv(paths, tmp_path / "out")
        else:
            argv = ["eval", "--pred-dir", pred, "--gt-dir", paths["gt"], "--out", tmp_path / "report.json"]
    else:
        (argv,), _, _ = _command_case(tmp_path, command, next(iter(_COMMAND_INPUTS[command])))
    argv = [str(a) for a in argv]

    def set_arg(flag: str, value) -> None:
        argv[argv.index(flag) + 1] = str(value)

    out_flag = "--grad-out" if command == "loss" else "--out"
    if edit == "out-dir":
        (tmp_path / "taken").mkdir()
        set_arg(out_flag, tmp_path / "taken")
    elif edit == "out-missing-dir":
        set_arg(out_flag, tmp_path / "missing" / "o")
    elif edit == "pred-missing":
        set_arg("--pred-dir", tmp_path / "missing")
    elif edit == "pred-file":
        set_arg("--pred-dir", pred / "000.pgm")
    elif edit == "pred-no-pgm":
        for p in pred.iterdir():
            p.rename(p.with_suffix(".txt"))
    elif edit == "pred-no-gt":
        shutil.copy(pred / "000.pgm", pred / "002.pgm")
    elif edit == "expand-flag":
        argv += ["--expand", "1e308"]
    elif edit == "classes-repeated":
        argv += ["--classes", "1,1"]
    elif edit == "refine-classes-300":
        argv += ["--refine-classes", "300"]
    else:  # expand-config, classes-config
        doc = '{"expand_ratio": 1e308}' if edit == "expand-config" else '{"classes": [-1]}'
        (tmp_path / "c.json").write_text(doc + "\n", encoding="utf-8")
        argv = ["--config", str(tmp_path / "c.json"), *argv]
    return [["--jobs", jobs, *argv] for jobs in ("1", "2")] if command == "pipeline" else [argv]


@pytest.mark.parametrize("command, edit", _ARGUMENT_CASES, ids=[f"{c}-{e}" for c, e in _ARGUMENT_CASES])
def test_bad_argument_is_exit_2_with_no_output(capsys, tmp_path, command, edit):
    runs = _argument_case(tmp_path, command, edit)
    before = _tree(tmp_path)
    for argv in runs:
        errors = []
        for _ in range(2):  # the same failing command prints the same stderr every time
            code, stdout, err = run(capsys, *argv)
            assert code == 2 and stdout == "", (argv, err)
            assert err.startswith("error: ") and "Traceback" not in err, err
            assert _tree(tmp_path) == before
            errors.append(err)
        assert errors[0] == errors[1]


# --- scope of "bit-identical" ---

# settings that move numpy onto other code paths in a child process: another
# OpenBLAS kernel, which a DYNAMIC_ARCH build honours, and numpy's SIMD paths
# below AVX-512, which only a CPU that has them can leave
_CODE_PATHS = {
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy-below-avx512": {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SKX X86_V4"},
}

# the OpenBLAS kernel in use (null where none is found) and numpy's CPU features
_CODE_PATH_PROBE = """
import ctypes, json, numpy
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
numpy.ones((4, 4)) @ numpy.ones((4, 4))
core = None
try:
    with open("/proc/self/maps") as f:
        libs = sorted({w for w in f.read().split() if "openblas" in w.lower()})
except OSError:
    libs = []
for lib in libs:
    for name in ("openblas_get_corename", "openblas_get_corename64_", "scipy_openblas_get_corename64_"):
        get = getattr(ctypes.CDLL(lib), name, None)
        if get is not None:
            get.restype = ctypes.c_char_p
            core = get().decode()
print(json.dumps({"core": core, "features": __cpu_features__}))
"""


def _code_path_taken(setting: dict, tmp_path) -> bool:
    """Whether a child process under ``setting`` runs on another code path than this one."""
    plain = _python_json(_CODE_PATH_PROBE, cwd=tmp_path)
    moved = _python_json(_CODE_PATH_PROBE, cwd=tmp_path, env_extra=setting)
    if "OPENBLAS_CORETYPE" in setting:
        return (moved["core"] or "").lower() == setting["OPENBLAS_CORETYPE"].lower()
    names = setting["NPY_DISABLE_CPU_FEATURES"].split()
    return all(plain["features"].get(n) for n in names) and not any(moved["features"].get(n) for n in names)


@pytest.mark.parametrize("setting", _CODE_PATHS.values(), ids=_CODE_PATHS.keys())
def test_pipeline_label_maps_are_the_same_on_another_blas_kernel_or_simd_path(tmp_path, setting):
    # the label maps held on these paths when measured; float outputs are not promised
    # to, and energy traces and fused probabilities were seen to differ
    if not _code_path_taken(setting, tmp_path):
        pytest.skip(f"{setting} is not honoured here")
    paths = helpers.write_clip(tmp_path / "clip", n_frames=3)
    script = "import json, sys; from eaparse.cli import main; print(json.dumps(main(json.loads(sys.argv[1]))))"
    maps = []
    for name, env_extra in (("plain", None), ("moved", setting)):
        argv = ["--jobs", "1", *_pipeline_argv(paths, tmp_path / name)]
        assert _python_json(script, json.dumps(argv), cwd=tmp_path, env_extra=env_extra) == 0
        maps.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).glob("*.pgm"))})
    assert sorted(maps[0]) == ["000.pgm", "001.pgm", "002.pgm"]
    assert maps[0] == maps[1]


def test_grabcut_energy_trace_is_the_same_on_another_blas_kernel(tmp_path):
    # the mixture scores call no BLAS or LAPACK routine, so the kernel moves no
    # byte of the mask or of the trace; the old scores moved trace bytes here
    setting = _CODE_PATHS["openblas-sandybridge"]
    if not _code_path_taken(setting, tmp_path):
        pytest.skip(f"{setting} is not honoured here")
    scenes = [helpers.disk_scene(noise_seed=seed)[::2] for seed in range(4)]
    scenes += [helpers.ramp_scene(seed) for seed in range(4)]
    script = "import json, sys; from eaparse.cli import main; print(json.dumps(main(json.loads(sys.argv[1]))))"
    outputs = {}
    for name, env_extra in (("plain", None), ("moved", setting)):
        for i, (image, init) in enumerate(scenes):
            ea.write_rgb_image(image, tmp_path / f"{i}.ppm")
            ea.write_label_map(init, tmp_path / f"{i}.pgm")
            argv = ["--seed", str(i), "grabcut", "--image", f"{i}.ppm", "--labels", f"{i}.pgm", "--class", "1"]
            argv += ["--gamma", "1", "--out", f"{name}{i}.pgm", "--energy-trace", f"{name}{i}.json"]
            assert _python_json(script, json.dumps(argv), cwd=tmp_path, env_extra=env_extra) == 0
        files = [f"{name}{i}.{ext}" for i in range(len(scenes)) for ext in ("pgm", "json")]
        outputs[name] = [(tmp_path / f).read_bytes() for f in files]
    assert outputs["plain"] == outputs["moved"]


# --- error branches: config sections, the swaps file, cuthalf, --out-dir, --jobs ---


@pytest.mark.parametrize("doc", ['{"grabcut": 1}', '{"loss_weights": []}', '{"grabcut": null}'])
def test_config_section_that_is_not_an_object_is_named(capsys, tmp_path, doc):
    config = tmp_path / "c.json"
    config.write_text(doc)
    code, out, err = run(capsys, "--config", str(config), "--print-config")
    key = next(iter(json.loads(doc)))
    assert (code, out, err) == (2, "", f"error: config.{key} must be an object\n")


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"pairs": [[1, 2]]}', "expected a swap_pairs entry"),
        ("3", "expected a list or an object"),
        ('"[[1, 2]]"', "expected a list or an object"),
    ],
    ids=["object-without-swap_pairs", "number", "string"],
)
def test_augment_swaps_file_of_another_shape_is_named(capsys, tmp_path, doc, message):
    ea.write_rgb_image(np.zeros((4, 5, 3), dtype=np.uint8), tmp_path / "i.ppm")
    ea.write_label_map(np.zeros((4, 5), dtype=np.uint8), tmp_path / "l.pgm")
    swaps = tmp_path / "swaps.json"
    swaps.write_text(doc)
    argv = ["augment", "--op", "hflip", "--image", str(tmp_path / "i.ppm"), "--labels", str(tmp_path / "l.pgm")]
    code, out, err = run(capsys, *argv, "--config", str(swaps), "--out-prefix", str(tmp_path / "o_"))
    assert (code, out, err) == (2, "", f"error: {swaps}: {message}\n")
    assert not list(tmp_path.glob("o_*"))


@pytest.mark.parametrize("side", ["left", "right", "top", "bottom"])
def test_augment_cuthalf_writes_the_kept_half(capsys, tmp_path, side):
    rng = np.random.default_rng(31)
    image = rng.integers(0, 256, (5, 7, 3)).astype(np.uint8)
    labels = rng.integers(0, 4, (5, 7)).astype(np.uint8)
    ea.write_rgb_image(image, tmp_path / "i.ppm")
    ea.write_label_map(labels, tmp_path / "l.pgm")
    prefix = str(tmp_path / "o_")
    argv = ["augment", "--op", "cuthalf", "--side", side, "--image", str(tmp_path / "i.ppm")]
    code, out, err = run(capsys, *argv, "--labels", str(tmp_path / "l.pgm"), "--out-prefix", prefix)
    assert (code, out, err) == (0, "", "")
    want_image, want_labels = ea.cut_half(image, labels, side)
    assert (ea.read_rgb_image(prefix + "image.ppm") == want_image).all()
    assert (ea.read_label_map(prefix + "labels.pgm") == want_labels).all()


@pytest.mark.parametrize("where", ["a-file", "under-a-file"])
def test_pipeline_out_dir_that_cannot_be_made_exits_2_and_writes_nothing(capsys, tmp_path, where):
    paths = helpers.write_clip(tmp_path / "clip", n_frames=2)
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"keep")
    out_dir = blocker if where == "a-file" else blocker / "out"
    before = _tree(tmp_path)
    code, out, err = run(capsys, "--jobs", "1", *_pipeline_argv(paths, out_dir))
    reason = "File exists" if where == "a-file" else "Not a directory"
    assert (code, out, err) == (2, "", f"error: cannot write {out_dir}: {reason}\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_jobs_that_is_not_an_integer_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", value, "--print-config"])
    assert exc.value.code == 2
    assert f"argument --jobs: expected an integer, got {value!r}" in capsys.readouterr().err


def test_eval_rejects_a_negative_tolerance_whatever_the_frames_hold(capsys, tmp_path):
    # no class has a boundary in both maps, so no disk of the tolerance is ever made
    gt = np.ones((4, 4), dtype=np.uint8)
    pred = gt.copy()
    pred[1, 1] = 2
    for name, lm in (("gt", gt), ("pred", pred)):
        (tmp_path / name).mkdir()
        ea.write_label_map(lm, tmp_path / name / "a.pgm")
    argv = ["eval", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt")]
    code, out, err = run(capsys, *argv, "--tolerance", "-1", "--out", str(tmp_path / "r.json"))
    assert (code, out, err) == (2, "", "error: tolerance must be an integer >= 0, got -1\n")
    assert not (tmp_path / "r.json").exists()
    code, _, _ = run(capsys, *argv, "--tolerance", "0", "--out", str(tmp_path / "r.json"))
    assert code == 0 and (tmp_path / "r.json").exists()
