import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from mocapkit import formats
from mocapkit.camera import WeakPerspectiveCamera, project
from mocapkit.cli import main
from mocapkit.errors import SchemaError
from mocapkit.integration import BodyPrediction, HandPrediction, WholeBodyParams
from mocapkit.model import ShapeParams, pose_joints, pose_mesh


def test_model_round_trip(toy, tmp_path):
    path = tmp_path / "toy.json"
    formats.save_model(path, toy)
    loaded = formats.load_model(path)
    np.testing.assert_array_equal(loaded.template_vertices, toy.template_vertices)
    np.testing.assert_array_equal(loaded.faces, toy.faces)
    np.testing.assert_array_equal(loaded.shape_basis, toy.shape_basis)
    np.testing.assert_array_equal(loaded.skin_weights, toy.skin_weights)
    np.testing.assert_array_equal(loaded.joint_regressor, toy.joint_regressor)
    np.testing.assert_array_equal(loaded.tree.parents, toy.tree.parents)
    assert loaded.tree.joint_names == toy.tree.joint_names
    assert loaded.hand_joint_ids == {s: list(v) for s, v in toy.hand_joint_ids.items()}
    assert loaded.reference_knuckle_length == toy.reference_knuckle_length


def test_model_write_is_byte_stable(toy, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    formats.save_model(a, toy)
    formats.save_model(b, formats.load_model(a))
    assert a.read_bytes() == b.read_bytes()


def test_strict_mode_rejects_unknown_keys(toy, tmp_path):
    doc = formats.model_to_doc(toy)
    doc["extra_field"] = 1
    with pytest.raises(SchemaError, match="unknown fields"):
        formats.model_from_doc(doc)


def test_header_validation(toy):
    doc = formats.model_to_doc(toy)
    bad = dict(doc, format="something-else")
    with pytest.raises(SchemaError):
        formats.model_from_doc(bad)
    for version in (99, True, 1.0):
        with pytest.raises(SchemaError, match="unsupported schema_version"):
            formats.model_from_doc(dict(doc, schema_version=version))
    with pytest.raises(SchemaError):
        formats.model_from_doc([1, 2, 3])


def test_pose_correctives_must_stay_null(toy):
    doc = formats.model_to_doc(toy)
    doc["pose_correctives"] = {"basis": []}
    with pytest.raises(SchemaError):
        formats.model_from_doc(doc)


def test_triplet_bounds_checked(toy):
    doc = formats.model_to_doc(toy)
    doc["skin_weights"]["triplets"].append([10 ** 6, 0, 0.5])
    with pytest.raises(SchemaError):
        formats.model_from_doc(doc)


@pytest.mark.parametrize("triplet", [[0.5, 0, 1.0], [0, 1.0, 1.0], [True, 0, 1.0], ["0", 0, 1.0]])
def test_triplet_indices_must_be_integers(toy, triplet):
    doc = formats.model_to_doc(toy)
    doc["skin_weights"]["triplets"].append(triplet)
    with pytest.raises(SchemaError, match=r"^invalid model asset: triplet index "):
        formats.model_from_doc(doc)


@pytest.mark.parametrize("shape", [[10], [10, 2, 1], [10.0, 2], [-1, 2], [True, 2], 10])
def test_sparse_shape_must_be_two_non_negative_integers(toy, shape):
    doc = formats.model_to_doc(toy)
    doc["joint_regressor"]["shape"] = shape
    with pytest.raises(SchemaError, match=r"^invalid model asset: "):
        formats.model_from_doc(doc)


def test_sparse_round_trip_dense_matrix(rng):
    m = rng.uniform(size=(7, 5))
    m[m < 0.5] = 0.0
    np.testing.assert_array_equal(
        formats._from_triplets(formats._triplets(m), m.shape, "m"), m)


def _camera(rng):
    return WeakPerspectiveCamera(rng.uniform(1.0, 5.0), rng.normal(size=2))


def _assert_same_fields(a, b):
    """Every field of two predictions or params is equal, bit for bit."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, ShapeParams):
            x, y = x.beta, y.beta
        if isinstance(x, WeakPerspectiveCamera):
            assert x.scale == y.scale
            x, y = x.translation, y.translation
        if isinstance(x, str):
            assert x == y
        else:
            np.testing.assert_array_equal(x, y)
            assert x.shape == y.shape


def test_predictions_round_trip(rng):
    def body():
        return BodyPrediction(rng.normal(size=3), rng.normal(size=(21, 3)),
                              ShapeParams(rng.normal(size=10)), _camera(rng))

    def hand(side):
        return HandPrediction(side, rng.normal(size=3), rng.normal(size=(15, 3)),
                              ShapeParams(rng.normal(size=10)), _camera(rng))

    # both hands, the left only, the right only, none
    frames = [(0, body(), hand("left"), hand("right")), (2, body(), hand("left"), None),
              (3, body(), None, hand("right")), (9, body(), None, None)]
    doc = formats.predictions_to_doc(frames)
    read = formats.predictions_from_doc(doc)
    assert [i for i, _, _, _ in read] == [0, 2, 3, 9]
    for original, copy in zip(frames, read):
        for a, b in zip(original[1:], copy[1:]):
            if a is None:
                assert b is None
            else:
                _assert_same_fields(a, b)
    assert (formats.canonical_dumps(formats.predictions_to_doc(read))
            == formats.canonical_dumps(doc))


def test_predictions_require_body(rng):
    body = BodyPrediction(np.zeros(3), np.zeros((21, 3)), ShapeParams.zeros(10),
                          WeakPerspectiveCamera.identity())
    doc = formats.predictions_to_doc([(0, body, None, None)])
    doc["frames"][0]["body"] = None
    with pytest.raises(SchemaError):
        formats.predictions_from_doc(doc)


def test_frame_indices_must_increase(rng):
    doc = formats.keypoints_to_doc([(1, np.zeros((3, 2)), None), (1, np.zeros((3, 2)), None)])
    with pytest.raises(SchemaError):
        formats.keypoints_from_doc(doc)
    doc = formats.keypoints_to_doc([(2, np.zeros((3, 2)), None), (0, np.zeros((3, 2)), None)])
    with pytest.raises(SchemaError):
        formats.keypoints_from_doc(doc)


@pytest.mark.parametrize("reader, fmt", [
    (formats.predictions_from_doc, formats.PREDICTIONS_FORMAT),
    (formats.keypoints_from_doc, formats.KEYPOINTS_FORMAT),
    (formats.params_from_doc, formats.PARAMS_FORMAT),
    (formats.joints_from_doc, formats.JOINTS_FORMAT),
])
def test_frame_records_must_be_objects(reader, fmt):
    # The records must also come as a list, each with an integer index.
    for frames, message in [([3], "every frame record must be an object"),
                            ({"frame": 0}, "'frames' must be a list"),
                            ([{"frame": 0.0}], "every frame record needs an integer 'frame' index"),
                            ([{"frame": True}], "every frame record needs an integer 'frame' index")]:
        doc = {"format": fmt, "schema_version": formats.SCHEMA_VERSION, "frames": frames}
        with pytest.raises(SchemaError, match=message):
            reader(doc)


def _params_record(**fields):
    """The params record of frame 0 at zero pose, with `fields` replaced."""
    params = WholeBodyParams(np.zeros(3), np.zeros((2, 3)), ShapeParams.zeros(1),
                             WeakPerspectiveCamera.identity())
    return {**formats.params_to_doc([(0, params, None)])["frames"][0], **fields}


# Records past the one without fields that a reader refuses, each with the
# message that follows its frame's prefix.
UNREADABLE_RECORDS = {
    formats.PARAMS_FORMAT: [(_params_record(phi=[0.0, 0.1]), "phi_w must be a 3-vector"),
                            (_params_record(theta=[0.0, 0.0, 0.0]), r"theta_w must be \(J-1, 3\)"),
                            (_params_record(beta=[float("nan")]), "beta must be a finite 1-D vector"),
                            (_params_record(status=1), "status must be a string"),
                            (_params_record(accepted_steps=2.0), "accepted_steps must be an integer >= 0"),
                            (_params_record(accepted_steps=True), "accepted_steps must be an integer >= 0"),
                            (_params_record(rejected_steps=-1), "rejected_steps must be an integer >= 0")],
}


@pytest.mark.parametrize("reader, fmt", [
    (formats.predictions_from_doc, formats.PREDICTIONS_FORMAT),
    (formats.keypoints_from_doc, formats.KEYPOINTS_FORMAT),
    (formats.params_from_doc, formats.PARAMS_FORMAT),
    (formats.joints_from_doc, formats.JOINTS_FORMAT),
])
def test_unreadable_frame_record_is_named(reader, fmt):
    for record, message in [({"frame": 4}, "")] + UNREADABLE_RECORDS.get(fmt, []):
        doc = {"format": fmt, "schema_version": formats.SCHEMA_VERSION, "frames": [record]}
        with pytest.raises(SchemaError, match=rf"^frame {record['frame']}: {message}"):
            reader(doc)


def test_keypoints_round_trip(rng):
    pts = rng.normal(size=(21, 3))
    conf = rng.uniform(size=21)
    doc = formats.keypoints_to_doc([(0, pts, conf), (3, pts + 1, None)])
    out = formats.keypoints_from_doc(doc)
    assert [i for i, _, _ in out] == [0, 3]
    np.testing.assert_array_equal(out[0][1], pts)
    np.testing.assert_array_equal(out[0][2], conf)
    assert out[1][2] is None


def test_keypoints_shape_validation():
    doc = formats.keypoints_to_doc([(0, np.zeros((3, 2)), None)])
    doc["frames"][0]["points"] = [[1.0, 2.0, 3.0, 4.0]]
    with pytest.raises(SchemaError):
        formats.keypoints_from_doc(doc)
    doc = formats.keypoints_to_doc([(0, np.zeros((3, 2)), np.ones(2))])
    with pytest.raises(SchemaError):
        formats.keypoints_from_doc(doc)


def test_params_round_trip(rng):
    trace = np.array([3.0, 2.0, 1.0])
    all_extras = [None, {}, {"cost_trace": trace}, {"cost_trace": trace, "final_rms_px": 0.25},
                  {"cost_trace": trace, "final_rms_px": 0.25, "status": "stalled",
                   "accepted_steps": 1, "rejected_steps": 50}]
    frames = [(i, WholeBodyParams(rng.normal(size=3), rng.normal(size=(51, 3)),
                                  ShapeParams(rng.normal(size=10)), _camera(rng)), extras)
              for i, extras in zip((1, 4, 5, 7, 9), all_extras)]
    doc = formats.params_to_doc(frames)
    read = formats.params_from_doc(doc)
    assert [i for i, _, _ in read] == [1, 4, 5, 7, 9]
    for (_, params, extras), (_, p2, e2) in zip(frames, read):
        _assert_same_fields(params, p2)
        extras = extras or {}
        assert sorted(e2) == sorted(extras)
        if "cost_trace" in extras:
            np.testing.assert_array_equal(e2["cost_trace"], extras["cost_trace"])
        for name in ("final_rms_px", "status", "accepted_steps", "rejected_steps"):
            assert e2.get(name) == extras.get(name)
    assert formats.canonical_dumps(formats.params_to_doc(read)) == formats.canonical_dumps(doc)


def test_joints_round_trip(rng):
    joints = rng.normal(size=(52, 3))
    doc = formats.joints_to_doc([(0, joints)])
    [(i, j2)] = formats.joints_from_doc(doc)
    assert i == 0
    np.testing.assert_array_equal(j2, joints)


def test_asset_dir_resolution(toy, tmp_path, monkeypatch):
    formats.save_model(tmp_path / "toy.json", toy)
    monkeypatch.setenv(formats.ASSET_DIR_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path / "..")
    loaded = formats.load_model("toy.json")
    assert loaded.num_vertices == toy.num_vertices
    # A file missing from both places keeps its own path, for open() to report.
    assert formats.resolve_asset_path("other.json") == "other.json"


def _sidecar(path):
    return Path(str(path) + formats.CACHE_SUFFIX)


def _assert_same_model(a, b):
    """Two models with the same arrays, bit for bit and dtype for dtype, ids and names."""
    for name in ("template_vertices", "faces", "shape_basis", "skin_weights", "joint_regressor"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
        assert (x.flags.c_contiguous, x.flags.writeable) == (y.flags.c_contiguous, y.flags.writeable)
    p, q = a.tree.parents, b.tree.parents
    assert (p.dtype, p.tobytes()) == (q.dtype, q.tobytes())
    assert a.tree.joint_names == b.tree.joint_names
    for name in ("hand_joint_ids", "fingertip_vertex_ids"):
        x, y = getattr(a, name), getattr(b, name)
        assert list(x.items()) == list(y.items())
        assert all(type(i) is int for ids in y.values() for i in ids)
    assert a.reference_knuckle_length == b.reference_knuckle_length


def test_sidecar_gives_the_parsed_model(toy, tmp_path, monkeypatch):
    path = tmp_path / "toy.json"
    formats.save_model(path, toy)
    parsed = formats.load_model(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.json", "toy.json.cache"]
    # A hit parses nothing.
    monkeypatch.setattr(formats, "model_from_doc", None)
    _assert_same_model(parsed, formats.load_model(path))
    _assert_same_model(parsed, toy)


def test_outputs_are_the_same_with_and_without_a_sidecar(tmp_path, rng):
    asset = tmp_path / "toy.json"
    assert main(["gen-toy", str(asset)]) == 0
    model = formats.load_model(asset)
    params = [(i, WholeBodyParams(rng.normal(scale=0.1, size=3), rng.normal(scale=0.1, size=(51, 3)),
                                  ShapeParams(rng.normal(scale=0.5, size=10)), _camera(rng)), None)
              for i in range(3)]
    init = tmp_path / "init.json"
    formats.write_json(init, formats.params_to_doc(params))
    kp = tmp_path / "kp.json"
    formats.write_json(kp, formats.keypoints_to_doc(
        [(i, project(p.cam_w, pose_joints(model, p.pose(), p.beta_w)) + rng.normal(size=(52, 2)), None)
         for i, p, _ in params]))
    outputs = {}
    for run in ("miss", "hit"):
        if run == "miss":
            _sidecar(asset).unlink()
        d = tmp_path / run
        d.mkdir()
        assert main(["pose", str(asset), str(init), str(d / "joints.json"),
                     "--obj", str(d / "mesh.obj")]) == 0
        if run == "miss":
            _sidecar(asset).unlink()
        assert main(["fit", str(asset), str(init), str(kp), str(d / "fit.json"),
                     "--iters", "3", "--smooth"]) == 0
        assert _sidecar(asset).exists()
        outputs[run] = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    assert len(outputs["miss"]) == 5
    assert outputs["miss"] == outputs["hit"]


def test_an_edited_asset_is_parsed_again(toy, tmp_path):
    path = tmp_path / "toy.json"
    formats.save_model(path, toy)
    formats.load_model(path)
    old = _sidecar(path).read_bytes()
    doc = formats.read_json(path)
    doc["vertices"][0][0] += 0.5
    formats.write_json(path, doc)
    edited = formats.load_model(path)
    assert edited.template_vertices[0, 0] == toy.template_vertices[0, 0] + 0.5
    assert _sidecar(path).read_bytes() != old
    _assert_same_model(edited, formats.load_model(path))


def _other_assets_sidecar(tmp_path):
    other = tmp_path / "other" / "toy.json"
    other.parent.mkdir()
    assert main(["gen-toy", str(other), "--seed", "1"]) == 0
    formats.load_model(other)
    return _sidecar(other).read_bytes()


SPOILT_SIDECARS = {
    "empty": lambda good, tmp_path: b"",
    "truncated": lambda good, tmp_path: good[: len(good) // 2],
    "header_only": lambda good, tmp_path: good[:200],
    "garbage": lambda good, tmp_path: np.random.default_rng(0).bytes(len(good)),
    "other_asset": lambda good, tmp_path: _other_assets_sidecar(tmp_path),
}


@pytest.mark.parametrize("spoil", sorted(SPOILT_SIDECARS))
def test_a_spoilt_sidecar_is_ignored_and_replaced(toy, tmp_path, spoil):
    path = tmp_path / "toy.json"
    formats.save_model(path, toy)
    parsed = formats.load_model(path)
    good = _sidecar(path).read_bytes()
    bad = SPOILT_SIDECARS[spoil](good, tmp_path)
    assert bad != good
    _sidecar(path).write_bytes(bad)
    _assert_same_model(parsed, formats.load_model(path))
    assert _sidecar(path).read_bytes() == good


def _raise_oserror(*args, **kwargs):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failing", ["open", "save", "replace"])
def test_a_failing_sidecar_write_still_loads_the_model(toy, tmp_path, monkeypatch, failing):
    path = tmp_path / "toy.json"
    formats.save_model(path, toy)
    if failing == "open":
        # The asset and any sidecar still open for reading.
        monkeypatch.setattr(formats, "open",
                            lambda file, mode="r", **kw: _raise_oserror() if "x" in mode
                            else open(file, mode, **kw), raising=False)
    else:
        monkeypatch.setattr(*{"save": (np, "save"), "replace": (formats.os, "replace")}[failing],
                            _raise_oserror)
    _assert_same_model(toy, formats.load_model(path))
    assert [p.name for p in tmp_path.iterdir()] == ["toy.json"]


def test_an_invalid_asset_writes_no_sidecar(toy, tmp_path):
    path = tmp_path / "toy.json"
    formats.save_model(path, toy)
    formats.load_model(path)
    stale = _sidecar(path).read_bytes()
    # The sidecar of the valid asset does not stand in for the edited one.
    doc = formats.read_json(path)
    doc["vertices"][2][0] = float("nan")
    formats.write_json(path, doc)
    for _ in range(2):
        with pytest.raises(SchemaError, match=r"^invalid model asset: vertices must be finite$"):
            formats.load_model(path)
    assert _sidecar(path).read_bytes() == stale
    _sidecar(path).unlink()
    with pytest.raises(SchemaError, match=r"^invalid model asset: vertices must be finite$"):
        formats.load_model(path)
    assert [p.name for p in tmp_path.iterdir()] == ["toy.json"]


def _write_obj_rows(path, vertices, faces):
    """Reference writer: one f-string write per vertex and face row."""
    with open(path, "w", encoding="utf-8") as f:
        for v in np.asarray(vertices, dtype=np.float64):
            f.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for face in np.asarray(faces, dtype=np.int64):
            f.write(f"f {face[0] + 1} {face[1] + 1} {face[2] + 1}\n")


def test_write_obj(tmp_path):
    path = tmp_path / "mesh.obj"
    formats.write_obj(path, np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                      formats.obj_face_lines(np.array([[0, 1, 2]])))
    lines = path.read_text().splitlines()
    assert lines[0] == "v 0.0 0.5 1.0"
    assert lines[-1] == "f 1 2 3"

    # Floats whose shortest repr is unusual: signed zero, a subnormal,
    # exponent forms and a sum that is not its decimal literal.
    vertices = np.array([[-0.0, 5e-324, 1e22], [0.1 + 0.2, 1e16, -1.5], [1e-7, 123456.789, 2.0]])
    faces = np.array([[0, 1, 2], [2, 1, 0]])
    reference = tmp_path / "reference.obj"
    formats.write_obj(path, vertices, formats.obj_face_lines(faces))
    _write_obj_rows(reference, vertices, faces)
    assert path.read_bytes() == reference.read_bytes()
    assert path.read_text().splitlines()[:2] == ["v -0.0 5e-324 1e+22",
                                                 "v 0.30000000000000004 1e+16 -1.5"]


def test_pose_obj_files_match_the_row_writer(toy, tmp_path, rng):
    # `pose` formats the face block once and writes it into every frame's file.
    asset = tmp_path / "toy.json"
    formats.save_model(asset, toy)
    frames = [(i, WholeBodyParams(rng.normal(scale=0.2, size=3),
                                  rng.normal(scale=0.2, size=(51, 3)),
                                  ShapeParams(rng.normal(scale=0.1, size=10)),
                                  WeakPerspectiveCamera.identity()), None)
              for i in (0, 1, 5)]
    params = tmp_path / "params.json"
    formats.write_json(params, formats.params_to_doc(frames))
    assert main(["pose", str(asset), str(params), str(tmp_path / "joints.json"),
                 "--obj", str(tmp_path / "mesh.obj")]) == 0
    reference = tmp_path / "reference.obj"
    for i, p, _ in frames:
        # A frame posed in a batch has the bits of the frame posed alone.
        _write_obj_rows(reference, pose_mesh(toy, p.pose(), p.beta_w), toy.faces)
        assert (tmp_path / f"mesh_{i:06d}.obj").read_bytes() == reference.read_bytes()


def _stdlib_dumps(doc):
    """The layout `canonical_dumps` reproduces, from the standard library."""
    return json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\n"


SCALARS = [0, -7, 2 ** 70, -(2 ** 70), True, False, None, 0.5, -0.0, 5e-324, 1e22, 0.1 + 0.2,
           float("nan"), float("inf"), float("-inf"), np.float64(-2.75), np.float64("nan"),
           "", "plain", 'a "quoted" word', "[1, 2]", "{x: [y]}", "a, b", "line\nbreak\ttab",
           "back\\slash", "caf\u00e9 \u2603 \U0001d11e", "null"]


def _random_doc(rng, depth):
    """A document of scalars, flat lists, rows, mixed lists and dicts, nested
    up to `depth`, with tuples in place of some lists."""
    kind = int(rng.integers(5)) if depth else 0
    size = int(rng.integers(5))
    if kind == 0:
        return SCALARS[rng.integers(len(SCALARS))] if rng.uniform() < 0.5 else float(rng.normal())
    if kind == 1:
        items = [_random_doc(rng, 0) for _ in range(size)]
    elif kind == 2:
        items = [[_random_doc(rng, 0) for _ in range(int(rng.integers(4)))] for _ in range(size)]
    elif kind == 3:
        items = [_random_doc(rng, depth - 1) for _ in range(size)]
    else:
        return {str(_random_doc(rng, 0)): _random_doc(rng, depth - 1) for _ in range(size)}
    return tuple(items) if rng.uniform() < 0.2 else items


EDGE_DOCS = [
    # empty, ragged and mixed-depth lists, and tuples
    [], (), {}, [[]], [[], []], [[1], []], [[], [1]], [1, [[2]]], [[1, [2]], [3]], [[1], [2, [3]]],
    [[[1, 2], [3]], [[4]]], [[1, 2], (3, 4)], ((1,), [2.5]), [None, [None], [[None]]],
    # strings and dicts inside rows
    [[1, "a]"], [2]], [["[", "]"], ["],\n  ["]], [[{"a": 1}], [2]], [[2], [{"a": 1}]],
    [[{}], [1]], [[1], [{}]], [{}], {"a": {}, "b": [], "c": [[]]},
    # keys that are not strings, and unsorted keys
    {2: "b", 1: [1.5]}, {0.5: [1], -1.5: None}, {True: [1]}, {None: {"x": [[2]]}}, {"b": 1, "a": 2},
    [[float("nan"), float("inf")], [-0.0, 2 ** 70]],
]


def test_canonical_dumps_is_the_stdlib_layout():
    for doc in EDGE_DOCS + SCALARS:
        assert formats.canonical_dumps(doc) == _stdlib_dumps(doc), doc
    for seed in range(300):
        doc = _random_doc(np.random.default_rng(seed), depth=4)
        assert formats.canonical_dumps(doc) == _stdlib_dumps(doc), seed


def test_every_cli_document_is_the_stdlib_layout(tmp_path, rng):
    def run(*argv):
        return main([str(a) for a in argv])

    def pose(rows):
        return (rng.normal(size=3), rng.normal(scale=0.2, size=(rows, 3)),
                ShapeParams(rng.normal(scale=0.1, size=10)), _camera(rng))

    small, large = tmp_path / "small.json", tmp_path / "large.json"
    assert run("gen-toy", small) == 0
    assert run("gen-toy", large, "--size-class", "large") == 0
    model = formats.load_model(small)
    # frame 1 misses its right hand
    predictions = tmp_path / "predictions.json"
    formats.write_json(predictions, formats.predictions_to_doc(
        [(i, BodyPrediction(*pose(21)), HandPrediction("left", *pose(15)),
          HandPrediction("right", *pose(15)) if i == 0 else None) for i in (0, 1)]))
    fused, joints = tmp_path / "fused.json", tmp_path / "joints.json"
    assert run("integrate", small, predictions, fused) == 0
    assert run("pose", small, fused, joints) == 0
    keypoints = tmp_path / "keypoints.json"
    frames = formats.params_from_doc(formats.read_json(fused))
    formats.write_json(keypoints, formats.keypoints_to_doc(
        [(i, project(p.cam_w, pose_joints(model, p.pose(), p.beta_w)[:52]), None)
         for i, p, _ in frames]))
    config = tmp_path / "config.json"
    formats.write_json(config, {"flip_width": 256.0})
    assert run("prep", keypoints, config, tmp_path / "prepped.json") == 0
    assert run("fit", small, fused, keypoints, tmp_path / "fitted.json", "--iters", "2") == 0
    assert run("eval", joints, joints, tmp_path / "report.json") == 0
    written = sorted(tmp_path.glob("*.json"))
    assert len(written) == 10
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == _stdlib_dumps(json.loads(text)), path.name
    # params without and with fit extras, keypoints with a null confidence
    assert formats.read_json(fused)["frames"][0]["cost_trace"] is None
    assert formats.read_json(tmp_path / "fitted.json")["frames"][0]["cost_trace"] is not None
    assert formats.read_json(tmp_path / "prepped.json")["frames"][0]["confidence"] is None


@pytest.mark.parametrize("bad", [np.int64(3), np.zeros(2)])
def test_canonical_dumps_rejects_what_json_rejects(bad):
    for doc in (bad, [bad], [1.0, [bad]], [[1.0, bad]], {"a": bad}, {"a": [[bad]]}):
        with pytest.raises(TypeError):
            _stdlib_dumps(doc)
        with pytest.raises(TypeError):
            formats.canonical_dumps(doc)


def test_canonical_dumps_sorted_keys():
    text = formats.canonical_dumps({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


def test_docs_examples_are_the_writers_bytes():
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    examples = {}
    for block in re.findall(r"```json\n(.*?)```", text, flags=re.S):
        try:
            examples[json.loads(block)["format"]] = block
        except ValueError:
            continue    # an elided sketch, not a whole file
    written = {
        formats.KEYPOINTS_FORMAT: formats.keypoints_to_doc(
            [(0, [[12.5, 40.0], [13.25, 41.5]], [1.0, 0.5])]),
        formats.PARAMS_FORMAT: formats.params_to_doc(
            [(0, WholeBodyParams([0.0, 0.0, 0.1], np.zeros((2, 3)), ShapeParams([0.25]),
                                 WeakPerspectiveCamera(300.0, [128.0, 128.0])),
              {"cost_trace": [0.5, 0.25], "final_rms_px": 0.125, "status": "ok",
               "accepted_steps": 2, "rejected_steps": 0})]),
        formats.JOINTS_FORMAT: formats.joints_to_doc([(0, [[0.0, 0.1, 0.2]])]),
    }
    assert sorted(examples) == sorted(written)
    for fmt, doc in written.items():
        assert examples[fmt] == formats.canonical_dumps(doc)
