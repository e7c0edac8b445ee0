"""JSON file formats: model assets, predictions, keypoints, parameters, joints.

All files are schema-versioned JSON with sorted keys, so write→read→write
round trips are byte-identical (Python's float repr is shortest-round-trip).
Sparse matrices are stored as (row, col, value) triplets.  A model asset's
validated arrays are kept in a binary sidecar beside it, keyed by the digest
of the asset's bytes, so that an asset is parsed once (`load_model`).
"""

import contextlib
import hashlib
import itertools
import json
import os

import numpy as np

from .camera import WeakPerspectiveCamera
from .errors import SchemaError
from .integration import BodyPrediction, HandPrediction, WholeBodyParams
from .kinematics import SkeletonTree
from .model import ParametricModel, ShapeParams

SCHEMA_VERSION = 1
ASSET_DIR_ENV = "MOCAPKIT_ASSET_DIR"

MODEL_FORMAT = "mocapkit-model"
PREDICTIONS_FORMAT = "mocapkit-predictions"
KEYPOINTS_FORMAT = "mocapkit-keypoints"
PARAMS_FORMAT = "mocapkit-params"
JOINTS_FORMAT = "mocapkit-joints"


def canonical_dumps(doc):
    """``json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": ")) + "\\n"``,
    byte for byte.

    With `indent` set, `json` lays the text out with its pure-Python encoder.
    Here Python walks only the dicts and the lists that hold containers, and
    each run of scalars (a flat list, or a list of non-empty flat lists) is
    one call of the C encoder, with the indentation in its item separator.
    """
    return _dumps(doc, "\n") + "\n"


_CONTAINERS = (dict, list, tuple)


def _scalars(items):
    """Whether no item of `items` is a dict, list or tuple."""
    return not any(issubclass(k, _CONTAINERS) for k in set(map(type, items)))


def _dumps(value, newline):
    """`value` as `canonical_dumps` lays it out after the line break and
    indentation `newline`, which also comes before its closing bracket."""
    inner = newline + " "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items())
        # One call lays out every key and scalar value.  The encoder escapes
        # line breaks in strings, so a raw one is its item separator.
        entries = json.dumps({k: None if isinstance(v, _CONTAINERS) else v for k, v in items},
                             separators=("\n", ": "))[1:-1].split("\n")
        body = ("," + inner).join(e[:-len("null")] + _dumps(v, inner)
                                  if isinstance(v, _CONTAINERS) else e
                                  for e, (_, v) in zip(entries, items))
        return f"{{{inner}{body}{newline}}}"
    if not isinstance(value, (list, tuple)):
        return json.dumps(value)
    if not value:
        return "[]"
    if _scalars(value):
        text = json.dumps(value, separators=("," + inner, ": "))
        return f"[{inner}{text[1:-1]}{newline}]"
    # A first row that holds containers would only waste the encoder's call.
    if all(issubclass(k, (list, tuple)) for k in set(map(type, value))) and _scalars(value[0]):
        # Every row opens with its own "[", so one per row leaves none for a
        # nested list or a string; with no "[]" no row is empty, and with no
        # "{" none holds a dict.  Strings hold no raw line break, so the row
        # separator below is found between rows alone.
        deeper = inner + " "
        text = json.dumps(value, separators=("," + deeper, ": "))
        if "{" not in text and "[]" not in text and text.count("[") == len(value) + 1:
            rows = text[2:-2].replace(f"],{deeper}[", f"{inner}],{inner}[{deeper}")
            return f"[{inner}[{deeper}{rows}{inner}]{newline}]"
    body = ("," + inner).join(_dumps(v, inner) for v in value)
    return f"[{inner}{body}{newline}]"


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as f:
        f.write(canonical_dumps(doc))


@contextlib.contextmanager
def _json_errors(path):
    """Raise a SchemaError naming the file `path` for text that is not UTF-8 JSON."""
    try:
        yield
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise SchemaError(f"{path}: not a UTF-8 JSON document ({e})") from e


def read_json(path):
    """The JSON document in the file `path`.  A file that is not UTF-8 JSON
    raises a SchemaError naming it."""
    with open(path, "r", encoding="utf-8") as f, _json_errors(path):
        return json.load(f)


def resolve_asset_path(path):
    """Return `path`, or its location under $MOCAPKIT_ASSET_DIR if not found here."""
    if os.path.exists(path) or os.path.isabs(path):
        return path
    asset_dir = os.environ.get(ASSET_DIR_ENV)
    if asset_dir:
        candidate = os.path.join(asset_dir, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _check_header(doc, expected_format, known_keys):
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    if doc.get("format") != expected_format:
        raise SchemaError(f"expected format {expected_format!r}, got {doc.get('format')!r}")
    if type(doc.get("schema_version")) is not int or doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')!r}")
    unknown = set(doc) - set(known_keys) - {"format", "schema_version"}
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")


def _triplets(matrix):
    rows, cols = np.nonzero(matrix)
    return [[int(r), int(c), float(matrix[r, c])] for r, c in zip(rows, cols)]


def _from_triplets(triplets, shape, name):
    """The dense matrix of `shape` with the (row, col, value) `triplets` of the
    field `name`.  A shape that is not two integers >= 0, an index that is not
    an integer within it, or a value that is not a number raises a ValueError."""
    if len(shape) != 2 or any(type(n) is not int or n < 0 for n in shape):
        raise ValueError(f"sparse shape {list(shape)} is not two integers >= 0")
    m = np.zeros(shape)
    for r, c, _ in triplets:
        if not (type(r) is int and type(c) is int and 0 <= r < shape[0] and 0 <= c < shape[1]):
            raise ValueError(f"triplet index ({r!r}, {c!r}) is not an integer pair within {shape}")
    if triplets:
        rows, cols, values = zip(*triplets)
        m[rows, cols] = _float_array(values, f"{name} triplet values")
    return m


def _indices(values, name):
    """`values`, nested lists of integers, as an int64 array; a cast would truncate a fraction."""
    arr = np.asarray(values, dtype=object)
    bad = [v for v in arr.ravel() if type(v) is not int]
    if bad:
        raise ValueError(f"{name} entry {bad[0]!r} is not an integer")
    try:
        return arr.astype(np.int64)
    except OverflowError as e:
        raise ValueError(f"{name} has an entry beyond int64") from e


def _index_lists(doc, name):
    """The object `doc[name]` of flat integer lists, each as a list of ints."""
    if not isinstance(doc[name], dict):
        raise ValueError(f"{name} must be an object")
    for side, ids in doc[name].items():
        if not isinstance(ids, list) or any(isinstance(i, list) for i in ids):
            raise ValueError(f"{name}[{side}] must be a list of integers")
    return {s: _indices(v, f"{name}[{s}]").tolist() for s, v in doc[name].items()}


def _floats(arr):
    return np.asarray(arr, dtype=np.float64).tolist()


# The types a JSON number reads as; a null in a list reads as NaN, which the
# field's own checks then see.
_NUMBERS = {int, float}
_ENTRIES = _NUMBERS | {type(None)}


def _float_array(values, name, scalar=False):
    """`values`, nested lists of JSON numbers (one number if `scalar`), as a
    float64 array.  Every reader's float fields go through here.  A ragged
    list, a string (even `"0.5"`), a boolean or an object raises a ValueError
    naming the field `name`.  The types are read by C iterators, with no
    Python loop over the entries."""
    kind = "a number" if scalar else "a regular array of numbers"
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValueError(f"{name} must be {kind}") from e
    if scalar:
        numbers = type(values) in _NUMBERS
    else:
        # A regular array of `ndim` axes is lists nested `ndim` deep.
        entries = [values]
        for _ in range(arr.ndim):
            entries = itertools.chain.from_iterable(entries)
        numbers = _ENTRIES.issuperset(map(type, entries))
    if not numbers:
        raise ValueError(f"{name} must be {kind}")
    return arr


# ---------------------------------------------------------------------------
# Model asset

_MODEL_KEYS = (
    "vertices", "faces", "shape_basis", "skin_weights", "joint_regressor",
    "parents", "joint_names", "fingertip_vertex_ids", "hand_joint_ids",
    "reference_knuckle_length", "pose_correctives",
)


def model_to_doc(model):
    n = model.num_vertices
    j = model.num_joints
    return {
        "format": MODEL_FORMAT,
        "schema_version": SCHEMA_VERSION,
        "vertices": _floats(model.template_vertices),
        "faces": model.faces.tolist(),
        "shape_basis": _floats(model.shape_basis),
        "skin_weights": {"shape": [n, j], "triplets": _triplets(model.skin_weights)},
        "joint_regressor": {
            "shape": [model.joint_regressor.shape[0], n],
            "triplets": _triplets(model.joint_regressor),
        },
        "parents": model.tree.parents.tolist(),
        "joint_names": list(model.tree.joint_names),
        "fingertip_vertex_ids": {s: list(map(int, v)) for s, v in model.fingertip_vertex_ids.items()},
        "hand_joint_ids": {s: list(map(int, v)) for s, v in model.hand_joint_ids.items()},
        "reference_knuckle_length": float(model.reference_knuckle_length),
        # Reserved for pose-corrective blendshapes; must stay null for now.
        "pose_correctives": None,
    }


def model_from_doc(doc):
    _check_header(doc, MODEL_FORMAT, _MODEL_KEYS)
    try:
        if doc.get("pose_correctives") is not None:
            raise SchemaError("pose_correctives are reserved and must be null")
        tree = SkeletonTree(_indices(doc["parents"], "parents"), tuple(doc["joint_names"]))
        sw = doc["skin_weights"]
        jr = doc["joint_regressor"]
        # An empty list has no axis of length 3, but it means no faces.
        faces = _indices(doc["faces"], "faces") if doc["faces"] != [] else np.zeros((0, 3), int)
        return ParametricModel(
            template_vertices=_float_array(doc["vertices"], "vertices"),
            faces=faces,
            shape_basis=_float_array(doc["shape_basis"], "shape_basis"),
            skin_weights=_from_triplets(sw["triplets"], tuple(sw["shape"]), "skin_weights"),
            joint_regressor=_from_triplets(jr["triplets"], tuple(jr["shape"]), "joint_regressor"),
            tree=tree,
            fingertip_vertex_ids=_index_lists(doc, "fingertip_vertex_ids"),
            hand_joint_ids=_index_lists(doc, "hand_joint_ids"),
            reference_knuckle_length=float(_float_array(doc["reference_knuckle_length"],
                                                        "reference_knuckle_length", scalar=True)),
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        # `ParametricModel.validate` names its attributes, and the asset's
        # key for `template_vertices` is `vertices`.
        message = str(e).replace("template_vertices", "vertices")
        raise SchemaError(f"invalid model asset: {message}") from e


# The sidecar of asset `a` is `a + CACHE_SUFFIX`: a run of `np.save` records,
# first the bytes of `_CACHE_LAYOUT` and the sha256 of the asset's bytes, then
# the arrays `_CACHE_ARRAYS` and the parents, then the rest of the model as JSON.
CACHE_SUFFIX = ".cache"
_CACHE_LAYOUT = b"mocapkit-model-cache 1 sha256 "
_CACHE_ARRAYS = ("template_vertices", "faces", "shape_basis", "skin_weights", "joint_regressor")


def load_model(path):
    """The model asset in the file `path` (see `resolve_asset_path`).

    The asset is parsed only if its sidecar was not written for the same
    bytes; the parsed model is then written to a new sidecar, unless the
    directory refuses it.
    """
    path = os.fspath(resolve_asset_path(path))
    with open(path, "rb") as f:
        text = f.read()
    key = _CACHE_LAYOUT + hashlib.sha256(text).hexdigest().encode()
    cache = path + CACHE_SUFFIX
    model = _read_cache(cache, key)
    if model is None:
        with _json_errors(path):
            # Rebinding frees the bytes before the parse, as `read_json` does.
            text = text.decode("utf-8")
            doc = json.loads(text)
        del text
        model = model_from_doc(doc)
        _write_cache(cache, key, model)
    return model


def _read_cache(path, key):
    """The model in the sidecar `path` if its first record is `key`, else None."""
    # `read_array` reads `.npy` records alone, where `np.load` would also
    # take a zip archive for one.
    def record():
        return np.lib.format.read_array(f, allow_pickle=False)

    try:
        with open(path, "rb") as f:
            if record().tobytes() != key:
                return None
            *arrays, parents = [record() for _ in range(len(_CACHE_ARRAYS) + 1)]
            rest = json.loads(record().tobytes())
        tree = SkeletonTree(parents, tuple(rest.pop("joint_names")))
        return ParametricModel(**dict(zip(_CACHE_ARRAYS, arrays)), tree=tree, **rest)
    except (OSError, ValueError):
        # Missing or torn: the asset is parsed and the sidecar replaced.
        return None


def _write_cache(path, key, model):
    """Write the sidecar `path` of `model` with the first record `key`, through
    a temporary file.  An OSError leaves no sidecar and no temporary file."""
    rest = {"joint_names": list(model.tree.joint_names),
            "fingertip_vertex_ids": model.fingertip_vertex_ids,
            "hand_joint_ids": model.hand_joint_ids,
            "reference_knuckle_length": model.reference_knuckle_length}
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            for array in [np.frombuffer(key, np.uint8), *(getattr(model, a) for a in _CACHE_ARRAYS),
                          model.tree.parents, np.frombuffer(json.dumps(rest).encode(), np.uint8)]:
                np.save(f, array, allow_pickle=False)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def save_model(path, model):
    write_json(path, model_to_doc(model))


# ---------------------------------------------------------------------------
# Cameras, shapes, frames

def _cam_to_doc(cam):
    return {"scale": float(cam.scale), "translation": _floats(cam.translation)}


def _cam_from_doc(doc):
    return WeakPerspectiveCamera(_float_array(doc["scale"], "camera scale", scalar=True),
                                 _float_array(doc["translation"], "camera translation"))


def _pose_to_doc(phi, theta, beta, cam):
    return {"phi": _floats(phi), "theta": _floats(theta), "beta": _floats(beta.beta),
            "camera": _cam_to_doc(cam)}


def _pose_from_doc(record):
    """``(phi, theta, ShapeParams, camera)`` of a body, hand or params record."""
    return (_float_array(record["phi"], "phi"), _float_array(record["theta"], "theta"),
            ShapeParams(_float_array(record["beta"], "beta")), _cam_from_doc(record["camera"]))


def _frames_doc(fmt, records):
    return {"format": fmt, "schema_version": SCHEMA_VERSION, "frames": records}


def _read_frames(doc, expected_format, read):
    """`read(record)` of every frame record of `doc`, in order.

    A record that `read` cannot take raises a SchemaError whose message
    starts with ``frame i: ``.
    """
    _check_header(doc, expected_format, ("frames",))
    frames = doc.get("frames")
    if not isinstance(frames, list):
        raise SchemaError("'frames' must be a list")
    if any(not isinstance(f, dict) for f in frames):
        raise SchemaError("every frame record must be an object")
    indices = [f.get("frame") for f in frames]
    if any(type(i) is not int for i in indices):
        raise SchemaError("every frame record needs an integer 'frame' index")
    if any(b <= a for a, b in zip(indices, indices[1:])):
        raise SchemaError("frame indices must be strictly increasing")
    out = []
    for f in frames:
        try:
            out.append(read(f))
        except KeyError as e:
            raise SchemaError(f"frame {f['frame']}: missing field {e}") from e
        except (TypeError, ValueError) as e:
            raise SchemaError(f"frame {f['frame']}: {e}") from e
    return out


# ---------------------------------------------------------------------------
# Predictions

def _hand_to_doc(hand):
    return {"side": hand.side, **_pose_to_doc(hand.phi_h, hand.theta_h, hand.beta_h, hand.cam_h)}


def predictions_to_doc(frames):
    """frames: list of (frame_index, BodyPrediction, left HandPrediction?, right?)."""
    return _frames_doc(PREDICTIONS_FORMAT, [
        {"frame": int(i),
         "body": _pose_to_doc(body.phi_b, body.theta_b, body.beta_b, body.cam_b),
         "left_hand": None if left is None else _hand_to_doc(left),
         "right_hand": None if right is None else _hand_to_doc(right)}
        for i, body, left, right in frames])


def _prediction_from_doc(f):
    if f.get("body") is None:
        raise SchemaError("body prediction is required")
    body = BodyPrediction(*_pose_from_doc(f["body"]))
    hands = [None if f.get(k) is None else HandPrediction(f[k]["side"], *_pose_from_doc(f[k]))
             for k in ("left_hand", "right_hand")]
    return (f["frame"], body, *hands)


def predictions_from_doc(doc):
    return _read_frames(doc, PREDICTIONS_FORMAT, _prediction_from_doc)


# ---------------------------------------------------------------------------
# Keypoints (2D or 3D points per frame)

def keypoints_to_doc(frames):
    """frames: list of (frame_index, points (K,2|3), confidence (K,) or None)."""
    return _frames_doc(KEYPOINTS_FORMAT, [
        {"frame": int(i), "points": _floats(points),
         "confidence": None if conf is None else _floats(conf)}
        for i, points, conf in frames])


def _keypoints_from_doc(f):
    points = _float_array(f["points"], "points")
    if points.ndim != 2 or points.shape[1] not in (2, 3):
        raise SchemaError("points must be (K, 2) or (K, 3)")
    conf = f.get("confidence")
    conf = None if conf is None else _float_array(conf, "confidence")
    if conf is not None and conf.shape != (points.shape[0],):
        raise SchemaError("confidence length mismatch")
    return f["frame"], points, conf


def keypoints_from_doc(doc):
    return _read_frames(doc, KEYPOINTS_FORMAT, _keypoints_from_doc)


# ---------------------------------------------------------------------------
# Whole-body parameters

# The fields a fit adds to each frame (`fitting.FitResult`), each with the
# function that writes its value; a frame no fit made has null in them.
FIT_FIELDS = {"cost_trace": _floats, "final_rms_px": float, "status": str,
              "accepted_steps": int, "rejected_steps": int}


def params_to_doc(frames):
    """frames: list of (frame_index, WholeBodyParams, extras dict or None).

    extras may carry any of the `FIT_FIELDS` of a fit.
    """
    out = []
    for i, params, extras in frames:
        extras = extras or {}
        out.append({
            "frame": int(i),
            **_pose_to_doc(params.phi_w, params.theta_w, params.beta_w, params.cam_w),
            **{k: write(extras[k]) if k in extras else None for k, write in FIT_FIELDS.items()},
        })
    return _frames_doc(PARAMS_FORMAT, out)


def _params_from_doc(f):
    params = WholeBodyParams(*_pose_from_doc(f))
    extras = {}
    if f.get("cost_trace") is not None:
        extras["cost_trace"] = _float_array(f["cost_trace"], "cost_trace")
    if f.get("final_rms_px") is not None:
        extras["final_rms_px"] = float(_float_array(f["final_rms_px"], "final_rms_px", scalar=True))
    if f.get("status") is not None:
        if not isinstance(f["status"], str):
            raise ValueError("status must be a string")
        extras["status"] = f["status"]
    for name in ("accepted_steps", "rejected_steps"):
        if f.get(name) is not None:
            if type(f[name]) is not int or f[name] < 0:
                raise ValueError(f"{name} must be an integer >= 0")
            extras[name] = f[name]
    return f["frame"], params, extras


def params_from_doc(doc):
    return _read_frames(doc, PARAMS_FORMAT, _params_from_doc)


# ---------------------------------------------------------------------------
# Joints (3D joint locations per frame, e.g. cmd_pose output / cmd_eval input)

def joints_to_doc(frames):
    return _frames_doc(JOINTS_FORMAT, [{"frame": int(i), "joints": _floats(j)} for i, j in frames])


def _joints_from_doc(f):
    joints = _float_array(f["joints"], "joints")
    if joints.ndim != 2 or joints.shape[1] not in (2, 3):
        raise SchemaError("joints must be (K, 2) or (K, 3)")
    if not np.isfinite(joints).all():
        raise SchemaError("joints must be finite")
    return f["frame"], joints


def joints_from_doc(doc):
    return _read_frames(doc, JOINTS_FORMAT, _joints_from_doc)


# ---------------------------------------------------------------------------
# OBJ export

def obj_face_lines(faces):
    """The 1-based `f a b c` lines of the (F, 3) vertex indices `faces`."""
    f = np.asarray(faces, dtype=np.int64) + 1
    return ("f %d %d %d\n" * len(f)) % tuple(f.ravel().tolist())


def write_obj(path, vertices, face_lines):
    """Write `v x y z` lines (shortest round-trip floats), then `face_lines`
    from `obj_face_lines`, in one write."""
    v = np.asarray(vertices, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as out:
        out.write(("v %r %r %r\n" * len(v)) % tuple(v.ravel().tolist()) + face_lines)
