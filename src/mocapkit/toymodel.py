"""Procedural articulated toy model: a small stand-in for licensed full-scale assets.

52 joints (22 body including both wrists, plus 15 finger joints per hand),
6 mesh vertices clustered around every joint plus one fingertip vertex per
finger, a 10-dimensional shape basis, and a row-stochastic joint regressor.
The model is mirror-symmetric in x (left = +x).
"""

import numpy as np

from .errors import DimensionError
from .kinematics import SkeletonTree
from .model import ParametricModel

BODY_JOINTS = [
    # name, parent, rest position (left = +x, y up, z forward)
    ("pelvis", -1, (0.0, 0.0, 0.0)),
    ("left_hip", 0, (0.10, -0.05, 0.0)),
    ("right_hip", 0, (-0.10, -0.05, 0.0)),
    ("spine1", 0, (0.0, 0.12, 0.0)),
    ("left_knee", 1, (0.10, -0.45, 0.0)),
    ("right_knee", 2, (-0.10, -0.45, 0.0)),
    ("spine2", 3, (0.0, 0.26, 0.0)),
    ("left_ankle", 4, (0.10, -0.85, 0.0)),
    ("right_ankle", 5, (-0.10, -0.85, 0.0)),
    ("spine3", 6, (0.0, 0.40, 0.0)),
    ("left_foot", 7, (0.10, -0.90, 0.10)),
    ("right_foot", 8, (-0.10, -0.90, 0.10)),
    ("neck", 9, (0.0, 0.55, 0.0)),
    ("left_collar", 9, (0.08, 0.50, 0.0)),
    ("right_collar", 9, (-0.08, 0.50, 0.0)),
    ("head", 12, (0.0, 0.68, 0.0)),
    ("left_shoulder", 13, (0.18, 0.50, 0.0)),
    ("right_shoulder", 14, (-0.18, 0.50, 0.0)),
    ("left_elbow", 16, (0.42, 0.50, 0.0)),
    ("right_elbow", 17, (-0.42, 0.50, 0.0)),
    ("left_wrist", 18, (0.65, 0.50, 0.0)),
    ("right_wrist", 19, (-0.65, 0.50, 0.0)),
]

LEFT_WRIST = 20
RIGHT_WRIST = 21

# Finger chains hang off the wrist; z offsets spread the fingers.
FINGERS = [
    ("index", 0.020),
    ("middle", 0.000),
    ("pinky", -0.040),
    ("ring", -0.020),
    ("thumb", 0.045),
]
SEGMENT_X = 0.030   # bone length along the finger; middle knuckle = reference
FIRST_X = 0.050     # wrist to first knuckle

NUM_BETAS = 10
CLUSTER_RADIUS = 0.025
SIZE_CLASSES = {"small": 6, "large": 12}


def _build_skeleton():
    names = [n for n, _, _ in BODY_JOINTS]
    parents = [p for _, p, _ in BODY_JOINTS]
    rest = [np.array(r) for _, _, r in BODY_JOINTS]
    hand_joint_ids = {"left": [LEFT_WRIST], "right": [RIGHT_WRIST]}
    for side, wrist, sx in (("left", LEFT_WRIST, 1.0), ("right", RIGHT_WRIST, -1.0)):
        wrist_pos = rest[wrist]
        for fname, dz in FINGERS:
            parent = wrist
            for seg in range(3):
                names.append(f"{side}_{fname}{seg + 1}")
                parents.append(parent)
                rest.append(wrist_pos + np.array([sx * (FIRST_X + SEGMENT_X * seg), 0.0, dz]))
                parent = len(names) - 1
                hand_joint_ids[side].append(parent)
    tree = SkeletonTree(np.array(parents), tuple(names))
    return tree, np.array(rest), hand_joint_ids


def _mirror_joint_map(names):
    """Map each joint to its x-mirrored counterpart (self for centered joints)."""
    idx = {n: i for i, n in enumerate(names)}
    out = np.arange(len(names))
    for i, n in enumerate(names):
        if n.startswith("left_"):
            out[i] = idx["right_" + n[5:]]
        elif n.startswith("right_"):
            out[i] = idx["left_" + n[6:]]
    return out


def gen_toy_model(seed=0, size_class="small"):
    """Deterministic toy ParametricModel; identical seeds give identical assets."""
    if seed < 0:
        raise DimensionError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    if size_class not in SIZE_CLASSES:
        raise DimensionError(f"unknown size class {size_class!r}; choose from {sorted(SIZE_CLASSES)}")
    cluster_size = SIZE_CLASSES[size_class]
    tree, rest, hand_joint_ids = _build_skeleton()
    names = tree.joint_names
    J = tree.num_joints
    mirror = _mirror_joint_map(names)

    # Canonical joints: centered ones and the left side; right clusters are
    # exact x-mirrors of their left counterparts.
    canonical = [j for j in range(J) if mirror[j] >= j]

    # Symmetric offset pairs keep the cluster centroid exactly on the joint;
    # the uniform bound keeps every vertex deterministically nearest to a
    # joint of the correct body part.
    offsets = {}
    for j in canonical:
        o = rng.uniform(-CLUSTER_RADIUS, CLUSTER_RADIUS, size=(cluster_size // 2, 3))
        offsets[j] = np.vstack([o, -o])

    vertices = np.zeros((J * cluster_size, 3))
    basis_raw = {j: rng.normal(scale=0.01, size=(cluster_size, 3, NUM_BETAS)) for j in canonical}
    shape_basis = np.zeros((J * cluster_size, 3, NUM_BETAS))
    flip = np.array([-1.0, 1.0, 1.0])
    for j in range(J):
        rows = slice(j * cluster_size, (j + 1) * cluster_size)
        if mirror[j] >= j:
            vertices[rows] = rest[j] + offsets[j]
            shape_basis[rows] = basis_raw[j]
        else:
            src = mirror[j]
            vertices[rows] = (rest[src] + offsets[src]) * flip
            shape_basis[rows] = basis_raw[src] * flip[None, :, None]

    # Skinning: most cluster vertices bind rigidly to their joint, the last 2
    # blend 0.7/0.3 with the parent.  Root and wrist clusters stay fully
    # rigid so hand crops never carry weight on body joints.
    weights = np.zeros((J * cluster_size, J))
    for j in range(J):
        base = j * cluster_size
        p = tree.parents[j]
        for k in range(cluster_size):
            if k < cluster_size - 2 or p < 0 or j in (LEFT_WRIST, RIGHT_WRIST):
                weights[base + k, j] = 1.0
            else:
                weights[base + k, j] = 0.7
                weights[base + k, p] = 0.3

    # Joint regressor: uniform over the joint's own cluster (centroid = joint).
    regressor = np.zeros((J, J * cluster_size))
    for j in range(J):
        regressor[j, j * cluster_size:(j + 1) * cluster_size] = 1.0 / cluster_size

    # Fingertip vertices: one beyond each distal finger joint, rigidly bound,
    # outside the regressor support.
    fingertip_vertex_ids = {"left": [], "right": []}
    tip_verts = []
    tip_basis = []
    tip_weights = []
    for side, sx in (("left", 1.0), ("right", -1.0)):
        for f, _ in enumerate(FINGERS):
            distal = hand_joint_ids[side][1 + 3 * f + 2]
            fingertip_vertex_ids[side].append(J * cluster_size + len(tip_verts))
            tip_verts.append(rest[distal] + np.array([sx * 0.025, 0.0, 0.0]))
            tip_basis.append(np.zeros((3, NUM_BETAS)))
            w = np.zeros(J)
            w[distal] = 1.0
            tip_weights.append(w)
    vertices = np.vstack([vertices, tip_verts])
    shape_basis = np.concatenate([shape_basis, np.array(tip_basis)], axis=0)
    weights = np.vstack([weights, tip_weights])
    regressor = np.hstack([regressor, np.zeros((J, len(tip_verts)))])

    # Faces: a strip of triangles inside each cluster, plus one per fingertip.
    faces = []
    for j in range(J):
        base = j * cluster_size
        for k in range(cluster_size - 2):
            faces.append((base + k, base + k + 1, base + k + 2))
    for side in ("left", "right"):
        for f, _ in enumerate(FINGERS):
            distal = hand_joint_ids[side][1 + 3 * f + 2]
            tip = fingertip_vertex_ids[side][f]
            base = distal * cluster_size
            faces.append((base, base + 1, tip))

    return ParametricModel(
        template_vertices=vertices,
        faces=np.array(faces, dtype=np.int64),
        shape_basis=shape_basis,
        skin_weights=weights,
        joint_regressor=regressor,
        tree=tree,
        fingertip_vertex_ids=fingertip_vertex_ids,
        hand_joint_ids=hand_joint_ids,
        reference_knuckle_length=SEGMENT_X,
    )
