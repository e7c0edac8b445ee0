"""Independent forward model used to make inputs and to check mocapkit's outputs.

It reads the model asset JSON directly and poses it with one 4x4 homogeneous
transform per joint, multiplied down the skeleton from the root.  It shares
no code with mocapkit, so a refactor of mocapkit's kinematics, skinning or
file formats cannot silently change the reference it is checked against.

Conventions follow mocapkit's documented model: every joint rotates about its
rest position, the root is additionally rotated by the global orientation,
vertices are skinned by linear blend skinning and skeleton joints are the
first ``J`` rows of the joint regressor applied to the posed vertices.
"""

import json
import time

import numpy as np


def rodrigues(aa):
    """Rotation matrix of one axis-angle vector (identity for a zero vector)."""
    aa = np.asarray(aa, dtype=np.float64)
    angle = float(np.sqrt(aa @ aa))
    if angle < 1e-12:
        return np.eye(3)
    x, y, z = aa / angle
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def axis_angle(R):
    """Axis-angle vector of a rotation matrix whose angle is well below pi."""
    angle = np.arccos(np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0))
    if angle < 1e-12:
        return np.zeros(3)
    skew = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return skew / (2.0 * np.sin(angle)) * angle


def _about(R, point):
    """4x4 transform rotating by R about a fixed point."""
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = point - R @ point
    return T


def _dense(sparse):
    m = np.zeros(tuple(sparse["shape"]))
    for r, c, v in sparse["triplets"]:
        m[r, c] = v
    return m


class ReferenceModel:
    """A model asset document, posed by an explicit per-joint 4x4 chain."""

    def __init__(self, doc):
        self.vertices = np.asarray(doc["vertices"], dtype=np.float64)
        self.num_faces = len(doc["faces"])
        self.shape_basis = np.asarray(doc["shape_basis"], dtype=np.float64)
        self.weights = _dense(doc["skin_weights"])
        self.parents = [int(p) for p in doc["parents"]]
        self.num_joints = len(self.parents)
        self.regressor = _dense(doc["joint_regressor"])[: self.num_joints]
        self.num_betas = self.shape_basis.shape[2]
        self.hand_joint_ids = {s: [int(j) for j in ids] for s, ids in doc["hand_joint_ids"].items()}
        finger = {j for ids in self.hand_joint_ids.values() for j in ids[1:]}
        # Rows of the (J-1, 3) pose block: row r drives joint r + 1.
        self.body_rows = [r for r in range(self.num_joints - 1) if r + 1 not in finger]

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    def finger_rows(self, side):
        return [j - 1 for j in self.hand_joint_ids[side][1:]]

    def wrist_row(self, side):
        return self.hand_joint_ids[side][0] - 1

    def chain(self, phi, local_rots, beta):
        """World 4x4 per joint; local_rots is (J-1, 3, 3) for the non-root joints."""
        shaped = self.vertices + self.shape_basis @ beta
        rest = self.regressor @ shaped
        G = np.empty((self.num_joints, 4, 4))
        G[0] = _about(rodrigues(phi), rest[0])
        for j in range(1, self.num_joints):
            G[j] = G[self.parents[j]] @ _about(local_rots[j - 1], rest[j])
        return G, shaped

    def joints(self, phi, local_rots, beta):
        """Posed skeleton joints (J, 3)."""
        G, shaped = self.chain(phi, local_rots, beta)
        homo = np.hstack([shaped, np.ones((shaped.shape[0], 1))])
        per_joint = np.einsum("jab,nb->nja", G[:, :3, :], homo)
        verts = np.einsum("nj,nja->na", self.weights, per_joint)
        return self.regressor @ verts

    def joints_from_axis_angles(self, phi, theta, beta):
        return self.joints(phi, np.array([rodrigues(a) for a in theta]), beta)


def calibration_seconds(ref, reps):
    """Wall time of a fixed amount of work that mocapkit's code never touches.

    The work mixes numpy on small arrays (posing ``ref``) with Python float
    formatting, like the workloads; only the machine's speed changes it.
    """
    theta = 0.2 * np.cos(np.arange((ref.num_joints - 1) * 3, dtype=np.float64)).reshape(-1, 3)
    beta = np.zeros(ref.num_betas)
    t0 = time.perf_counter()
    for _ in range(reps):
        json.dumps(ref.joints_from_axis_angles(theta[0], theta, beta).tolist())
    return time.perf_counter() - t0


def project(scale, translation, points):
    """Weak-perspective projection: scale * (x, y) + translation."""
    return scale * np.asarray(points)[:, :2] + np.asarray(translation)
