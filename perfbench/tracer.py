"""Call-site timing wrappers installed on mocapkit from outside the program.

``Tracer.install()`` replaces each named function, wherever a loaded
``mocapkit`` module binds it (``from .model import pose_joints`` included),
by a wrapper that records calls and self time on a parent stack.
``uninstall()`` puts the originals back.  A name the program no longer
defines is reported as absent instead of failing the run.

Self time of a span is its duration minus the durations of the spans it
called, so the self times of one command add up exactly to its root span.
"""

import sys
import time

import numpy as np

SPANS = [
    ("formats", "load_model"),
    ("formats", "read_json"),
    ("formats", "write_json"),
    ("formats", "params_from_doc"),
    ("formats", "params_to_doc"),
    ("formats", "predictions_from_doc"),
    ("formats", "keypoints_from_doc"),
    ("formats", "joints_from_doc"),
    ("formats", "joints_to_doc"),
    ("formats", "write_obj"),
    ("integration", "copy_paste"),
    ("kinematics", "gamma_global_to_local"),
    ("fitting", "fit"),
    ("fitting", "fit_jacobian"),
    ("fitting", "_residuals"),
    ("fitting", "temporal_smooth"),
    ("model", "pose_joints"),
    ("model", "pose_mesh"),
    ("model", "shape_template"),
    ("kinematics", "forward_kinematics"),
    ("rotations", "rodrigues"),
    ("_kernels", "rodrigues_batch"),
    ("_kernels", "fk_chain"),
    ("_kernels", "lbs"),
    ("camera", "project"),
    ("metrics", "pck_curve"),
    ("metrics", "auc"),
]
ROOTS = ["cli.fit", "cli.integrate", "cli.pose", "cli.eval"]
# Metric names must start with a letter, so `_kernels` spans are named `kernels.*`.
SPAN_NAMES = ROOTS + [f"{m.lstrip('_')}.{f}" for m, f in SPANS]


def _batch(arr, unbatched_ndim):
    """Leading dimension of a batched array, 1 for an unbatched one."""
    arr = np.asarray(arr)
    return int(arr.shape[0]) if arr.ndim > unbatched_ndim else 1


class Tracer:
    """Per-span call counts and self times, plus the derived counters below.

    * ``pose_evals``: forward-model evaluations, counted at the outermost
      ``model.pose_joints`` / ``model.pose_mesh`` call by the pose's leading
      dimension.
    * ``lbs_flops``: nominal dense flops of ``kernels.lbs``,
      ``24 N J + 18 N`` per pose (blend J affine 3x4 transforms per vertex,
      then apply one), from the argument shapes.
    * ``fit_attempts`` / ``fit_accepted``: damped-solve attempts are the
      ``fitting._residuals`` calls made outside ``fit_jacobian`` after the
      first one of each fit; an attempt is accepted when its cost is finite
      and no larger than the last accepted cost, as ``fitting.fit`` decides.
    """

    def __init__(self):
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.self_ns = {name: 0 for name in SPAN_NAMES}
        self.absent = []
        self.pose_evals = 0
        self.lbs_flops = 0
        self.fit_attempts = 0
        self.fit_accepted = 0
        self.root_ns = 0
        self._stack = []
        self._restore = []
        self._model_depth = 0
        self._jacobian_depth = 0
        self._fit_cost = None

    # -- hooks for the derived counters ------------------------------------

    def _enter_pose(self, args, kwargs):
        if self._model_depth == 0:
            pose = args[1] if len(args) > 1 else kwargs.get("pose")
            self.pose_evals += _batch(getattr(pose, "joint_poses", pose), 2)
        self._model_depth += 1

    def _exit_pose(self, result):
        self._model_depth -= 1

    def _enter_lbs(self, args, kwargs):
        if len(args) < 3:
            return
        weights, rots = np.asarray(args[0]), np.asarray(args[2])
        n, j = weights.shape[-2:]
        self.lbs_flops += (24 * n * j + 18 * n) * _batch(rots, 3)

    def _enter_fit(self, args, kwargs):
        self._fit_cost = None

    def _enter_jacobian(self, args, kwargs):
        self._jacobian_depth += 1

    def _exit_jacobian(self, result):
        self._jacobian_depth -= 1

    def _exit_residuals(self, r):
        if self._jacobian_depth:
            return
        r = np.asarray(r)
        if r.ndim != 1:
            return
        cost = float(r @ r)
        if self._fit_cost is None:
            self._fit_cost = cost
            return
        self.fit_attempts += 1
        if np.isfinite(cost) and cost <= self._fit_cost:
            self.fit_accepted += 1
            self._fit_cost = cost

    def _hooks(self, name):
        return {
            "model.pose_joints": (self._enter_pose, self._exit_pose),
            "model.pose_mesh": (self._enter_pose, self._exit_pose),
            "kernels.lbs": (self._enter_lbs, None),
            "fitting.fit": (self._enter_fit, None),
            "fitting.fit_jacobian": (self._enter_jacobian, self._exit_jacobian),
            "fitting._residuals": (None, self._exit_residuals),
        }.get(name, (None, None))

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        before, after = self._hooks(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = None
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_ns[name] += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    tracer.root_ns += dt
                if after is not None:
                    after(result)

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    def root(self, command, fn, *args):
        """Run fn(*args) as the root span ``cli.<command>``."""
        return self._wrap(f"cli.{command}", fn)(*args)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mocapkit" or n.startswith("mocapkit."))]
        for mod_name, attr in SPANS:
            name = f"{mod_name.lstrip('_')}.{attr}"
            mod = sys.modules.get(f"mocapkit.{mod_name}")
            original = getattr(mod, attr, None)
            if not callable(original) or hasattr(original, "perfbench_span"):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._restore.append((m, key, original))

    def uninstall(self):
        for m, key, original in reversed(self._restore):
            setattr(m, key, original)
        self._restore.clear()

    def counts(self):
        """Everything that must repeat exactly for one input."""
        return {"calls": dict(self.calls), "pose_evals": self.pose_evals,
                "lbs_flops": self.lbs_flops, "fit_attempts": self.fit_attempts,
                "fit_accepted": self.fit_accepted}
