"""mocapkit: parametric whole-body/hand kinematics, integration, and keypoint fitting."""

from .camera import WeakPerspectiveCamera, project
from .fitting import FitConfig, FitResult, KeypointSet2D, fit, fit_frames, temporal_smooth
from .integration import BodyPrediction, HandPrediction, WholeBodyParams, copy_paste
from .kinematics import SkeletonTree, forward_kinematics, gamma_global_to_local
from .model import ParametricModel, pose_joints, pose_mesh, shape_template
from .rotations import canonicalize, rodrigues, rotation_to_axis_angle
from .toymodel import gen_toy_model

__version__ = "0.1.0"
