"""Vision-guided tactile poking pipeline for transparent-object grasping.

Deterministic, desk-scale implementation of the full loop: analytic scene
rendering, poking-region ground truth, poking-point and heuristic-grasp
planning, simulated tactile contact, segmentation loss numerics with
verified gradients, a mask-AP evaluator, and a seeded benchmark harness
(``harness.run_benchmark``).
"""

from .errors import (DegenerateInput, EmptyMask, InvalidConfig, InvalidGeometry,
                     PointBehindCamera, PokeGraspError, RayParallelToPlane,
                     ShapeMismatch, WidthOverflow)
from .geometry import RigidTransform
from .scene import Box, CameraModel, ObjectModel, RevolutionProfile, Scene
from .render import RenderBuffers, render
from .regions import InstanceAnnotation, height_map, poking_region
from .imgeo import Ellipse, fit_ellipse, nearest_positive
from .plan import GraspProposal, GripperSpec, PokePlan, heuristic_grasp, poking_point
from .tactile import TactileSensorSpec, detect_contact
from .losses import LossConfig, mask_loss, mask_loss_grad, pn_beta
from .metrics import APReport, Detection, evaluate_ap, mask_iou

__version__ = "0.1.0"
