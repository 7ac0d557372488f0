"""Vision-guided tactile poking pipeline for transparent-object grasping.

Deterministic, desk-scale implementation of the full loop: analytic scene
rendering, poking-region ground truth, poking-point and heuristic-grasp
planning, simulated tactile contact and alignment, segmentation loss
numerics with verified gradients, a mask-AP evaluator, and a seeded
benchmark harness (``harness.run_benchmark``).
"""

from .errors import (DegenerateInput, EmptyMask, InsufficientContact, InvalidConfig,
                     InvalidGeometry, IoError, PointBehindCamera, PokeGraspError,
                     RayParallelToPlane, ResolutionMismatch, ShapeMismatch,
                     WidthOverflow)
from .geometry import RigidTransform
from .scene import Box, CameraModel, ObjectModel, RevolutionProfile, Scene
from .render import RenderBuffers, render
from .regions import InstanceAnnotation, dot_product_map, height_map, poking_region
from .imgeo import Ellipse, find_external_contour, fit_ellipse, nearest_positive
from .plan import GraspProposal, GripperSpec, PokePlan, heuristic_grasp, poking_point
from .tactile import TactileFrame, TactileSensorSpec, detect_contact, tactile_align
from .losses import (BoxOffsets, LossConfig, deconv_output_size, mask_loss,
                     mask_loss_grad, pn_beta, smooth_l1_loc_loss,
                     softmax_cross_entropy, total_loss)
from .metrics import APReport, Detection, evaluate_ap, mask_iou

__version__ = "0.1.0"
