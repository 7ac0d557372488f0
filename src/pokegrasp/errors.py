"""Exception taxonomy shared across the pipeline.

Every operational failure mode raises one of these; plain ValueError is
reserved for programming errors (bad argument types, impossible shapes
constructed in code rather than data).
"""
import numbers


class PokeGraspError(Exception):
    """Base class for all library errors."""


class InvalidConfig(PokeGraspError):
    """A configuration value violates its documented constraints."""


def check_count(value, name: str) -> None:
    """Raise InvalidConfig unless ``value`` is an integer >= 0; a bool is not."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 0:
        raise InvalidConfig(f"{name} must be an integer >= 0, not {value!r}")


class InvalidGeometry(PokeGraspError):
    """Geometric inputs are degenerate (zero lever arm, bad profile, ...)."""


class PointBehindCamera(PokeGraspError):
    """Projection requested for a point with non-positive camera depth."""


class RayParallelToPlane(PokeGraspError):
    """Back-projection ray does not intersect the requested height plane."""


class EmptyMask(PokeGraspError):
    """An operation requiring at least one positive pixel got none."""


class DegenerateInput(PokeGraspError):
    """Ellipse fit input is under-determined or not elliptical."""


class WidthOverflow(PokeGraspError):
    """Edge grasp width 2*D exceeds the maximum gripper width."""

    def __init__(self, width: float, maximum: float):
        super().__init__(f"edge grasp width {width:.6f} m exceeds gripper maximum {maximum:.6f} m")
        self.width = width
        self.maximum = maximum


class ShapeMismatch(PokeGraspError):
    """Two per-pixel maps that must share a shape do not."""
