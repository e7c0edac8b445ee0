"""Exception types shared across the package."""


class MocapkitError(ValueError):
    """Base class for all mocapkit errors."""

    # Position, in a batched call's input, of the frame the error is about.
    frame = None


def map_frames(fn, frames):
    """``[fn(item) for item in frames]``; an error `fn` raises about the item
    at position t gets ``frame = t``."""
    out = []
    for t, item in enumerate(frames):
        try:
            out.append(fn(item))
        except MocapkitError as e:
            e.frame = t
            raise
    return out


class DimensionError(MocapkitError):
    """Array shapes do not match what an operation requires."""


class InvalidRotationError(MocapkitError):
    """A matrix fails the orthonormality / determinant check."""


class InvalidJointError(MocapkitError):
    """A joint index is out of range or not allowed (e.g. the root)."""


class DegenerateModelError(MocapkitError):
    """A model construction step produced an empty or unusable result."""


class DegenerateKeypointsError(MocapkitError):
    """Keypoints are in a configuration that makes an operation undefined."""


class SchemaError(MocapkitError):
    """A file does not conform to its declared schema."""


class FitError(MocapkitError):
    """The optimization problem is ill-posed or diverged numerically."""
