"""Exception types shared across the package.

Two families matter to callers: ``InputError`` for malformed or
out-of-contract input (CLI exit code 2) and ``InternalCheckError`` for
violated structural assumptions discovered mid-pipeline (CLI exit code 3).
"""


class QGrassError(Exception):
    """Base class for all package-specific errors."""


class InputError(QGrassError, ValueError):
    """Bad user input: shape mismatch, non-prime modulus, parse failure, ..."""


class NotRegularError(InputError):
    """The module has no nonzero submodule of defect zero, so the tube
    pipeline does not apply (typical for preprojective/preinjective input)."""


class InternalCheckError(QGrassError, RuntimeError):
    """A structural assumption failed while computing (not a user error)."""


class AmbiguousQuasiSocleError(InternalCheckError):
    """More than one minimal defect-zero submodule: the input is
    decomposable or the field reduction degenerated."""


class NotOnRayError(InternalCheckError):
    """The partial Coxeter-orbit sums never reach the module's dimension
    vector: the claimed quasi-socle does not generate a ray through it."""


class RigidRegularError(InternalCheckError):
    """Quasi-length shorter than the tube rank: the module is a rigid
    regular, so the pinched window between ray submodules is empty."""


class RayAmbiguityError(InternalCheckError):
    """A ray dimension vector supports more than one subrepresentation."""

    def __init__(self, dim_vector, count):
        super().__init__(
            f"expected a unique subrepresentation of dimension {dim_vector}, found {count}"
        )
        self.dim_vector = dim_vector
        self.count = count


class CountNotPolynomialError(InternalCheckError):
    """Point counts failed the extra-sample interpolation check."""

    def __init__(self, message, samples, check_sample):
        super().__init__(message)
        self.samples = samples
        self.check_sample = check_sample
