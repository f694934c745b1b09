"""Exception types raised across the package.

Every validation error carries the measured deviation in its message so
that failures are auditable without re-running the check.  Every
tolerance failure is raised in :func:`qmix.qmatrix.check_slices`, the
one test of ``measured <= tol``.
"""


class QmixError(Exception):
    """Base class for all errors raised by this package.

    ``index`` locates the failing slice when a check ran on a stack of
    matrices (its leading-axis index); it is ``()`` otherwise.
    """

    index: tuple[int, ...] = ()


class DimensionMismatch(QmixError):
    """Operands have incompatible shapes for the requested operation."""


class NotHermitian(QmixError):
    """Matrix fails the hermiticity test at the stated tolerance."""


class NotAntiHermitian(QmixError):
    """Generator fails the anti-hermiticity test."""


class NotPositive(QmixError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class TraceNotOne(QmixError):
    """Real trace deviates from one beyond the stated tolerance."""


class NotUnitary(QmixError):
    """Propagator fails the unitarity test at the stated tolerance.

    Also raised when an exponent's spectral radius is too large for the
    phases of its exponential to be computed to that tolerance.
    """


class NotInChiImage(QmixError):
    """Complex matrix lacks the block symmetry of a complex-adjoint image."""


class PairingFailure(QmixError):
    """Eigenvalues of a complex-adjoint image failed to pair up.

    This signals an internal bug, not a data condition: eigenvalues of
    the complex-adjoint image of a hermitian quaternionic matrix always
    occur with even multiplicity.
    """


class NotOrthogonal(QmixError):
    """Vectors expected to be orthogonal are not, at the stated tolerance."""


class NotNormalized(QmixError):
    """Vector or coefficient pair fails its normalization test."""


class RankOutOfRange(QmixError):
    """Requested lift rank is outside the admissible range."""


class RankOne(QmixError):
    """Lift requested for a rank-one complex density, which has none."""


class NotPurifiable(QmixError):
    """Complex density of rank above two cannot project from a pure state."""


class DriftExceeded(QmixError):
    """An RK4 run that ``integrate`` refuses: its growth factor or final correction.

    The growth factor max |R|**steps of unstable steps passes
    1 + ``DRIFT_TOL``, or the correction that the final hermitization and
    trace division apply passes ``DRIFT_TOL``.
    """


class WitnessNotFound(QmixError):
    """Randomized search for a partition-breaking witness ran dry.

    Witnesses are generic, so exhausting the attempt budget signals a
    bug rather than bad luck.
    """


class PropositionViolated(QmixError):
    """A randomized structural check found a counterexample."""

    def __init__(self, name: str, trial: int, detail: str):
        self.name = name
        self.trial = trial
        self.detail = detail
        super().__init__(f"{name} violated (trial {trial}): {detail}")


class SchemaError(QmixError):
    """Matrix file violates the JSON schema; pointer locates the node.

    The message is ``"{pointer}: {detail}"``, or the detail alone at the
    document root, whose pointer is ``""``.
    """

    def __init__(self, pointer: str, detail: str):
        self.pointer = pointer
        self.detail = detail
        super().__init__(f"{pointer}: {detail}" if pointer else detail)
