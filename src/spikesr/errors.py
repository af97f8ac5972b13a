"""Exception types raised by the recovery and analysis routines."""


class SpikesrError(Exception):
    """Base class for all package-specific failures."""


class DegenerateSystemError(SpikesrError):
    """The Hankel null space is not one-dimensional; the moment data do not
    determine a unique node set of the requested order."""


class RepeatedRootsError(SpikesrError):
    """Two recovered nodes coincide within tolerance."""


class RankDeficiencyError(SpikesrError):
    """A truncated singular value is too small for the pencil inversion to be safe."""


class EigenFailureError(SpikesrError):
    """The eigenvalue solver did not converge or produced unusable output."""


class EpsilonTooLargeError(SpikesrError):
    """The requested perturbation pushes the cluster outside the regime where
    the perturbed moment system has distinct real nodes."""


class NearCoincidentNodesError(SpikesrError):
    """Node separation is below the threshold where conditioning bounds are meaningful."""


class EmptyAdmissibleSetError(SpikesrError):
    """No blowup factor in the candidate range satisfies the separation conditions."""


class DegenerateFitError(SpikesrError):
    """All trials share one outcome, or one srf; the phase boundary cannot be
    fitted."""


class InsufficientDataError(SpikesrError):
    """Too few successful records in the selected class to fit a slope, or
    all of them share one srf."""
