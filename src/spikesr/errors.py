"""Exception types raised by the recovery and analysis routines."""


class SpikesrError(Exception):
    """Base class for all package-specific failures."""


class DegenerateSystemError(SpikesrError):
    """The Hankel null space is not one-dimensional; the moment data do not
    determine a unique node set of the requested order."""


class RepeatedRootsError(SpikesrError):
    """Two recovered nodes coincide within tolerance."""


class RankDeficiencyError(SpikesrError):
    """The d-th singular value of the Hankel matrix is below 1e-13 times its
    first; the samples do not fix d nodes."""


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
    """All trials share one outcome, or span less than 0.1 decade of srf; the
    phase boundary cannot be fitted."""


class InsufficientDataError(SpikesrError):
    """Too few successful records in the selected class to fit a slope, or
    they span less than 0.1 decade of srf."""
