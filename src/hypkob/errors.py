"""Exception types raised by the hypkob toolkit.

Every error that code in this package raises deliberately derives from
:class:`HypkobError`, so callers (and the command line driver) can separate
numerical failures from programming errors.
"""


class HypkobError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(HypkobError):
    """A configuration file or parameter set is malformed."""


# --- domain geometry ---------------------------------------------------------

class PointOutsideDomain(HypkobError):
    """A point expected to lie in the open domain does not."""


class ProjectionDiverged(HypkobError):
    """The nearest-boundary solver failed to converge."""


class CurvatureEstimateFailed(HypkobError):
    """Principal curvature estimation produced unusable values."""


class DerivativeEvaluationFailed(HypkobError):
    """A gradient or Hessian evaluation returned non-finite values."""


# --- almost complex structures ----------------------------------------------

class DimensionTooSmall(HypkobError):
    """The ambient dimension does not admit the requested construction."""


class DegenerateContact(HypkobError):
    """The two-form on the contact distribution is numerically degenerate."""


# --- boundary graph ----------------------------------------------------------

class GraphDisconnected(HypkobError):
    """The boundary graph stayed disconnected after neighbour doubling."""


class ImageOffBoundary(HypkobError):
    """A boundary self-map sent a point measurably off the target boundary."""


# --- metrics and path lengths ------------------------------------------------

class HeightsDiffer(HypkobError):
    """An operation requiring equal heights got unequal ones."""


class RefinementStalled(HypkobError):
    """Dyadic refinement hit maximum depth before the Cauchy criterion.

    Carries the last two estimates as ``args[1]`` so callers can inspect the
    bracket.
    """


# --- asymptotic analysis -----------------------------------------------------

class NotStabilized(HypkobError):
    """A limit estimate failed its stabilization (Cauchy) criterion."""


# --- dynamics ----------------------------------------------------------------

class MapEscapedDomain(HypkobError):
    """An iterated self-map produced a point outside the domain."""
