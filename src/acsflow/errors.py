"""Exception types shared across the package."""


class AcsflowError(Exception):
    """Base class for all package errors."""


class NonConvex(AcsflowError):
    """Support function fails the strict convexity check min(u_thth + u) > tol."""


class OutOfRange(AcsflowError):
    """Parameter outside the admissible domain (alpha, k, r, ...)."""


class StepUnderflow(AcsflowError):
    """An arc quadrature, its Newton solves or a shooting root find did not
    reach its tolerance."""


class NoBracket(AcsflowError):
    """Shooting grew u_max to its cap without the arc reaching its target."""


class OptimFailed(AcsflowError):
    """Entropy-point maximization did not converge within its evaluation budget."""


class EigenFailed(AcsflowError):
    """Dense solve of a Bloch class of the pencil failed, or a pair breaks
    its backward-error bound."""


class AlphaMismatch(AcsflowError):
    """Trace alpha does not equal 1/(k^2 - 1) for the requested k."""


class TooLarge(AcsflowError):
    """Perturbation amplitude violates the smallness precondition."""


class OrderingViolated(AcsflowError):
    """Computed shrinker entropies break the proven strict ordering."""


class BadConfig(AcsflowError):
    """Invalid run configuration."""
