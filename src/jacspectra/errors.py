"""Semantic exceptions shared across the package."""


class JacspectraError(Exception):
    """Base class for all package-specific failures."""


class ConvergenceError(JacspectraError):
    """An iterative solve failed; carries the last iterate and residual."""

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class BranchLossError(ConvergenceError):
    """Continuation lost the root branch; carries the failing step index."""

    def __init__(self, message, step_index=None, last_iterate=None, residual=None):
        super().__init__(message, last_iterate=last_iterate, residual=residual)
        self.step_index = step_index


class BracketError(JacspectraError):
    """A root solve found no sign change on its bracket."""


class PoleError(JacspectraError):
    """Evaluation requested exactly at a pole of the transform."""


class ActivationClassError(JacspectraError):
    """Operation requires a property the activation does not have."""
