"""Self-gravitating Gaussian wave packets: dynamics, critical scales, reduction times.

A guidance-trajectory treatment of gravitationally induced localization.  The
packet's probability distribution sources a self-gravitational pull that
competes with the dispersive quantum force; their balance sets critical
masses and widths, and the trajectory of the center of mass through its own
distribution sets the localization (reduction) timescale.
"""

from .core import (Body, BodyKind, PhysicalContext, UnitSystem, WavePacket,
                   density, width_at)
from .errors import (AccuracyError, BodyKindError, BracketError, DomainError,
                     GravreduceError, InsufficientDataError, IntegrationError,
                     ParameterTypeError, SingularityError)

__version__ = "0.1.0"

__all__ = [
    "Body", "BodyKind", "PhysicalContext", "UnitSystem", "WavePacket",
    "density", "width_at",
    "GravreduceError", "DomainError", "SingularityError", "BodyKindError",
    "AccuracyError", "BracketError", "InsufficientDataError", "IntegrationError",
    "ParameterTypeError", "__version__",
]
