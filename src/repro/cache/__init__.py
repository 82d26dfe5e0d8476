"""Cache substrate: private caches and SLLC models."""

from .conventional import ConventionalLLC
from .llc_base import BaseLLC, LLCAccess
from .ncid import NCIDCache
from .private_cache import PrivateCache, PrivateHierarchy
from .vway import VWayCache

__all__ = [
    "PrivateCache",
    "PrivateHierarchy",
    "BaseLLC",
    "LLCAccess",
    "ConventionalLLC",
    "NCIDCache",
    "VWayCache",
]
