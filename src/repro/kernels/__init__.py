"""The routing core's hot-primitive kernels.

The hot primitives of the paper's algorithms — frontier/distance scoring,
Hopcroft–Karp matching, odd–even transposition, token displacement and
swap-schedule assembly — sit behind the :class:`KernelBackend` contract
(see :mod:`repro.kernels.base`). The product ships one implementation,
the vectorized numpy kernels, installed as :data:`ACTIVE`.

Routers look the instance up as ``kernels.ACTIVE`` each time they run
instead of binding it at import: the test suite swaps in a pure-python
oracle there and pins every router's schedules byte-identical to it.
"""

from ._numpy import NumpyKernelBackend
from .base import KernelBackend

__all__ = ["ACTIVE", "KernelBackend", "NumpyKernelBackend"]

#: The kernel implementation every router dispatches its hot primitives to.
ACTIVE: KernelBackend = NumpyKernelBackend()
