"""Kernel registry: the arena-backed NumPy fused-kernel layer.

One backend implements the fused gather/apply/activate interface:
``numpy`` (:mod:`~repro.core.kernels.numpy_backend`) runs the fused
shapes with whole-array primitives over scratch buffers reused through
the :mod:`~repro.core.kernels.arena`.

:func:`resolve_backend` maps the ``--kernel-backend`` option to an
instance:

* ``"numpy"`` returns a fresh :class:`NumpyKernels`;
* ``"off"`` returns ``None`` (the engine runs the generic path only --
  the reference the fused-vs-generic equivalence tests compare against);
* anything else raises ``ValueError``.
"""

from __future__ import annotations

import importlib.util

from repro.core.kernels.numpy_backend import NumpyKernels
from repro.core.kernels.specs import ApplySpec, GatherSpec

__all__ = [
    "ApplySpec",
    "GatherSpec",
    "BACKEND_CHOICES",
    "numba_available",
    "resolve_backend",
]

#: Names accepted by ``--kernel-backend``.
BACKEND_CHOICES = ("numpy", "off")


def numba_available() -> bool:
    """True when the Numba package is importable.

    No kernel uses Numba; kept only because ``benchmarks/e2e/run.py``
    (frozen) records it in the machine profile.
    """
    return importlib.util.find_spec("numba") is not None


def resolve_backend(name: str):
    """Instantiate the kernel backend for an option string."""
    if name == "off":
        return None
    if name == "numpy":
        return NumpyKernels()
    raise ValueError(
        f"unknown kernel backend {name!r}; expected one of {BACKEND_CHOICES}"
    )
