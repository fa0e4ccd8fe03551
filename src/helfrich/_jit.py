"""JIT shim: numba-compiled kernels with a pure-Python/numpy fallback.

Set ``HELFRICH_JIT=0`` in the environment before import to disable numba
and run the identical kernel source uncompiled (useful for debugging and
as a dependency-free fallback).
"""

import os

JIT_ENABLED = os.environ.get("HELFRICH_JIT", "1").lower() not in ("0", "false", "no")

if JIT_ENABLED:
    try:
        from numba import njit as _numba_njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        JIT_ENABLED = False

if JIT_ENABLED:

    def njit(func):
        # numba caches only a function it can read the source file of;
        # the DOP853 step is compiled from generated text and has none
        return _numba_njit(cache=os.path.isfile(func.__code__.co_filename))(func)

else:

    def njit(func):
        return func
