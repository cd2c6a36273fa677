"""Argument-validation helpers with consistent error messages.

All public entry points of the library validate their inputs through these
helpers so that misuse fails fast with a clear message instead of deep inside
a NumPy kernel.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SourceRangeError


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_nonnegative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_in_range(name: str, value: float, lo: float, hi: float,
                   *, inclusive: bool = False) -> None:
    """Raise ``ValueError`` unless ``lo < value < hi`` (or ``<=`` if inclusive)."""
    ok = (lo <= value <= hi) if inclusive else (lo < value < hi)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must be in {bracket[0]}{lo}, {hi}{bracket[1]}, got {value!r}"
        )


def check_same_length(**arrays) -> None:
    """Raise ``ValueError`` unless all named arrays have equal length."""
    lengths = {name: len(arr) for name, arr in arrays.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"length mismatch: {lengths}")


def check_sources(sources, n_nodes: int) -> None:
    """Raise :class:`SourceRangeError` for the first source outside
    ``[0, n_nodes)``."""
    sources = np.asarray(sources)
    bad = (sources < 0) | (sources >= n_nodes)
    if bad.any():
        raise SourceRangeError(int(sources[np.argmax(bad)]), int(n_nodes))


def check_dtype(name: str, array: np.ndarray, kind: str) -> None:
    """Raise ``TypeError`` unless ``array.dtype.kind`` matches ``kind``.

    ``kind`` follows NumPy's convention: ``'i'`` signed integer, ``'u'``
    unsigned, ``'f'`` float, ``'iu'`` any integer.
    """
    if array.dtype.kind not in kind:
        raise TypeError(
            f"{name} must have dtype kind in {kind!r}, got {array.dtype} "
            f"(kind {array.dtype.kind!r})"
        )


def ensure_int_array(values, *, name: str = "values", dtype=np.int64) -> np.ndarray:
    """Convert ``values`` to a 1-D integer array, validating convertibility."""
    arr = np.asarray(values)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind == "f":
        if not np.all(arr == np.floor(arr)):
            raise TypeError(f"{name} contains non-integral floats")
        arr = arr.astype(dtype)
    elif arr.dtype.kind in "iu":
        arr = arr.astype(dtype, copy=False)
    elif arr.size == 0:
        arr = arr.astype(dtype)
    else:
        raise TypeError(f"{name} must be integer-like, got dtype {arr.dtype}")
    return arr
