"""Thin BLAS shims for the fused training kernels (paper §IV.B).

The paper's coprocessor port leans on MKL for every GEMM and on fused
vector updates for Eqs. 16–18.  NumPy alone cannot express two of the
idioms that matter on the hot path:

* ``C = α·A@B + β·C`` — GEMM *accumulation* (the negative CD phase, the
  1/m gradient scaling) without a second output buffer or an extra pass;
* ``y += α·x`` — a single-pass AXPY update without materialising ``α·x``.

When SciPy is importable we call the real BLAS (``dgemm``/``daxpy``)
through views chosen so no operand is ever copied; otherwise a NumPy
fallback produces the same results through caller-provided scratch
buffers, preserving the zero-allocation guarantee either way.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised implicitly by the whole hot path
    from scipy.linalg.blas import daxpy as _daxpy, dgemm as _dgemm

    HAVE_BLAS = True
except ImportError:  # pragma: no cover - CI installs scipy; keep a safety net
    _daxpy = _dgemm = None
    HAVE_BLAS = False


def _fortran_operand(x: np.ndarray):
    """Express matrix ``x`` as (array, transpose-flag) with Fortran layout.

    BLAS wants column-major operands; a C-contiguous matrix is its own
    transpose in column-major, so either orientation is reachable without
    a copy.  Returns None when ``x`` is neither C- nor F-contiguous.
    """
    if x.flags["F_CONTIGUOUS"]:
        return x, False
    if x.flags["C_CONTIGUOUS"]:
        return x.T, True
    return None


def gemm_into(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray,
    alpha: float = 1.0,
    beta: float = 0.0,
    scratch: np.ndarray = None,
) -> np.ndarray:
    """``out = alpha * a @ b + beta * out`` with no temporaries.

    ``out`` must be C-contiguous.  With SciPy the whole expression is one
    ``dgemm`` computed in transposed space (``outᵀ = α·bᵀaᵀ + β·outᵀ``,
    all operands passed as views).  The NumPy fallback needs ``scratch``
    (shaped like ``out``) only when ``beta != 0``.
    """
    if HAVE_BLAS and out.flags["C_CONTIGUOUS"]:
        fa = _fortran_operand(b.T)  # left operand of the transposed product
        fb = _fortran_operand(a.T)
        if fa is not None and fb is not None:
            res = _dgemm(
                alpha,
                fa[0],
                fb[0],
                beta=beta,
                c=out.T,
                trans_a=fa[1],
                trans_b=fb[1],
                overwrite_c=1,
            )
            if res.base is out or np.shares_memory(res, out):
                return out
            # dgemm fell back to a copy (unexpected layout); keep results.
            np.copyto(out.T, res)
            return out
    if beta == 0.0:
        np.dot(a, b, out=out)
        if alpha != 1.0:
            out *= alpha
        return out
    tmp = scratch if scratch is not None else np.empty_like(out)
    np.dot(a, b, out=tmp)
    if alpha != 1.0:
        tmp *= alpha
    if beta != 1.0:
        out *= beta
    out += tmp
    return out


def axpy_into(
    x: np.ndarray, y: np.ndarray, alpha: float, scratch: np.ndarray = None
) -> np.ndarray:
    """``y += alpha * x`` in one pass (BLAS daxpy) or via ``scratch``.

    Both arrays must be C-contiguous and same-shaped; ``scratch`` (shaped
    like ``x``) is only touched by the NumPy fallback.
    """
    if HAVE_BLAS and x.flags["C_CONTIGUOUS"] and y.flags["C_CONTIGUOUS"]:
        _daxpy(x.ravel(), y.ravel(), a=alpha)
        return y
    tmp = scratch if scratch is not None else np.empty_like(x)
    np.multiply(x, alpha, out=tmp)
    y += tmp
    return y


def dot_self(x: np.ndarray) -> float:
    """Σ x² in a single pass without a temporary (Frobenius norm²).

    NumPy's own sum-of-products loop rather than BLAS ``ddot``: a threaded
    ``ddot`` splits the sum by thread count, which changes the last bit
    of a loss when the BLAS budget changes.
    """
    flat = x.ravel()
    return float(np.einsum("i,i->", flat, flat))
