"""Semiring matrix operations on dense matrices.

APSP can be posed as computing the closure of the adjacency matrix under the
(min, +) semiring: ``C[i, j] = min_k (A[i, k] + B[k, j])`` replaces the inner
product of ordinary matrix multiplication (paper Section 2 and the ``MatProd``
/ ``MatMin`` building blocks of Table 1).  The same kernels, parameterized by
a :class:`~repro.linalg.algebra.Semiring`, compute the closure under any
registered path algebra (widest path, most-reliable path, transitive
closure, ...).

The product kernel is a sweep of in-place rank-1 updates
``C ⊕= A[:, t] ⊗ B[t, :]`` in increasing ``t`` through one reused ``(m, n)``
buffer — the same loop Floyd-Warshall runs — so no ``m x k x n`` temporary
is ever streamed through memory.  Every ⊗ is the same elementwise op a
broadcast-and-reduce kernel would apply and every registered ⊕ is selective
(min/max/or), so the result is bit-identical to it.  The algebra's
operations are plain NumPy ufuncs and dtype is preserved (``float32``
operands stay ``float32``, halving memory traffic).
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ValidationError
from repro.linalg import bitset, witness
from repro.linalg.algebra import Semiring, get_algebra


def _require_reachability(algebra: Semiring, op: str) -> None:
    if "packed" not in algebra.storages:
        raise ValidationError(
            f"{op} received packed-bitset operands but algebra {algebra.name!r} "
            "has no packed kernels (only the boolean reachability algebra does)")


def _require_both_witnessed(a, b, op: str) -> None:
    if not (witness.is_witnessed(a) and witness.is_witnessed(b)):
        raise ValidationError(
            f"{op} cannot mix witnessed and plain operands; a paths=True "
            "solve must carry witness planes on every block")


def elementwise_combine(a, b, algebra: Semiring | str | None = None):
    """Elementwise ⊕ of two equally-shaped matrices (``MatMin`` generalized).

    Packed-bitset operands (:class:`~repro.linalg.bitset.PackedBlock`) take
    the word-parallel OR kernel — 64 cells per machine word.  Witnessed
    operands (:class:`~repro.linalg.witness.WitnessBlock`) take the paired
    value+parent kernel: the ⊕ winner keeps its pointers.
    """
    algebra = get_algebra(algebra)
    if witness.is_witnessed(a) or witness.is_witnessed(b):
        _require_both_witnessed(a, b, "MatMin")
        return witness.witness_combine(a, b, algebra)
    if bitset.is_packed(a) or bitset.is_packed(b):
        _require_reachability(algebra, "MatMin")
        return bitset.packed_or(bitset.as_packed(a), bitset.as_packed(b))
    dtype = algebra.result_dtype(np.asarray(a), np.asarray(b))
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    if a.shape != b.shape:
        raise ValidationError(f"MatMin requires equal shapes, got {a.shape} and {b.shape}")
    return algebra.add(a, b)


def elementwise_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise minimum of two equally-shaped matrices (``MatMin`` of Table 1)."""
    return elementwise_combine(a, b, None)


def rank1_sweep(out: np.ndarray, a: np.ndarray, b: np.ndarray,
                algebra: Semiring, start: int = 0) -> np.ndarray:
    """Apply ``out ⊕= a[:, t] ⊗ b[t, :]`` in place for ``t = start, start + 1, ...``.

    Each candidate plane is computed into one reused scratch buffer before it
    is ⊕-ed into ``out``, so ``a``/``b`` may be views of ``out`` itself —
    Floyd-Warshall is the sweep with ``out = a = b``.
    """
    candidate = np.empty(out.shape, dtype=out.dtype)
    for t in range(start, a.shape[1]):
        algebra.mul(a[:, t, None], b[None, t, :], out=candidate)
        algebra.add(out, candidate, out=out)
    return out


def semiring_product(a, b,
                     algebra: Semiring | str | None = None, *,
                     out: np.ndarray | None = None):
    """Semiring matrix product ``C[i, j] = ⊕_k A[i, k] ⊗ B[k, j]``.

    This is the ``MatProd`` building block of Table 1, generalized over the
    algebra.  ``a`` has shape ``(m, k)``, ``b`` has shape ``(k, n)``; the
    result has shape ``(m, n)``.  Under (min, +), ``inf`` entries represent
    missing edges and propagate correctly (``inf + x = inf``,
    ``min(inf, x) = x``); other algebras use their own ``zero``.  Packed
    boolean operands are routed to the word-parallel bitset product.

    Parameters
    ----------
    out:
        Optional pre-allocated output array of shape ``(m, n)``; it must not
        share memory with ``a`` or ``b`` (the kernel overwrites it while it
        still reads the operands).
    """
    algebra = get_algebra(algebra)
    if witness.is_witnessed(a) or witness.is_witnessed(b):
        _require_both_witnessed(a, b, "MatProd")
        if out is not None:
            raise ValidationError(
                "MatProd does not support out= for witnessed operands")
        return witness.witness_product(a, b, algebra)
    if bitset.is_packed(a) or bitset.is_packed(b):
        _require_reachability(algebra, "MatProd")
        if out is not None:
            # Match the dense kernel's out= contract (overwrite, don't
            # accumulate): packed_product itself ORs into out.
            out.words[:] = 0
        return bitset.packed_product(bitset.as_packed(a), bitset.as_packed(b),
                                     out=out)
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError("MatProd requires 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"MatProd inner dimensions must agree, got {a.shape} and {b.shape}")
    dtype = algebra.result_dtype(a, b)
    a = np.asarray(a, dtype=dtype)
    b = np.asarray(b, dtype=dtype)
    m, k = a.shape
    n = b.shape[1]
    if out is None:
        out = np.empty((m, n), dtype=dtype)
    elif out.shape != (m, n):
        raise ValidationError(f"out has shape {out.shape}, expected {(m, n)}")
    elif np.shares_memory(out, a) or np.shares_memory(out, b):
        raise ValidationError("MatProd out= must not share memory with an operand")
    if m < k:
        # Thin products (few output rows over a long inner dimension, e.g.
        # the dynamic row recompute) would pay k Python-level steps for
        # little work each: reduce one output row at a time instead.
        candidates = np.empty((k, n), dtype=dtype)
        for i in range(m):
            algebra.mul(a[i, :, None], b, out=candidates)
            algebra.add_reduce(candidates, axis=0, out=out[i])
    else:
        # The sweep reads B one row per step: keep rows contiguous even when
        # the caller passes a transposed view (a mirrored block).
        b = np.ascontiguousarray(b)
        algebra.mul(a[:, :1], b[:1, :], out=out)
        rank1_sweep(out, a, b, algebra, start=1)
    return out


def minplus_product(a: np.ndarray, b: np.ndarray, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Min-plus matrix product ``C[i, j] = min_k A[i, k] + B[k, j]`` (``MatProd``)."""
    return semiring_product(a, b, None, out=out)


def semiring_square(a: np.ndarray, algebra: Semiring | str | None = None) -> np.ndarray:
    """Semiring square ``A ⊗ A`` combined elementwise (⊕) with ``A``.

    Squaring in a path closure must keep existing (shorter-or-equal) paths,
    which the diagonal ``one`` already guarantees; the explicit ⊕ with ``a``
    makes the kernel robust to inputs whose diagonal is not exactly ``one``.
    Witnessed operands route both steps through the paired kernels.
    """
    algebra = get_algebra(algebra)
    if witness.is_witnessed(a):
        return elementwise_combine(a, semiring_product(a, a, algebra), algebra)
    return algebra.add(np.asarray(a), semiring_product(a, a, algebra))


def semiring_power(a: np.ndarray, exponent: int,
                   algebra: Semiring | str | None = None) -> np.ndarray:
    """Semiring matrix power ``A^exponent`` computed by repeated squaring.

    With ``exponent >= n - 1`` this yields the full closure for a graph with
    ``n`` vertices (assuming the diagonal holds the algebra's ``one``).
    """
    if exponent < 1:
        raise ValidationError("exponent must be >= 1")
    algebra = get_algebra(algebra)
    a = np.asarray(a)
    result = np.array(a, dtype=algebra.result_dtype(a), copy=True)
    e = 1
    while e < exponent:
        result = semiring_square(result, algebra)
        e *= 2
    return result


def minplus_power(a: np.ndarray, exponent: int) -> np.ndarray:
    """Min-plus matrix power ``A^exponent`` computed by repeated squaring."""
    return semiring_power(a, exponent, None)


def closure_iterations(n: int) -> int:
    """Number of squarings needed so that ``A^(2^k) = A^*`` for an n-vertex graph.

    Optimal paths in an absorptive semiring are simple (at most ``n - 1``
    edges), so ``ceil(log2(n - 1))`` squarings suffice (0 for n <= 2) — the
    same bound for every registered algebra.
    """
    if n <= 0:
        raise ValidationError("n must be positive")
    if n <= 2:
        return 1 if n == 2 else 0
    return int(math.ceil(math.log2(n - 1)))


#: Backward-compatible alias (the bound is algebra-independent).
minplus_closure_iterations = closure_iterations
