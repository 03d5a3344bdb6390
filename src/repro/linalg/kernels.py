"""Floyd-Warshall kernels: full, rank-1 update, and cache-blocked variants.

These functions correspond to the ``FloydWarshall`` and ``FloydWarshallUpdate``
building blocks in Table 1 of the paper, generalized over a pluggable
:class:`~repro.linalg.algebra.Semiring`.  Under the default (min, +) algebra
they operate on dense distance matrices where ``inf`` encodes "no path" and
the diagonal is expected to be 0; other algebras substitute their own
``zero``/``one``.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.common.validation import check_square_matrix, check_block_size
from repro.linalg import bitset, witness
from repro.linalg.algebra import Semiring, get_algebra
from repro.linalg.semiring import (elementwise_combine, rank1_sweep,
                                   semiring_product)

try:  # SciPy is a hard dependency of the package, but keep the import local.
    from scipy.sparse.csgraph import floyd_warshall as _scipy_floyd_warshall
    _HAVE_SCIPY = True
except Exception:  # pragma: no cover - exercised only without SciPy
    _HAVE_SCIPY = False


def floyd_warshall_inplace(dist: np.ndarray,
                           algebra: Semiring | str | None = None) -> np.ndarray:
    """Run the classic Floyd-Warshall algorithm in place and return ``dist``.

    The k-loop is sequential; the inner two loops are vectorized as a rank-1
    (outer-⊗) update into one reused buffer (:func:`rank1_sweep`), which is
    how the paper's 2D decomposition also parallelizes the algorithm.

    ``dist`` must already be an ndarray in one of the algebra's supported
    dtypes: a silent conversion would operate on a *copy*, leaving callers
    that rely on in-place mutation with a stale array, so unsupported dtypes
    raise :class:`~repro.common.errors.ValidationError` instead.  Non-array
    inputs (nested lists) are converted — the mutated array is returned.
    """
    algebra = get_algebra(algebra)
    if witness.is_witnessed(dist):
        return witness.witness_floyd_warshall_inplace(dist, algebra)
    if bitset.is_packed(dist):
        if "packed" not in algebra.storages:
            raise ValidationError(
                f"algebra {algebra.name!r} has no packed Floyd-Warshall kernel")
        return bitset.packed_floyd_warshall_inplace(dist)
    if isinstance(dist, np.ndarray):
        if dist.dtype.name not in algebra.dtypes:
            raise ValidationError(
                f"floyd_warshall_inplace cannot mutate a {dist.dtype.name} array "
                f"in place under algebra {algebra.name!r} (supported dtypes: "
                f"{', '.join(algebra.dtypes)}); convert the input first, e.g. "
                f"arr.astype(np.{algebra.default_dtype})")
    else:
        dist = np.asarray(dist, dtype=algebra.resolve_dtype(None))
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValidationError(f"distance matrix must be square, got shape {dist.shape}")
    # dist[i, j] = dist[i, j] ⊕ (dist[i, k] ⊗ dist[k, j]) for k = 0, 1, ...
    return rank1_sweep(dist, dist, dist, algebra)


def floyd_warshall(matrix: np.ndarray,
                   algebra: Semiring | str | None = None) -> np.ndarray:
    """Return the closure of ``matrix`` under ``algebra`` without modifying the input."""
    algebra = get_algebra(algebra)
    arr = check_square_matrix(matrix, dtype=None)
    work = np.array(arr, dtype=algebra.result_dtype(arr), copy=True)
    return floyd_warshall_inplace(work, algebra)


def semiring_closure(weights: np.ndarray, algebra: Semiring | str | None = None, *,
                     dtype: str | np.dtype | None = None) -> np.ndarray:
    """Dense reference closure: validate + coerce weights, then Floyd-Warshall.

    This is the ground truth the cross-solver equivalence tests and the
    benchmark verifier compare against: canonical edge weights (non-finite =
    missing edge) are checked against the algebra's precondition, mapped into
    its domain (diagonal = ``one``, missing = ``zero``) and closed.
    """
    algebra = get_algebra(algebra)
    algebra.validate_input(weights)
    prepared = algebra.prepare_adjacency(weights, dtype=dtype)
    return floyd_warshall_inplace(prepared, algebra)


def floyd_warshall_scipy(matrix: np.ndarray) -> np.ndarray:
    """Floyd-Warshall via :func:`scipy.sparse.csgraph.floyd_warshall`.

    This is the paper's "bare metal" sequential solver (SciPy + MKL); it is the
    reference ``T1`` measurement of Section 5.4.  (min, +)-only — SciPy has no
    algebra parameter.  Falls back to the NumPy kernel when SciPy is
    unavailable.
    """
    arr = check_square_matrix(matrix)
    if not _HAVE_SCIPY:  # pragma: no cover
        return floyd_warshall(arr)
    work = arr.copy()
    np.fill_diagonal(work, 0.0)
    return np.asarray(_scipy_floyd_warshall(work, directed=True), dtype=np.float64)


def fw_rank1_update(block: np.ndarray, col_i: np.ndarray, row_j: np.ndarray,
                    algebra: Semiring | str | None = None) -> np.ndarray:
    """The ``FloydWarshallUpdate`` building block (Table 1).

    Given block ``A_IJ`` and the slices of the pivot column restricted to the
    block's rows (``col_i = B_Ik``, length = block rows) and columns
    (``row_j = B_Jk``, length = block cols), compute

        ``C = col_i ⊗ 1^T  ⊕ ... `` i.e. the outer-⊗ ``col_i[:, None] ⊗ row_j[None, :]``

    and return ``A_IJ ⊕ C``.  For an undirected graph the pivot row equals
    the pivot column, which is why both arguments can be extracted from the
    same broadcast column.
    """
    algebra = get_algebra(algebra)
    if witness.is_witnessed(block):
        return witness.witness_rank1_update(block, col_i, row_j, algebra)
    if bitset.is_packed(block):
        if "packed" not in algebra.storages:
            raise ValidationError(
                f"algebra {algebra.name!r} has no packed rank-1 update kernel")
        return bitset.packed_rank1_update(block, col_i, row_j)
    dtype = algebra.result_dtype(np.asarray(block), np.asarray(col_i), np.asarray(row_j))
    block = np.asarray(block, dtype=dtype)
    col_i = np.asarray(col_i, dtype=dtype).reshape(-1)
    row_j = np.asarray(row_j, dtype=dtype).reshape(-1)
    if block.ndim != 2:
        raise ValidationError("block must be 2-D")
    if col_i.shape[0] != block.shape[0] or row_j.shape[0] != block.shape[1]:
        raise ValidationError(
            f"pivot slices have lengths {col_i.shape[0]}/{row_j.shape[0]} but block is {block.shape}")
    candidate = algebra.mul(col_i[:, None], row_j[None, :])
    return algebra.add(block, candidate)


def fw_rank1_update_inplace(block, col_i, row_j,
                            algebra: Semiring | str | None = None, *,
                            scratch: tuple[np.ndarray, np.ndarray] | None = None,
                            ) -> np.ndarray:
    """In-place ``FloydWarshallUpdate`` returning the changed-row mask.

    The dynamic-update sibling of :func:`fw_rank1_update`: mutates ``block``
    (dense ndarray, :class:`~repro.linalg.bitset.PackedBlock` or
    :class:`~repro.linalg.witness.WitnessBlock`) directly and reports which
    rows improved, so the caller can invalidate exactly the serving-cache
    rows a batched edge update touched.  Dense blocks must already be in one
    of the algebra's dtypes — a silent conversion would mutate a copy.

    ``scratch`` is an optional ``(values, differs)`` pair of block-shaped
    buffers (block dtype, bool) the dense relaxation is computed in, for
    callers applying many updates to one block; otherwise both are allocated.
    """
    algebra = get_algebra(algebra)
    if witness.is_witnessed(block):
        return witness.witness_rank1_update_inplace(block, col_i, row_j, algebra)
    if bitset.is_packed(block):
        if "packed" not in algebra.storages:
            raise ValidationError(
                f"algebra {algebra.name!r} has no packed rank-1 update kernel")
        return bitset.packed_rank1_update_inplace(block, col_i, row_j)
    if not isinstance(block, np.ndarray) or block.dtype.name not in algebra.dtypes:
        raise ValidationError(
            f"fw_rank1_update_inplace cannot mutate a "
            f"{np.asarray(block).dtype.name} array in place under algebra "
            f"{algebra.name!r} (supported dtypes: {', '.join(algebra.dtypes)})")
    if block.ndim != 2:
        raise ValidationError("block must be 2-D")
    col = np.asarray(col_i, dtype=block.dtype).reshape(-1)
    row = np.asarray(row_j, dtype=block.dtype).reshape(-1)
    if col.shape[0] != block.shape[0] or row.shape[0] != block.shape[1]:
        raise ValidationError(
            f"pivot slices have lengths {col.shape[0]}/{row.shape[0]} "
            f"but block is {block.shape}")
    if scratch is None:
        scratch = np.empty_like(block), np.empty(block.shape, dtype=bool)
    relaxed, differs = scratch
    algebra.mul(col[:, None], row[None, :], out=relaxed)
    algebra.add(block, relaxed, out=relaxed)
    changed = np.not_equal(relaxed, block, out=differs).any(axis=1)
    if changed.any():
        np.copyto(block, relaxed)
    return changed


def blocked_floyd_warshall_inplace(dist: np.ndarray, block_size: int,
                                   algebra: Semiring | str | None = None) -> np.ndarray:
    """Cache-blocked Floyd-Warshall (Venkataraman et al. [23]) on a single array.

    This is the sequential analogue of the paper's Blocked In-Memory /
    Collect-Broadcast solvers: for each diagonal block ``(t, t)`` run
    Floyd-Warshall on the block (phase 1), update row/column blocks of the
    pivot block-row/column (phase 2), and finally all remaining blocks
    (phase 3).  Used for ground-truth testing and the cache-behaviour
    benchmarks of Figure 2.
    """
    algebra = get_algebra(algebra)
    if witness.is_witnessed(dist):
        return witness.blocked_witness_floyd_warshall(dist, block_size, algebra)
    if not isinstance(dist, np.ndarray) or dist.dtype.name not in algebra.dtypes:
        dist = np.asarray(dist, dtype=algebra.result_dtype(np.asarray(dist)))
    n = dist.shape[0]
    b = check_block_size(block_size, n)
    q = (n + b - 1) // b

    def _rng(t: int) -> slice:
        return slice(t * b, min((t + 1) * b, n))

    for t in range(q):
        pivot = _rng(t)
        # Phase 1: pivot diagonal block.
        floyd_warshall_inplace(dist[pivot, pivot], algebra)
        pivot_block = dist[pivot, pivot]
        # Phase 2: pivot block-row and block-column.
        for j in range(q):
            if j == t:
                continue
            cols = _rng(j)
            dist[pivot, cols] = elementwise_combine(
                dist[pivot, cols],
                semiring_product(pivot_block, dist[pivot, cols], algebra), algebra)
            dist[cols, pivot] = elementwise_combine(
                dist[cols, pivot],
                semiring_product(dist[cols, pivot], pivot_block, algebra), algebra)
        # Phase 3: remaining blocks.
        for i in range(q):
            if i == t:
                continue
            rows = _rng(i)
            left = dist[rows, pivot]
            for j in range(q):
                if j == t:
                    continue
                cols = _rng(j)
                dist[rows, cols] = elementwise_combine(
                    dist[rows, cols],
                    semiring_product(left, dist[pivot, cols], algebra), algebra)
    return dist
