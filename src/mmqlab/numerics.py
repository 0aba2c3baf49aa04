"""Dense linear-algebra helpers and deterministic randomness.

Conventions used across the package:

* a "matrix" is a 2-D, C-contiguous ``float32`` ndarray with finite entries;
  numerically sensitive reductions (Gram matrices, Frobenius norms, solver
  internals) are carried out in ``float64`` and cast back on exit.
* randomness is counter-based splitmix64 feeding Box-Muller, so any
  (seed, counter) pair maps to the same value on every platform and golden
  files survive refactors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_TWO_PI = 2.0 * math.pi


class NotPositiveDefiniteError(ValueError):
    """Raised when a pivot is non-positive during Cholesky factorization."""

    def __init__(self, column: int, pivot: float, layer: str | None = None):
        self.column = column
        self.pivot = pivot
        self.layer = layer
        where = f"layer {layer}, " if layer is not None else ""
        super().__init__(
            f"matrix is not positive definite: {where}column {column} has pivot "
            f"{pivot:.6e} <= 0 after damping"
        )


def mix64(x: int) -> int:
    """splitmix64 output function (a 64-bit bijective mixer)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *tags: int | str) -> int:
    """Fold string/int tags into a seed to get an independent substream key.

    Pure integer arithmetic (no ``hash()``), so derived seeds are stable
    across processes and platforms.
    """
    h = mix64((seed & _MASK64) ^ 0x5CA1AB1E5EED0001)
    for tag in tags:
        if isinstance(tag, str):
            data = tag.encode("utf-8")
        else:
            data = (int(tag) & _MASK64).to_bytes(8, "little")
        for b in data:
            h = mix64(h ^ b)
            h = (h * _GOLDEN) & _MASK64
    return mix64(h)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_A)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(31)
    return x


@dataclass
class RngStream:
    """Counter-based random stream: value ``i`` is ``mix64(seed + (i+1)*GOLDEN)``.

    The counter advances as values are drawn; constructing two streams with
    the same (seed, counter) always replays the same sequence.
    """

    seed: int
    counter: int = 0

    def raw64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as uint64."""
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        state = np.uint64(self.seed & _MASK64) + idx * np.uint64(_GOLDEN)
        return _mix64_array(state)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` float64 uniforms on (0, 1]."""
        bits = self.raw64(n) >> np.uint64(11)
        return (bits.astype(np.float64) + 1.0) * (0.5**53)

    def normals(self, n: int, std: float = 1.0) -> np.ndarray:
        """``n`` float64 normals via Box-Muller (two uniforms per value)."""
        u = self.uniforms(2 * n)
        u1, u2 = u[0::2], u[1::2]
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2) * std

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of ``range(n)`` (argsort of uniforms)."""
        return np.argsort(self.uniforms(n), kind="stable")

    def choice(self, n: int, k: int) -> np.ndarray:
        """``k`` distinct indices out of ``range(n)``, returned sorted."""
        if k > n:
            raise ValueError(f"cannot choose {k} of {n}")
        return np.sort(self.permutation(n)[:k])


def randn_matrix(stream: RngStream, rows: int, cols: int, std: float) -> np.ndarray:
    """Deterministic i.i.d. normal(0, std^2) matrix, float32, row-major."""
    if rows < 1 or cols < 1:
        raise ValueError("empty matrix")
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    values = stream.normals(rows * cols, std=std)
    return values.reshape(rows, cols).astype(np.float32)


def _cholesky64(m: np.ndarray) -> tuple[np.ndarray, dict[int, NotPositiveDefiniteError]]:
    """Lower Cholesky factors of a stack (count, n, n) of SPD float64 matrices.

    Column by column over the whole stack, kept hand-rolled (rather than
    LAPACK) so failures can name the offending column. A slice whose pivot is
    not positive does not stop the others: its error is recorded in the
    returned map (slice index -> error) and it continues as the identity.
    """
    count, n, _ = m.shape
    lower = np.zeros((count, n, n), dtype=np.float64)
    failed: dict[int, NotPositiveDefiniteError] = {}
    for j in range(n):
        pivot = m[:, j, j] - (lower[:, j, None, :j] @ lower[:, j, :j, None])[:, 0, 0]
        bad = np.flatnonzero(pivot <= 0.0)
        if bad.size and not failed:
            m = m.copy()  # the caller's matrices stay untouched
        for s in bad:
            failed[int(s)] = NotPositiveDefiniteError(column=j, pivot=float(pivot[s]))
            m[s] = lower[s] = np.eye(n)
            pivot[s] = 1.0
        diag = np.sqrt(pivot)
        lower[:, j, j] = diag
        if j + 1 < n:
            below = (lower[:, j + 1 :, :j] @ lower[:, j, :j, None])[:, :, 0]
            lower[:, j + 1 :, j] = (m[:, j + 1 :, j] - below) / diag[:, None]
    return lower, failed


def _damped(a64: np.ndarray, damping: float) -> np.ndarray:
    """A + damping*mean(diag A)*I for each slice of a stack."""
    if damping < 0:
        raise ValueError("damping must be >= 0")
    lam = [damping * float(np.mean(np.diag(a))) if damping > 0 else 0.0 for a in a64]
    return a64 + np.array(lam)[:, None, None] * np.eye(a64.shape[-1], dtype=np.float64)


def _invert_spd64(a64: np.ndarray, damping: float) -> tuple[np.ndarray, dict[int, NotPositiveDefiniteError]]:
    """Inverses of a stack of damped SPD matrices via their Cholesky factors.

    Slices whose factorization failed are recorded as in ``_cholesky64``.
    """
    lower, failed = _cholesky64(_damped(a64, damping))
    inv_lower = np.linalg.solve(lower, np.eye(lower.shape[-1], dtype=np.float64))
    return np.swapaxes(inv_lower, 1, 2) @ inv_lower, failed
