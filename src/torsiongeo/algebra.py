"""Pointwise algebra of metric difference tensors on R^n.

A linear connection that preserves a metric differs from the Levi-Civita
connection by a (3,0) tensor that is antisymmetric in its last two slots;
that space splits under O(n) into a vector part, a 3-form part, and a
remainder.  Everything here works on dense arrays in an orthonormal basis;
a general SPD metric is handled by first orthonormalizing via Cholesky.

Pure value types and pure functions; safe for concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import MetricDegeneracyError

#: Absolute tolerance for membership in the antisymmetry class, relative to
#: the tensor scale.
_CLASS_TOL = 1e-10


def metric_class_dim(n: int) -> int:
    """Dimension n^2 (n-1) / 2 of the space of metric difference tensors."""
    return n * n * (n - 1) // 2


def skew_dim(n: int) -> int:
    """Dimension of the 3-form summand, n choose 3."""
    return n * (n - 1) * (n - 2) // 6


@dataclass
class DifferenceTensor:
    """Dense (3,0) difference tensor in an orthonormal basis.

    Construction enforces the defining antisymmetry A[x, j, k] = -A[x, k, j]
    exactly: arrays within roundoff of the class are projected onto it,
    anything further away, or not finite once projected, is rejected.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 3 or len(set(a.shape)) != 1:
            raise ValueError(f"expected a cubic (n, n, n) array, got shape {a.shape}")
        swapped = a.swapaxes(1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            self.values = 0.5 * (a - swapped)
            excess = np.max(np.abs(a + swapped))
        if not np.all(np.isfinite(self.values)):  # a non-finite entry of a ends here too
            raise ValueError("tensor entries must be finite, also once antisymmetrized")
        if excess > _CLASS_TOL * max(1.0, float(np.max(np.abs(a)))):
            raise ValueError("tensor is not antisymmetric in its last two slots")

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass
class Decomposition:
    """The three orthogonal parts of a metric difference tensor.

    ``vector`` holds the R^n summand, ``skew_components`` the 3-form
    components over index triples i < j < k (lexicographic), ``remainder``
    the dense leftover.  ``reconstruct`` returns their sum.
    """

    vector: np.ndarray
    skew_components: np.ndarray
    remainder: np.ndarray
    triples: list[tuple[int, int, int]] = field(repr=False, default_factory=list)

    def vector_tensor(self) -> np.ndarray:
        return vectorial_tensor(self.vector).values

    def skew_tensor(self) -> np.ndarray:
        out = np.zeros_like(self.remainder)
        for c, (i, j, k) in zip(self.skew_components, self.triples):
            for (a, b, d), sign in _SIGNED_PERMS:
                idx = ((i, j, k)[a], (i, j, k)[b], (i, j, k)[d])
                out[idx] = sign * c
        return out

    def reconstruct(self) -> np.ndarray:
        return self.vector_tensor() + self.skew_tensor() + self.remainder


_SIGNED_PERMS = [
    ((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
    ((0, 2, 1), -1.0), ((2, 1, 0), -1.0), ((1, 0, 2), -1.0),
]


def vectorial_tensor(V: np.ndarray, metric: np.ndarray | None = None) -> DifferenceTensor:
    """Difference tensor of the connection twisted by the vector field V.

    In an orthonormal basis, A[i, j, k] = delta_ij V_k - V_j delta_ik, the
    lowered form of A(X, Y) = g(X, Y) V - g(V, Y) X.  With a general SPD
    ``metric``, the basis is first orthonormalized via Cholesky g = L L^T
    and V is re-expressed in that frame (components L^T V); the returned
    tensor and any decomposition of it live in the Cholesky frame.
    """
    V = np.asarray(V, dtype=float)
    n = V.shape[0]
    if metric is not None:
        g = np.asarray(metric, dtype=float)
        if g.shape != (n, n) or not np.allclose(g, g.T):
            raise MetricDegeneracyError("metric must be a symmetric n x n matrix")
        try:
            L = np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise MetricDegeneracyError("metric is not positive definite") from exc
        V = L.T @ V
    eye = np.eye(n)
    a = np.einsum("ij,k->ijk", eye, V) - np.einsum("j,ik->ijk", V, eye)
    return DifferenceTensor(a)


def torsion_from(A: DifferenceTensor | np.ndarray) -> np.ndarray:
    """Torsion T[i, j, k] = A[i, j, k] - A[j, i, k] of a difference tensor."""
    a = A.values if isinstance(A, DifferenceTensor) else np.asarray(A, dtype=float)
    return a - a.swapaxes(0, 1)


def decompose(A: DifferenceTensor) -> Decomposition:
    """Split a metric difference tensor into vector, 3-form, and remainder.

    The vector part is the trace contraction A[i, i, .] / (n - 1); the
    normalization makes ``decompose(vectorial_tensor(V)).vector == V``.
    The 3-form part is the full antisymmetrization.  All three parts are
    pairwise orthogonal under the Frobenius inner product, and for n = 2
    the skew and remainder parts vanish identically.
    """
    a = A.values
    n = A.n
    if n < 2:
        raise ValueError("decomposition requires n >= 2")

    vector = np.einsum("iik->k", a) / (n - 1)
    vec_tensor = vectorial_tensor(vector).values

    skew = np.zeros_like(a)
    for (p, q, r), sign in _SIGNED_PERMS:
        skew += sign * a.transpose(p, q, r)
    skew /= 6.0

    triples = list(itertools.combinations(range(n), 3))
    skew_components = np.array([skew[i, j, k] for i, j, k in triples])

    remainder = a - vec_tensor - skew
    return Decomposition(vector=vector, skew_components=skew_components,
                         remainder=remainder, triples=triples)


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.tensordot(a, b, axes=3))


def random_metric_class_tensor(n: int, rng: np.random.Generator) -> DifferenceTensor:
    """A random element of the metric class (for tests and fixtures)."""
    raw = rng.normal(size=(n, n, n))
    return DifferenceTensor(0.5 * (raw - raw.swapaxes(1, 2)))


def alternating_tensor(n: int = 3) -> np.ndarray:
    """The determinant-normalized alternating tensor epsilon_{ijk} on R^n."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        mat = np.zeros((n, n))
        mat[range(n), perm] = 1.0
        eps[perm] = np.linalg.det(mat)
    return eps
