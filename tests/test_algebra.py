import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsiongeo.algebra import (DifferenceTensor, alternating_tensor, decompose,
                                frobenius_inner, metric_class_dim, random_metric_class_tensor,
                                skew_dim, torsion_from, vectorial_tensor)
from torsiongeo.errors import MetricDegeneracyError


def tensor_from_formula(V, g):
    """A(X,Y,Z) = g(X,Y) g(V,Z) - g(V,Y) g(X,Z) on basis vectors, by loops."""
    n = len(V)
    gV = g @ V
    a = np.zeros((n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        a[i, j, k] = g[i, j] * gV[k] - gV[j] * g[i, k]
    return a


@given(st.integers(2, 5), st.lists(st.floats(-10, 10), min_size=5, max_size=5))
@settings(max_examples=60)
def test_round_trip_vector_to_tensor_and_back(n, comps):
    V = np.array(comps[:n])
    dec = decompose(vectorial_tensor(V))
    assert np.max(np.abs(dec.vector - V)) < 1e-12
    assert np.max(np.abs(dec.skew_tensor())) < 1e-12
    assert np.max(np.abs(dec.remainder)) < 1e-12


def test_vectorial_tensor_matches_componentwise_formula(rng):
    for n in (2, 3, 4):
        V = rng.normal(size=n)
        a = vectorial_tensor(V).values
        assert np.allclose(a, tensor_from_formula(V, np.eye(n)), atol=1e-14)


def test_zero_vector_gives_zero_tensor():
    assert np.all(vectorial_tensor(np.zeros(3)).values == 0.0)


def test_shear_field_pointwise_tensor_n2():
    # V = (2, 0), the value of the field y dx at height 2: the connection
    # sends (e2, e2) to 2 e1 and (e2, e1) to -2 e2.
    a = vectorial_tensor(np.array([2.0, 0.0])).values
    A_e2e2 = a[1, 1, :]
    A_e2e1 = a[1, 0, :]
    A_e1e2 = a[0, 1, :]
    A_e1e1 = a[0, 0, :]
    assert np.allclose(A_e1e1, [0.0, 0.0])
    assert np.allclose(A_e2e2, [2.0, 0.0])
    assert np.allclose(A_e2e1, [0.0, -2.0])
    assert np.allclose(A_e1e2, [0.0, 0.0])


def test_torsion_formula_against_loops(rng):
    for n in (2, 3, 4):
        for _ in range(20):
            V = rng.normal(size=n)
            g = np.eye(n)
            T = torsion_from(vectorial_tensor(V))
            gV = V
            expect = np.zeros((n, n, n))
            for i, j, k in itertools.product(range(n), repeat=3):
                expect[i, j, k] = gV[i] * g[j, k] - gV[j] * g[i, k]
            assert np.allclose(T, expect, atol=1e-13)


def test_torsion_of_symmetric_tensor_vanishes(rng):
    raw = rng.normal(size=(3, 3, 3))
    symmetric = 0.5 * (raw + raw.transpose(1, 0, 2))
    assert np.allclose(torsion_from(symmetric), 0.0)


def test_torsion_vanishes_iff_vector_vanishes(rng):
    for n in (2, 3, 4):
        V = rng.normal(size=n)
        T = torsion_from(vectorial_tensor(V))
        # |T|_F^2 = 2 (n-1) |V|^2
        assert np.linalg.norm(T) == pytest.approx(
            np.sqrt(2.0 * (n - 1)) * np.linalg.norm(V), rel=1e-12)
    assert np.linalg.norm(torsion_from(vectorial_tensor(np.zeros(4)))) == 0.0


def test_so3_three_form_fixture():
    eps = alternating_tensor(3)
    fix = DifferenceTensor(0.5 * eps)
    assert np.allclose(torsion_from(fix), eps)          # T = 2A
    dec = decompose(fix)
    assert np.allclose(dec.vector, 0.0, atol=1e-15)
    assert np.allclose(dec.skew_tensor(), fix.values, atol=1e-15)
    assert np.allclose(dec.remainder, 0.0, atol=1e-15)
    assert dec.skew_components.shape == (1,)
    assert dec.skew_components[0] == pytest.approx(0.5)


def test_n2_class_is_purely_vectorial(rng):
    a = random_metric_class_tensor(2, rng)
    dec = decompose(a)
    assert dec.skew_components.size == 0
    assert np.max(np.abs(dec.remainder)) < 1e-12
    assert np.max(np.abs(dec.vector_tensor() - a.values)) < 1e-12


def test_vector_part_is_trace_over_n_minus_one(rng):
    for n in (2, 3, 4, 5):
        a = random_metric_class_tensor(n, rng)
        dec = decompose(a)
        trace = np.einsum("iik->k", a.values)
        assert np.allclose(dec.vector, trace / (n - 1), atol=1e-14)


def test_parts_orthogonal_and_reconstruct(rng):
    for n in (3, 4, 5):
        a = random_metric_class_tensor(n, rng)
        dec = decompose(a)
        parts = (dec.vector_tensor(), dec.skew_tensor(), dec.remainder)
        for x, y in itertools.combinations(parts, 2):
            assert abs(frobenius_inner(x, y)) < 1e-12
        assert np.max(np.abs(dec.reconstruct() - a.values)) < 1e-12


def subspace_projector(basis_tensors):
    """Least-squares projector onto the span of the given tensors."""
    B = np.column_stack([b.ravel() for b in basis_tensors])
    Q, _ = np.linalg.qr(B)
    return Q @ Q.T


def test_decomposition_against_least_squares_projectors(rng):
    # Brute-force oracle: orthogonal projectors assembled from explicit
    # bases of the vector and 3-form subspaces.
    for n in (3, 4):
        vec_basis = [vectorial_tensor(e).values for e in np.eye(n)]
        skew_basis = []
        for i, j, k in itertools.combinations(range(n), 3):
            b = np.zeros((n, n, n))
            for perm in itertools.permutations((i, j, k)):
                sign = _perm_sign((i, j, k), perm)
                b[perm] = sign
            skew_basis.append(b)
        P_vec = subspace_projector(vec_basis)
        P_skew = subspace_projector(skew_basis)
        for _ in range(10):
            a = random_metric_class_tensor(n, rng)
            dec = decompose(a)
            flat = a.values.ravel()
            assert np.max(np.abs(P_vec @ flat - dec.vector_tensor().ravel())) < 1e-10
            assert np.max(np.abs(P_skew @ flat - dec.skew_tensor().ravel())) < 1e-10


def _perm_sign(base, perm):
    perm = tuple(base.index(p) for p in perm)
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def test_decomposition_equivariance_under_orthogonal_maps(rng):
    # The three summands are invariant subspaces: decomposing a rotated
    # tensor must give the rotated parts.
    for n in (3, 4):
        for _ in range(5):
            R, _ = np.linalg.qr(rng.normal(size=(n, n)))
            a = random_metric_class_tensor(n, rng)
            rotated = np.einsum("ia,jb,kc,abc->ijk", R, R, R, a.values)
            dec_r = decompose(DifferenceTensor(rotated))
            dec = decompose(a)
            assert np.max(np.abs(dec_r.vector - R @ dec.vector)) < 1e-10
            skew_rot = np.einsum("ia,jb,kc,abc->ijk", R, R, R, dec.skew_tensor())
            assert np.max(np.abs(dec_r.skew_tensor() - skew_rot)) < 1e-10


def test_dimension_bookkeeping():
    for n in range(2, 6):
        assert metric_class_dim(n) == n * n * (n - 1) // 2
        assert skew_dim(n) == len(list(itertools.combinations(range(n), 3)))


def test_general_metric_uses_cholesky_frame(rng):
    n = 3
    M = rng.normal(size=(n, n))
    g = M @ M.T + n * np.eye(n)
    V = rng.normal(size=n)
    a = vectorial_tensor(V, metric=g)
    L = np.linalg.cholesky(g)
    dec = decompose(a)
    # the tensor lives in the Cholesky-orthonormalized frame, where the
    # defining vector has components L^T V
    assert np.allclose(dec.vector, L.T @ V, atol=1e-12)


def test_errors():
    with pytest.raises(MetricDegeneracyError):
        vectorial_tensor(np.ones(2), metric=np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        DifferenceTensor(np.ones((2, 2, 2)))  # not antisymmetric
    with pytest.raises(ValueError):
        DifferenceTensor(np.ones((2, 2)))  # not cubic
    with pytest.raises(ValueError):
        decompose(DifferenceTensor(np.zeros((1, 1, 1))))
