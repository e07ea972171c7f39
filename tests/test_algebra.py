import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divalg import COMPLEX, OCTONION, QUATERNION, REAL, AlgebraKind, Scalar, conj, inv, mul, norm
from divalg.algebra import (
    VALID_BETAS,
    load_octonion_table,
    multiplication_table,
    structure_tensor,
)
from divalg.errors import AlgebraMismatchError, ConfigurationError, ScalarDivisionError

ALL_KINDS = [REAL, COMPLEX, QUATERNION, OCTONION]


def coeff_strategy(beta):
    elems = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
    return st.lists(elems, min_size=beta, max_size=beta)


def test_kind_properties():
    assert [k.beta for k in ALL_KINDS] == [1, 2, 4, 8]
    assert str(COMPLEX.alpha) == "1"
    assert str(QUATERNION.alpha) == "1/2"
    assert str(QUATERNION.t) == "1"
    assert str(OCTONION.t) == "2"
    assert AlgebraKind.from_beta(4) is QUATERNION
    with pytest.raises(ValueError):
        AlgebraKind(3)


@pytest.mark.parametrize("beta", [0, -1, 3])
def test_from_beta_rejects_other_dimensions_with_a_package_error(beta):
    with pytest.raises(ConfigurationError, match=f"got {beta}"):
        AlgebraKind.from_beta(beta)


def test_quaternion_basis_relations():
    one, i, j, k = (Scalar.basis(QUATERNION, b) for b in range(4))
    assert np.array_equal(mul(i, i).coeffs, -one.coeffs)
    assert np.array_equal(mul(j, j).coeffs, -one.coeffs)
    assert np.array_equal(mul(k, k).coeffs, -one.coeffs)
    assert np.array_equal(mul(i, j).coeffs, k.coeffs)
    assert np.array_equal(mul(j, i).coeffs, -k.coeffs)
    assert np.array_equal(mul(j, k).coeffs, i.coeffs)
    assert np.array_equal(mul(k, i).coeffs, j.coeffs)


def test_octonion_table_matches_golden_copy():
    assert multiplication_table(8) == load_octonion_table()


def test_octonion_scalar_product_matches_golden_table():
    e = [Scalar.basis(OCTONION, b) for b in range(8)]
    for i, row in enumerate(load_octonion_table()):
        for j, (sign, k) in enumerate(row):
            assert np.array_equal(mul(e[i], e[j]).coeffs, sign * e[k].coeffs)


@pytest.mark.parametrize("beta", VALID_BETAS)
def test_structure_tensor_is_signed_permutation(beta):
    # e_p e_q = +-e_r: one nonzero per (p, q), and it is +-1; one p per (q, r)
    # too, which the left-regular gather relies on
    C = structure_tensor(beta)
    nonzero = C != 0
    ones = np.ones((beta, beta), dtype=int)
    assert np.array_equal(nonzero.sum(axis=2), ones)
    assert np.array_equal(nonzero.sum(axis=0), ones)
    assert set(np.abs(C[nonzero])) == {1.0}


def test_octonion_not_associative():
    e = [Scalar.basis(OCTONION, b) for b in range(8)]
    left = mul(mul(e[1], e[2]), e[4])
    right = mul(e[1], mul(e[2], e[4]))
    assert np.array_equal(left.coeffs, -right.coeffs)
    assert np.array_equal(left.coeffs, Scalar.basis(OCTONION, 7).coeffs)


def test_structure_tensor_embeds_smaller_algebra():
    for beta in (2, 4, 8):
        big = structure_tensor(beta)
        small = structure_tensor(beta // 2)
        h = beta // 2
        assert np.array_equal(big[:h, :h, :h], small)
        assert not big.flags.writeable


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_norm_is_multiplicative(kind, data):
    a = Scalar(kind, data.draw(coeff_strategy(kind.beta)))
    b = Scalar(kind, data.draw(coeff_strategy(kind.beta)))
    assert norm(mul(a, b)) == pytest.approx(norm(a) * norm(b), abs=1e-9, rel=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_conj_reverses_products(kind, data):
    a = Scalar(kind, data.draw(coeff_strategy(kind.beta)))
    b = Scalar(kind, data.draw(coeff_strategy(kind.beta)))
    lhs = conj(mul(a, b))
    rhs = mul(conj(b), conj(a))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-9)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_octonion_alternative_law(data):
    a = Scalar(OCTONION, data.draw(coeff_strategy(8)))
    b = Scalar(OCTONION, data.draw(coeff_strategy(8)))
    lhs = mul(mul(a, a), b)
    rhs = mul(a, mul(a, b))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-7)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
def test_inverse_recovers_one(kind):
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = Scalar(kind, rng.normal(size=kind.beta))
        prod = mul(a, inv(a))
        expected = Scalar.from_real(kind, 1.0)
        np.testing.assert_allclose(prod.coeffs, expected.coeffs, atol=1e-12)


def test_zero_has_no_inverse():
    with pytest.raises(ScalarDivisionError):
        inv(Scalar.from_real(COMPLEX, 0.0))


def test_kind_mismatch_rejected():
    a = Scalar.from_real(COMPLEX, 1.0)
    b = Scalar.from_real(QUATERNION, 1.0)
    with pytest.raises(AlgebraMismatchError):
        mul(a, b)


def test_scalar_validation():
    with pytest.raises(ValueError):
        Scalar(COMPLEX, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        Scalar(REAL, [np.nan])
    s = Scalar(COMPLEX, [1.0, 2.0])
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_valid_betas_constant():
    assert VALID_BETAS == (1, 2, 4, 8)
    for beta in VALID_BETAS:
        C = structure_tensor(beta)
        assert C.shape == (beta, beta, beta)
        # e_0 is the two-sided unit
        np.testing.assert_array_equal(C[0], np.eye(beta))
        np.testing.assert_array_equal(C[:, 0, :], np.eye(beta))
