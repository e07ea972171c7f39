import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divalg import COMPLEX, OCTONION, QUATERNION, REAL, Scalar
from divalg.algebra import VALID_BETAS, structure_tensor
from divalg.algebra import mul as algebra_mul
from divalg.errors import (
    AlgebraMismatchError,
    ShapeMismatchError,
    SingularBlockError,
    UnsupportedAlgebraError,
)
from divalg.linalg import (
    Mat,
    complex_fold,
    complex_multiplicity,
    complex_raw,
    conj_raw,
    conj_transpose,
    ct_raw,
    eigvalsh_raw,
    hermitian_part,
    inv_hermitian_raw,
    inv_raw,
    inv_sqrt_hermitian_raw,
    logdet_hermitian_raw,
    frobenius_norm,
    inner_re,
    is_hermitian,
    load_matrix,
    mat_inv,
    matmul,
    mul_raw,
    numerical_rank,
    plane_sum,
    save_matrix,
    sdet,
    sdet_log,
    svdvals_raw,
)
from divalg.linalg import _ENTRY_ROWS

EMBED_KINDS = [REAL, COMPLEX, QUATERNION]
EMBED_BETAS = (1, 2, 4)


def rand_mat(kind, n, m, rng):
    return Mat(kind, rng.normal(size=(n, m, kind.beta)))


def _einsum_mul(a, b, beta):
    """Reference product: contract both factors against the structure tensor."""
    return np.einsum("...ikp,...kjq,pqr->...ijr", a, b, structure_tensor(beta))


def _einsum_embed(a, beta):
    """Reference left-regular representation: each entry becomes the
    beta x beta real matrix of left multiplication by it."""
    n, m = a.shape[-3], a.shape[-2]
    blocks = np.einsum("...ijp,pqr->...irjq", a, structure_tensor(beta))
    return blocks.reshape(a.shape[:-3] + (n * beta, m * beta))


# batch sizes on both sides of mul_raw's switch to the entry loop
ROWS = (_ENTRY_ROWS - 1, _ENTRY_ROWS, 4096)
# the engines' hot shapes (n, m, p): outer products, inner products, scalings
HOT_SHAPES = ((3, 2, 3), (2, 3, 2), (3, 3, 2), (2, 1, 2), (2, 2, 1), (1, 3, 1), (3, 1, 1))


@pytest.mark.parametrize("beta", VALID_BETAS)
@pytest.mark.parametrize(
    "a_shape,b_shape",
    [
        ((3, 3), (3, 3)),
        ((2, 4), (4, 3)),
        ((6, 3, 3), (6, 3, 3)),
        ((3, 3), (6, 3, 3)),  # one left factor against a batch
        ((6, 3, 3), (3, 3)),
        ((5, 1, 2, 3), (4, 3, 2)),  # batch axes broadcast to (5, 4)
        # the engines' hot shapes: inner products, scalings, outer products
        ((7, 1, 3), (7, 3, 1)),
        ((7, 3, 1), (7, 1, 1)),
        ((7, 2, 1), (7, 1, 2)),
        ((3, 3), (7, 3, 2)),
    ]
    + [((rows, 3, 2), (rows, 2, 3)) for rows in ROWS]
    + [((2, 3), (rows, 3, 1)) for rows in ROWS],
)
def test_mul_raw_matches_einsum_oracle(beta, a_shape, b_shape):
    rng = np.random.default_rng(beta)
    a = rng.normal(size=a_shape + (beta,))
    b = rng.normal(size=b_shape + (beta,))
    want = _einsum_mul(a, b, beta)
    got = mul_raw(a, b, beta)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize(
    "beta,rows",
    [pytest.param(beta, 2, id=str(beta)) for beta in VALID_BETAS]
    + [pytest.param(beta, rows, id=f"{rows}-{beta}") for rows in ROWS for beta in VALID_BETAS],
)
def test_mul_raw_non_contiguous_inputs(beta, rows):
    rng = np.random.default_rng(10 + beta)
    a = np.swapaxes(rng.normal(size=(2 * rows, 3, 5, beta)), 1, 2)[::2]  # (rows, 5, 3, beta)
    b = rng.normal(size=(rows, 3, 8, beta))[:, :, ::2]  # (rows, 3, 4, beta)
    assert not a.flags.c_contiguous and not b.flags.c_contiguous
    want = _einsum_mul(a, b, beta)
    np.testing.assert_allclose(
        mul_raw(a, b, beta), want, rtol=0, atol=1e-13 * np.abs(want).max()
    )


@pytest.mark.parametrize("beta", (4, 8))
@pytest.mark.parametrize(
    "scale,rows",
    [pytest.param(scale, 5, id=str(scale)) for scale in (1e150, 1e-150)]
    + [
        pytest.param(scale, rows, id=f"{rows}-{scale}")
        for rows in ROWS
        for scale in (1e150, 1e-150)
    ],
)
def test_mul_raw_keeps_relative_accuracy_at_extreme_scales(beta, scale, rows):
    rng = np.random.default_rng(40 + beta)
    a = rng.normal(size=(rows, 2, 3, beta)) * scale
    b = rng.normal(size=(rows, 3, 2, beta)) * scale
    want = _einsum_mul(a, b, beta)
    got = mul_raw(a, b, beta)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("beta", EMBED_BETAS)
@pytest.mark.parametrize("shape", HOT_SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("leads", ["both", "left-single", "right-one", "two-axes"])
def test_mul_raw_large_batch_is_the_small_batch_product_bit_for_bit(beta, shape, leads):
    """A 4096-row product equals, bit for bit, the concatenation of the same
    product on chunks of fewer than _ENTRY_ROWS rows: the entry loop sums
    the same Cayley-Dickson terms in the same order as the k loop."""
    n, m, p = shape
    rows, chunk = 4096, _ENTRY_ROWS - 1
    a_lead, b_lead = {
        "both": ((rows,), (rows,)),
        "left-single": ((), (rows,)),  # an unbatched B* against a batch
        "right-one": ((rows,), (1,)),
        "two-axes": ((rows // 4, 1), (1, 4)),
    }[leads]
    rng = np.random.default_rng(beta * 100 + n * 9 + m * 3 + p)
    a = rng.normal(size=a_lead + (n, m, beta))
    b = rng.normal(size=b_lead + (m, p, beta))
    got = mul_raw(a, b, beta)

    def cut(x, i):  # rows i.. of a factor batched along the first axis
        return x[i : i + chunk] if x.ndim > 3 and x.shape[0] > 1 else x

    want = np.concatenate(
        [mul_raw(cut(a, i), cut(b, i), beta) for i in range(0, got.shape[0], chunk)]
    )
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("beta", VALID_BETAS)
@pytest.mark.parametrize("rows", (1, 4096))
def test_mul_raw_rejects_mismatched_inner_dimensions(beta, rows):
    a = np.zeros((rows, 2, 3, beta))
    with pytest.raises(ShapeMismatchError):
        mul_raw(a, a, beta)


def test_single_matrices_and_chart_points_keep_the_k_loop(monkeypatch):
    """Mat products and the map batches of a single CHART point stay below
    _ENTRY_ROWS rows, so they never take the entry loop (a chunk of several
    points may take it, which gives the same bits)."""
    from divalg import linalg, verify

    def refuse(*args):
        raise AssertionError("a single matrix or CHART batch took the entry loop")

    monkeypatch.setattr(linalg, "_mul_entries", refuse)
    rng = np.random.default_rng(3)
    for kind in (REAL, COMPLEX, QUATERNION, OCTONION):
        a, b = rand_mat(kind, 3, 2, rng), rand_mat(kind, 2, 3, rng)
        assert (a @ b).shape == (3, 3)
    task = verify.TaskSpec(theorem_id="MP_RECT", beta=4, m=3, n=3, q=2, points=1, seed=5)
    assert verify.run_task(task).passed


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("shape", [(1, 3, 1), (1, 1, 1)], ids=["1x3x1", "1x1x1"])
def test_inner_products_keep_the_k_loop_at_any_batch(monkeypatch, beta, shape):
    """n = p = 1 products at beta <= 2 never take the entry loop: the k loop
    is already batch-inner there."""
    from divalg import linalg

    def refuse(*args):
        raise AssertionError("an inner product took the entry loop")

    monkeypatch.setattr(linalg, "_mul_entries", refuse)
    n, m, p = shape
    rng = np.random.default_rng(beta)
    a, b = rng.normal(size=(4096, n, m, beta)), rng.normal(size=(4096, m, p, beta))
    assert mul_raw(a, b, beta).shape == (4096, 1, 1, beta)


@pytest.mark.parametrize("beta", VALID_BETAS)
def test_scalar_mul_is_the_matrix_kernel_on_one_by_one(beta):
    kind = {1: REAL, 2: COMPLEX, 4: QUATERNION, 8: OCTONION}[beta]
    rng = np.random.default_rng(50 + beta)
    for _ in range(20):
        x, y = rng.normal(size=(2, beta))
        want = mul_raw(x[None, None], y[None, None], beta)[0, 0]
        got = algebra_mul(Scalar(kind, x), Scalar(kind, y)).coeffs
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the complex form, pinned to the left-regular oracle _einsum_embed


@pytest.mark.parametrize("beta", EMBED_BETAS)
@pytest.mark.parametrize(
    "a_shape,b_shape",
    [
        ((3, 2), (2, 4)),
        ((6, 3, 3), (3, 3)),
        ((5, 1, 2, 3), (4, 3, 2)),  # batch axes broadcast to (5, 4)
    ],
)
def test_complex_raw_is_a_homomorphism(beta, a_shape, b_shape):
    rng = np.random.default_rng(30 + beta)
    a = rng.normal(size=a_shape + (beta,))
    b = rng.normal(size=b_shape + (beta,))
    want = complex_raw(mul_raw(a, b, beta), beta)
    got = complex_raw(a, beta) @ complex_raw(b, beta)
    r = complex_multiplicity(beta)
    assert got.shape[-2:] == (r * a_shape[-2], r * b_shape[-1])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("beta", EMBED_BETAS)
@pytest.mark.parametrize("shape", [(3, 1, 1), (2, 3, 2), (5, 4, 2, 3)])
def test_complex_fold_inverts_complex_raw(beta, shape):
    rng = np.random.default_rng(40 + beta)
    a = rng.normal(size=shape + (beta,))
    # the coefficient axis last and contiguous, and moved there from the front
    moved = np.moveaxis(rng.normal(size=(beta,) + shape), 0, -1)
    for x in (a, a[..., ::-1, :, :], moved):
        c = complex_raw(x, beta)
        assert c.dtype == (np.float64 if beta == 1 else np.complex128)
        assert np.array_equal(complex_fold(c, beta), x)
        # a fresh (contiguous) copy of the form folds back too
        assert np.array_equal(complex_fold(c.copy(), beta), x)


@pytest.mark.parametrize("beta", EMBED_BETAS)
def test_complex_raw_maps_ct_raw_to_conjugate_transpose(beta):
    rng = np.random.default_rng(50 + beta)
    a = rng.normal(size=(4, 3, 2, beta))
    want = np.swapaxes(complex_raw(a, beta).conj(), -1, -2)
    assert np.array_equal(complex_raw(ct_raw(a), beta), want)


def _hermitian_pd_batch(rng, batch, m, beta):
    g = rng.normal(size=(batch, m + 1, m, beta))
    s = mul_raw(ct_raw(g), g, beta)
    return (s + ct_raw(s)) / 2.0


@pytest.mark.parametrize("beta", EMBED_BETAS)
def test_complex_form_spectra_match_embedding_multiplets(beta):
    rng = np.random.default_rng(60 + beta)
    r = complex_multiplicity(beta)
    s = _hermitian_pd_batch(rng, 6, 3, beta)
    e = _einsum_embed(s, beta)
    w_real = np.linalg.eigvalsh((e + np.swapaxes(e, -1, -2)) / 2.0)
    w_cx = np.linalg.eigvalsh(hermitian_part(complex_raw(s, beta)))
    np.testing.assert_allclose(
        w_cx.reshape(6, 3, r).mean(axis=2), w_real.reshape(6, 3, beta).mean(axis=2),
        rtol=0, atol=1e-12 * np.abs(w_real).max(),
    )
    x = rng.normal(size=(2, 3, 4, 2, beta))  # batch (2, 3) of 4 x 2 matrices
    sv_real = np.linalg.svd(_einsum_embed(x, beta), compute_uv=False)
    sv_cx = np.linalg.svd(complex_raw(x, beta), compute_uv=False)
    np.testing.assert_allclose(
        sv_cx.reshape(2, 3, 2, r).mean(axis=-1), sv_real.reshape(2, 3, 2, beta).mean(axis=-1),
        rtol=0, atol=1e-12 * sv_real.max(),
    )
    # the real embedding's log-determinant is beta / r times the complex form's
    _, ld_real = np.linalg.slogdet(e)
    _, ld_cx = np.linalg.slogdet(complex_raw(s, beta))
    np.testing.assert_allclose(beta // r * ld_cx, ld_real, rtol=1e-12)


@pytest.mark.parametrize("beta", EMBED_BETAS)
def test_complex_form_cholesky_is_the_upper_factor(beta):
    rng = np.random.default_rng(70 + beta)
    m = 3
    s = _hermitian_pd_batch(rng, 5, m, beta)
    low = np.linalg.cholesky(complex_raw(s, beta))
    t = complex_fold(np.swapaxes(low.conj(), -1, -2), beta)
    scale = np.abs(s).max()
    np.testing.assert_allclose(mul_raw(ct_raw(t), t, beta), s, rtol=0, atol=1e-12 * scale)
    below = np.tril_indices(m, -1)
    assert np.all(t[:, below[0], below[1], :] == 0.0)
    diag = t[:, np.arange(m), np.arange(m), :]
    assert np.all(diag[..., 0] > 0.0)
    np.testing.assert_allclose(diag[..., 1:], 0.0, atol=1e-12 * scale)


def test_complex_form_rejects_octonions():
    with pytest.raises(UnsupportedAlgebraError):
        complex_raw(np.ones((2, 2, 2, 8)), 8)
    with pytest.raises(UnsupportedAlgebraError):
        complex_fold(np.ones((2, 4, 4), dtype=complex), 8)
    with pytest.raises(UnsupportedAlgebraError):
        svdvals_raw(np.ones((3, 2, 2, 8)), 8)


# ---------------------------------------------------------------------------
# small-block kernels: closed forms for side 1 and 2 against LAPACK on the
# complex form.  The bound is 1e-12 times each matrix's spectral norm, the
# backward-error level of LAPACK itself, never relative to a tiny eigenvalue.

BATCH = (3, 4)  # broadcast batch axes
SPECTRA = {
    "pd": lambda u: 0.5 + 1.5 * u,
    "indefinite": lambda u: np.stack([-0.3 - u[..., 0], 0.2 + u[..., 1]], axis=-1),
    "negative": lambda u: -(0.5 + 1.5 * u),
    "zero": lambda u: 0.0 * u,
    "near_tied": lambda u: 1.0 + u[..., :1] + np.array([0.0, 1e-8]),
    "cond_1e10": lambda u: (1.0 + u[..., :1]) * np.array([1.0, 1e-10]),
}
SCALES = (1.0, 1e200, 1e-200)
KIND_OF = {1: REAL, 2: COMPLEX, 4: QUATERNION}


def _hermitian_with_spectrum(rng, lam, beta):
    """U diag(lam) U* over the algebra for Haar U, with BATCH batch axes,
    plus an anti-Hermitian part that the kernels must ignore."""
    from divalg.charts import assemble, sample_stiefel_batch

    count, n = int(np.prod(BATCH)), lam.shape[-1]
    u = sample_stiefel_batch(n, n, KIND_OF[beta], (rng,), count)
    s = assemble(lam.reshape(count, n), (u,), beta)
    g = rng.normal(size=s.shape) * np.abs(lam).max()
    skew = (g - ct_raw(g)) / 2.0
    return (s + skew).reshape(BATCH + s.shape[1:])


def _lapack_eigvalsh(a, beta):
    w = np.linalg.eigvalsh(hermitian_part(complex_raw(a, beta)))
    r = complex_multiplicity(beta)
    return w.reshape(w.shape[:-1] + (-1, r)).mean(axis=-1)


def _lapack_svdvals(a, beta):
    sv = np.linalg.svd(complex_raw(a, beta), compute_uv=False)
    r = complex_multiplicity(beta)
    return sv.reshape(sv.shape[:-1] + (-1, r)).mean(axis=-1)


def _eye_like(a):
    out = np.zeros(a.shape)
    n = a.shape[-2]
    out[..., np.arange(n), np.arange(n), 0] = 1.0
    return out


@pytest.mark.parametrize("beta", EMBED_BETAS)
@pytest.mark.parametrize("case", sorted(SPECTRA))
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_hermitian_kernels_match_lapack(beta, case, scale, n):
    rng = np.random.default_rng(80 + beta + 7 * n)
    u = rng.uniform(size=BATCH + (2,))
    lam = scale * SPECTRA[case](u)[..., :n]
    if n == 3:
        lam = np.concatenate([lam, lam[..., :1] * 0.5], axis=-1)
    a = _hermitian_with_spectrum(rng, lam, beta)
    norm = scale * np.abs(SPECTRA[case](u)).max(axis=-1)  # spectral norm per matrix
    with np.errstate(all="raise"):
        got = eigvalsh_raw(a, beta)
    want = _lapack_eigvalsh(a, beta)
    assert got.shape == BATCH + (n,)
    assert np.all(np.abs(got - want) <= 1e-12 * norm[..., None])
    if case == "zero":
        assert np.all(got == 0.0)
    if case in ("zero", "indefinite") or n == 1 and case == "cond_1e10":
        return
    # nonsingular, and definite where the remaining kernels need it
    lo, hi = np.abs(want).min(axis=-1), np.abs(want).max(axis=-1)
    cond = hi / lo
    h = hermitian_part(complex_raw(a, beta))
    inv = inv_hermitian_raw(a, beta)
    resid = np.abs(h @ complex_raw(inv, beta) - np.eye(h.shape[-1])).max(axis=(-1, -2))
    assert np.all(resid <= 1e-12 * cond)
    _, ld = np.linalg.slogdet(h)
    ld_want = ld / complex_multiplicity(beta)
    assert np.all(np.abs(logdet_hermitian_raw(a, beta) - ld_want) <= 1e-12 * cond)
    if case == "negative":
        return
    w, v = np.linalg.eigh(h)
    root = complex_fold((v * (1.0 / np.sqrt(w))[..., None, :]) @ np.swapaxes(v.conj(), -1, -2),
                        beta)
    got_root = inv_sqrt_hermitian_raw(a, beta)
    err = np.abs(got_root - root).max(axis=(-1, -2, -3))
    assert np.all(err <= 1e-12 * cond / np.sqrt(lo))
    if case != "cond_1e10":  # the whitening residual grows as cond^2
        herm = (a + ct_raw(a)) / 2.0
        whitened = mul_raw(mul_raw(got_root, herm, beta), got_root, beta)
        assert np.all(np.abs(whitened - _eye_like(a)).max(axis=(-1, -2, -3)) <= 1e-12)


@pytest.mark.parametrize("beta", EMBED_BETAS)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (2, 2), (3, 2)])
def test_singular_values_and_inverses_match_lapack(beta, scale, shape):
    rng = np.random.default_rng(90 + beta)
    a = scale * rng.normal(size=BATCH + shape + (beta,))
    a[0, 0] = 0.0  # a zero block gives zero, not NaN
    with np.errstate(all="raise"):
        got = svdvals_raw(a, beta)
    want = _lapack_svdvals(a, beta)
    assert got.shape == want.shape == BATCH + (min(shape),)
    assert np.all(np.abs(got - want) <= 1e-12 * want[..., :1])
    assert np.all(got[0, 0] == 0.0)
    if shape[0] != shape[1]:
        return
    x = a[1:]
    inv = inv_raw(x, beta)
    cond = want[1:, ..., 0] / want[1:, ..., -1]
    resid = np.abs(mul_raw(x, inv, beta) - _eye_like(x)).max(axis=(-1, -2, -3))
    assert np.all(resid <= 1e-12 * cond)


@pytest.mark.parametrize("beta", EMBED_BETAS)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("ratio", [0.0, 1e-10, 1.0 - 1e-7, 1.0])
def test_two_by_two_singular_values_hold_at_rank_one_and_near_ties(beta, scale, ratio):
    """The 2 x 2 closed form on V diag(1, ratio) W* for Haar V, W: rank one,
    near singular, nearly and exactly tied, against LAPACK on the complex
    form, with every floating-point exception raised."""
    from divalg.charts import assemble, sample_stiefel_batch

    rng = np.random.default_rng(110 + beta)
    count = int(np.prod(BATCH))
    v, w = (sample_stiefel_batch(2, 2, KIND_OF[beta], (rng,), count) for _ in range(2))
    d = np.tile([scale, scale * ratio], (count, 1))
    a = assemble(d, (v, w), beta).reshape(BATCH + (2, 2, beta))
    with np.errstate(all="raise"):
        got = svdvals_raw(a, beta)
    want = _lapack_svdvals(a, beta)
    assert np.all(np.abs(got - want) <= 1e-12 * want[..., :1])
    assert np.all(np.abs(got - d.reshape(BATCH + (2,))) <= 1e-12 * scale)


@pytest.mark.parametrize("beta", VALID_BETAS)
@pytest.mark.parametrize("shape", [(3, 2), (1, 1), (4, 3, 3)])
def test_conj_raw_matches_copy_then_negate(beta, shape):
    """Bytes, order and signed zeros as a copy with the imaginary
    coefficients negated, also on the swapped views ct_raw passes."""
    a = np.random.default_rng(beta).normal(size=shape + (beta,))
    a[..., 0, :] = 0.0
    for x in (a, np.swapaxes(a, -3, -2)):
        want = x.copy()
        want[..., 1:] = -want[..., 1:]
        got = conj_raw(x)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("beta", EMBED_BETAS)
def test_block_checks_keep_their_errors(beta):
    from divalg.charts import _inv_general_block, _inv_hermitian_block
    from divalg.errors import NotPsdError

    rng = np.random.default_rng(100 + beta)
    zero = np.zeros((3, 1, 1, beta))
    zero[1:, 0, 0, 0] = rng.uniform(1.0, 2.0, size=2)
    singular = np.zeros((2, 2, 2, beta))
    singular[:, :, :, 0] = [[1.0, 2.0], [2.0, 4.0]]  # rank one: eigenvalues 0 and 5
    singular[1] = np.eye(2)[:, :, None] * np.eye(beta)[0]
    for block in (zero, singular):
        with pytest.raises(NotPsdError, match=r"^S11 block is not positive definite \(min eigenvalue "):
            _inv_hermitian_block(block, beta)
        with pytest.raises(SingularBlockError, match="^X11 block is numerically singular$"):
            _inv_general_block(block, beta)
    # the positivity threshold is 1e-12 times each block's own largest
    # eigenvalue (1 for a zero block): a block with eigenvalues 1e4 and 5e-12
    # fails, while 1x1 blocks 5e-12 and 1e4 pass in one batch as alone
    spread = np.zeros((1, 2, 2, beta))
    spread[0, :, :, 0] = np.diag([1e4, 5e-12])
    with pytest.raises(NotPsdError, match=r"min eigenvalue 5\.000e-12"):
        _inv_hermitian_block(spread, beta)
    small = np.zeros((2, 1, 1, beta))
    small[:, 0, 0, 0] = [5e-12, 1e4]
    assert np.allclose(_inv_hermitian_block(small, beta)[:, 0, 0, 0], [2e11, 1e-4])
    assert np.allclose(_inv_hermitian_block(small[:1], beta)[:, 0, 0, 0], [2e11])


def test_identity_matmul():
    rng = np.random.default_rng(0)
    for kind in [REAL, COMPLEX, QUATERNION, OCTONION]:
        a = rand_mat(kind, 3, 4, rng)
        np.testing.assert_allclose((Mat.eye(kind, 3) @ a).data, a.data, atol=1e-14)


def test_quaternion_units_do_not_commute():
    i = Mat(QUATERNION, np.array([[[0.0, 1.0, 0.0, 0.0]]]))
    j = Mat(QUATERNION, np.array([[[0.0, 0.0, 1.0, 0.0]]]))
    k = np.array([0.0, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal((i @ j).data[0, 0], k)
    np.testing.assert_array_equal((j @ i).data[0, 0], -k)


@pytest.mark.parametrize("kind", EMBED_KINDS, ids=lambda k: k.name)
def test_embedding_is_multiplicative(kind):
    rng = np.random.default_rng(1)
    a = rand_mat(kind, 3, 4, rng)
    b = rand_mat(kind, 4, 2, rng)
    lhs = _einsum_embed((a @ b).data, kind.beta)
    rhs = _einsum_embed(a.data, kind.beta) @ _einsum_embed(b.data, kind.beta)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("kind", EMBED_KINDS, ids=lambda k: k.name)
def test_embedding_respects_conj_transpose(kind):
    rng = np.random.default_rng(2)
    a = rand_mat(kind, 3, 2, rng)
    np.testing.assert_allclose(
        _einsum_embed(conj_transpose(a).data, kind.beta),
        _einsum_embed(a.data, kind.beta).T,
        atol=1e-12,
    )


def test_complex_embedding_block():
    a = Mat(COMPLEX, np.array([[[2.0, 3.0]]]))
    np.testing.assert_array_equal(_einsum_embed(a.data, 2), np.array([[2.0, -3.0], [3.0, 2.0]]))


def test_real_embedding_is_identity_map():
    rng = np.random.default_rng(3)
    a = rand_mat(REAL, 3, 3, rng)
    np.testing.assert_array_equal(_einsum_embed(a.data, 1), a.data[:, :, 0])


def test_conj_transpose_involution_and_product_rule():
    rng = np.random.default_rng(5)
    a = rand_mat(QUATERNION, 3, 2, rng)
    b = rand_mat(QUATERNION, 2, 4, rng)
    np.testing.assert_array_equal(conj_transpose(conj_transpose(a)).data, a.data)
    lhs = conj_transpose(a @ b)
    rhs = conj_transpose(b) @ conj_transpose(a)
    np.testing.assert_allclose(lhs.data, rhs.data, atol=1e-12)


def test_sdet_examples():
    for kind in EMBED_KINDS:
        assert sdet(Mat.eye(kind, 3)) == pytest.approx(1.0, abs=1e-12)
    d = Mat.from_real(REAL, np.diag([2.0, 3.0]))
    assert sdet(d) == pytest.approx(6.0, rel=1e-12)
    # diag(q, 1) with norm(q) = 2
    q = np.array([1.0, 1.0, 1.0, 1.0])
    data = np.zeros((2, 2, 4))
    data[0, 0] = q
    data[1, 1, 0] = 1.0
    assert sdet(Mat(QUATERNION, data)) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("kind", EMBED_KINDS, ids=lambda k: k.name)
def test_sdet_is_multiplicative_and_unitary_invariant(kind):
    rng = np.random.default_rng(6)
    a = rand_mat(kind, 3, 3, rng)
    b = rand_mat(kind, 3, 3, rng)
    assert sdet(a @ b) == pytest.approx(sdet(a) * sdet(b), rel=1e-8)
    # unitary factor from the embedding's QR, folded back
    from divalg.decomp import qr_positive

    u = qr_positive(rand_mat(kind, 3, 3, rng), 3).h1
    assert sdet(u @ a) == pytest.approx(sdet(a), rel=1e-8)
    assert sdet(a @ u) == pytest.approx(sdet(a), rel=1e-8)


def test_sdet_log_singular():
    for kind in EMBED_KINDS:
        for side in (1, 2):
            z = Mat.zeros(kind, side, side)
            assert sdet(z) == 0.0
            assert sdet_log(z) == -np.inf


def test_numerical_rank():
    assert numerical_rank(Mat.zeros(COMPLEX, 3, 2)) == 0
    for kind in EMBED_KINDS:
        for side in (1, 2):
            assert numerical_rank(Mat.zeros(kind, side, side)) == 0
    d = Mat.from_real(COMPLEX, np.diag([1.0, 1e-14]))
    assert numerical_rank(d, tol=1e-8) == 1
    rng = np.random.default_rng(7)
    for kind in EMBED_KINDS:
        for q in (1, 2):
            p = rand_mat(kind, 4, q, rng)
            r = rand_mat(kind, 3, q, rng)
            assert numerical_rank(p @ conj_transpose(r)) == q


def test_mat_inv():
    rng = np.random.default_rng(8)
    for kind in EMBED_KINDS:
        a = rand_mat(kind, 3, 3, rng)
        prod = a @ mat_inv(a)
        np.testing.assert_allclose(prod.data, Mat.eye(kind, 3).data, atol=1e-10)
    for kind in EMBED_KINDS:
        for side in (1, 2):
            with pytest.raises(SingularBlockError):
                mat_inv(Mat.zeros(kind, side, side))


def test_octonion_matrices_limited_support():
    rng = np.random.default_rng(9)
    a = rand_mat(OCTONION, 2, 2, rng)
    b = rand_mat(OCTONION, 2, 2, rng)
    (a + b), (-a), conj_transpose(a)  # construction-level ops stay available
    for op in (sdet, numerical_rank, mat_inv):
        with pytest.raises(UnsupportedAlgebraError):
            op(a)


def test_shape_and_kind_errors():
    rng = np.random.default_rng(10)
    a = rand_mat(COMPLEX, 2, 3, rng)
    b = rand_mat(COMPLEX, 2, 3, rng)
    with pytest.raises(ShapeMismatchError):
        matmul(a, b)
    with pytest.raises(AlgebraMismatchError):
        matmul(a, rand_mat(QUATERNION, 3, 2, rng))
    with pytest.raises(ShapeMismatchError):
        sdet(a)
    with pytest.raises(ValueError):
        Mat(REAL, np.full((1, 1, 1), np.nan))


def test_inner_re_matches_trace_form():
    rng = np.random.default_rng(11)
    a = rand_mat(QUATERNION, 3, 2, rng)
    b = rand_mat(QUATERNION, 3, 2, rng)
    prod = conj_transpose(a) @ b
    trace_re = sum(prod.entry(i, i).coeffs[0] for i in range(2))
    assert inner_re(a, b) == pytest.approx(trace_re, rel=1e-12)
    assert frobenius_norm(a) == pytest.approx(np.sqrt(inner_re(a, a)), rel=1e-12)


def test_is_hermitian():
    rng = np.random.default_rng(12)
    a = rand_mat(QUATERNION, 3, 3, rng)
    s = a @ conj_transpose(a)
    assert is_hermitian(s)
    assert not is_hermitian(a)
    assert not is_hermitian(rand_mat(REAL, 2, 3, rng))
    # the norms are scaled: at 1e200 they once compared inf <= inf
    assert is_hermitian(s * 1e200)
    assert not is_hermitian(a * 1e200)
    # and relative to the norm below scale 1, where an absolute floor of 1
    # once passed anything
    assert is_hermitian(s * 1e-200)
    assert not is_hermitian(a * 1e-200)
    assert not is_hermitian(Mat(REAL, [[[1.0], [2.0]], [[0.0], [1.0]]]) * 1e-200)
    assert is_hermitian(Mat.zeros(QUATERNION, 2, 2))


def test_frobenius_norm_is_scale_safe():
    a = rand_mat(COMPLEX, 3, 2, np.random.default_rng(14))
    for scale in (1e-200, 1e200):
        assert frobenius_norm(a * scale) == pytest.approx(scale * frobenius_norm(a), rel=1e-14)
    assert frobenius_norm(Mat.zeros(REAL, 2, 2)) == 0.0


@pytest.mark.parametrize("d", list(range(1, 60)) + [128, 129, 300])
def test_plane_sum_is_numpy_sum_bit_for_bit(d):
    """numpy's pairwise order on planes: magnitudes spread over ~1e+-20, so
    any other order of the additions would change low bits."""
    rng = np.random.default_rng(d)
    x = rng.normal(size=(3, 37, d)) * np.exp(rng.normal(size=(3, 37, d)) * 10)
    planes = np.moveaxis(x, -1, 0).copy()
    got = plane_sum(planes)
    assert got.tobytes() == np.sum(x, axis=-1).tobytes()
    assert np.shares_memory(got, planes)  # summed in place, into planes[0]


def test_plane_sum_propagates_nan_and_inf_and_keeps_numpy_zeros():
    for d in (5, 12, 130):
        x = np.random.default_rng(d).normal(size=(6, d))
        x[0, 1], x[1, d - 1], x[2, 2], x[3, 0], x[3, d - 2] = np.nan, np.inf, -np.inf, np.inf, -np.inf
        x[4] = -0.0
        with np.errstate(invalid="ignore"):  # inf + -inf
            want = np.sum(x, axis=-1)
            got = plane_sum(x.T.copy())
        assert np.array_equal(np.isnan(got), np.isnan(want)) and np.isnan(got[[0, 3]]).all()
        assert got[1:3].tolist() == [np.inf, -np.inf]
        assert got[4:].tobytes() == want[4:].tobytes()  # +0.0 from -0.0s, as numpy gives
    assert plane_sum(np.empty((0, 4))).tolist() == [0.0] * 4


def test_matrix_json_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    a = rand_mat(QUATERNION, 2, 3, rng)
    path = tmp_path / "mat.json"
    save_matrix(a, path)
    back = load_matrix(path)
    assert back.kind == a.kind
    np.testing.assert_array_equal(back.data, a.data)
    import json

    doc = json.loads(path.read_text())
    assert set(doc) == {"beta", "rows", "cols", "entries"}
    assert doc["rows"] == 2 and doc["cols"] == 3 and doc["beta"] == 4


def test_entry_and_constructors():
    m = Mat.from_real(COMPLEX, np.array([[1.0, 2.0]]))
    e = m.entry(0, 1)
    assert isinstance(e, Scalar)
    np.testing.assert_array_equal(e.coeffs, [2.0, 0.0])
    assert Mat.eye(QUATERNION, 2).shape == (2, 2)
    with pytest.raises(ShapeMismatchError):
        Mat(COMPLEX, np.zeros((2, 2, 4)))


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_embedding_additivity(data):
    kind = data.draw(st.sampled_from(EMBED_KINDS))
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 3))
    elems = st.floats(min_value=-5, max_value=5, allow_nan=False)
    a = Mat(kind, np.array(data.draw(st.lists(st.lists(st.lists(elems, min_size=kind.beta, max_size=kind.beta), min_size=m, max_size=m), min_size=n, max_size=n))))
    b = Mat(kind, np.array(data.draw(st.lists(st.lists(st.lists(elems, min_size=kind.beta, max_size=kind.beta), min_size=m, max_size=m), min_size=n, max_size=n))))
    np.testing.assert_allclose(
        _einsum_embed((a + b).data, kind.beta),
        _einsum_embed(a.data, kind.beta) + _einsum_embed(b.data, kind.beta),
        atol=1e-12,
    )
