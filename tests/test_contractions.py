"""Per-iteration contractions: batched matrix products against einsum oracles.

The package runs every per-iteration contraction as a batched ``@``; the
index expressions they replace live in ``reference_contractions.py``.
Matmul hands BLAS-compatible slices to BLAS and walks other strides
itself, while einsum has one loop for all layouts, so each product is
checked on a C-contiguous mixture and on a transposed view of one.  A
guard keeps ``np.einsum`` out of the modules that run every iteration.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from reference_contractions import (
    ggd_cost_einsum,
    inverse_and_log_det,
    magnitudes_einsum,
    mixture_gram_einsum,
    output_power_einsum,
    quartic_majorizer_einsum,
    separate_einsum,
    update_activations_einsum,
    update_bases_einsum,
)

import ggdilrma
from ggdilrma.cost import ggd_cost_arrays
from ggdilrma.demix_homogeneous import _form_coeffs, mixture_gram, quartic_majorizer
from ggdilrma.pipeline import separate
from ggdilrma.source_model import update_activations_arrays, update_bases_arrays

RTOL = 1e-12
I, K = 5, 3

SHAPES = pytest.mark.parametrize("N, J", [(2, 1), (2, 7), (3, 1), (3, 7)])
LAYOUTS = pytest.mark.parametrize("layout", ["contiguous", "transposed"])


def mixture(I, J, M, layout, seed):
    """``(I, J, M)`` complex mixture, either C-contiguous or a reversed-axes view."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((M, J, I)) + 1j * rng.standard_normal((M, J, I))
    xd = data.transpose(2, 1, 0)
    if layout == "contiguous":
        xd = np.ascontiguousarray(xd)
    assert xd.flags.c_contiguous == (layout == "contiguous")
    return xd


def demixing(I, N, seed):
    rng = np.random.default_rng(seed)
    return np.eye(N) + 0.3 * (rng.standard_normal((I, N, N)) + 1j * rng.standard_normal((I, N, N)))


def factors(N, I, K, J, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.2, 1.5, (N, I, K)), rng.uniform(0.2, 1.5, (N, K, J))


@SHAPES
@LAYOUTS
def test_separate_matches_einsum(N, J, layout):
    xd, W = mixture(I, J, N, layout, 1), demixing(I, N, 2)
    np.testing.assert_allclose(separate(xd, W), separate_einsum(xd, W), rtol=RTOL)


#: Bound on the separation's deviation from the per-bin complex BLAS product
#: ``xd[i] @ W[i].T``, relative to the bin's largest output: the separation's
#: real product of interleaved parts may round differently.
SEPARATE_RTOL = 1e-15


@pytest.mark.parametrize("N", [2, 3, 4])
@LAYOUTS
def test_separate_lays_its_outputs_out_row_major(N, layout):
    xd, W = mixture(65, 40, N, layout, 3), demixing(65, N, 4)
    y = separate(xd, W)
    assert y.shape == (65, 40, N)
    assert y.dtype == np.complex128 and y.flags.c_contiguous
    for i in range(len(xd)):
        ref = xd[i] @ W[i].T
        assert np.max(np.abs(y[i] - ref)) <= SEPARATE_RTOL * np.max(np.abs(ref))


@SHAPES
@LAYOUTS
def test_mixture_gram_matches_einsum(N, J, layout):
    xd = mixture(I, J, N, layout, 11)
    gram = mixture_gram(xd)
    assert gram.shape == (I, N * N, J) and gram.dtype == np.float64
    np.testing.assert_allclose(gram, mixture_gram_einsum(xd), rtol=RTOL)


@SHAPES
@LAYOUTS
def test_quadratic_form_of_the_features_matches_einsum(N, J, layout):
    # |W x|^2 = a(w) . P: one real product of the rows' coefficients and the features
    xd, W = mixture(I, J, N, layout, 12), demixing(I, N, 13)
    power = (_form_coeffs(W) @ mixture_gram(xd)).transpose(0, 2, 1)
    np.testing.assert_allclose(power, output_power_einsum(xd, W), rtol=RTOL)
    np.testing.assert_allclose(power, np.abs(separate_einsum(xd, W)) ** 2, rtol=RTOL)


@SHAPES
@LAYOUTS
def test_quartic_majorizer_matches_einsum(N, J, layout):
    xd = mixture(I, J, N, layout, 3)
    rng = np.random.default_rng(4)
    w = rng.standard_normal((I, N)) + 1j * rng.standard_normal((I, N))
    w[0] = 0.0  # a degenerate anchor: flagged, and G = 0 there
    radius = rng.uniform(0.3, 2.0, (I, J))
    yd = np.einsum("ijm,im->ij", xd, w.conj())
    # one row, its anchor's |y~|^2, at p = 1 so that the scale field is r
    G, good, _ = quartic_majorizer(
        mixture_gram(xd), np.abs(yd[None]) ** 2, w.conj()[:, None], 1.0 / radius[None], 1.0,
        np.empty((1, I, J)),
    )
    G, good = G[:, 0], good[0]
    G_ref, good_ref = quartic_majorizer_einsum(xd, yd, radius)
    np.testing.assert_array_equal(good, good_ref)
    assert not good[0] and good[1:].all()
    np.testing.assert_allclose(G, G_ref, rtol=RTOL)


@SHAPES
@LAYOUTS
@pytest.mark.parametrize("beta, p", [(4.0, 1.0), (2.0, 2.0), (1.0, 0.5)])
def test_nmf_updates_match_einsum(N, J, layout, beta, p):
    T, V = factors(N, I, K, J, 5)
    yd = separate_einsum(mixture(I, J, N, layout, 6), demixing(I, N, 7))
    abs_y = np.abs(np.moveaxis(yd, 2, 0))
    T0, V0 = T.copy(), V.copy()
    T_new = update_bases_arrays(T, V, 1.0 / (T @ V), abs_y**p, beta, p)
    np.testing.assert_allclose(T_new, update_bases_einsum(T, V, abs_y, beta, p), rtol=RTOL)
    V_new = update_activations_arrays(T, V, abs_y**p, beta, p)
    np.testing.assert_allclose(V_new, update_activations_einsum(T, V, abs_y, beta, p), rtol=RTOL)
    np.testing.assert_array_equal(T, T0)  # both updates leave their inputs as given
    np.testing.assert_array_equal(V, V0)


@SHAPES
@LAYOUTS
@pytest.mark.parametrize("beta, p", [(4.0, 1.0), (2.0, 2.0)])
def test_ggd_cost_matches_einsum(N, J, layout, beta, p):
    xd, W = mixture(I, J, N, layout, 8), demixing(I, N, 9)
    T, V = factors(N, I, K, J, 10)
    yp = magnitudes_einsum(xd, W) ** p
    inv_S = np.empty_like(yp)
    cost = ggd_cost_arrays(yp, inverse_and_log_det(W)[1], T, V, inv_S, beta, p)
    assert cost == pytest.approx(ggd_cost_einsum(xd, W, T, V, beta, p), rel=RTOL)
    np.testing.assert_allclose(inv_S * np.einsum("nik,nkj->nij", T, V), 1.0, rtol=RTOL)


# Modules whose functions run on every iteration, and the matmul form that
# replaces each einsum subscript they used to carry.
HOT_PATH_MODULES = [
    "pipeline.py",
    "cost.py",
    "demix_homogeneous.py",
    "demix_ip.py",
    "source_model.py",
]
MATMUL_FORMS = (
    "inm,ijm->ijn: xd @ W.transpose(0, 2, 1); "
    "ijm,im->ij: (xd @ w[:, :, None])[..., 0]; "
    "ij,ija,ijb->iab: mixture_gram(xd) @ weight columns, as Hermitian features; "
    "nij,nkj->nik: A @ V.transpose(0, 2, 1); "
    "nij,nik->nkj: T.transpose(0, 2, 1) @ A"
)


def einsum_uses(source: str):
    """Line numbers of every ``einsum`` call or import in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "einsum":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "einsum" for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", HOT_PATH_MODULES)
def test_hot_path_has_no_einsum(module):
    path = Path(ggdilrma.__file__).parent / module
    lines = einsum_uses(path.read_text())
    assert not lines, (
        f"{module} calls einsum at line(s) {lines}; per-iteration contractions run as "
        f"batched matmuls on contiguous operands ({MATMUL_FORMS}), and the einsum form "
        f"belongs in tests/reference_contractions.py"
    )


def test_guard_detects_einsum():
    source = (
        "import numpy as np\n"
        "from numpy import einsum\n"
        "y = np.einsum('ij->i', x)\n"
        "z = einsum('i->', y)\n"
    )
    assert einsum_uses(source) == [2, 3, 4]
