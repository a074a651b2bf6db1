"""Fixed-size complex matrix kernel (2x2 and 4x4).

Composite-space convention: the joint space of system and field qubits uses
the product basis ordered (s0 f0, s1 f0, s0 f1, s1 f1) -- the system index is
the fast one. Consequently ``tensor(a, b)`` with ``a`` acting on the system
and ``b`` on the field is ``kron(b, a)``, and the 2x2 blocks of a 4x4
operator are field-sector blocks whose entries act on the system.

Liouville-space convention: a 2x2 operator x is flattened row-major,
vec(x) = x.reshape(4). A linear map on operators then acts on row vectors,
vec(a @ x @ b) = vec(x) @ kron(a, b.T).T, so it is a 4x4 superoperator,
built from such terms by ``sandwich_superop``. The stepping cores do not
apply it to vec'd states: they take its real Bloch form below.

Bloch convention: a unit-trace Hermitian x = (I + r.sigma)/2 has vec(x) =
(1, r) @ T, with the rows of T = BLOCH_BASIS equal to vec(I, sigma_x,
sigma_y, sigma_z)/2; see ``bloch_superop``. x is a state exactly when
|r| <= 1, so the Bloch ball carries positivity: ``project_ball`` is the
eigen-clip onto it. The stepping cores hold an ensemble as a C-contiguous
(3, M) array of Bloch rows (x, y, z), and ``bloch_apply`` takes their real
products (1, r) @ A row by row into a (k, M) buffer they reuse every step,
following a plan ``bloch_terms(A)`` built once per pass. While the states
are finite it skips the products of A's exact-zero coefficients, with the
same bits; its docstring says why.

All functions are pure but ``bloch_apply``, which writes into the buffer it
is given; matrices are plain complex ndarrays.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-10

BLOCH_BASIS = 0.5 * np.array([[1, 0, 0, 1], [0, 1, 1, 0],
                              [0, -1j, 1j, 0], [1, 0, 0, -1]])
_BLOCH_INV = 2.0 * BLOCH_BASIS.conj().T     # the rows are orthogonal, T T+ = I/2
BLOCH_IMAG_TOL = 1e-12


def max_abs(m: np.ndarray) -> float:
    """Max-entry norm."""
    return float(np.max(np.abs(m)))


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of the trailing two axes, so stacks work too)."""
    return np.conjugate(np.swapaxes(m, -1, -2))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product operator a (system) tensor b (field) of 2x2 matrices in the
    basis above: kron(b, a), as one broadcast product with the same scalar
    products, so the same bits."""
    return (b[:, None, :, None] * a[None, :, None, :]).reshape(4, 4)


def sandwich_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """4x4 superoperator S of x -> a @ x @ b on 2x2 matrices, acting on row
    vectors: vec(a @ x @ b) = vec(x) @ S with row-major vec. S =
    kron(a, b.T).T, as one broadcast product like ``tensor``."""
    return (a.T[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def bloch_terms(a: np.ndarray) -> tuple[list, list | None]:
    """The plan of ``bloch_apply`` for a real (4, k) matrix A, built once per
    pass: (every, kept). ``every`` holds each column (a0, a1, a2, a3) of A as
    Python floats, ``A.T.tolist()``. ``kept`` holds each column as (a0,
    first, rest): its constant, then its terms (i, c) whose coefficient c of
    state component i is not +-0, in order, the first one apart (None if
    there is none). A column whose constant is -0.0 keeps all three terms.
    ``kept`` is None when it drops no term, as for a dense matrix.
    """
    every = a.T.tolist()
    kept, dropped = [], False
    for a0, *coef in every:
        terms = tuple(enumerate(coef))
        if a0 != 0.0 or math.copysign(1.0, a0) > 0.0:
            terms = tuple((i, c) for i, c in terms if c != 0.0)
        dropped |= len(terms) < 3
        kept.append((a0, terms[0], terms[1:]) if terms else (a0, None, ()))
    return every, kept if dropped else None


def bloch_apply(r: np.ndarray, terms: tuple, out: np.ndarray) -> np.ndarray:
    """Write (1, r_j) @ A into column j of the (k, M) array ``out`` and
    return it, for a (3, M) array of Bloch rows (x, y, z) and the plan
    ``bloch_terms(A)`` of a real (4, k) matrix A.

    Row i of ``out`` is ((a0 + x a1) + y a2) + z a3 for column (a0, a1, a2,
    a3) of A, a fixed sequence of elementwise products and sums, so every
    entry of a column is computed by the same operations whatever M: an
    ensemble member is bit-identical to the same member run as a batch of
    one. A BLAS product promises no such thing (gemv for one row and gemm
    for many may round differently). The rows are taken one at a time into
    ``out``, which the caller allocates once per pass, through one scratch
    row.

    While every component of r is finite, a column takes only its nonzero
    terms, or is filled with a0 if it has none, with the same bits. A
    product of a finite component and a +-0 coefficient is +-0. A sum of
    two floats is -0 only when both are -0, so if a0 is not -0 no partial
    sum of the column is -0, and adding +-0 to a sum that is not -0 leaves
    it unchanged, inf and NaN included. With an inf or NaN component, inf
    times 0 is NaN, so every column takes all of its terms, as it does when
    the matrix is dense. The single-path loops ``discrete._scalar_chain``
    and ``sde._scalar_density`` take all of the products and sums, in the
    same order, on Python floats; that they give the same bits is checked
    by the tests.
    """
    every, kept = terms
    comps = tuple(r)
    x, y, z = comps
    tmp = np.empty_like(x)
    if kept is not None and np.isfinite(r).all():
        for row, (a0, first, rest) in zip(out, kept):
            if first is None:
                row.fill(a0)
                continue
            i, c = first
            np.multiply(comps[i], c, out=row)
            row += a0
            for i, c in rest:
                np.multiply(comps[i], c, out=tmp)
                row += tmp
        return out
    for row, (a0, a1, a2, a3) in zip(out, every):
        np.multiply(x, a1, out=row)
        row += a0
        np.multiply(y, a2, out=tmp)
        row += tmp
        np.multiply(z, a3, out=tmp)
        row += tmp
    return out


def bloch_superop(s: np.ndarray) -> np.ndarray:
    """Real form T S T^-1 of a 4x4 superoperator S, acting on u = (1, r):
    vec(x) @ S = (u @ T S T^-1) @ T. For a (4,) column g of a functional
    vec(x) @ g, the column T g. Raises ValueError if the imaginary part
    exceeds BLOCH_IMAG_TOL times max(1, largest real entry): S does not map
    Hermitian operators to Hermitian ones."""
    out = BLOCH_BASIS @ s
    if out.ndim == 2:
        out = out @ _BLOCH_INV
    imag = max_abs(out.imag)
    if not imag <= BLOCH_IMAG_TOL * max(1.0, max_abs(out.real)):
        raise ValueError(f"superoperator is not real in the Bloch basis: "
                         f"imaginary part {imag:.3e}")
    return out.real.copy()


def density_to_bloch(m: np.ndarray) -> np.ndarray:
    """(..., 3) Bloch vectors r = Tr[x sigma] of a (..., 2, 2) Hermitian stack."""
    return np.stack([(m[..., 0, 1] + m[..., 1, 0]).real,
                     (m[..., 1, 0] - m[..., 0, 1]).imag,
                     (m[..., 0, 0] - m[..., 1, 1]).real], axis=-1)


def bloch_to_density(r: np.ndarray) -> np.ndarray:
    """(..., 2, 2) states (I + r.sigma)/2 of a (..., 3) stack of Bloch
    vectors, entry by entry, so a row does not depend on the stack size."""
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    out = 0.5 * np.stack([1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z], axis=-1)
    return out.reshape(r.shape[:-1] + (2, 2))


def project_ball(r: np.ndarray) -> np.ndarray:
    """r / max(1, |r|) on a (..., 3) stack of Bloch vectors: the eigen-clip
    at zero and trace renormalization of (I + r.sigma)/2, since with its
    smallest eigenvalue lo = (1 - |r|)/2, (rho - lo I)/(1 - 2 lo) =
    (I + r.sigma/|r|)/2. |r| comes from nested hypot, so finite components
    up to about 1e308 do not overflow it. A row whose |r| is still not
    finite (components near the float maximum, or an inf or NaN component)
    becomes NaN, so the invariant checks reject it rather than r / inf
    giving the maximally mixed state."""
    norm = np.hypot(np.hypot(r[..., 0], r[..., 1]), r[..., 2])
    scale = np.where(np.isfinite(norm), np.maximum(norm, 1.0), np.nan)
    return r / scale[..., None]
