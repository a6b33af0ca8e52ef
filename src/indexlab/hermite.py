"""Finite Hermite-basis quantization of affine matrix symbols.

An affine symbol ``H(mu, x, xi) = A(mu) + B x + C xi`` with Hermitian
``d x d`` coefficients is represented on ``(levels 0..M) (x) C^d`` by
substituting the truncated ladder-operator matrices for position and
momentum.  Because affine symbols couple neighbouring Hermite levels only,
low-lying modes have exact finite support and the hard cutoff at level M is
exact for them; the top ``guard_levels`` levels are reserved for detecting
the truncation-edge artifacts that the cutoff necessarily creates.

The operator is ``A(mu) (x) 1 + s (K (x) a^dag + K^dag (x) a)``, ``K = B + iC``,
``s = sqrt(eps/2)``.  A Hermitian ``D`` with ``[D, K] = -K`` and ``[D, A(mu)] =
0`` makes ``Q = D (x) 1 + 1 (x) n`` commute with it, truncated or not
(``[n, a^dag] = a^dag`` holds): its Q-eigenspaces are the charge blocks.

A charge block q is *complete* when every index ``(i, n = q - delta_i >= 0)``
lies at a level ``n <= M``: it is then an exact block of the untruncated
operator too, and its eigenvalues need no artifact filter.  Only the few
incomplete top blocks can hold truncation artifacts.

Every ``A(mu)`` is evaluated and checked by :meth:`AffineMatrixSymbol.const_stack`.
Only a :class:`LinearTerm` ``A(mu) = A0 + mu A1`` has a ``D``: :func:`charge_operator`
fits ``[D, A0] = [D, A1] = 0``, which holds at every mu, so nothing re-checks it.  The
symmetry belongs to the symbol: :attr:`AffineMatrixSymbol.charge` fits and diagonalizes
``D`` once per symbol, and every consumer reads that pair.  All functions here are pure;
returned arrays are freshly allocated and safe to share between threads, but for that
cached pair, which is read-only.  An :class:`OperatorPieces` keeps the stacks it has
built: the complete charge blocks, or else the whole operator.  Each stack assembles a
``(k, d, d)`` stack of ``A(mu)`` at once, so many mu values share one batched solve, and
hands its blocks out in the form they are solved in (:meth:`BlockStack.form`): the real
form below for a stack of tridiagonal blocks.

In D's eigenbasis ``B (x) xhat + C (x) xihat`` couples weight delta only to
delta +- 1, so for a D with distinct eigenvalues (every shipped family's) each
charge block is a Hermitian tridiagonal ``h``, similar through a diagonal
unitary to the real ``S`` with ``Re h_ii`` on the diagonal and ``|h_{i+1,i}|``
beside it (Parlett, *The Symmetric Eigenvalue Problem*, ch. 7).  The symbol
itself takes the same form on the half-plane ``xi = 0``, ``x = r >= 0``:
:attr:`AffineMatrixSymbol.real_form` writes ``H(mu, r, 0)`` as a real tridiagonal
``T(mu, r)``, which the gap certificate and the charge-orbit solves of
:mod:`indexlab.topology` solve in place of the complex matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import GapCertificateError, ModelError

__all__ = [
    "Record",
    "TruncatedBasis",
    "AffineMatrixSymbol",
    "as_points",
    "TruncatedOperator",
    "BlockStack",
    "RealForm",
    "OperatorPieces",
    "LinearTerm",
    "ladder_matrices",
    "position_momentum",
    "quantize",
    "spurious_weight",
    "spurious_weights",
    "charge_operator",
    "charge_orbits",
    "sampled_gap_certificate",
]


class Record:
    """A frozen dataclass of a subclass's annotated fields that ``exec``s no generated source
    (about 1 ms of import per class).  A class attribute is a field's default, ``__post_init__``
    (if any) checks the fields, and passing every field by position is the fast path."""

    def __init_subclass__(cls):
        fields = tuple(vars(cls).get("__annotations__", ()))
        defaults = {name: vars(cls)[name] for name in fields if name in vars(cls)}
        check, set_dict, n = vars(cls).get("__post_init__"), object.__setattr__, len(fields)

        def __init__(self, *args, **kwargs):
            if len(args) != n or kwargs:
                values = {**defaults, **dict(zip(fields, args)), **kwargs}
                if (len(args) > n or values.keys() != set(fields)
                        or not kwargs.keys().isdisjoint(fields[:len(args)])):
                    raise TypeError(f"{cls.__name__} takes the fields {', '.join(fields)}")
                args = map(values.__getitem__, fields)
            set_dict(self, "__dict__", dict(zip(fields, args)))
            if check is not None:
                check(self)

        cls.__init__ = __init__

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is a record: {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


#: Eigenpairs of the whole operator whose squared amplitude on the guard
#: levels exceeds this are treated as truncation artifacts and excluded from
#: spectral-flow counts.
SPURIOUS_THRESHOLD = 1e-8


class TruncatedBasis(Record):
    """Hermite levels ``0..max_level`` with semiclassical parameter epsilon.

    ``guard_levels`` top levels are used only to flag truncation artifacts;
    ``max_level >= 2 * guard_levels`` keeps a usable interior.
    """

    max_level: int
    epsilon: float = 1.0
    guard_levels: int = 5

    def __post_init__(self):
        if self.max_level < 2:
            raise ModelError(f"max_level must be >= 2, got {self.max_level}")
        if not 0 < self.epsilon < np.inf:
            raise ModelError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.guard_levels < 1:
            raise ModelError("guard_levels must be >= 1")
        if self.max_level < 2 * self.guard_levels:
            raise ModelError(
                f"max_level={self.max_level} < 2*guard_levels={2 * self.guard_levels}"
            )

    @property
    def size(self) -> int:
        """Number of retained Hermite levels, M + 1."""
        return self.max_level + 1


@dataclass(frozen=True)
class AffineMatrixSymbol:
    """Family of Hermitian symbols ``H_mu(x, xi) = A(mu) + B x + C xi``.

    ``const_term`` is a callback so the mu-dependence may be nonlinear.  It
    takes a 1-D float array of n values of mu and returns the ``(n, d, d)``
    complex stack ``A(mu)``; :meth:`const_stack` raises :class:`ModelError`
    for any other shape or a non-Hermitian ``A(mu)``; only a :class:`LinearTerm`
    can have a charge operator, which :attr:`charge` holds diagonalized.
    ``gap_band`` is the number of bands below the tracked spectral gap (0 is
    allowed for scalar controls with no band below the gap) and
    ``gap_center``/``gap_constant`` certify that, away from the origin, band
    ``gap_band`` stays below ``gap_center - gap_constant`` while band
    ``gap_band + 1`` stays above ``gap_center + gap_constant``.
    """

    dim: int
    const_term: Callable[[np.ndarray], np.ndarray]
    x_coeff: np.ndarray
    xi_coeff: np.ndarray
    gap_band: int
    gap_constant: float
    gap_center: float = 0.0
    name: str = "affine-symbol"

    def __post_init__(self):
        if self.dim < 1:
            raise ModelError(f"dim must be >= 1, got {self.dim}")
        if not 0 <= self.gap_band <= self.dim:
            raise ModelError(
                f"gap_band must lie in 0..dim={self.dim}, got {self.gap_band}"
            )
        if self.gap_constant <= 0:
            raise ModelError("gap_constant must be positive")
        for label, coeff in (("x_coeff", self.x_coeff), ("xi_coeff", self.xi_coeff)):
            coeff = np.asarray(coeff)
            if coeff.shape != (self.dim, self.dim):
                raise ModelError(f"{label} must be {self.dim}x{self.dim}")
            if not _is_hermitian(coeff):
                raise ModelError(f"{label} must be Hermitian")

    def const_stack(self, mu: Sequence[float]) -> np.ndarray:
        """``A(mu)`` of k mu values as a ``(k, d, d)`` stack: one ``const_term`` call, checked
        for shape and Hermiticity."""
        mu = np.asarray(mu, dtype=float)
        amats = np.asarray(self.const_term(mu), dtype=complex)
        if amats.shape != (len(mu), self.dim, self.dim):
            raise ModelError(
                f"const_term of {len(mu)} mu values has shape {amats.shape}, "
                f"expected ({len(mu)}, {self.dim}, {self.dim})"
            )
        hermitian = _is_hermitian(amats)
        if not hermitian.all():
            raise ModelError(f"const_term({mu[np.argmin(hermitian)]}) is not Hermitian")
        return amats

    def evaluate(self, mu: float, x: float, xi: float) -> np.ndarray:
        """Symbol matrix at one phase-space point."""
        return self.evaluate_many(np.array([[mu, x, xi]]))[0]

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Stack of symbol matrices at ``points`` of shape (n, 3) = (mu, x, xi)."""
        points = as_points(points)
        out = self.const_stack(points[:, 0]) + points[:, 1, None, None] * self.x_coeff
        out += points[:, 2, None, None] * self.xi_coeff
        return out

    @cached_property
    def charge(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(delta, frame)``, the read-only ``eigh`` of :func:`charge_operator`, or None without a
        charge operator; made on first read, once per instance (``replace`` makes a new one)."""
        d = charge_operator(self)
        if d is None:
            return None
        delta, frame = np.linalg.eigh(d)
        delta.flags.writeable = frame.flags.writeable = False
        return delta, frame

    @cached_property
    def real_form(self) -> RealForm | None:
        """:class:`RealForm` of ``H(mu, r, 0)`` in :attr:`charge`'s frame, read-only; None
        without a charge operator or unless its weights delta are consecutive, ``delta_k +
        1`` after ``delta_k``, which makes the frame tridiagonal (a repeated delta, as in a
        direct sum of two copies, is not).  Made on first read, once per instance."""
        if self.charge is None:
            return None
        delta, frame = self.charge
        if (np.abs(np.diff(delta) - 1.0) > 1e-8).any():
            return None
        term, fh = self.const_term, frame.conj().T
        a0 = np.asarray(term.a0, dtype=complex) + np.zeros((self.dim, self.dim))
        diagonal = np.stack([(fh @ a @ frame).diagonal().real for a in (a0, term.a1)])
        sub = (fh @ self.x_coeff @ frame).diagonal(-1)
        moduli = np.abs(sub)
        turns = np.where(moduli > 0, sub, 1.0) / np.where(moduli > 0, moduli, 1.0)
        form = RealForm(diagonal, moduli, frame * np.concatenate(([1.0], np.cumprod(turns))))
        for a in vars(form).values():
            a.flags.writeable = False
        return form

    def validate(self, rng: np.random.Generator | None = None):
        """:meth:`const_stack` at 32 mu in [-2, 2], evenly spaced or drawn from ``rng`` (``B``
        and ``C`` are checked at construction); without ``rng`` no ``numpy.random`` import."""
        self.const_stack(np.linspace(-2.0, 2.0, 32) if rng is None else rng.uniform(-2.0, 2.0, 32))


def as_points(points) -> np.ndarray:
    """``points`` as floats (n, 3) = (mu, x, xi); other shapes raise :class:`ModelError`."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ModelError(f"points must have shape (n, 3), got {points.shape}")
    return points


class TruncatedOperator(Record):
    """Hermitian matrix of size ``d * (M + 1)`` acting on (levels) (x) C^d."""

    matrix: np.ndarray
    basis: TruncatedBasis
    dim: int

    @property
    def size(self) -> int:
        return self.dim * self.basis.size


def _is_hermitian(m: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Per-matrix Hermiticity of a ``(..., d, d)`` stack, relative to its scale."""
    m = np.asarray(m)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1), initial=0.0))
    defect = np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    return defect <= tol * scale


def ladder_matrices(basis: TruncatedBasis) -> tuple[np.ndarray, np.ndarray]:
    """Lowering and raising matrices on levels 0..M.

    The lowering matrix has entries ``a[n-1, n] = sqrt(n)``; the raising
    matrix is its adjoint.  ``a^dag a`` is exactly ``diag(0..M)``; only the
    top entry of ``a a^dag`` is corrupted by the cutoff.
    """
    m = basis.size
    a = np.zeros((m, m))
    n = np.arange(1, m)
    a[n - 1, n] = np.sqrt(n)
    return a, a.T.copy()


def position_momentum(basis: TruncatedBasis) -> tuple[np.ndarray, np.ndarray]:
    """Truncated position and momentum matrices.

    ``x = sqrt(eps/2) (a + a^dag)`` and ``xi = i sqrt(eps/2) (a^dag - a)``;
    their commutator equals ``i*eps*Id`` exactly on levels 0..M-1.
    """
    a, adag = ladder_matrices(basis)
    scale = np.sqrt(basis.epsilon / 2.0)
    xmat = scale * (a + adag)
    ximat = 1j * scale * (adag - a)
    return xmat, ximat


class BlockStack(Record):
    """The quantized operator on each row of a ``(b, s)`` index array, as ``(b, s, s)`` arrays
    per ``A(mu)``.

    Indices are component-major; component c is column c of ``frame`` (the
    standard basis when None).  ``static`` is ``B (x) xhat + C (x) xihat`` on
    each row; ``A(mu)`` entry ``components[0][t], components[1][t]`` (in the
    frame) lands at block, row, column ``same_level[0..2][t]``.  When
    ``A(mu)`` lands on the diagonal only, the symmetrized ``static`` is exactly
    zero beyond its first off-diagonals and ``tridiagonal`` is that
    matrix's real diagonal ``(b, s)``, the moduli of its subdiagonal ``(b, s -
    1)`` and the component of each diagonal entry ``(b, s)``: the real form
    (module docstring) of every block.  Else it is None.  ``charges`` ``(b,)``
    holds each charge block's q, rounded to 9 decimals (distinct blocks differ by
    more than 1e-8); it is None for the whole operator.
    """

    index: np.ndarray
    static: np.ndarray
    same_level: tuple[np.ndarray, np.ndarray, np.ndarray]
    components: tuple[np.ndarray, np.ndarray]
    frame: np.ndarray | None
    tridiagonal: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    charges: np.ndarray | None = None

    def to_frame(self, amats: np.ndarray) -> np.ndarray:
        """A ``(k, d, d)`` stack of ``A(mu)`` in the standard frame, turned into ``frame``."""
        return amats if self.frame is None else self.frame.conj().T @ amats @ self.frame

    def assemble(self, framed: np.ndarray, static: bool = True) -> np.ndarray:
        """``A(mu) (x) Id + static`` on each block for each of a ``(k, d, d)`` stack of
        ``A(mu)``, as ``(k, b, s, s)``, symmetrized to be exactly Hermitian; with
        ``static`` False, ``A (x) Id`` alone (for ``A1``, the mu slope of the blocks).

        ``framed`` is in ``frame`` (:meth:`to_frame`); stacks that share a
        frame share one transform.
        """
        which, rows, cols = self.same_level
        h = (np.repeat(self.static[None], len(framed), axis=0) if static
             else np.zeros((len(framed), *self.static.shape), dtype=complex))
        h[:, which, rows, cols] += framed[:, self.components[0], self.components[1]]
        h += h.conj().swapaxes(-2, -1)
        h *= 0.5
        return h

    def form(self, framed: np.ndarray, static: bool = True) -> np.ndarray:
        """The blocks as they are solved, ``(k, b, s, s)``: for a ``tridiagonal`` stack the
        real forms, with :meth:`assemble`'s real diagonal and the moduli of its subdiagonal
        bit for bit (with ``static`` False, that real diagonal alone); else :meth:`assemble`."""
        if self.tridiagonal is None:
            return self.assemble(framed, static)
        diag, moduli, comp = self.tridiagonal
        h, i = np.zeros((len(framed), *self.static.shape)), np.arange(self.static.shape[-1])
        h[..., i, i] = framed[:, comp, comp].real
        if static:
            h[..., i, i] += diag
            h[..., i[1:], i[:-1]] = h[..., i[:-1], i[1:]] = moduli
        return h


class RealForm(Record):
    """``H(mu, r, 0)`` of a symbol whose charge weights are consecutive, as the real symmetric
    tridiagonal ``T(mu, r)`` (module docstring): ``H(mu, r, 0) = frame T(mu, r) frame^dag``.

    ``diagonal`` ``(2, d)`` holds the real diagonals ``a0`` and ``a1`` of ``A0`` and ``A1`` in
    the charge frame F, so T has ``a0 + mu a1`` on its diagonal, and ``r |b_k|`` beside it
    for the subdiagonal ``b`` ``(d - 1,)`` of ``B`` there (``moduli``).  ``frame`` is ``F G``
    for the diagonal unitary gauge G that makes ``G^dag F^dag B F G`` real.
    """

    diagonal: np.ndarray
    moduli: np.ndarray
    frame: np.ndarray

    def matrices(self, mu: np.ndarray, r: np.ndarray) -> np.ndarray:
        """``T(mu, r)`` of each of m pairs (two float arrays), as a real ``(m, d, d)`` stack."""
        d = len(self.frame)
        t, i = np.zeros((len(mu), d, d)), np.arange(d)
        t[:, i, i] = self.diagonal[0] + mu[:, None] * self.diagonal[1]
        t[:, i[1:], i[:-1]] = t[:, i[:-1], i[1:]] = r[:, None] * self.moduli
        return t


class LinearTerm:
    """The ``const_term`` ``A(mu) = a0 + mu * a1``: an ``(n, d, d)`` stack per n values of mu.

    ``a1`` is a ``(d, d)`` array and ``a0`` one too, or a scalar such as 0.0."""

    def __init__(self, a0: np.ndarray | float, a1: np.ndarray):
        self.a0, self.a1 = a0, a1

    @property
    def slope(self) -> float:
        """``||a1||_2``, a bound on ``||A'(mu)||_2``: no eigenvalue of the quantized operator
        moves faster in mu (Weyl).  Another ``const_term`` may carry such a bound as ``slope``."""
        return float(np.linalg.norm(self.a1, 2))

    def __call__(self, mu: np.ndarray) -> np.ndarray:
        return self.a0 + np.multiply.outer(mu, self.a1)


def charge_operator(symbol: AffineMatrixSymbol) -> np.ndarray | None:
    """Minimum-norm (so Hermitian) D with ``[D, K] = -K``, ``[D, K^dag] = K^dag`` and ``[D, A0] =
    [D, A0 + A1] = 0`` for a :class:`LinearTerm` ``const_term``, so ``[D, A(mu)] = 0`` at every
    mu; None for any other callback, or when the least-squares residual exceeds 1e-12 of the
    largest entry (at least 1).  Read it as :attr:`AffineMatrixSymbol.charge`, fitted once."""
    if not isinstance(symbol.const_term, LinearTerm):
        return None
    k = np.asarray(symbol.x_coeff + 1j * np.asarray(symbol.xi_coeff), dtype=complex)
    eye, mats = np.eye(len(k)), [k, k.conj().T, *symbol.const_stack((0.0, 1.0))]
    # row-major vec(D m - m D) = (1 (x) m^T - m (x) 1) vec(D)
    lhs = np.concatenate([np.kron(eye, m.T) - np.kron(m, eye) for m in mats])
    rhs = np.concatenate([-k.ravel(), k.conj().T.ravel(), np.zeros(2 * k.size)])
    d = np.linalg.lstsq(lhs, rhs, rcond=None)[0].reshape(k.shape)
    if np.abs(lhs @ d.ravel() - rhs).max() > 1e-12 * max(1.0, *(np.abs(m).max() for m in mats)):
        return None
    return 0.5 * (d + d.conj().T)


class OperatorPieces:
    """The mu-independent parts of :func:`quantize` for one (symbol, basis).

    A stack's ``B (x) xhat + C (x) xihat`` is built once, from the ladder entries of
    the level pairs it indexes (:func:`position_momentum`'s arithmetic on them, so
    no ``(M + 1)**2`` matrix and memory linear in M); each ``A(mu)`` then only adds
    its same-level entries.  In the eigenbasis of the symbol's
    charge operator (:attr:`AffineMatrixSymbol.charge`) each eigenvalue of
    ``Q`` gives one charge block of at most d indices.  ``charge_stacks`` are
    the complete charge blocks (module docstring) stacked by size, empty
    without a charge operator; block q is complete when its size is the
    number of components i with ``q - delta_i`` a non-negative integer; each
    stack keeps its blocks' q.  It is built on first use, as is ``whole``, the
    whole operator as one block.
    ``guard`` marks the indices on the top ``guard_levels`` levels, for the
    whole operator's artifact filter.
    """

    def __init__(self, symbol: AffineMatrixSymbol, basis: TruncatedBasis):
        self.symbol = symbol
        self.scale = np.sqrt(basis.epsilon / 2.0)  # of the ladder entries, sqrt(eps/2)
        self.component, self.level = np.divmod(np.arange(symbol.dim * basis.size), basis.size)
        self.guard = self.level >= basis.size - basis.guard_levels

    @cached_property
    def charge_stacks(self) -> list[BlockStack]:
        if self.symbol.charge is None:
            return []
        delta, frame = self.symbol.charge
        # Q = delta + n; a tolerance that merged two values would only join blocks
        q = delta[self.component] + self.level
        order = np.argsort(q, kind="stable")
        block = np.empty(len(q), dtype=np.intp)  # blocks numbered in ascending q
        block[order[0]], block[order[1:]] = 0, np.cumsum(np.diff(q[order]) > 1e-8)
        members = np.argsort(block, kind="stable")  # block by block, each ascending
        sizes = np.bincount(block)
        starts = np.cumsum(sizes) - sizes
        first = members[starts]  # each block's least index
        n = q[first][:, None] - delta
        full = np.count_nonzero((np.abs(n - np.rint(n)) <= 1e-8) & (n > -0.5), axis=1)
        stacks = []
        for size in range(1, len(delta) + 1):  # a block has at most d indices
            rows = np.flatnonzero((sizes == full) & (sizes == size))
            if len(rows):
                charges = np.round(q[first[rows]], 9) + 0.0  # + 0.0: no q reads -0.0
                index = members[starts[rows, None] + np.arange(size)]
                stacks.append(self.stack(index, frame, charges))
        return stacks

    def stack(self, index: np.ndarray, frame: np.ndarray | None = None,
              charges: np.ndarray | None = None) -> BlockStack:
        """The operator on each row of the ``(b, s)`` component-major ``index`` of ``frame``,
        the blocks of ``charges``; ``tridiagonal`` (:class:`BlockStack`) only where a
        ``frame`` is given."""
        level, comp = self.level[index], self.component[index]
        coeffs = [np.asarray(c) if frame is None else frame.conj().T @ c @ frame
                  for c in (self.symbol.x_coeff, self.symbol.xi_coeff)]
        pair = (comp[:, :, None], comp[:, None, :])
        levels = (level[:, :, None], level[:, None, :])
        # position_momentum's entries at these level pairs, by its arithmetic: bit for bit
        a = np.where(levels[1] == levels[0] + 1, np.sqrt(levels[1]), 0.0)
        adag = np.where(levels[0] == levels[1] + 1, np.sqrt(levels[0]), 0.0)
        xmat, ximat = self.scale * (a + adag), 1j * self.scale * (adag - a)
        static = coeffs[0][pair] * xmat + coeffs[1][pair] * ximat
        which, rows, cols = np.nonzero(levels[0] == levels[1])
        tridiagonal = None
        if frame is not None and np.array_equal(rows, cols):
            # A(mu) lands on the diagonal, so a block's weights delta are distinct, sorted and
            # whole numbers apart: entries two or more positions apart join levels two or more
            # apart, where the ladder matrices are exactly 0, so the block is tridiagonal
            h = 0.5 * (static + static.conj().swapaxes(-2, -1))
            tridiagonal = (h.diagonal(0, -2, -1).real, np.abs(h.diagonal(-1, -2, -1)), comp)
        return BlockStack(index, static, (which, rows, cols),
                          (comp[which, rows], comp[which, cols]), frame, tridiagonal, charges)

    @cached_property
    def whole(self) -> BlockStack:
        """The whole operator as a stack of one, in the standard frame."""
        return self.stack(np.arange(len(self.level))[None])


def quantize(
    symbol: AffineMatrixSymbol, mu: float, basis: TruncatedBasis
) -> TruncatedOperator:
    """Matrix representation ``A(mu) (x) Id + B (x) xhat + C (x) xihat``.

    Block structure is component-major: entry ``(i*(M+1)+k, j*(M+1)+l)``
    couples component i level k with component j level l.  The result is
    made exactly Hermitian by symmetrization (exact in IEEE arithmetic).
    """
    pieces = OperatorPieces(symbol, basis)
    matrix = pieces.whole.assemble(symbol.const_stack([mu]))[0, 0]
    return TruncatedOperator(matrix=matrix, basis=basis, dim=symbol.dim)


def spurious_weight(operator: TruncatedOperator, eigenvector: np.ndarray) -> float:
    """Squared amplitude of a unit vector on the top ``guard_levels`` levels."""
    return float(spurious_weights(operator, np.reshape(eigenvector, (-1, 1)))[0])


def spurious_weights(operator: TruncatedOperator, eigenvectors: np.ndarray) -> np.ndarray:
    """:func:`spurious_weight` of each eigenvector column."""
    m = operator.basis.size
    k = operator.basis.guard_levels
    comps = np.abs(eigenvectors) ** 2
    comps = comps.reshape(operator.dim, m, -1)
    return comps[:, -k:, :].sum(axis=(0, 1))


def charge_orbits(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The charge orbits of ``points`` (n, 3) as ``(radial, inverse)``.

    For a symbol with a charge operator ``D`` (:func:`charge_operator`),
    ``exp(i t D) H(mu, x, xi) exp(-i t D)`` is ``H`` with ``x + i xi``
    turned by ``e^{it}``: the spectrum depends on ``(mu, |x + i xi|)`` only,
    and the eigenvectors at ``(mu, r cos t, r sin t)`` are ``exp(i t D)``
    times those at ``(mu, r, 0)``.  ``radial`` (m, 3) holds each distinct
    ``(mu, hypot(x, xi))`` once as the point ``(mu, hypot(x, xi), 0)``,
    sorted by mu, and ``inverse`` (n,) each point's row in it.
    """
    points = np.asarray(points, dtype=float)
    orbits, inverse = np.unique(points[:, 0] + 1j * np.hypot(points[:, 1], points[:, 2]),
                                return_inverse=True)
    return np.stack((orbits.real, orbits.imag, np.zeros(len(orbits))), axis=1), inverse


def sampled_gap_certificate(symbol: AffineMatrixSymbol) -> float:
    """Check the gap assumption on a Cartesian sample of the shell; return its margin.

    Points of a ``30**3`` grid of ``[-3, 3]^3`` with ``1 <= |(mu,x,xi)| <=
    3`` and ``|mu| <= 2`` are kept; at each, band ``gap_band`` must lie below
    ``gap_center - gap_constant`` and band ``gap_band + 1`` above
    ``gap_center + gap_constant``.  The margin is the least distance past
    those bounds over the sample; one that is not positive (or NaN) raises
    :class:`GapCertificateError` with the lower and upper margins and the grid's
    first sampled point of least margin.

    The sample is the product of the 20 mu with ``|mu| <= 2`` and the 900 ``(x, xi)``,
    the norm summed as ``np.linalg.norm`` sums it.  With a charge operator
    (:attr:`AffineMatrixSymbol.charge`) each mu row meets the distinct ``hypot(x, xi)``
    of its kept pairs: those are the orbits of :func:`charge_orbits`, in its order, each
    solved once, by one real ``eigvalsh`` of :attr:`AffineMatrixSymbol.real_form` where
    the symbol has one (no ``const_term`` call); without a charge operator every kept
    point is solved.
    """
    axis = np.linspace(-3.0, 3.0, 30)
    mu = axis[np.abs(axis) <= 2.0]
    x, xi = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    norms = np.sqrt((mu[:, None] ** 2 + x ** 2) + xi ** 2)
    keep = (norms >= 1.0) & (norms <= 3.0)  # (mu row, pair)

    def sample() -> np.ndarray:  # the kept points (n, 3), in the order of the grid's rows
        rows, pairs = np.nonzero(keep)
        return np.stack((mu[rows], x[pairs], xi[pairs]), axis=1)

    if symbol.charge is None:
        solved = sample()
    else:
        radius = np.hypot(x, xi)
        order = np.argsort(radius)
        radii, first = np.unique(radius[order], return_index=True)  # each radius's run of pairs
        orbits = np.logical_or.reduceat(keep[:, order], first, axis=1)  # (mu row, radius): any kept
        at_mu, at_r = np.nonzero(orbits)
        solved = np.stack((mu[at_mu], radii[at_r], np.zeros(len(at_r))), axis=1)
    form = symbol.real_form
    eigs = np.linalg.eigvalsh(symbol.evaluate_many(solved) if form is None
                              else form.matrices(solved[:, 0], solved[:, 1]))
    r = symbol.gap_band
    lower = upper = np.full(len(solved), np.inf)
    if r >= 1:
        lower = symbol.gap_center - symbol.gap_constant - eigs[:, r - 1]
    if r <= symbol.dim - 1:
        upper = eigs[:, r] - (symbol.gap_center + symbol.gap_constant)
    if not (lower.min() > 0 and upper.min() > 0):
        pts, margins = sample(), np.minimum(lower, upper)
        if symbol.charge is not None:  # each point takes its orbit's margin
            margins = margins[charge_orbits(pts)[1]]
        worst = pts[int(np.argmin(margins))]
        raise GapCertificateError(
            f"gap certificate failed for {symbol.name!r}: margins "
            f"({lower.min():.3g}, {upper.min():.3g}) at "
            f"point {tuple(worst.tolist())}"
        )
    return float(min(lower.min(), upper.min()))
