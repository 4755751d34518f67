"""Discrete calculus on the flat 2-torus.

Fields live on an N x N uniform grid over [0, 2*pi)^2, sampled at
t = (2*pi*j/N, 2*pi*k/N).  The first array axis runs along t1, the second
along t2, the third over components.  Mode coefficients use the convention
in which a constant field c has coefficient c at mode (0, 0), i.e. the
forward transform divides by N^2.  With that normalisation the L2 inner
product below (a grid mean, so the torus has unit total mass) equals the
plain sum of coefficient products, and Sobolev norms are weighted mode sums
with integer weights.

All spectral derivative operators annihilate the Nyquist band (m = -N/2).
Real fields carry no usable phase information there, and dropping it makes
the discrete operators exactly skew-adjoint, so identities such as
"dirac squared = -laplacian" hold to round-off on arbitrary real fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PERIOD = 2.0 * np.pi
# The grid cap keeps one flow's arrays in memory: at N = 1024 the (4, 4, N, N/2 + 1)
# propagator of n = 1 takes 134 MB and one complex (N, N, 4) field 67 MB.
MAX_GRID = 1024

#: component conventions; "z" is (q1, q2, p1, p2) with n entries per slot,
#: "q" is (q1, q2), "ddw" is (q, p1, p2) for scalar first-order systems.
LAYOUTS = ("z", "q", "ddw", "scalar", "generic")


class FieldError(ValueError):
    pass


def _check_grid(values: np.ndarray) -> None:
    if values.ndim != 3 or values.shape[0] != values.shape[1]:
        raise FieldError(f"expected (N, N, components) array, got shape {values.shape}")
    check_grid_size(values.shape[0])


def check_grid_size(n: int) -> None:
    """Raise FieldError unless 8 <= N <= MAX_GRID and N is even; checked before any grid array exists."""
    if n % 2 != 0 or n < 8:
        raise FieldError(f"grid size must be even and >= 8, got {n}")
    if n > MAX_GRID:
        raise FieldError(f"grid size {n} exceeds the cap of {MAX_GRID}: a flow's arrays grow as N^2")


def _check_layout(layout: str, components: int) -> None:
    if layout not in LAYOUTS:
        raise FieldError(f"unknown layout {layout!r}")
    if layout == "z" and components % 4 != 0:
        raise FieldError(f"layout 'z' needs 4n components, got {components}")
    if layout == "q" and components % 2 != 0:
        raise FieldError(f"layout 'q' needs 2n components, got {components}")
    if layout == "ddw" and components != 3:
        raise FieldError(f"layout 'ddw' needs 3 components, got {components}")
    if layout == "scalar" and components != 1:
        raise FieldError(f"layout 'scalar' needs 1 component, got {components}")


@dataclass(frozen=True)
class TorusField:
    """Real field on the N x N periodic grid, immutable.

    The values are stored as a C-contiguous copy, whatever the memory
    layout of the input, so reductions over a field round by its values alone.
    """

    values: np.ndarray
    layout: str = "generic"

    def __post_init__(self):
        values = np.array(self.values, dtype=float, order="C")
        _check_grid(values)
        _check_layout(self.layout, values.shape[2])
        if not np.all(np.isfinite(values)):
            raise FieldError("field values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def grid_size(self) -> int:
        return self.values.shape[0]

    @property
    def components(self) -> int:
        return self.values.shape[2]

    @property
    def n_pairs(self) -> int:
        if self.layout == "z":
            return self.components // 4
        if self.layout == "q":
            return self.components // 2
        raise FieldError(f"n_pairs undefined for layout {self.layout!r}")

    def q_part(self) -> np.ndarray:
        if self.layout != "z":
            raise FieldError("q_part requires layout 'z'")
        return self.values[:, :, : 2 * self.n_pairs]

    def p_part(self) -> np.ndarray:
        if self.layout != "z":
            raise FieldError("p_part requires layout 'z'")
        return self.values[:, :, 2 * self.n_pairs :]


def grid_points(n: int, index=np.s_[:, :]):
    """Return T1, T2 meshgrids of shape (n, n), 'ij' indexing; index (two slices) builds that block alone."""
    t = PERIOD * np.arange(n) / n
    return np.meshgrid(t[index[0]], t[index[1]], indexing="ij")


def mode_numbers(n: int):
    """Integer mode meshgrids M1, M2 in numpy FFT ordering."""
    m = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    return np.meshgrid(m, m, indexing="ij")


def derivative_numbers(n: int, index=np.s_[:, :]):
    """Mode meshgrids with the Nyquist entry zeroed, for derivatives; index (two slices) builds that block alone."""
    m = np.rint(np.fft.fftfreq(n, 1.0 / n)).astype(int)
    m[n // 2] = 0
    return np.meshgrid(m[index[0]], m[index[1]], indexing="ij")


def _pair_indices(layout: str, components: int):
    """Index pairs (a, b) identified with complex components a + i*b."""
    if layout == "z":
        n = components // 4
        return [(j, n + j) for j in range(n)] + [(2 * n + j, 3 * n + j) for j in range(n)]
    if layout == "q":
        n = components // 2
        return [(j, n + j) for j in range(n)]
    if layout == "generic":
        if components % 2 != 0:
            raise FieldError("Wirtinger derivatives need an even component count")
        return [(2 * j, 2 * j + 1) for j in range(components // 2)]
    raise FieldError(f"Wirtinger derivatives undefined for layout {layout!r}")


def derivative(field: TorusField, which: str) -> TorusField:
    """Spectral derivative: which in {'d1', 'd2', 'dt', 'dtbar'}.

    'd1'/'d2' are the plain partials.  'dt' and 'dtbar' are the
    holomorphic/anti-holomorphic combinations (d1 -/+ i*d2)/2 acting on
    component pairs (a, b) identified with a + i*b.
    """
    n = field.grid_size
    m1, m2 = derivative_numbers(n)
    coeffs = np.fft.fft2(field.values, axes=(0, 1), norm="forward")
    if which in ("d1", "d2"):
        mult = 1j * (m1 if which == "d1" else m2)
        out = np.fft.ifft2(coeffs * mult[:, :, None], axes=(0, 1), norm="forward").real
        return TorusField(out, field.layout)
    if which in ("dt", "dtbar"):
        d1 = np.fft.ifft2(coeffs * (1j * m1)[:, :, None], axes=(0, 1), norm="forward").real
        d2 = np.fft.ifft2(coeffs * (1j * m2)[:, :, None], axes=(0, 1), norm="forward").real
        sign = 1.0 if which == "dt" else -1.0
        out = np.empty_like(field.values)
        for a, b in _pair_indices(field.layout, field.components):
            out[:, :, a] = 0.5 * (d1[:, :, a] + sign * d2[:, :, b])
            out[:, :, b] = 0.5 * (d1[:, :, b] - sign * d2[:, :, a])
        return TorusField(out, field.layout)
    raise FieldError(f"unknown derivative {which!r}")


def dirac(field: TorusField, triple) -> TorusField:
    """First-order operator J*d1 + K*d2 for a constant-coefficient triple."""
    if triple.J is None or triple.K is None:
        raise FieldError("triple must carry J and K (see compatible_triple)")
    if triple.dim != field.components:
        raise FieldError(
            f"component mismatch: field has {field.components}, triple dim {triple.dim}"
        )
    d1 = derivative(field, "d1").values
    d2 = derivative(field, "d2").values
    out = d1 @ triple.J.T + d2 @ triple.K.T
    return TorusField(out, field.layout)


def laplacian(field: TorusField) -> TorusField:
    n = field.grid_size
    m1, m2 = derivative_numbers(n)
    mult = -(m1.astype(float) ** 2 + m2.astype(float) ** 2)
    coeffs = np.fft.fft2(field.values, axes=(0, 1), norm="forward")
    out = np.fft.ifft2(coeffs * mult[:, :, None], axes=(0, 1), norm="forward").real
    return TorusField(out, field.layout)


def l2_inner(a: TorusField, b: TorusField) -> float:
    """Unit-mass L2 pairing: grid mean of the pointwise component dot product."""
    if a.values.shape != b.values.shape:
        raise FieldError("shape mismatch in l2_inner")
    return float(np.mean(np.sum(a.values * b.values, axis=2)))


def l2_norm(a: TorusField) -> float:
    return float(np.sqrt(max(l2_inner(a, a), 0.0)))


def _weighted_mode_norm(field: TorusField, shift: float, k: int) -> float:
    """sqrt of the sum over modes of (shift + |m|^2)^k |c(m)|^2."""
    m1, m2 = mode_numbers(field.grid_size)
    weight = (shift + m1.astype(float) ** 2 + m2.astype(float) ** 2) ** k
    coeffs = np.fft.fft2(field.values, axes=(0, 1), norm="forward")
    return float(np.sqrt(np.sum(weight[:, :, None] * np.abs(coeffs) ** 2)))


def sobolev_norm(field: TorusField, k: int) -> float:
    """H^k norm: sqrt of sum over modes of (1 + |m|^2)^k |c(m)|^2."""
    if k < 0 or int(k) != k:
        raise FieldError("Sobolev order must be a nonnegative integer")
    return _weighted_mode_norm(field, 1.0, k)


def sobolev_seminorm(field: TorusField, k: int = 1) -> float:
    """Like sobolev_norm but with |m|^(2k) weights; zero iff the field is constant."""
    return _weighted_mode_norm(field, 0.0, k)


def constant_field(n: int, vector, layout: str = "z") -> TorusField:
    vector = np.atleast_1d(np.asarray(vector, dtype=float))
    values = np.broadcast_to(vector, (n, n, vector.shape[0])).copy()
    return TorusField(values, layout)


def field_from_modes(n: int, components: int, modes: dict, layout: str = "generic") -> TorusField:
    """Build a real field from {(m1, m2): coefficient vector}.

    The conjugate coefficient at -m is filled in automatically; a (0, 0)
    entry must therefore be real.
    """
    coeffs = np.zeros((n, n, components), dtype=complex)
    for (m1, m2), vec in modes.items():
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (components,):
            raise FieldError(f"coefficient for mode {(m1, m2)} has wrong shape")
        if (m1 % n, m2 % n) == (0, 0):
            if np.max(np.abs(vec.imag)) > 0:
                raise FieldError("(0, 0) coefficient must be real")
            coeffs[0, 0] += vec
        else:
            coeffs[m1 % n, m2 % n] += vec
            coeffs[(-m1) % n, (-m2) % n] += np.conj(vec)
    values = np.fft.ifft2(coeffs, axes=(0, 1), norm="forward").real
    return TorusField(values, layout)


def random_band_limited(
    rng: np.random.Generator,
    n: int,
    components: int,
    max_mode: int = 3,
    amplitude: float = 1.0,
    layout: str = "generic",
    include_mean: bool = False,
) -> TorusField:
    """Random real field supported on modes with max(|m1|, |m2|) <= max_mode."""
    if max_mode >= n // 2:
        raise FieldError("max_mode must stay below the Nyquist band")
    modes = {}
    for m1 in range(-max_mode, max_mode + 1):
        for m2 in range(-max_mode, max_mode + 1):
            if (m1, m2) == (0, 0):
                continue
            if (m1, m2) in modes or (-m1, -m2) in modes:
                continue
            c = rng.standard_normal(components) + 1j * rng.standard_normal(components)
            modes[(m1, m2)] = amplitude * c
    if include_mean:
        modes[(0, 0)] = amplitude * rng.standard_normal(components)
    return field_from_modes(n, components, modes, layout)
