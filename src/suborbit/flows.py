"""The reduced Euler flow dx/dt = [x, phi(x)] and its conservation diagnostics.

For a second block-scalar element b = i*diag(mu) commuting with the anchor
a = i*diag(l), phi(x) = (ad a|_m)^(-1) [b, x] multiplies entry (j, k) of x by
(mu_j - mu_k) / (l_j - l_k) (Manakov's form), so it is diagonal in canonical
coordinates, symmetric, and preserves the transversal space and its fixed
part.  The quadratic energy (1/2)<x, phi(x)> generates the flow
dx/dt = [x, phi(x)], whose right hand side stays inside the flow space exactly.

The right hand side is a fixed quadratic map, so ``build_flow`` tabulates it
once: with Y_j the flow-space basis elements, Q[:, j, k] holds the canonical
coordinates of [Y_j, phi(Y_k)], read off one gather of the structure
constants of u(n), and for x = sum_j y_j Y_j the velocity is
sum_jk y_j y_k Q[:, j, k].  Only the part Q_s of Q symmetric in (j, k) acts;
it is split once into its flow-space part V^T Q_s, which steps the d
coefficients y of the state without building a matrix or a bracket, and the
rows of (1 - V V^T) Q_s that are not exactly zero, which measure at every
step how far the tabulated field leaks out of the flow space.  Conservation
of the shifted trace integrals along trajectories is the end-to-end
diagnostic: the integrator is a plain fixed-step classical Runge-Kutta
scheme with no structure preservation, so invariant drift is a real signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lie import (LieElement, _sparse_ad_stack, ad_in_basis, bracket,
                  coordinate_entries, coords_to_matrix)
from .linalg import Subspace
from .invariants import IntegralFamily, member_values
from .orbit import OrbitSetup, block_scalar, entry_gaps


# relative leakage out of the flow space after one step that aborts a run
ABORT_RESIDUAL = 1e-6


class FlowDivergenceError(RuntimeError):
    """The integrator state left the flow space beyond the abort threshold."""

    def __init__(self, time: float, residual: float):
        super().__init__(f"flow left its space at t = {time:.6g} "
                         f"(residual {residual:.3e})")
        self.time = time
        self.residual = residual


@dataclass(frozen=True)
class FlowSpec:
    """A choice of second block-scalar element and flow space.

    ``quad`` is the quadratic tensor Q of the right hand side reshaped to
    (N * d, d): row i * d + j, column k holds coordinate i of [Y_j, phi(Y_k)].
    """

    setup: OrbitSetup
    b: LieElement
    space: str
    phi_matrix: np.ndarray
    quad: np.ndarray

    @cached_property
    def domain(self) -> Subspace:
        return self.setup.pair(self.space).m

    @cached_property
    def _symmetric_quad(self) -> np.ndarray:
        """(N, d * d): Q_s = (Q[:, j, k] + Q[:, k, j]) / 2, all that y y^T sees."""
        N, d = self.domain.basis.shape
        Q = self.quad.reshape(N, d, d)
        return (0.5 * (Q + Q.transpose(0, 2, 1))).reshape(N, d * d)

    @cached_property
    def field(self) -> np.ndarray:
        """V^T Q_s as (d * d, d): the velocity of y is (field @ y).reshape(d, d) @ y."""
        d = self.domain.dim
        return (self.domain.basis.T @ self._symmetric_quad).reshape(d * d, d)

    @cached_property
    def leak(self) -> np.ndarray:
        """The rows of (1 - V V^T) Q_s that are not exactly zero, (r, d * d)."""
        V, Qs = self.domain.basis, self._symmetric_quad
        R = Qs - V @ (V.T @ Qs)
        return R[np.any(R != 0.0, axis=1)]


def build_flow(setup: OrbitSetup, b_values, space: str = "m_tilde") -> FlowSpec:
    """Flow data for b = diag(i*mu_j blocks); validates that b commutes with a."""
    if isinstance(b_values, LieElement):
        b = b_values
    else:
        b = block_scalar(setup, b_values)
    if not setup.z_of_k.contains(b.coords, 1e-12):
        raise ValueError("b must be a block-scalar imaginary diagonal "
                         "(an element of the center of the isotropy algebra)")
    comm = bracket(setup.a, b)
    if comm.norm() > 1e-14 * max(1.0, setup.a.norm() * b.norm()):
        raise RuntimeError("anchor and b do not commute")
    V = setup.pair(space).m.basis
    phi = V.T @ (_phi_factor(setup, b)[:, None] * V)
    return FlowSpec(setup, b, space, phi, _quadratic_tensor(setup, space, phi))


def _phi_factor(setup: OrbitSetup, b: LieElement) -> np.ndarray:
    """The factor (mu_j - mu_k) / (l_j - l_k) by which phi scales each
    canonical coordinate, read at its entry (j, k); zero on the blocks."""
    gaps = entry_gaps(setup.a)
    ratio = np.divide(entry_gaps(b), gaps, out=np.zeros_like(gaps), where=gaps != 0)
    return ratio[coordinate_entries(setup.n)]


def _quadratic_tensor(setup: OrbitSetup, space: str, phi: np.ndarray) -> np.ndarray:
    """All brackets [Y_j, phi(Y_k)] of the flow-space basis from one gather
    of the structure constants: ad Y_j on the columns of V phi, for every j."""
    V = setup.pair(space).m.basis
    N, d = V.shape
    A, rows = _sparse_ad_stack(V, V @ phi)
    Q = np.zeros((N, d, d))
    Q[rows] = A.transpose(1, 0, 2)
    return Q.reshape(N * d, d)


def phi_spectrum(spec: FlowSpec) -> np.ndarray:
    """Eigenvalues of the symmetric operator phi on the flow space."""
    if spec.phi_matrix.size == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(0.5 * (spec.phi_matrix + spec.phi_matrix.T))


def _energies(spec: FlowSpec, coords: np.ndarray) -> np.ndarray:
    """(1/2) y^T phi y for the flow-space coefficients y of a coordinate vector
    or of each row of a stack.

    The pairing is the coordinate dot product and phi(x) = V phi y, so
    <x, phi(x)> = (V^T x) . (phi y) = y^T phi y exactly.
    """
    Y = coords @ spec.domain.basis
    return 0.5 * np.sum((Y @ spec.phi_matrix) * Y, axis=-1)


def hamiltonian(spec: FlowSpec, x: LieElement) -> float:
    """Quadratic energy (1/2)<x, phi(x)>."""
    return float(_energies(spec, x.coords))


def lax_residual(spec: FlowSpec, x, lam):
    """Frobenius defect of [x, phi(x)] against [x + lam a, phi(x) + lam b].

    The difference lam ([a, phi(x)] - [b, x]) + lam^2 [a, b] is identically
    zero because [a, phi(x)] = [b, x] on the flow space and the two
    block-scalar elements commute; any nonzero value is numerical noise.  It
    is the norm of its coordinates, taken with the gathered ad a and ad b.
    An (n^2, R) stack ``x`` of coordinate columns gives its (R,) defects.
    """
    one = isinstance(x, LieElement)
    X = x.coords[:, None] if one else x
    st, lam = spec.setup, complex(lam)
    ad_a, ad_b = (ad_in_basis(w, st.g) for w in (st.a, spec.b))
    P = _phi_factor(st, spec.b)[:, None] * X
    D = lam * (ad_a @ P - ad_b @ X) + lam ** 2 * (ad_a @ spec.b.coords)[:, None]
    d = np.linalg.norm(D, axis=0)
    return float(d[0]) if one else d


@dataclass
class Trajectory:
    """Recorded states of one integration run."""

    times: np.ndarray
    coords: np.ndarray
    residuals: np.ndarray
    step: float
    space: str

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int, n: int) -> LieElement:
        return LieElement.from_coords(self.coords[i], n)


def integrate_flow(spec: FlowSpec, x0: LieElement, dt: float, steps: int,
                   record_stride: int = 1) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta run from x0.

    The state is advanced in flow-space coefficients y.  After each step the
    leakage (dt/6) leak @ vec(sum_s w_s y_s y_s^T) over the stage states, w =
    (1, 2, 2, 1), relative to max(1, |y|), is recorded; above ``ABORT_RESIDUAL``
    it aborts with the offending time, as does a state that is not finite or
    whose norm exceeds 1e50.  The first, the last and every
    ``record_stride``-th state (a stride of at least 1) are recorded.
    """
    if not 0 < dt < np.inf:
        raise ValueError(f"step size must be positive and finite, got {dt}")
    if steps < 1:
        raise ValueError("need at least one step")
    if record_stride < 1:
        raise ValueError(f"record stride must be at least 1, got {record_stride}")
    dom = spec.domain
    if not dom.contains(x0.coords, 1e-10):
        raise ValueError("initial state is not in the flow space")
    y = dom.coeffs(x0.coords)
    d = y.size
    # h_k = (dt/2, dt/2, dt, dt/2) f(y_k) at the stage states y_k = y + h_(k-1), so
    # the update (dt/6)(f_1 + 2 f_2 + 2 f_3 + f_4) is (h_1 + 2 h_2 + h_3 + h_4) / 3
    half, full = (0.5 * dt) * spec.field, dt * spec.field
    weights = np.array([1.0, 2.0, 1.0, 1.0]) / 3.0
    leak, stage_weights = spec.leak, np.array([1.0, 2.0, 2.0, 1.0])[:, None]
    Y, H = np.empty((4, d)), np.empty((4, d))
    (y1, y2, y3, y4), (h1, h2, h3, h4) = Y, H
    times, recorded, residuals = [0.0], [y], [0.0]
    # the check after each step reports an overflow inside the stages, so numpy
    # is silenced; ndarray.dot with out= has less per-call overhead than @
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, steps + 1):
            y1[:] = y
            half.dot(y).reshape(d, d).dot(y, out=h1)
            np.add(y, h1, out=y2)
            half.dot(y2).reshape(d, d).dot(y2, out=h2)
            np.add(y, h2, out=y3)
            full.dot(y3).reshape(d, d).dot(y3, out=h3)
            np.add(y, h3, out=y4)
            half.dot(y4).reshape(d, d).dot(y4, out=h4)
            y = y + weights.dot(H)
            t = s * dt
            # a non-finite entry makes y . y non-finite, so one scalar test
            # covers the finiteness and the norm check
            yy = y.dot(y)
            if not math.isfinite(yy) or yy > 1e100:
                raise FlowDivergenceError(t, float("inf"))
            res = 0.0
            if leak.shape[0]:
                r = leak.dot(((stage_weights * Y).T @ Y).ravel())
                res = dt / 6.0 * math.sqrt(r.dot(r)) / max(1.0, math.sqrt(yy))
                if res > ABORT_RESIDUAL:
                    raise FlowDivergenceError(t, res)
            if s % record_stride == 0 or s == steps:
                times.append(t)
                recorded.append(y)
                residuals.append(res)
    return Trajectory(np.asarray(times), np.stack(recorded) @ dom.basis.T,
                      np.asarray(residuals), dt, spec.space)


def conservation_report(spec: FlowSpec, traj: Trajectory,
                        family: IntegralFamily) -> dict:
    """Per-member maximal relative drift along the trajectory, from one shift
    recursion over the stack of recorded states."""
    vals = member_values(family, coords_to_matrix(traj.coords.T, spec.setup.n))
    drift = _max_relative_drift(vals)
    return {m.name: float(w) for m, w in zip(family.members, drift)}


def energy_drift(spec: FlowSpec, traj: Trajectory) -> float:
    return float(_max_relative_drift(_energies(spec, traj.coords)))


def _max_relative_drift(vals: np.ndarray) -> np.ndarray:
    """max_i |f_i - f_0| / (1 + |f_0|) along the first axis, 0 for one record."""
    return np.max(np.abs(vals[1:] - vals[0]) / (1.0 + np.abs(vals[0])), axis=0,
                  initial=0.0)
