"""The reduced Euler flow dx/dt = [x, phi(x)] and its conservation diagnostics.

For a second block-scalar element b commuting with the anchor, the operator
phi(x) = (ad a|_m)^(-1) [b, x] is symmetric for the invariant pairing and
preserves both the transversal space and its fixed part.  The quadratic
energy (1/2)<x, phi(x)> generates the flow dx/dt = [x, phi(x)], whose right
hand side stays inside the flow space exactly.

The right hand side is a fixed quadratic map, so ``build_flow`` tabulates it
once: with Y_j the flow-space basis matrices, Q[:, j, k] holds the canonical
coordinates of [Y_j, phi(Y_k)], and for x = sum_j y_j Y_j the velocity is
sum_jk y_j y_k Q[:, j, k].  Q is ambient (N = n^2 rows), not reduced to the
flow space, so a step never builds a matrix or a bracket and any component
of the tabulated field outside the flow space still reaches the state.  The
integrator works in ambient coordinates and re-projects after every step so
that such leakage is measured rather than hidden.  Conservation of the
shifted trace integrals along trajectories is the end-to-end diagnostic: the
integrator is a plain fixed-step classical Runge-Kutta scheme with no
structure preservation, so invariant drift is a real signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lie import LieElement, bracket, coords_to_matrix, matrices_to_coords
from .linalg import Subspace
from .invariants import IntegralFamily, member_values
from .orbit import OrbitSetup, _operator_on, block_scalar


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


def build_flow(setup: OrbitSetup, b_values, space: str = "m_tilde") -> FlowSpec:
    """Flow data for b = diag(i*mu_j blocks); validates commutation and symmetry."""
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
    # ad b preserves m, and the flow space lies in m: restrict through the
    # coefficients E of the flow-space basis in the basis of m
    ad_b_m = _operator_on(setup.m, lambda Ys: b.matrix @ Ys - Ys @ b.matrix)
    E = setup.m.coeffs(setup.pair(space).m.basis)
    phi = E.T @ setup.ad_a_m_inv @ ad_b_m @ E
    if phi.size and np.max(np.abs(phi - phi.T)) > 1e-10 * max(1.0, np.max(np.abs(phi))):
        raise RuntimeError("phi is not symmetric on the flow space")
    return FlowSpec(setup, b, space, phi, _quadratic_tensor(setup, space, phi))


def _quadratic_tensor(setup: OrbitSetup, space: str, phi: np.ndarray) -> np.ndarray:
    """All brackets [Y_j, phi(Y_k)] of the flow-space basis in one stacked pass.

    The brackets of skew-Hermitian matrices have real coordinates, so the
    imaginary part is round-off; it is checked and dropped.
    """
    V = setup.pair(space).m.basis
    N, d = V.shape
    Ys = coords_to_matrix(V, setup.n)[:, None]
    Ps = coords_to_matrix(V @ phi, setup.n)[None]
    C = matrices_to_coords((Ys @ Ps - Ps @ Ys).reshape(d * d, setup.n, setup.n))
    if C.size and np.max(np.abs(C.imag)) > 1e-12 * max(1.0, np.max(np.abs(C.real))):
        raise RuntimeError("the flow tensor has non-real coordinates")
    return np.ascontiguousarray(C.real).reshape(N * d, d)


def phi_ab(spec: FlowSpec, x: LieElement) -> LieElement:
    """phi(x) = (ad a|_m)^(-1) [b, x], evaluated through the flow-space matrix."""
    dom = spec.domain
    c = dom.coeffs(x.coords)
    return LieElement.from_coords(dom.basis @ (spec.phi_matrix @ c), spec.setup.n)


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


def lax_residual(spec: FlowSpec, x: LieElement, lam) -> float:
    """Frobenius defect of [x, phi(x)] against the shifted bracket.

    Identically zero because [a, phi(x)] = [b, x] on the flow space and the
    two block-scalar elements commute; any nonzero value is numerical noise.
    """
    lam = complex(lam)
    p = phi_ab(spec, x)
    lhs = x.matrix @ p.matrix - p.matrix @ x.matrix
    w1 = x.matrix + lam * spec.setup.a.matrix
    w2 = p.matrix + lam * spec.b.matrix
    rhs = w1 @ w2 - w2 @ w1
    return float(np.linalg.norm(lhs - rhs))


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


def _rhs(spec: FlowSpec, c: np.ndarray) -> np.ndarray:
    """Ambient coordinates of [x, phi(x)] for x the flow-space part of c."""
    y = spec.domain.basis.T @ c
    return (spec.quad @ y).reshape(c.size, y.size) @ y


def integrate_flow(spec: FlowSpec, x0: LieElement, dt: float, steps: int,
                   record_stride: int = 1) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta run from x0.

    The state is advanced in ambient coordinates; after each step the leakage
    out of the flow space is recorded and removed.  A leakage above
    ``ABORT_RESIDUAL`` aborts with the offending time, as does a state that
    is not finite or whose norm exceeds 1e50.  The first, the last and every
    ``record_stride``-th state (a stride of at least 1) are recorded.
    """
    if dt <= 0:
        raise ValueError("step size must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    if record_stride < 1:
        raise ValueError(f"record stride must be at least 1, got {record_stride}")
    dom = spec.domain
    if not dom.contains(x0.coords, 1e-10):
        raise ValueError("initial state is not in the flow space")
    c = dom.project(x0.coords)
    times = [0.0]
    recorded = [c.copy()]
    residuals = [0.0]
    half, sixth = 0.5 * dt, dt / 6.0
    # the check after each step reports an overflow inside the RK4 stages; one
    # context around the loop, not around each right-hand side, silences numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, steps + 1):
            k1 = _rhs(spec, c)
            k2 = _rhs(spec, c + half * k1)
            k3 = _rhs(spec, c + half * k2)
            k4 = _rhs(spec, c + dt * k3)
            c = c + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = s * dt
            # a non-finite entry makes c @ c non-finite, so one scalar test
            # covers the finiteness and the norm check
            cc = float(c @ c)
            if not math.isfinite(cc) or cc > 1e100:
                raise FlowDivergenceError(t, float("inf"))
            proj = dom.project(c)
            r = c - proj
            res = math.sqrt(float(r @ r)) / max(1.0, math.sqrt(cc))
            if res > ABORT_RESIDUAL:
                raise FlowDivergenceError(t, res)
            c = proj
            if s % record_stride == 0 or s == steps:
                times.append(t)
                recorded.append(c.copy())
                residuals.append(res)
    return Trajectory(np.asarray(times), np.stack(recorded),
                      np.asarray(residuals), dt, spec.space)


def conservation_report(spec: FlowSpec, traj: Trajectory,
                        family: IntegralFamily) -> dict:
    """Per-member maximal relative drift along the trajectory."""
    n = spec.setup.n
    vals = np.array([member_values(family, traj.state(i, n)) for i in range(len(traj))])
    drift = _max_relative_drift(vals.reshape(len(traj), len(family.members)))
    return {m.name: float(w) for m, w in zip(family.members, drift)}


def energy_drift(spec: FlowSpec, traj: Trajectory) -> float:
    return float(_max_relative_drift(_energies(spec, traj.coords)))


def _max_relative_drift(vals: np.ndarray) -> np.ndarray:
    """max_i |f_i - f_0| / (1 + |f_0|) along the first axis, 0 for one record."""
    return np.max(np.abs(vals[1:] - vals[0]) / (1.0 + np.abs(vals[0])), axis=0,
                  initial=0.0)
