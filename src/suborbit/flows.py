"""The reduced Euler flow dx/dt = [x, phi(x)] and its conservation diagnostics.

For a second block-scalar element b commuting with the anchor, the operator
phi(x) = (ad a|_m)^(-1) [b, x] is symmetric for the invariant pairing and
preserves both the transversal space and its fixed part.  The quadratic
energy (1/2)<x, phi(x)> generates the flow dx/dt = [x, phi(x)], whose right
hand side stays inside the flow space exactly; the integrator works in
ambient coordinates and re-projects after every step so that any numerical
leakage is measured rather than hidden.  Conservation of the shifted trace
integrals along trajectories is the end-to-end diagnostic: the integrator is
a plain fixed-step classical Runge-Kutta scheme with no structure
preservation, so invariant drift is a real signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import LieElement, bracket, pairing
from .linalg import Subspace
from .invariants import IntegralFamily, shifted_invariant_eval
from .orbit import OrbitSetup, _operator_on, block_scalar


class FlowDivergenceError(RuntimeError):
    """The integrator state left the flow space beyond the abort threshold."""

    def __init__(self, time: float, residual: float):
        super().__init__(f"flow left its space at t = {time:.6g} "
                         f"(residual {residual:.3e})")
        self.time = time
        self.residual = residual


@dataclass(frozen=True)
class FlowSpec:
    """A choice of second block-scalar element and flow space."""

    setup: OrbitSetup
    b: LieElement
    space: str
    phi_matrix: np.ndarray

    @property
    def domain(self) -> Subspace:
        return self.setup.pair(self.space).m


def build_flow(setup: OrbitSetup, b_values, space: str = "m_tilde") -> FlowSpec:
    """Flow data for b = diag(i*mu_j blocks); validates commutation and symmetry."""
    if isinstance(b_values, LieElement):
        b = b_values
    else:
        b = block_scalar(setup, b_values)
    if not setup.z_prime.contains(b.coords, 1e-12):
        raise ValueError("b must be a block-scalar imaginary diagonal "
                         "(an element of the anti-fixed center of the isotropy algebra)")
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
    return FlowSpec(setup, b, space, phi)


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


def hamiltonian(spec: FlowSpec, x: LieElement) -> float:
    """Quadratic energy (1/2)<x, phi(x)>."""
    return 0.5 * pairing(x, phi_ab(spec, x))


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
    integrator: str = "rk4"

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int, n: int) -> LieElement:
        return LieElement.from_coords(self.coords[i], n)


def _rhs(spec: FlowSpec, c: np.ndarray) -> np.ndarray:
    n = spec.setup.n
    x = LieElement.from_coords(spec.domain.project(c), n)
    v = bracket(x, phi_ab(spec, x))
    return v.coords


def integrate_flow(spec: FlowSpec, x0: LieElement, dt: float, steps: int,
                   record_stride: int = 1,
                   abort_residual: float = 1e-6) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta run from x0.

    The state is advanced in ambient coordinates; after each step the leakage
    out of the flow space is recorded and removed.  A leakage above
    ``abort_residual`` aborts with the offending time.
    """
    if dt <= 0:
        raise ValueError("step size must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    dom = spec.domain
    if not dom.contains(x0.coords, 1e-10):
        raise ValueError("initial state is not in the flow space")
    c = dom.project(x0.coords)
    times = [0.0]
    recorded = [c.copy()]
    residuals = [0.0]
    t = 0.0
    for s in range(1, steps + 1):
        k1 = _rhs(spec, c)
        k2 = _rhs(spec, c + 0.5 * dt * k1)
        k3 = _rhs(spec, c + 0.5 * dt * k2)
        k4 = _rhs(spec, c + dt * k3)
        c = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = s * dt
        if not np.all(np.isfinite(c)) or float(np.linalg.norm(c)) > 1e50:
            raise FlowDivergenceError(t, float("inf"))
        proj = dom.project(c)
        res = float(np.linalg.norm(c - proj)) / max(1.0, float(np.linalg.norm(c)))
        if res > abort_residual:
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
    states = [traj.state(i, n) for i in range(len(traj))]
    out = {}
    for member in family.members:
        f0 = shifted_invariant_eval(family, member, states[0])
        worst = 0.0
        for st in states[1:]:
            f = shifted_invariant_eval(family, member, st)
            worst = max(worst, abs(f - f0) / (1.0 + abs(f0)))
        out[member.name] = worst
    return out


def energy_drift(spec: FlowSpec, traj: Trajectory) -> float:
    n = spec.setup.n
    h0 = hamiltonian(spec, traj.state(0, n))
    worst = 0.0
    for i in range(1, len(traj)):
        h = hamiltonian(spec, traj.state(i, n))
        worst = max(worst, abs(h - h0) / (1.0 + abs(h0)))
    return worst
