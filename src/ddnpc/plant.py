"""Ground-truth nonlinear plants for data generation and closed-loop evaluation.

Provides the generic discrete-time plant interface, the fully actuated double
inverted pendulum (explicit Euler discretization of the rigid-body dynamics),
the window-state (Brunovsky) construction, bounded output-noise injection and
the offline data-collection routine.

Angle convention for the pendulum follows the rigid-body formulas used by the
gravity vector below: an angle of zero puts a link horizontal, ``pi/2`` points
it straight up and ``-pi/2`` straight down. Both joints are actuated and the
measured outputs are the two joint angles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, TYPE_CHECKING

import numpy as np

from .trajlib import Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .basis import OperatingBox

GRAVITY = 9.81


class SingularInertiaError(RuntimeError):
    """Inertia matrix numerically singular at the current configuration."""


class BoxViolationError(RuntimeError):
    """A collected sample left the operating box in strict mode."""


class InsufficientSamplesError(ValueError):
    """Too few output samples to build the requested window states."""


# ---------------------------------------------------------------------------
# Generic plant interface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantModel:
    """Discrete-time plant ``x+ = f(x, u)``, ``y = h(x)``."""

    name: str
    n: int
    m: int
    step: Callable[[np.ndarray, np.ndarray], np.ndarray]
    output: Callable[[np.ndarray], np.ndarray]

    def measure(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.output(x), dtype=float).reshape(-1)


def simulate(plant: PlantModel, x0: np.ndarray, u_seq: np.ndarray):
    """Roll the plant forward under ``u_seq`` (shape ``(K, m)``).

    Returns states ``x_0..x_K`` (shape ``(K+1, n)``) and outputs
    ``y_0..y_K`` (shape ``(K+1, m)``), with ``y_k`` measured before ``u_k``
    is applied.
    """
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    K = u_seq.shape[0]
    xs = np.empty((K + 1, plant.n))
    ys = np.empty((K + 1, plant.m))
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    for k in range(K):
        xs[k] = x
        ys[k] = plant.measure(x)
        x = np.asarray(plant.step(x, u_seq[k]), dtype=float).reshape(-1)
    xs[K] = x
    ys[K] = plant.measure(x)
    return xs, ys


# ---------------------------------------------------------------------------
# Block-Brunovsky structure and window states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BrunovskyStructure:
    """Structure of the transformed linear system: per-channel integrator
    chains of lengths ``d_1..d_m`` with ``sum(d_i) = n``, each degree at
    least one. The window state at time ``k`` stacks ``y_i[k : k+d_i]`` in
    channel order.
    """

    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.degrees) < 1 or any(d < 1 for d in self.degrees):
            raise ValueError(f"relative degrees must be >= 1, got {self.degrees}")
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))

    @property
    def m(self) -> int:
        return len(self.degrees)

    @property
    def n(self) -> int:
        return int(sum(self.degrees))

    @property
    def d_max(self) -> int:
        return int(max(self.degrees))

    def channel_offsets(self) -> list[int]:
        offs = [0]
        for d in self.degrees[:-1]:
            offs.append(offs[-1] + d)
        return offs


def window_states(outputs: list[np.ndarray], structure: BrunovskyStructure) -> Sequence:
    """Stack per-channel output windows into the window-state sequence.

    Channel ``i`` must supply at least ``N + d_i`` samples for some common
    ``N >= 0``; the result has ``N + 1`` states, state ``k`` holding
    ``y_i[k : k+d_i]`` for every channel.
    """
    if len(outputs) != structure.m:
        raise ValueError(f"expected {structure.m} output channels, got {len(outputs)}")
    ys = [np.asarray(y, dtype=float).reshape(-1) for y in outputs]
    horizons = [y.size - d for y, d in zip(ys, structure.degrees)]
    N = min(horizons)
    if N < 0:
        raise InsufficientSamplesError(
            f"channel lengths {[y.size for y in ys]} too short for degrees "
            f"{structure.degrees}"
        )
    xi = np.empty((N + 1, structure.n))
    off = 0
    for y, d in zip(ys, structure.degrees):
        for j in range(d):
            xi[:, off + j] = y[j : j + N + 1]
        off += d
    return Sequence(xi)


# ---------------------------------------------------------------------------
# Double inverted pendulum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoublePendulumParams:
    """Masses [kg], lengths [m] and sampling time [s] of the two-link arm.

    Centers of mass sit at mid-link (``lc_i = l_i / 2``) and each rod has
    inertia ``m_i * l_i^2 / 12`` about its center.
    """

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 0.5
    l2: float = 0.5
    g: float = GRAVITY
    Ts: float = 0.1

    def __post_init__(self):
        if min(self.m1, self.m2, self.l1, self.l2) <= 0:
            raise ValueError("masses and lengths must be strictly positive")

    @functools.cached_property
    def lc1(self) -> float:
        return self.l1 / 2.0

    @functools.cached_property
    def lc2(self) -> float:
        return self.l2 / 2.0

    @functools.cached_property
    def I1(self) -> float:
        return self.m1 * self.l1**2 / 12.0

    @functools.cached_property
    def I2(self) -> float:
        return self.m2 * self.l2**2 / 12.0

    @functools.cached_property
    def terms(self) -> "PendulumTerms":
        """The parameter-only groupings of the rigid-body terms, computed
        once."""
        m1, m2, l1, lc1, lc2, g = self.m1, self.m2, self.l1, self.lc1, self.lc2, self.g
        return PendulumTerms(
            h=m2 * l1 * lc2,
            M11_base=m1 * lc1**2 + self.I1,
            M11_sq=l1**2 + lc2**2,
            M11_cos=2 * l1 * lc2,
            M12_base=m2 * lc2**2,
            M22=m2 * lc2**2 + self.I2,
            g1=m1 * lc1 * g,
            m2g=m2 * g,
            g2=m2 * lc2 * g,
            m2=m2,
            I2=self.I2,
            lc2=lc2,
            l1=l1,
        )

    @functools.cached_property
    def array_terms(self) -> "PendulumTerms":
        """``terms`` as 0-d float64 arrays, the same values: numpy combines an
        array with a 0-d array faster than with a Python float."""
        return PendulumTerms(*(np.array(v) for v in self.terms))


class PendulumTerms(NamedTuple):
    """Parameter-only groupings, each rounded as its term of the rigid-body
    formulas (the inertia matrix ``M(q)``, ``C(q, qd) qd`` and ``G(q)``), so
    that the closed forms built on them reproduce those formulas bit for bit:

    - ``M11 = M11_base + m2 (M11_sq + M11_cos cos q2) + I2``
    - ``M12 = h cos q2 + M12_base + I2``, ``M22`` constant
    - ``C qd = h sin q2 (-qd2 (2 qd1 + qd2), qd1 qd1)``
    - ``G = (g1 cos q1 + m2g (lc2 cos(q1 + q2) + l1 cos q1), g2 cos(q1 + q2))``

    ``m2``, ``I2``, ``lc2`` and ``l1`` are the parameters the formulas read.
    """

    h: float
    M11_base: float
    M11_sq: float
    M11_cos: float
    M12_base: float
    M22: float
    g1: float
    m2g: float
    g2: float
    m2: float
    I2: float
    lc2: float
    l1: float


def gravity_vector(p: DoublePendulumParams, q1, q2) -> np.ndarray:
    """Gravity torque vector ``G(q)`` from the terms of ``PendulumTerms``,
    vectorized over joint angles."""
    q1, q2 = np.broadcast_arrays(np.asarray(q1, dtype=float), np.asarray(q2, dtype=float))
    t, cq1, cq12 = p.terms, np.cos(q1), np.cos(q1 + q2)
    return np.stack([t.g1 * cq1 + t.m2g * (p.lc2 * cq12 + p.l1 * cq1), t.g2 * cq12], axis=-1)


def equilibrium_torque(p: DoublePendulumParams, q: np.ndarray) -> np.ndarray:
    """Constant torque holding the arm at joint angles ``q`` with zero velocity."""
    q = np.asarray(q, dtype=float).reshape(-1)
    return gravity_vector(p, q[0], q[1])


def _accelerations(p: DoublePendulumParams, tau1, tau2, q1, qd1, q2, qd2, jac=None):
    """Joint accelerations ``M(q)^-1 (tau - C(q, qd) qd - G(q))`` in closed form.

    Elementwise over scalars or arrays of one shape. The terms are those of
    ``PendulumTerms``, each rounded as in the stacked inertia matrix and
    torque vectors, so the accelerations equal the stacked-matrix form bit
    for bit. Returns ``(a1, a2, det)``, ``det`` the determinant of ``M``.
    Given ``jac``, for scalars or columns of length ``P``, of shape ``(2, 6)``
    or ``(P, 2, 6)``: ``jac[..., i, j]`` receives the partial of ``a_i``
    w.r.t. argument ``j`` of ``(tau1, tau2, q1, qd1, q2, qd2)``. Python
    floats take the terms as floats, arrays as 0-d arrays; the arithmetic is
    the same.
    """
    t = p.terms if isinstance(q2, float) else p.array_terms
    h, M22 = t.h, t.M22
    c2 = np.cos(q2)
    M11 = t.M11_base + t.m2 * (t.M11_sq + t.M11_cos * c2) + t.I2
    M12 = h * c2 + t.M12_base + t.I2
    det = M11 * M22 - M12 * M12
    hs = h * np.sin(q2)
    q12 = q1 + q2
    cq1, cq12 = np.cos(q1), np.cos(q12)
    # r = tau - C qd - G
    r1 = (
        tau1 + hs * qd2 * (2.0 * qd1 + qd2)
        - (t.g1 * cq1 + t.m2g * (t.lc2 * cq12 + t.l1 * cq1))
    )
    # qd1 * qd1, not qd1**2: on a numpy scalar ** calls pow(), which can
    # differ from the product in the last bit
    r2 = tau2 - hs * (qd1 * qd1) - t.g2 * cq12
    a1 = (M22 * r1 - M12 * r2) / det
    a2 = (M11 * r2 - M12 * r1) / det
    if jac is None:
        return a1, a2, det
    # E[j, i]: partial of r_i w.r.t. argument j, with the inertia's
    # dependence on q2, -(dM/dq2) a = hs * (2 a1 + a2, a1), added to dr/dq2;
    # then M^-1 E, written through the transposed view of jac. The values
    # above keep h cos q2, 2 qd1 + qd2 and qd1 qd1 as temporaries, so that a
    # values pass on the certificate grid holds no more arrays at once. x + x
    # is 2 x and -(hs2 * qd1) is (-2 hs) qd1, exactly; the trailing ... keeps
    # each entry of E a view when the arguments are scalars.
    sq1, sq12 = np.sin(q1), np.sin(q12)
    hc2, hs2 = h * c2, hs + hs
    E = np.zeros((6, 2) + np.shape(a1))
    E[0, 0] = E[1, 1] = 1.0
    np.add(t.g1 * sq1, t.m2g * (t.lc2 * sq12 + t.l1 * sq1), out=E[2, 0, ...])
    gs12 = np.multiply(t.g2, sq12, out=E[2, 1, ...])
    np.multiply(hs2, qd2, out=E[3, 0, ...])
    np.negative(hs2 * qd1, out=E[3, 1, ...])
    np.add(hc2 * qd2 * (qd1 + qd1 + qd2) + gs12, hs * (a1 + a1 + a2), out=E[4, 0, ...])
    np.add(gs12 - hc2 * (qd1 * qd1), hs * a1, out=E[4, 1, ...])
    np.multiply(hs2, qd1 + qd2, out=E[5, 0, ...])
    E1, E2, D = E[:, 0], E[:, 1], jac.T
    np.divide(M22 * E1 - M12 * E2, det, out=D[:, 0])
    np.divide(M11 * E2 - M12 * E1, det, out=D[:, 1])
    return a1, a2, det


def _window_accelerations(p: DoublePendulumParams, u, xi, jac=None):
    """``_accelerations`` at ``(u, xi)``, ``xi`` the window state
    ``(q1_k, q1_{k+1}, q2_k, q2_{k+1})`` with velocities recovered by divided
    differences; ``jac`` receives the partials w.r.t. ``(u, xi)``."""
    x1, x2, x3, x4 = xi[..., 0], xi[..., 1], xi[..., 2], xi[..., 3]
    acc = _accelerations(
        p, u[..., 0], u[..., 1], x1, (x2 - x1) / p.Ts, x3, (x4 - x3) / p.Ts, jac
    )
    if jac is not None:
        jac[..., 3::2] /= p.Ts  # d/dx2, d/dx4
        jac[..., 2::2] -= jac[..., 3::2]  # d/dx1, d/dx3
    return acc


def step_euler_pendulum(p: DoublePendulumParams, state: np.ndarray, torque: np.ndarray) -> np.ndarray:
    """One explicit-Euler step of the double pendulum.

    State is ``(q1, qd1, q2, qd2)``; accelerations come from
    ``M(q)^-1 (tau - C(q, qd) qd - G(q))`` and integrate the velocities, the
    velocities integrate the angles. Raises ``SingularInertiaError`` when the
    inertia matrix is numerically singular.
    """
    x = np.asarray(state, dtype=float).reshape(-1)
    q1, qd1, q2, qd2 = x.tolist()
    tau1, tau2 = np.asarray(torque, dtype=float).reshape(-1).tolist()
    a1, a2, det = _accelerations(p, tau1, tau2, q1, qd1, q2, qd2)
    if abs(det) < 1e-12:
        raise SingularInertiaError(f"|det M| = {abs(det):.3e} at q2 = {x[2]!r}")
    return x + p.Ts * np.array([qd1, a1, qd2, a2])


def pendulum_synthetic_input(p: DoublePendulumParams, u: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """True map from ``(torque, window state)`` to the transformed input.

    The window state is ``(q1_k, q1_{k+1}, q2_k, q2_{k+1})``, so velocities are
    recovered by divided differences. Vectorized: ``u`` of shape ``(..., 2)``
    with ``xi`` of shape ``(..., 4)``, the leading axes broadcast against each
    other, gives ``(..., 2)``. Each channel is written into the result, with
    no stacked copy.
    """
    u = np.asarray(u, dtype=float)
    xi = np.asarray(xi, dtype=float)
    a1, a2, _ = _window_accelerations(p, u, xi)
    v = np.empty(a1.shape + (2,))
    np.add(2.0 * xi[..., 1] - xi[..., 0], p.Ts**2 * a1, out=v[..., 0])
    np.add(2.0 * xi[..., 3] - xi[..., 2], p.Ts**2 * a2, out=v[..., 1])
    return v


def make_double_pendulum(params: Optional[DoublePendulumParams] = None) -> PlantModel:
    p = params or DoublePendulumParams()

    def _step(x, u):
        return step_euler_pendulum(p, x, u)

    def _out(x):
        return np.array([x[0], x[2]])

    return PlantModel(name="double_pendulum", n=4, m=2, step=_step, output=_out)


# ---------------------------------------------------------------------------
# Toy plants with exactly representable transformed inputs
# ---------------------------------------------------------------------------


def make_chain_lti() -> tuple[PlantModel, BrunovskyStructure, Callable]:
    """Two-input chained-integrator plant with mixed delays (2 and 1).

    The transformed input equals the raw input, so any dictionary containing
    the inputs represents this plant exactly.
    """
    structure = BrunovskyStructure(degrees=(2, 1))

    def _step(x, u):
        return np.array([x[1], u[0], u[1]])

    def _out(x):
        return np.array([x[0], x[2]])

    plant = PlantModel(name="lti_toy", n=3, m=2, step=_step, output=_out)

    def phi(u, xi):
        return np.asarray(u, dtype=float).copy()

    return plant, structure, phi


def make_scalar_flat(a: float = 0.15, b: float = 0.3) -> tuple[PlantModel, BrunovskyStructure, Callable]:
    """Single-input nonlinear plant whose transformed input is a short known
    combination of ``u``, ``sin(xi_1)`` and ``xi_2^2``."""
    structure = BrunovskyStructure(degrees=(2,))

    def _step(x, u):
        return np.array([x[1], u[0] + a * x[1] ** 2 + b * math.sin(x[0])])

    def _out(x):
        return np.array([x[0]])

    plant = PlantModel(name="scalar_flat", n=2, m=1, step=_step, output=_out)

    def phi(u, xi):
        u = np.asarray(u, dtype=float)
        xi = np.asarray(xi, dtype=float)
        val = u[..., 0] + a * xi[..., 1] ** 2 + b * np.sin(xi[..., 0])
        return val[..., np.newaxis]

    return plant, structure, phi


# ---------------------------------------------------------------------------
# Output noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Per-component bounded measurement noise, uniform on ``[-w*, w*]``."""

    w_star: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.w_star < 0:
            raise ValueError("noise bound must be non-negative")

    def samples(self, steps: int, channels: int) -> np.ndarray:
        if self.w_star == 0.0:
            return np.zeros((steps, channels))
        rng = np.random.default_rng(self.seed)
        return rng.uniform(-self.w_star, self.w_star, size=(steps, channels))


# ---------------------------------------------------------------------------
# Offline data collection
# ---------------------------------------------------------------------------


@dataclass
class PendulumPdPolicy:
    """Pre-stabilizing controller for pendulum data collection.

    Tracks a random piecewise-constant joint-angle reference (redrawn every
    few steps) with inertia-scaled PD plus gravity and velocity compensation,
    then adds uniform torque dither. Plain per-joint PD at these gains is
    unstable under the explicit-Euler discretization (the second joint sees an
    effective inverse inertia near 55 per kg m^2), so the gains act through
    the inertia matrix instead. Torques are clipped to the input box.
    """

    params: DoublePendulumParams
    kp: float = 12.0
    kd: float = 14.0
    dither: float = (2.2, 1.4)
    redraw_every: int = 5
    dither_edge: float = 1.35
    ref_low: np.ndarray = None
    ref_high: np.ndarray = None
    ref_step: float = 0.25
    u_low: np.ndarray = None
    u_high: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)
        self._ref = None

    def __call__(self, k: int, x: np.ndarray) -> np.ndarray:
        q1, qd1, q2, qd2 = x.tolist()
        if self._ref is None or k % self.redraw_every == 0:
            # Bounded random walk keeps commanded moves local so joint speeds
            # stay inside the window-state box.
            base = x[[0, 2]] if self._ref is None else self._ref
            self._ref = np.clip(
                base + self._rng.uniform(-self.ref_step, self.ref_step, size=2),
                self.ref_low,
                self.ref_high,
            )
        r1, r2 = self._ref.tolist()
        accel = np.array([self.kp * (r1 - q1) - self.kd * qd1, self.kp * (r2 - q2) - self.kd * qd2])
        # The inertia matrix and the bias torque C(q, qd) qd + G(q) on
        # scalars, term by term as in _accelerations.
        p = self.params
        t = p.terms
        cq2 = np.cos(q2)
        M12 = t.h * cq2 + t.M12_base + p.I2
        M = np.array([[t.M11_base + p.m2 * (t.M11_sq + t.M11_cos * cq2) + p.I2, M12], [M12, t.M22]])
        hs = t.h * np.sin(q2)
        cq1, cq12 = np.cos(q1), np.cos(q1 + q2)
        comp = (
            -hs * qd2 * (2.0 * qd1 + qd2) + (t.g1 * cq1 + t.m2g * (p.lc2 * cq12 + p.l1 * cq1)),
            hs * (qd1 * qd1) + t.g2 * cq12,
        )
        # a matmul on the 2x2 array, as in the stacked form: a BLAS kernel may
        # round its multiply-adds differently from scalar code
        Ma = (M @ accel).tolist()
        tau = [Ma[0] + comp[0], Ma[1] + comp[1]]
        lo, hi = self.u_low, self.u_high
        if tau[0] > hi[0] or tau[1] > hi[1] or tau[0] < lo[0] or tau[1] < lo[1]:
            # Saturating one joint torque alone kicks the other joint through
            # the inertia coupling; scale the commanded acceleration instead.
            scale = 1.0
            for i in range(2):
                if Ma[i] > 0:
                    scale = min(scale, (hi[i] - comp[i]) / Ma[i])
                elif Ma[i] < 0:
                    scale = min(scale, (lo[i] - comp[i]) / Ma[i])
            scale = max(scale, 0.0)
            tau = [scale * Ma[0] + comp[0], scale * Ma[1] + comp[1]]
        # Attenuate the dither near the edge of the angle range so the torque
        # kicks cannot push the one-step-ahead angles out of the box.
        Ts = p.Ts
        edge = np.abs(np.array([q1, q2, q1 + Ts * qd1, q2 + Ts * qd2])).max()
        # np.clip on a scalar: NaN stays NaN
        factor = min(max((self.dither_edge - edge) / 0.5, 0.1), 1.0)
        d = self.dither
        d1, d2 = (d, d) if np.ndim(d) == 0 else d
        amp1, amp2 = float(d1) * factor, float(d2) * factor
        # one draw per joint with scalar bounds: the values and stream of one
        # draw with array bounds, at a fraction of its cost
        tau[0] += self._rng.uniform(-amp1, amp1)
        tau[1] += self._rng.uniform(-amp2, amp2)
        return np.clip(np.array(tau), lo, hi)


@dataclass
class StateFeedbackDitherPolicy:
    """Stabilizing linear state feedback plus uniform dither, for toy plants."""

    K: np.ndarray
    dither: float = 0.5
    u_low: np.ndarray = None
    u_high: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        self.K = np.atleast_2d(np.asarray(self.K, dtype=float))
        self._rng = np.random.default_rng(self.seed)

    def __call__(self, k: int, x: np.ndarray) -> np.ndarray:
        m = self.K.shape[0]
        u = -self.K @ x + self._rng.uniform(-self.dither, self.dither, size=m)
        if self.u_low is not None:
            u = u.clip(self.u_low, self.u_high)  # the ufunc, without np.clip's wrapper
        return u


@dataclass(frozen=True)
class Trajectory:
    """Offline data record: inputs, clean and noisy per-channel outputs, each
    channel ``i`` cut to its first ``N + d_i`` samples, and the operating-box
    verdict. The window-state sequences are built from the outputs."""

    u: np.ndarray                       # (N, m)
    outputs: list[np.ndarray]           # channel i: (N + d_i,)
    outputs_noisy: list[np.ndarray]     # channel i: (N + d_i,)
    structure: BrunovskyStructure
    stayed_in_box: bool = True
    first_violation: Optional[int] = None

    def __post_init__(self):
        for name in ("outputs", "outputs_noisy"):
            cut = [np.array(y[: self.N + d], dtype=float)
                   for y, d in zip(getattr(self, name), self.structure.degrees)]
            object.__setattr__(self, name, cut)

    @property
    def N(self) -> int:
        return self.u.shape[0]

    @functools.cached_property
    def xi(self) -> Sequence:
        """Window states of the clean outputs, ``(N + 1, n)``."""
        return window_states(self.outputs, self.structure)

    @functools.cached_property
    def xi_noisy(self) -> Sequence:
        """Window states of the noisy outputs, ``(N + 1, n)``."""
        return window_states(self.outputs_noisy, self.structure)


def collect_offline_data(
    plant: PlantModel,
    policy: Callable[[int, np.ndarray], np.ndarray],
    N: int,
    structure: BrunovskyStructure,
    noise: NoiseModel,
    box: "Optional[OperatingBox]" = None,
    strict: bool = False,
) -> Trajectory:
    """Run ``policy`` on the plant from rest at the origin and package the
    result for identification.

    Simulates enough extra steps that every output channel ``i`` has
    ``N + d_i`` samples. Records whether every visited ``(u_k, xi_k)`` pair
    stayed inside ``box``; in strict mode the first violation raises
    ``BoxViolationError`` naming the offending step.
    """
    d_max = structure.d_max
    total_inputs = N + d_max - 1
    x = np.zeros(plant.n)
    u_all = np.empty((total_inputs, plant.m))
    y_all = np.empty((total_inputs + 1, plant.m))
    for k in range(total_inputs):
        y_all[k] = plant.measure(x)
        u_all[k] = policy(k, x)
        x = np.asarray(plant.step(x, u_all[k]), dtype=float).reshape(-1)
    y_all[total_inputs] = plant.measure(x)

    w = noise.samples(total_inputs + 1, plant.m)
    traj = Trajectory(u_all[:N].copy(), list(y_all.T), list((y_all + w).T), structure)
    if box is None:
        return traj
    inside = box.contains_rows(traj.u, traj.xi.data[:N])
    if inside.all():
        return traj
    first_violation = int(np.argmin(inside))
    if strict:
        raise BoxViolationError(f"sample {first_violation} left the operating box")
    return replace(traj, stayed_in_box=False, first_violation=first_violation)
