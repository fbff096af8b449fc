"""Canned experiment setups shared by the CLI and the test suite.

The double-pendulum setup reproduces the reference configuration end to end:
default physical parameters, the operating box, the stabilized data
collection policy, the model-structured dictionary, and the robust controller
weights. Every random element takes an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import basis, behavior, npc, plant

# Data-collection policies: the pendulum's reference range (rad, per joint)
# and the state-feedback gains of the two toys.
PENDULUM_REF_LOW = (-0.6, 0.05)
PENDULUM_REF_HIGH = (0.95, 1.15)
FLAT_TOY_GAIN = ((0.25, 0.55),)
CHAIN_TOY_GAIN = ((0.2, 0.4, 0.0), (0.0, 0.0, 0.3))


@dataclass
class PendulumExperiment:
    params: plant.DoublePendulumParams
    plant_model: plant.PlantModel
    structure: plant.BrunovskyStructure
    box: basis.OperatingBox
    y_setpoint: np.ndarray
    u_setpoint: np.ndarray
    x0: np.ndarray
    hold_input: np.ndarray

    def phi(self, U, XI):
        return plant.pendulum_synthetic_input(self.params, U, XI)

    def policy(self, seed: int) -> plant.PendulumPdPolicy:
        return plant.PendulumPdPolicy(
            params=self.params,
            ref_low=np.array(PENDULUM_REF_LOW),
            ref_high=np.array(PENDULUM_REF_HIGH),
            u_low=self.box.u_lower,
            u_high=self.box.u_upper,
            seed=seed,
        )

    def dictionary(self, perturbation: float = 0.1, seed: int = 0):
        return basis.make_pendulum_dictionary(self.params, perturbation, seed)

    def collect(self, seed: int, w_star: float = 0.01, N: int = 200) -> plant.Trajectory:
        noise = plant.NoiseModel(w_star=w_star, seed=10_000 + seed)
        return plant.collect_offline_data(
            self.plant_model, self.policy(seed), N, self.structure, noise, box=self.box
        )

    def blocks(self, dictionary, traj, L: int = 10, noisy: bool = True):
        return behavior.DataDictionaryBlocks.from_trajectory(
            dictionary, traj, horizon=L + self.structure.d_max, use_noisy=noisy
        )

    def ocp_spec(
        self,
        blocks,
        eps_star: float,
        w_star: float = 0.01,
        L: int = 10,
        **fields,
    ) -> npc.OcpSpec:
        """Robust reference controller; further ``OcpSpec`` fields (slack mode,
        certificate constants) pass through, and ``OcpSpec`` holds the
        defaults of those left out."""
        return ocp_spec(
            self.structure, self.box, blocks, self.u_setpoint, self.y_setpoint,
            L=L, eps_star=eps_star, w_star=w_star, **fields,
        )


def ocp_spec(
    structure: plant.BrunovskyStructure,
    box: basis.OperatingBox,
    blocks,
    u_setpoint,
    y_setpoint,
    mode: str = "robust",
    L: int = 10,
    eps_star: float = 0.0,
    w_star: float = 0.0,
    Q=None,
    R=None,
    u_min=None,
    u_max=None,
    **fields,
) -> npc.OcpSpec:
    """Receding-horizon problem on ``blocks`` for a plant of the given
    structure: identity weights and the input limits of ``box`` unless given,
    and no uncertainty levels in nominal mode. Further ``OcpSpec`` fields pass
    through, and ``OcpSpec`` holds the defaults of those left out."""
    m = structure.m
    robust = mode == "robust"
    return npc.OcpSpec(
        mode=mode,
        L=L,
        structure=structure,
        blocks=blocks,
        Q=np.eye(m) if Q is None else Q,
        R=np.eye(m) if R is None else R,
        u_setpoint=u_setpoint,
        y_setpoint=y_setpoint,
        u_min=box.u_lower if u_min is None else u_min,
        u_max=box.u_upper if u_max is None else u_max,
        eps_star=eps_star if robust else 0.0,
        w_star=w_star if robust else 0.0,
        **fields,
    )


def pendulum_experiment(grid_points: int = 7) -> PendulumExperiment:
    """Reference double-pendulum setup: torque box of 20 Nm per joint, angle
    windows within a quarter turn, setpoint one-sixth and one-third turn up,
    started hanging straight down."""
    params = plant.DoublePendulumParams()
    y_s = np.array([np.pi / 6, np.pi / 3])
    x0 = np.array([-np.pi / 2, 0.0, 0.0, 0.0])
    return PendulumExperiment(
        params=params,
        plant_model=plant.make_double_pendulum(params),
        structure=plant.BrunovskyStructure(degrees=(2, 2)),
        box=basis.OperatingBox(
            u_lower=[-20.0, -20.0],
            u_upper=[20.0, 20.0],
            xi_lower=[-np.pi / 2] * 4,
            xi_upper=[np.pi / 2] * 4,
            grid_points=grid_points,
        ),
        y_setpoint=y_s,
        u_setpoint=plant.equilibrium_torque(params, y_s),
        x0=x0,
        hold_input=plant.equilibrium_torque(params, [x0[0], x0[2]]),
    )


def flat_toy_setup(N: int = 60, seed: int = 2):
    """Exactly representable single-channel nonlinear toy with its dictionary
    and clean offline data; the workhorse of the nominal-scheme tests."""
    toy, structure, phi = plant.make_scalar_flat()
    policy = plant.StateFeedbackDitherPolicy(
        K=np.array(FLAT_TOY_GAIN), dither=0.6, seed=seed
    )
    traj = plant.collect_offline_data(
        toy, policy, N, structure, plant.NoiseModel()
    )
    dictionary = flat_toy_dictionary()
    return toy, structure, phi, traj, dictionary


def flat_toy_dictionary(extra: Optional[float] = None) -> basis.CustomDictionary:
    """Dictionary spanning the flat toy's transformed input exactly; ``extra``
    distorts the sine entry to dial in a known approximation-error level."""
    c = 0.0 if extra is None else extra

    def f3(u, xi):
        return np.sin(xi[0]) - c * np.cos(2 * xi[0])

    def g3(u, xi):
        return [0.0, np.cos(xi[0]) + 2 * c * np.sin(2 * xi[0]), 0.0]

    return basis.CustomDictionary(
        1,
        2,
        funcs=[lambda u, xi: u[0], lambda u, xi: xi[1] ** 2, f3],
        grads=[
            lambda u, xi: [1.0, 0.0, 0.0],
            lambda u, xi: [0.0, 0.0, 2 * xi[1]],
            g3,
        ],
        name="flat_exact" if c == 0.0 else f"flat_distorted_{c:g}",
        u_prefix=True,
    )


def chain_toy_setup(N: int = 80, seed: int = 4):
    """Two-channel chained-integrator toy with mixed delays and the identity
    dictionary (everything linear, exactly representable)."""
    toy, structure, phi = plant.make_chain_lti()
    policy = plant.StateFeedbackDitherPolicy(
        K=np.array(CHAIN_TOY_GAIN), dither=0.7, seed=seed
    )
    traj = plant.collect_offline_data(toy, policy, N, structure, plant.NoiseModel())
    dictionary = basis.InputDictionary(m=2, n=3)
    return toy, structure, phi, traj, dictionary
