"""The one experiment assembly, shared by the CLI, the test suite and the
benchmark, and the canned setups built on it.

``Experiment`` builds an experiment from a config dict with the CLI's
sections. It is the one place that knows per-plant facts: the default box and
dictionary, the data-collection policy and the overrides it reads, the
transformed input map φ, the state behind a window state and the input that
holds the plant at rest. ``pendulum_experiment`` is the reference
double-pendulum setup as such a dict, and the toy setups collect their data
through it. Every random element takes an explicit seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import basis, behavior, npc, plant

# Data-collection policies: the pendulum's reference range (rad, per joint)
# and the state-feedback gains of the two toys.
PENDULUM_REF_LOW = (-0.6, 0.05)
PENDULUM_REF_HIGH = (0.95, 1.15)
FLAT_TOY_GAIN = ((0.25, 0.55),)
CHAIN_TOY_GAIN = ((0.2, 0.4, 0.0), (0.0, 0.0, 0.3))

# The ``data.policy`` keys each policy reads, and so the only ones a config
# may set: the pendulum's PD policy takes scalars and arrays, a toy's state
# feedback its gain and dither.
_PD_SCALARS = ("kp", "kd", "redraw_every", "dither_edge", "ref_step")
_PD_ARRAYS = ("dither", "ref_low", "ref_high")
_TOY_POLICY_KEYS = ("K", "dither")

# The pendulum's operating box: 20 Nm of torque per joint, window angles
# within a quarter turn.
PENDULUM_BOX = {
    "u_lower": [-20.0, -20.0],
    "u_upper": [20.0, 20.0],
    "xi_lower": [-np.pi / 2] * 4,
    "xi_upper": [np.pi / 2] * 4,
}

# The dictionaries a config can name besides the pendulum's, built from (m, n).
_DICTIONARIES = {
    "identity": basis.IdentityDictionary,
    "input": basis.InputDictionary,
    "poly2": basis.PolynomialDictionary,
    "trig": basis.TrigDictionary,
    "flat_exact": lambda m, n: flat_toy_dictionary(),
}


class ConfigError(ValueError):
    """A config names an unknown key or value, or lacks a required key."""


def require(section: dict, name: str, key: str):
    """``section[key]``, where ``name`` is the section's path in the config."""
    if key not in section:
        raise ConfigError(f"missing key '{name}.{key}'")
    return section[key]


def _known(section: dict, name: str, allowed) -> dict:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{name}.{key}'")
    return section


class Experiment:
    """One experiment, built from a config dict.

    Reads ``plant`` (``name``, by default the double pendulum, and
    ``params``), ``box`` (by default the pendulum's operating box, or ±3 on
    the inputs and ±1.5 on the window states of a toy), ``dictionary``,
    ``data.policy``, the setpoints of ``ocp`` and the start of ``run``. An
    unknown or out-of-range ``plant.params`` value, a ``data.policy`` key the
    plant's policy does not read, a box bound whose length is not the
    plant's ``m`` or ``n``, and a box whose lower bounds are not below its
    upper ones or whose ``grid_points`` is below 2 raise ``ConfigError``
    here; a required key the config lacks raises it when it is read.
    ``params`` holds the pendulum's physical parameters, and is ``None`` on
    the toys.
    """

    def __init__(self, cfg: dict):
        self.cfg = cfg
        plant_cfg = cfg.get("plant", {})
        self.plant_name = plant_cfg.get("name", "double_pendulum")
        params = plant_cfg.get("params", {})
        self.params = None
        if self.plant_name == "double_pendulum":
            fields = plant.DoublePendulumParams.__dataclass_fields__
            _known(params, "plant.params", fields)
            try:
                self.params = p = plant.DoublePendulumParams(**params)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"plant.params: {exc}") from None
            self.plant_model = plant.make_double_pendulum(p)
            self.structure = plant.BrunovskyStructure(degrees=(2, 2))
            self.phi = lambda U, XI: plant.pendulum_synthetic_input(p, U, XI)
        elif self.plant_name == "lti_toy":
            _known(params, "plant.params", ())
            self.plant_model, self.structure, self.phi = plant.make_chain_lti()
        elif self.plant_name == "scalar_flat":
            self.plant_model, self.structure, self.phi = plant.make_scalar_flat(
                **_known(params, "plant.params", ("a", "b"))
            )
        else:
            raise ConfigError(f"unknown plant '{self.plant_name}'")
        policy_keys = _TOY_POLICY_KEYS if self.params is None else _PD_SCALARS + _PD_ARRAYS
        _known(cfg.get("data", {}).get("policy", {}), "data.policy", policy_keys)

        box = cfg.get("box")
        m, n = self.structure.m, self.structure.n
        if box is None:
            box = PENDULUM_BOX if self.params is not None else {
                "u_lower": [-3.0] * m, "u_upper": [3.0] * m,
                "xi_lower": [-1.5] * n, "xi_upper": [1.5] * n,
            }
        bounds = {"u_lower": m, "u_upper": m, "xi_lower": n, "xi_upper": n}
        for key, size in bounds.items():
            if np.size(require(box, "box", key)) != size:
                raise ConfigError(
                    f"box.{key} has {np.size(box[key])} entries; plant "
                    f"'{self.plant_name}' needs {size}"
                )
        try:
            self.box = basis.OperatingBox(
                *(box[key] for key in bounds), grid_points=int(box.get("grid_points", 7))
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"box: {exc}") from None

    def dictionary(self, perturbation: Optional[float] = None, seed: Optional[int] = None):
        """The configured dictionary: the model-structured one on the
        pendulum and the raw inputs on a toy unless ``dictionary.name`` says
        otherwise. ``perturbation`` and ``seed`` replace the section's."""
        d_cfg = self.cfg.get("dictionary", {})
        name = d_cfg.get("name", "input" if self.params is None else "pendulum_model")
        if name == "pendulum_model":
            if self.params is None:
                raise ConfigError("pendulum_model dictionary needs the pendulum plant")
            if perturbation is None:
                perturbation = d_cfg.get("perturbation", 0.1)
            return basis.make_pendulum_dictionary(
                self.params,
                perturbation=float(perturbation),
                seed=int(d_cfg.get("seed", 0) if seed is None else seed),
            )
        if name not in _DICTIONARIES:
            raise ConfigError(f"unknown dictionary '{name}'")
        return _DICTIONARIES[name](self.structure.m, self.structure.n)

    def policy(self, seed: int):
        """Data-collection policy with the overrides of ``data.policy``, its
        torques clipped to the box: PD tracking of a random joint-angle
        reference on the pendulum, dithered state feedback on a toy."""
        pol = self.cfg.get("data", {}).get("policy", {})
        limits = dict(u_low=self.box.u_lower, u_high=self.box.u_upper, seed=seed)
        if self.params is None:
            gain = FLAT_TOY_GAIN if self.plant_name == "scalar_flat" else CHAIN_TOY_GAIN
            given = {"K": gain, "dither": 0.6, **pol}
            return plant.StateFeedbackDitherPolicy(
                K=np.asarray(given["K"], dtype=float), dither=float(given["dither"]), **limits
            )
        given = {"ref_low": PENDULUM_REF_LOW, "ref_high": PENDULUM_REF_HIGH, **pol}
        return plant.PendulumPdPolicy(
            params=self.params,
            **{key: given[key] for key in _PD_SCALARS if key in given},
            **{key: np.asarray(given[key], dtype=float) for key in _PD_ARRAYS if key in given},
            **limits,
        )

    def state_from_window(self, xi) -> np.ndarray:
        """The plant state whose window state is ``xi``: the pendulum's
        angles and their differences over one sample; a toy's state is its
        window state."""
        xi = np.asarray(xi, dtype=float).reshape(-1)
        if self.params is None:
            return xi.copy()
        Ts = self.params.Ts
        return np.array([xi[0], (xi[1] - xi[0]) / Ts, xi[2], (xi[3] - xi[2]) / Ts])

    @property
    def u_setpoint(self) -> np.ndarray:
        """``ocp.u_setpoint``. The pendulum holds the equilibrium torque at
        ``y_setpoint`` when the config omits it; a toy requires it."""
        ocp = self.cfg.get("ocp", {})
        if self.params is not None and "u_setpoint" not in ocp:
            return self._rest_input(self.y_setpoint)
        return np.asarray(require(ocp, "ocp", "u_setpoint"), dtype=float)

    @property
    def y_setpoint(self) -> np.ndarray:
        return np.asarray(require(self.cfg.get("ocp", {}), "ocp", "y_setpoint"), dtype=float)

    @property
    def x0(self) -> np.ndarray:
        """Start of the closed loop, ``run.x0``; the origin by default."""
        x0 = self.cfg.get("run", {}).get("x0")
        return np.zeros(self.plant_model.n) if x0 is None else np.asarray(x0, dtype=float)

    @property
    def hold_input(self) -> Optional[np.ndarray]:
        """Input held before the first solve, ``run.hold_input``. By default
        the input that holds the plant at rest at the outputs of ``x0``: the
        pendulum's gravity torque, and ``None`` on a toy, whose closed loop
        then holds the input setpoint."""
        hold = self.cfg.get("run", {}).get("hold_input")
        if hold is not None:
            return np.asarray(hold, dtype=float)
        return self._rest_input(self.plant_model.measure(self.x0))

    def _rest_input(self, y) -> Optional[np.ndarray]:
        """The input that holds the plant at rest at outputs ``y``: the
        pendulum's gravity torque, and ``None`` on a toy."""
        return None if self.params is None else plant.equilibrium_torque(self.params, y)

    def collect(
        self, seed: int, w_star: float = 0.01, N: int = 200, strict: bool = False
    ) -> plant.Trajectory:
        """Offline data of ``N`` samples under the data policy of ``seed``,
        measured with noise bounded by ``w_star``. The noise seed is
        ``noise.seed`` where the config sets it, and ``10_000 + seed``
        otherwise. The box verdict is recorded; in strict mode the first
        sample outside the box raises ``BoxViolationError``."""
        noise_seed = self.cfg.get("noise", {}).get("seed", 10_000 + seed)
        noise = plant.NoiseModel(w_star=w_star, seed=int(noise_seed))
        return plant.collect_offline_data(
            self.plant_model, self.policy(seed), N, self.structure, noise,
            box=self.box, strict=strict,
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
        mode: str = "robust",
        Q=None,
        R=None,
        u_min=None,
        u_max=None,
        **fields,
    ) -> npc.OcpSpec:
        """Receding-horizon problem on ``blocks`` at the configured
        setpoints: identity weights and the input limits of the box unless
        given, and no uncertainty levels in nominal mode. Further ``OcpSpec``
        fields (slack mode, certificate constants) pass through, and
        ``OcpSpec`` holds the defaults of those left out. A value ``OcpSpec``
        rejects raises ``ConfigError`` naming ``ocp``."""
        m = self.structure.m
        robust = mode == "robust"
        u_setpoint, y_setpoint = self.u_setpoint, self.y_setpoint
        try:
            return npc.OcpSpec(
                mode=mode, L=L, structure=self.structure, blocks=blocks,
                Q=np.eye(m) if Q is None else Q, R=np.eye(m) if R is None else R,
                u_setpoint=u_setpoint, y_setpoint=y_setpoint,
                u_min=self.box.u_lower if u_min is None else u_min,
                u_max=self.box.u_upper if u_max is None else u_max,
                eps_star=eps_star if robust else 0.0, w_star=w_star if robust else 0.0,
                **fields,
            )
        except ValueError as exc:
            raise ConfigError(f"ocp: {exc}") from None


def pendulum_experiment(grid_points: int = 7) -> Experiment:
    """Reference double-pendulum setup: the pendulum's operating box,
    setpoint one-sixth and one-third turn up and held there at rest, started
    hanging straight down."""
    return Experiment({
        "box": dict(PENDULUM_BOX, grid_points=grid_points),
        "ocp": {"y_setpoint": np.array([np.pi / 6, np.pi / 3])},
        "run": {"x0": [-np.pi / 2, 0.0, 0.0, 0.0]},
    })


def _toy_setup(cfg: dict, seed: int, N: int):
    """Plant, structure, φ, clean offline data of ``N`` samples and
    dictionary of the toy experiment ``cfg``."""
    exp = Experiment(cfg)
    traj = exp.collect(seed, w_star=0.0, N=N)
    return exp.plant_model, exp.structure, exp.phi, traj, exp.dictionary()


def flat_toy_setup():
    """Exactly representable single-channel nonlinear toy with its dictionary
    and clean offline data; the workhorse of the nominal-scheme tests."""
    cfg = {"plant": {"name": "scalar_flat"}, "dictionary": {"name": "flat_exact"}}
    return _toy_setup(cfg, seed=2, N=60)


def flat_toy_dictionary(extra: Optional[float] = None) -> basis.FlatToyDictionary:
    """Dictionary spanning the flat toy's transformed input exactly; ``extra``
    distorts the sine entry to dial in a known approximation-error level."""
    return basis.FlatToyDictionary(0.0 if extra is None else extra)


def chain_toy_setup():
    """Two-channel chained-integrator toy with mixed delays and the raw-input
    dictionary (everything linear, exactly representable)."""
    cfg = {"plant": {"name": "lti_toy"}, "data": {"policy": {"dither": 0.7}}}
    return _toy_setup(cfg, seed=4, N=80)
