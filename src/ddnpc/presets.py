"""The one experiment assembly, shared by the CLI, the test suite and the
benchmark, and the canned setups built on it.

``Experiment`` builds an experiment from a config dict with the CLI's
sections. It is the one place that knows per-plant facts: the default box and
dictionary, the data-collection policy and the overrides it reads, the
transformed input map φ, the state behind a window state and the input that
holds the plant at rest, the default of every setting, and the pipeline:
``collect``, ``certificate`` and ``closed_loop``. ``pendulum_experiment`` is
the reference double-pendulum setup as such a dict, and the toy setups
collect their data through it. Every random element takes an explicit seed.
"""

from __future__ import annotations

import contextlib
from typing import Optional

import numpy as np

from . import basis, behavior, npc, plant, trajlib

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


def _floats(value) -> np.ndarray:
    """``value`` as a float array; a null, or a null entry, is no number."""
    array = np.asarray(value, dtype=float)
    if np.isnan(array).any():
        raise ValueError(f"expected numbers, got {value!r}")
    return array


# The ``ocp`` keys that pass to ``OcpSpec`` as they are, each through its
# cast; ``OcpSpec`` holds the defaults of those a config leaves out.
_OCP_FIELDS = {
    **dict.fromkeys(("Q", "R", "u_min", "u_max", "y_min", "y_max"), _floats),
    **dict.fromkeys(("lambda_alpha", "lambda_sigma", "c_slack"), float), "slack_mode": str,
}

# The dictionaries a config can name besides the pendulum's, built from (m, n).
_DICTIONARIES = {
    "identity": basis.IdentityDictionary,
    "input": basis.InputDictionary,
    "poly2": basis.PolynomialDictionary,
    "trig": basis.TrigDictionary,
    "flat_exact": lambda m, n: basis.FlatToyDictionary(),
}


class ConfigError(ValueError):
    """A config names an unknown key or value, or lacks a required key."""


def require(section: dict, name: str, key: str):
    """``section[key]``, where ``name`` is the section's path in the config."""
    if key not in section:
        raise ConfigError(f"missing key '{name}.{key}'")
    return section[key]


@contextlib.contextmanager
def depth_of(key):
    """Name the config key or flag that set a Hankel depth the recorded data
    cannot fill."""
    try:
        yield
    except trajlib.HankelDepthError as exc:
        raise ConfigError(f"{key}: {exc}") from None


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
    ``data``, ``noise``, ``ocp`` and ``run``; each setting's default is
    written once, here. An unknown or out-of-range ``plant.params`` value, a
    ``data.policy`` key the plant's policy does not read, a box bound whose
    length is not the plant's ``m`` or ``n``, and a box whose lower bounds
    are not below its upper ones or whose ``grid_points`` is below 2 raise
    ``ConfigError`` here; a required key the config lacks, or a value of the
    wrong type or size, raises it, naming the key, when it is read.
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

    def settings(self, section: str, casts: dict) -> dict:
        """The keys of ``section`` that the config sets and ``casts`` names,
        each through its cast. A value its cast rejects raises
        ``ConfigError`` naming the key."""
        given, out = self.cfg.get(section, {}), {}
        for key, cast in casts.items():
            if key in given:
                try:
                    out[key] = cast(given[key])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{section}.{key}: {exc}") from None
        return out

    def setting(self, key: str, cast, default):
        """The config's ``key`` ('section.name') through ``cast``, or
        ``default`` where the config leaves it out."""
        section, _, name = key.partition(".")
        return self.settings(section, {name: cast}).get(name, default)

    def vector(self, key: str, size: int, default):
        """The array setting ``key``, or ``default``; one of another size
        raises ``ConfigError`` naming the key."""
        value = self.setting(key, _floats, default)
        if value is not None and np.size(value) != size:
            raise ConfigError(f"{key} has {np.size(value)} entries, not {size}")
        return value

    def dictionary(self, perturbation: Optional[float] = None, seed: Optional[int] = None):
        """The configured dictionary: the model-structured one on the
        pendulum and the raw inputs on a toy unless ``dictionary.name`` says
        otherwise. ``perturbation`` and ``seed`` replace the section's."""
        default = "input" if self.params is None else "pendulum_model"
        name = self.setting("dictionary.name", str, default)
        if name == "pendulum_model":
            if self.params is None:
                raise ConfigError("pendulum_model dictionary needs the pendulum plant")
            if perturbation is None:
                perturbation = self.setting("dictionary.perturbation", float, 0.1)
            if seed is None:
                seed = self.setting("dictionary.seed", int, 0)
            return basis.make_pendulum_dictionary(
                self.params, perturbation=float(perturbation), seed=int(seed)
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
    def L(self) -> int:
        """The controller's horizon ``ocp.L``; 10 by default."""
        return self.setting("ocp.L", int, 10)

    @property
    def mode(self) -> str:
        """The controller's mode ``ocp.mode``; robust by default."""
        return self.setting("ocp.mode", str, "robust")

    @property
    def w_star(self) -> float:
        """The measurement-noise bound ``noise.w_star`` of the offline data,
        the certificate and the controller's design; none by default."""
        w_star = self.setting("noise.w_star", float, 0.0)
        if not w_star >= 0:
            raise ConfigError(f"noise.w_star must be non-negative, got {w_star}")
        return w_star

    @property
    def run_noise(self) -> plant.NoiseModel:
        """Online measurement noise of bound ``noise.w_star``, seed ``run.seed``."""
        return plant.NoiseModel(self.w_star, self.setting("run.seed", int, 0))

    @property
    def x0(self) -> np.ndarray:
        """Start of the closed loop, ``run.x0``; the origin by default."""
        n = self.plant_model.n
        return self.vector("run.x0", n, np.zeros(n))

    @property
    def hold_input(self) -> Optional[np.ndarray]:
        """Input held before the first solve, ``run.hold_input``. By default
        the input that holds the plant at rest at the outputs of ``x0``: the
        pendulum's gravity torque, and ``None`` on a toy, whose closed loop
        then holds the input setpoint."""
        hold = self.vector("run.hold_input", self.structure.m, None)
        return self._rest_input(self.plant_model.measure(self.x0)) if hold is None else hold

    def _rest_input(self, y) -> Optional[np.ndarray]:
        """The input that holds the plant at rest at outputs ``y``: the
        pendulum's gravity torque, and ``None`` on a toy."""
        return None if self.params is None else plant.equilibrium_torque(self.params, y)

    def collect(self, seed: int, w_star=None, N=None, strict: bool = False) -> plant.Trajectory:
        """Offline data of ``N`` samples (``data.N``, 200 by default) under
        the data policy of ``seed``, measured with noise bounded by
        ``w_star`` (``noise.w_star`` by default). The noise seed is
        ``noise.seed`` where the config sets it, and ``10_000 + seed``
        otherwise. The box verdict is recorded; in strict mode the first
        sample outside the box raises ``BoxViolationError``."""
        noise = plant.NoiseModel(
            w_star=self.w_star if w_star is None else w_star,
            seed=self.setting("noise.seed", int, 10_000 + seed),
        )
        N = self.setting("data.N", int, 200) if N is None else N
        return plant.collect_offline_data(
            self.plant_model, self.policy(seed), N, self.structure, noise,
            box=self.box, strict=strict,
        )

    def certificate(self) -> basis.ApproximationCertificate:
        """The configured dictionary's certificate on the box at the noise
        bound ``noise.w_star``, with ``dictionary.seed`` recorded."""
        return basis.build_certificate(
            self.dictionary(), self.phi, self.box, degrees=self.structure.degrees,
            w_star=self.w_star, seed=self.cfg.get("dictionary", {}).get("seed"),
        )

    def blocks(self, dictionary, traj) -> behavior.DataDictionaryBlocks:
        """Hankel blocks of ``dictionary`` on ``traj`` for the horizon
        ``ocp.L``, on the noisy outputs in robust mode."""
        with depth_of("ocp.L"):
            return behavior.DataDictionaryBlocks.from_trajectory(
                dictionary, traj, horizon=self.L + self.structure.d_max,
                use_noisy=self.mode == "robust",
            )

    def ocp_spec(self, blocks, eps_star: float, w_star=None, **fields) -> npc.OcpSpec:
        """Receding-horizon problem on ``blocks`` at the configured
        setpoints with the design bound ``w_star`` (``noise.w_star`` by
        default; none in nominal mode). ``fields`` replace the config's
        ``ocp`` settings; identity weights and the box's input limits by
        default. A value ``OcpSpec`` rejects raises ``ConfigError``."""
        m = self.structure.m
        given = {
            "mode": self.mode, "L": self.L, "Q": np.eye(m), "R": np.eye(m),
            "u_min": self.box.u_lower, "u_max": self.box.u_upper,
            **self.settings("ocp", _OCP_FIELDS), **fields,
        }
        robust = given["mode"] == "robust"
        w_star = self.w_star if w_star is None else w_star
        try:
            return npc.OcpSpec(
                structure=self.structure, blocks=blocks,
                u_setpoint=self.u_setpoint, y_setpoint=self.y_setpoint,
                eps_star=eps_star if robust else 0.0, w_star=w_star if robust else 0.0,
                **given,
            )
        except ValueError as exc:
            raise ConfigError(f"ocp: {exc}") from None

    def closed_loop(self, traj, cert, noise: plant.NoiseModel) -> tuple:
        """The closed loop designed on the data ``traj`` and the certificate
        ``cert`` (ε* inflated by ``ocp.eps_inflation``), measured online with
        ``noise``: ``run.total_steps`` steps, ``ocp.stride`` per solve, from
        ``x0`` holding ``hold_input``. Returns the problem, ε* and the log."""
        inflation = self.setting("ocp.eps_inflation", float, 1.1)
        if not inflation >= 0:
            raise ConfigError(f"ocp.eps_inflation must be non-negative, got {inflation}")
        eps_star = cert.eps_star * inflation
        spec = self.ocp_spec(
            self.blocks(self.dictionary(), traj), eps_star,
            k_psi=cert.k_psi, k_w=cert.k_w, g_dagger_norm=cert.g_dagger_inf_bound,
        )
        total_steps = self.setting("run.total_steps", int, 300)
        stride = self.setting("ocp.stride", int, spec.stride)
        if total_steps < 0 or stride < 1 or total_steps % stride:
            raise ConfigError(
                f"run.total_steps {total_steps} must be a multiple >= 0 of ocp.stride {stride} >= 1"
            )
        log = npc.run_closed_loop(
            spec, self.plant_model, noise, x0=self.x0, total_steps=total_steps, stride=stride,
            hold_input=self.hold_input,
        )
        return spec, eps_star, log


def pendulum_experiment(grid_points: int = 7) -> Experiment:
    """Reference double-pendulum setup: the pendulum's operating box, the
    perturbed model dictionary of seed 3, the noise bound 0.01, setpoint
    one-sixth and one-third turn up and held there at rest, started hanging
    straight down. ``configs/pendulum_reference.json`` states the same."""
    return Experiment({
        "box": dict(PENDULUM_BOX, grid_points=grid_points),
        "dictionary": {"seed": 3},
        "noise": {"w_star": 0.01},
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


def chain_toy_setup():
    """Two-channel chained-integrator toy with mixed delays and the raw-input
    dictionary (everything linear, exactly representable)."""
    cfg = {"plant": {"name": "lti_toy"}, "data": {"policy": {"dither": 0.7}}}
    return _toy_setup(cfg, seed=4, N=80)
