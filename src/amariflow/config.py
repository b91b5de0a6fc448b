"""Flat sectioned config: `key = value` lines under [section] headers.

The schema below is the single source of truth: it drives parsing,
validation, defaults, and serialization, so parse(serialize(parse(text)))
equals parse(text) exactly.  Unknown sections or keys are rejected with
their line; duplicate keys are rejected citing both lines; type failures
cite line and column.  `#` starts a comment anywhere.

Floats serialize in shortest round-trip decimal form, so configs written
by the tool re-parse to bitwise-identical values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .energy import GainSpec
from .errors import ParseError, RangeError, UnknownKeyError
from .kernels import FAMILIES, Kernel
from .operator import Field, Grid, SpectralDecomposition
from .sde import NoiseSpec, SimConfig

# (type, default); types: float, int, bool, str, floats, ints
SCHEMA = {
    "kernel": {
        "family": ("str", "gaussian"),
        "scale": ("float", 1.0),
        "width": ("float", 1.0),
        "rate": ("float", 1.0),
        "m": ("float", 1.0),
        "amp": ("float", 0.5),
        "s": ("float", 2.0),
        "ratio": ("float", 0.5),
        "gamma1": ("float", 2.0),
        "gamma2": ("float", 1.0),
        "weights": ("floats", (1.0,)),
        "freqs": ("floats", (1.0,)),
        "xi_max": ("float", 20.0),
        "n_xi": ("int", 2001),
        "tol": ("float", 0.0),
        "gram_points": ("int", 100),
    },
    "grid": {
        "a": ("float", -5.0),
        "b": ("float", 5.0),
        "n": ("int", 128),
        "boundary": ("str", "truncated"),
    },
    "gain": {
        "family": ("str", "sigmoid"),
        "c": ("float", 0.0),
        "allow_non_lipschitz": ("bool", False),
    },
    "noise": {
        "mode": ("str", "spectral"),
        "rule": ("str", "b_sq_eq_k"),
        "custom": ("floats", ()),
        "seed": ("int", 1),
    },
    "sim": {
        "alpha": ("float", 1.0),
        "epsilon": ("float", 0.1),
        "dt": ("float", 0.01),
        "t_final": ("float", 1.0),
        "u0": ("float", 0.0),
        "u0_modes": ("floats", ()),
        "record_every": ("int", 1),
        "clamp": ("float", 1e3),
        "ds_halvings": ("int", 3),
    },
    "galerkin": {
        "n_list": ("ints", (1, 2, 4, 8)),
        "rel_tol": ("float", 1e-10),
        "neg_tol": ("float", 1e-8),
    },
    "gibbs": {
        "n_modes": ("int", 2),
        "mcmc_steps": ("int", 20000),
        "burn_in": ("int", 2000),
        "step_scale": ("float", 1.0),
        "sde_t": ("float", 500.0),
        "sde_record_every": ("int", 10),
        "sde_burn_in": ("int", 100),
    },
    "output": {
        "switch_lower": ("float", -0.5),
        "switch_upper": ("float", 0.5),
    },
}


@dataclass
class ExperimentConfig:
    """Fully-populated typed values, every schema key present."""

    values: dict

    def get(self, section: str, key: str):
        return self.values[section][key]


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        {sec: {k: v for k, (_, v) in keys.items()} for sec, keys in SCHEMA.items()}
    )


def _parse_scalar(kind: str, text: str, where: str):
    if kind == "float":
        try:
            v = float(text)
        except ValueError:
            raise ParseError(f"{where}: {text!r} is not a float") from None
        if not math.isfinite(v):
            raise ParseError(f"{where}: float must be finite, got {text!r}")
        return v
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"{where}: {text!r} is not an integer") from None
    if kind == "bool":
        low = text.lower()
        if low == "true":
            return True
        if low == "false":
            return False
        raise ParseError(f"{where}: {text!r} is not true/false")
    return text  # str


def _parse_value(kind: str, text: str, where: str):
    if kind in ("floats", "ints"):
        if text == "":
            return ()
        parts = text.split(",")
        item = "float" if kind == "floats" else "int"
        return tuple(_parse_scalar(item, p.strip(), where) for p in parts)
    if kind == "str" and text == "":
        raise ParseError(f"{where}: empty value")
    return _parse_scalar(kind, text, where)


def parse_config(text: str) -> ExperimentConfig:
    cfg = default_config()
    seen: dict[tuple, int] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        stripped = body.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError(f"line {lineno}: unterminated section header {stripped!r}")
            name = stripped[1:-1].strip()
            if name not in SCHEMA:
                raise UnknownKeyError(
                    f"line {lineno}: unknown section [{name}]; "
                    f"sections are {', '.join(SCHEMA)}"
                )
            section = name
            continue
        if "=" not in stripped:
            raise ParseError(
                f"line {lineno}, column {len(raw) - len(raw.lstrip()) + 1}: "
                f"expected 'key = value', got {stripped!r}"
            )
        if section is None:
            raise ParseError(f"line {lineno}: key outside any [section]")
        key_part, _, val_part = body.partition("=")
        key = key_part.strip()
        value_col = len(key_part) + 2 + (len(val_part) - len(val_part.lstrip()))
        value_text = val_part.strip()
        if key not in SCHEMA[section]:
            raise UnknownKeyError(
                f"line {lineno}: unknown key {key!r} in [{section}]; "
                f"keys are {', '.join(SCHEMA[section])}"
            )
        if (section, key) in seen:
            raise ParseError(
                f"duplicate key {section}.{key}: lines {seen[(section, key)]} and {lineno}"
            )
        seen[(section, key)] = lineno
        kind = SCHEMA[section][key][0]
        cfg.values[section][key] = _parse_value(
            kind, value_text, f"line {lineno}, column {value_col}"
        )
    return cfg


def _format_value(kind: str, v) -> str:
    if kind == "float":
        return repr(float(v))
    if kind == "int":
        return str(int(v))
    if kind == "bool":
        return "true" if v else "false"
    if kind == "floats":
        return ", ".join(repr(float(x)) for x in v)
    if kind == "ints":
        return ", ".join(str(int(x)) for x in v)
    return str(v)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, _) in keys.items():
            lines.append(f"{key} = {_format_value(kind, cfg.values[section][key])}")
        lines.append("")
    return "\n".join(lines)


def apply_override(cfg: ExperimentConfig, spec: str):
    """Apply one 'section.key=value' override in place."""
    head, eq, value_text = spec.partition("=")
    if not eq:
        raise ParseError(f"override {spec!r} is not of the form section.key=value")
    sec, dot, key = head.strip().partition(".")
    if not dot:
        raise ParseError(f"override target {head.strip()!r} is not of the form section.key")
    sec = sec.strip()
    key = key.strip()
    if sec not in SCHEMA:
        raise UnknownKeyError(f"override: unknown section [{sec}]")
    if key not in SCHEMA[sec]:
        raise UnknownKeyError(f"override: unknown key {key!r} in [{sec}]")
    kind = SCHEMA[sec][key][0]
    cfg.values[sec][key] = _parse_value(kind, value_text.strip(), f"override {spec!r}")


# -- builders: config sections to live objects --------------------------------

def build_kernel(cfg: ExperimentConfig) -> Kernel:
    sec = cfg.values["kernel"]
    family = sec["family"]
    if family not in FAMILIES:
        raise RangeError(
            f"unknown kernel family {family!r}; families are {', '.join(FAMILIES)}"
        )
    cls = FAMILIES[family]
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {name: sec[name] for name in names if name in sec}
    return cls(**kwargs)


def build_grid(cfg: ExperimentConfig) -> Grid:
    sec = cfg.values["grid"]
    return Grid(float(sec["a"]), float(sec["b"]), int(sec["n"]), sec["boundary"])


def build_gain(cfg: ExperimentConfig) -> GainSpec:
    sec = cfg.values["gain"]
    return GainSpec(
        family=sec["family"],
        c=float(sec["c"]),
        allow_non_lipschitz=bool(sec["allow_non_lipschitz"]),
    )


def build_noise(cfg: ExperimentConfig) -> NoiseSpec:
    """NoiseSpec judges the keys, noise.custom whenever it is set; white
    noise gets rule None, since the schema always fills noise.rule."""
    sec = cfg.values["noise"]
    return NoiseSpec(
        mode=sec["mode"],
        rule=None if sec["mode"] == "white" else sec["rule"],
        custom=tuple(sec["custom"]) or None,
        seed=int(sec["seed"]),
    )


def build_u0(cfg: ExperimentConfig, grid: Grid, dec: SpectralDecomposition | None) -> Field:
    sec = cfg.values["sim"]
    modes = sec["u0_modes"]
    if len(modes) > 0:
        if dec is None:
            raise RangeError("u0_modes needs a spectral decomposition")
        return dec.reconstruct(list(modes))
    return Field.constant(grid, float(sec["u0"]))


def build_sim(cfg: ExperimentConfig, u0: Field) -> SimConfig:
    sec = cfg.values["sim"]
    return SimConfig(
        alpha=float(sec["alpha"]),
        epsilon=float(sec["epsilon"]),
        dt=float(sec["dt"]),
        t_final=float(sec["t_final"]),
        u0=u0,
        record_every=int(sec["record_every"]),
        clamp=float(sec["clamp"]),
    )


def preset_fig1() -> ExperimentConfig:
    """Metastable switching preset: cubic gain, narrow Gaussian kernel
    (variance 0.05, amplitude 1/(0.05 sqrt(2 pi)), mass 1/sqrt(0.05)),
    weak decay, flat start in the upper well.

    The noise is spectral with b_i^2 = lambda_i (B = K^(1/2), the
    reversible case), eps = 0.3: the paper's well-posedness covers noise
    that B maps into the space K defines, and discretized grid white noise
    is outside that class (per-node variance eps^2/(2 alpha h) grows as
    h -> 0).  The level is small-noise on purpose: linearized at the upper
    state u* ~ 0.987 the per-node std is about 0.33 at eps = 0.3, so the
    middle root 0.102 lies 2.7 std away and escapes are rare but seen
    within tens of time units.  More noise does not switch more: at
    eps = 0.5 (std 0.54, gap 1.6 std) seed 1 runs to t = 2500 with the
    spatial mean staying above -0.42, so no event.

    Grid white noise at eps = 0.5 (`noise.mode=white`, `sim.epsilon=0.5`)
    is a documented negative result: explicit Euler-Maruyama at dt = 0.01
    leaves the |u| <= 1000 trust region at t ~ 5-9 on seeds 1-5, and a
    stable integration (dt = 0.001, seed 1, to t = 300) completes without
    switching, because the rough modes that K annihilates pin the spatial
    mean near 0 through the cubic."""
    cfg = default_config()
    width = 0.05
    cfg.values["kernel"].update(
        family="gaussian", width=width, scale=1.0 / (width * math.sqrt(2.0 * math.pi))
    )
    cfg.values["grid"].update(a=-20.0, b=20.0, n=400, boundary="truncated")
    cfg.values["gain"].update(family="cubic", allow_non_lipschitz=True)
    cfg.values["noise"].update(mode="spectral", rule="b_sq_eq_k", seed=1)
    cfg.values["sim"].update(
        alpha=0.1, epsilon=0.3, dt=0.01, t_final=2500.0, u0=0.8, record_every=250
    )
    cfg.values["output"].update(switch_lower=-0.5, switch_upper=0.5)
    return cfg
