"""Run configuration: presets, key-value config files, and validation.

The config format is a flat, diffable text document, one ``key = value`` pair
per line with ``#`` comments. Field names match :class:`RunConfig` and
:class:`~fso_ber.channel.LinkParams` exactly. Validation collects every
problem before reporting, so a bad file is diagnosed in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from os import PathLike

from .analysis import power_grid
from .ber import BerMethod
from .channel import LinkParams, check_link_field, derive
from .errors import ConfigError, check_integer, check_members, check_threshold, refuse

DEFAULT_FEC_THRESHOLD = 3.84e-3
DEFAULT_SWEEP = (-4.0, 16.0, 0.5)
DEFAULT_METHODS = (BerMethod.EXACT, BerMethod.APPROX_NEW)

# shared bench values; the three operating points differ only in pointing
# jitter and turbulence strength
_COMMON = dict(
    wavelength_nm=1550.0,
    link_length_km=3.0,
    aperture_radius_m=0.05,
    beam_waist_m=1.98,
    attenuation_db_per_km=0.2208,
    responsivity_a_per_w=0.5,
    noise_std=1e-7,
)
PRESETS = {
    "case1": dict(_COMMON, pointing_std_m=0.35, rytov_variance=0.1),
    "case2": dict(_COMMON, pointing_std_m=0.25, rytov_variance=0.5),
    "case3": dict(_COMMON, pointing_std_m=0.2, rytov_variance=0.9),
}

# every LinkParams field is a required config key
_LINK_KEYS = tuple(f.name for f in fields(LinkParams))


@dataclass(frozen=True)
class RunConfig:
    link: LinkParams
    sweep: tuple[float, float, float] = DEFAULT_SWEEP
    methods: tuple[BerMethod, ...] = DEFAULT_METHODS
    mc_trials: int = 1_000_000
    seed: int = 12345
    fec_threshold: float = DEFAULT_FEC_THRESHOLD
    output_path: str = "fso-ber-out"
    # accepted and checked for existing config files and callers; no run uses it
    workers: int = 1

    def __post_init__(self):
        problems = _run_problems(vars(self))
        if problems:
            raise ConfigError(problems)


def _check_sweep(sweep) -> None:
    try:
        power_grid(*sweep)
    except TypeError:
        raise ValueError(f"sweep: expected (lo, hi, step), got {sweep!r}") from None


def _check_methods(methods) -> None:
    if not methods:
        raise ValueError("methods: at least one method required")
    check_members("methods", methods, BerMethod)


# field -> the check of its value: the LinkParams fields, then the RunConfig
# fields, each in field order; each raises ValueError naming the field
_CHECKS = {
    **{key: partial(check_link_field, key) for key in _LINK_KEYS},
    # derive's refusals are ValueErrors, and its arithmetic raises nothing else
    "link": lambda link: (derive(link) if isinstance(link, LinkParams)
                          else refuse("link", "a LinkParams", link)),
    "sweep": _check_sweep,
    "methods": _check_methods,
    "mc_trials": lambda n: check_integer("mc_trials", n, 1),
    "seed": lambda seed: check_integer("seed", seed, 0),
    "fec_threshold": lambda x: check_threshold("fec_threshold", x),
    "output_path": lambda path: (isinstance(path, (str, PathLike)) and str(path)
                                 or refuse("output_path", "a non-empty path", path)),
    "workers": lambda n: check_integer("workers", n, 1),
}


def _run_problems(values: dict) -> list[str]:
    """Every problem of the fields in ``values``, in table order; an absent
    field is not checked. Flat link values that all pass (they come first, so
    no problem yet) are joined into ``values["link"]`` before its check."""
    problems = []
    for name, check in _CHECKS.items():
        if name == "link" and not problems and all(key in values for key in _LINK_KEYS):
            values["link"] = LinkParams(**{key: values.pop(key) for key in _LINK_KEYS})
        if name in values:
            try:
                check(values[name])
            except ValueError as exc:
                problems.append(str(exc))
    return problems


def parse_methods(text: str) -> tuple[BerMethod, ...]:
    methods = []
    for name in text.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            methods.append(BerMethod(name))
        except ValueError:
            valid = ", ".join(m.value for m in BerMethod)
            raise ValueError(f"unknown method {name!r} (valid: {valid})")
    return tuple(dict.fromkeys(methods))


def parse_sweep(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep must be lo:hi:step, got {text!r}")
    return tuple(float(p) for p in parts)


# config key -> parser of its value text; every link field is a float
_PARSERS = {
    **{key: float for key in _LINK_KEYS},
    "sweep": parse_sweep,
    "methods": parse_methods,
    "mc_trials": int,
    "seed": int,
    "fec_threshold": float,
    "output_path": str,
    "workers": int,
}


def parse_values(texts: dict[str, str]) -> tuple[dict, list[str]]:
    """Parse each key's value text and check the values: a config file's keys
    and the CLI's option values alike. Returns the values and every problem,
    each worded ``<key>: <cause>``."""
    values, problems = {}, []
    for key, text in texts.items():
        if key not in _PARSERS:
            problems.append(f"unknown key {key!r}")
            continue
        try:
            values[key] = _PARSERS[key](text)
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
    return values, problems + _run_problems(values)


def preset_config(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r} (valid: {', '.join(sorted(PRESETS))})"])
    return RunConfig(link=LinkParams(**PRESETS[name]))


def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    problems: list[str] = []
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"{origin}:{lineno}: expected 'key = value', got {line.strip()!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            problems.append(f"{origin}:{lineno}: duplicate key {key!r}")
            continue
        raw[key] = value

    missing = [key for key in _LINK_KEYS if key not in raw]
    if missing:
        problems.append(f"{origin}: missing required link fields: {', '.join(missing)}")
    values, found = parse_values(raw)
    problems += (f"{origin}: {p}" for p in found)
    if problems:
        raise ConfigError(problems)
    return RunConfig(**values)


def read_config(path: str) -> RunConfig:
    """Build a RunConfig from a key-value config file, whatever its name."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config {path!r}: {exc}"])
    return parse_config_text(text, origin=path)
