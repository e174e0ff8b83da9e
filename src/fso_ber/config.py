"""Run configuration: presets, key-value config files, and validation.

The config format is a flat, diffable text document, one ``key = value`` pair
per line with ``#`` comments. Field names match :class:`RunConfig` and
:class:`~fso_ber.channel.LinkParams` exactly. Validation collects every
problem before reporting, so a bad file is diagnosed in one pass.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace

from .ber import BerMethod
from .channel import LinkParams
from .errors import ConfigError

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

# every LinkParams field is a float key; it is required when it has no default
_LINK_KEYS = {f.name: f.default is MISSING for f in fields(LinkParams)}
_INT_FIELDS = ("mc_trials", "seed", "workers")


@dataclass(frozen=True)
class RunConfig:
    link: LinkParams
    sweep: tuple[float, float, float] = DEFAULT_SWEEP
    methods: tuple[BerMethod, ...] = DEFAULT_METHODS
    mc_trials: int = 1_000_000
    seed: int = 12345
    fec_threshold: float = DEFAULT_FEC_THRESHOLD
    output_path: str = "fso-ber-out"
    workers: int = 1

    def __post_init__(self):
        problems = []
        try:
            lo, hi, step = self.sweep
            if not lo < hi:
                problems.append(f"sweep: lo must be < hi (got {lo!r} .. {hi!r})")
            if not step > 0:
                problems.append(f"sweep: step must be positive (got {step!r})")
        except (TypeError, ValueError):
            problems.append(f"sweep: expected (lo, hi, step), got {self.sweep!r}")
        if not self.methods:
            problems.append("methods: at least one method required")
        if self.mc_trials < 1:
            problems.append(f"mc_trials: must be >= 1 (got {self.mc_trials!r})")
        if not (0.0 < self.fec_threshold < 0.5):
            problems.append(f"fec_threshold: must be in (0, 0.5) (got {self.fec_threshold!r})")
        if self.seed < 0:
            problems.append(f"seed: must be >= 0 (got {self.seed!r})")
        if self.workers < 1:
            problems.append(f"workers: must be >= 1 (got {self.workers!r})")
        if not self.output_path:
            problems.append("output_path: must be non-empty")
        if problems:
            raise ConfigError(problems)


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

    link_kwargs = {}
    run_kwargs = {}
    for key, value in raw.items():
        try:
            if key in _LINK_KEYS:
                link_kwargs[key] = float(value)
            elif key in _INT_FIELDS:
                run_kwargs[key] = int(value)
            elif key == "fec_threshold":
                run_kwargs[key] = float(value)
            elif key == "sweep":
                run_kwargs[key] = parse_sweep(value)
            elif key == "methods":
                run_kwargs[key] = parse_methods(value)
            elif key == "output_path":
                run_kwargs[key] = value
            else:
                problems.append(f"{origin}: unknown key {key!r}")
        except ValueError as exc:
            problems.append(f"{origin}: field {key!r}: {exc}")

    missing = [key for key, required in _LINK_KEYS.items() if required and key not in link_kwargs]
    link_complete = not missing
    if missing:
        problems.append(f"{origin}: missing required link fields: {', '.join(missing)}")
    if "pointing_std_m" not in link_kwargs and "jitter_angle_mrad" not in link_kwargs:
        problems.append(f"{origin}: one of pointing_std_m / jitter_angle_mrad is required")
        link_complete = False

    # validate the link even when other fields are broken, so every problem
    # surfaces in one pass
    link = None
    if link_complete:
        try:
            link = LinkParams(**link_kwargs)
        except ValueError as exc:
            problems.append(f"{origin}: {exc}")
    if link is not None:
        try:
            return_config = RunConfig(link=link, **run_kwargs)
            if not problems:
                return return_config
        except ConfigError as exc:
            problems.extend(f"{origin}: {p}" for p in exc.problems)
        except (TypeError, ValueError) as exc:
            problems.append(f"{origin}: {exc}")
    raise ConfigError(problems)


def load_config(source: str) -> RunConfig:
    """Build a RunConfig from a preset name or a key-value config file path."""
    if source in PRESETS:
        return preset_config(source)
    try:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"cannot read config {source!r}: {exc}"])
    return parse_config_text(text, origin=source)


def with_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Apply non-None overrides on top of a loaded config."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    return replace(config, **updates) if updates else config
