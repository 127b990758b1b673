"""
Run configuration: a line-oriented `key = value` format with sections,
resolved into `RunConfig` (defined in `ensemble`), whose every default is
the reference value (a = 10, σ = 1, A_E = 0.8, σ_E = 0.5, N_c = 10³,
softening 0.4837, ω_L = 0.044, F_L = 0.15, 2-11-2 envelope, mask radius 5,
Gabor window 0.35 T_L).  Each value has one way in: where the run writes
and how many worker processes it uses are command-line options only, and
no option overrides a configuration value such as `master_seed`.

The laser section accepts either (omega | wavelength_nm) and either
(F_L | intensity_wcm2); whichever is given is converted at parse time and
the manifest records the resolved atomic-unit values.  A field may be set
once: a second key that sets it, the same key or its unit alternative, is
an error naming both lines.
"""

from __future__ import annotations

import math
from dataclasses import replace
from operator import attrgetter
from typing import Callable

from .ensemble import RunConfig
from .model import field_from_intensity_wcm2, omega_from_wavelength_nm


class ConfigError(ValueError):
    """Bad configuration text; message carries the line number or key."""


def _finite(text: str) -> float:
    """float(text), refusing nan and ±inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


# section -> key -> (target dataclass field path, converter)
_SCHEMA: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "laser": {
        "F_L": ("laser.F_L", _finite),
        "intensity_wcm2": ("laser.F_L", _finite),
        "omega": ("laser.omega_L", _finite),
        "wavelength_nm": ("laser.omega_L", _finite),
        "n_up": ("laser.n_up", int),
        "n_plateau": ("laser.n_plateau", int),
        "n_down": ("laser.n_down", int),
    },
    "atom": {
        "softening": ("atom.softening", _finite),
    },
    "environment": {
        "A_E": ("perturber.A_E", _finite),
        "sigma_E": ("perturber.sigma_E", _finite),
        "a": ("structure.a", _finite),
        "sigma": ("structure.sigma", _finite),
        "n_p": ("structure.n_p", int),
        "mask_radius": ("mask.r0", _finite),
        "mask_width": ("mask.width", _finite),
    },
    "grid": {
        "x_min": ("x_min", _finite),
        "x_max": ("x_max", _finite),
        "n": ("n_grid", int),
        "dt": ("dt", _finite),
        "record_stride": ("record_stride", int),
    },
    "ensemble": {
        "n_c": ("n_c", int),
        "master_seed": ("master_seed", int),
    },
    "output": {
        "gabor_window_cycles": ("gabor_window_cycles", _finite),
    },
}

_UNIT_ALTERNATIVES = {
    "intensity_wcm2": field_from_intensity_wcm2,
    "wavelength_nm": omega_from_wavelength_nm,
}


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; unknown keys, bad values and a field set
    twice are errors."""
    set_by: dict[str, tuple[int, str]] = {}  # field path -> (line, key)
    groups: dict[str, dict[str, object]] = {}
    top: dict[str, object] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key '{key}' "
                              f"in section [{section}]")
        path, conv = _SCHEMA[section][key]
        if path in set_by:
            first, first_key = set_by[path]
            raise ConfigError(f"line {lineno}: '{key}' sets {path}, which "
                              f"line {first} already set with '{first_key}'")
        set_by[path] = lineno, key
        try:
            parsed = conv(val)
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse value for "
                              f"'{key}': {val!r}") from None
        if key in _UNIT_ALTERNATIVES:
            try:
                parsed = _UNIT_ALTERNATIVES[key](parsed)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        group, _, attr = path.rpartition(".")
        if group:
            groups.setdefault(group, {})[attr] = parsed
        else:
            top[attr] = parsed
    try:
        # each group starts from RunConfig's default instance of its class
        nested = {group: replace(getattr(RunConfig, group), **kw)
                  for group, kw in groups.items()}
        return RunConfig(**top, **nested)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def render_config(cfg: RunConfig) -> str:
    """Emit configuration text that parses back to an equal RunConfig.

    Every schema key is written except the unit alternatives.
    """
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (path, conv) in keys.items():
            if key in _UNIT_ALTERNATIVES:
                continue
            value = attrgetter(path)(cfg)
            lines.append(f"{key} = {value!r}" if conv is _finite
                         else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    return parse_config(text)
