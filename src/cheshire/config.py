"""Experiment configuration and its flat key=value serialization.

A config captures every knob of one experiment: preparation and
postselection states (the latter optionally a Hermitian effect for
generalized detection), couplings, readout noise, trial budget, seed,
and the quadrature grid.  The text format is one ``key=value`` per line,
``#`` comments, complex numbers written ``re+imi`` and vectors joined by
commas, so a dumped config re-parses to the identical experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import BranchWeights
from .errors import ValidationError
from .meter import DEFAULT_GRID, Grid, _readout_scale
from .qsystem import (
    PhotonEffect,
    PhotonKet,
    TransitionAmplitudes,
    branch_coherence,
    transition_amplitudes,
)
from .tolerances import NORM_SNAP_TOL

MAX_SEED = 2 ** 64


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Complete description of one simulated experiment."""

    prep: PhotonKet
    post: PhotonKet | None = None
    post_effect: PhotonEffect | None = None
    g_a: float = 2.0
    g_b: float = 2.0
    noise_a: float = 0.0
    noise_b: float = 0.0
    n_trials: int = 1_000_000
    seed: int = 0
    grid: Grid = field(default_factory=lambda: DEFAULT_GRID)

    def __post_init__(self):
        if not isinstance(self.prep, PhotonKet):
            raise ValidationError("prep: expected a state vector")
        if (self.post is None) == (self.post_effect is None):
            raise ValidationError("post: provide exactly one of post or post_effect")
        for name in ("g_a", "g_b", "noise_a", "noise_b"):
            object.__setattr__(self, name, _readout_scale(f"{name}:", getattr(self, name)))
        if not (type(self.n_trials) is int and self.n_trials >= 1):
            raise ValidationError(f"n_trials: must be a positive integer, got {self.n_trials!r}")
        if not (type(self.seed) is int and 0 <= self.seed < MAX_SEED):
            raise ValidationError(f"seed: must be a 64-bit non-negative integer, got {self.seed!r}")
        if not isinstance(self.grid, Grid):
            raise ValidationError("grid: expected (min, max, points)")

    @property
    def is_pure(self) -> bool:
        return self.post is not None

    @property
    def postselection(self) -> PhotonKet | PhotonEffect:
        """The postselection as configured: the pure state or the effect."""
        return self.post if self.post is not None else self.post_effect

    def coherence(self) -> np.ndarray:
        """Branch coherence K_jk = Tr(E P_k rho P_j), the input of every route."""
        return branch_coherence(self.postselection, self.prep)

    def amplitudes(self) -> TransitionAmplitudes:
        """Transition amplitudes; defined only for a pure postselection."""
        if self.post is None:
            raise ValidationError(
                "post: this operation needs a pure postselection state, not an effect"
            )
        return transition_amplitudes(self.prep, self.post)

    def weights(self) -> BranchWeights:
        return BranchWeights.from_preparation(self.prep)


def parse_complex(text: str) -> complex:
    """Parse ``re+imi`` / ``re-imi`` / plain real, with ``i`` for the unit."""
    cleaned = text.strip().replace("I", "i")
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex value {text!r}") from exc


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _parse_number(raw: str, kind=float):
    try:
        return kind(raw)
    except ValueError as exc:
        what = "an integer" if kind is int else "a real number"
        raise ValidationError(f"cannot parse {raw!r} as {what}") from exc


def _complex_values(raw: str, count: int) -> np.ndarray:
    parts = [p for p in (s.strip() for s in raw.split(",")) if p]
    if len(parts) != count:
        raise ValidationError(f"expected {count} comma-separated values, got {len(parts)}")
    return np.array([parse_complex(p) for p in parts])


def _parse_ket(raw: str) -> PhotonKet:
    """Accept amplitudes up to 1e-6 off normalization; keep exact bits
    when already normalized to working precision."""
    amps = _complex_values(raw, 4)
    try:
        return PhotonKet(amps)
    except ValidationError:
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) <= NORM_SNAP_TOL:
            return PhotonKet(amps / norm)
        raise ValidationError(f"state norm {norm:.9g} is further than {NORM_SNAP_TOL} from 1") from None


def _parse_grid(raw: str) -> Grid:
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) != 3:
        raise ValidationError(f"expected min,max,points, got {raw!r}")
    return Grid(_parse_number(parts[0]), _parse_number(parts[1]), _parse_number(parts[2], int))


def _format_vector(values) -> str:
    return ",".join(format_complex(complex(z)) for z in np.asarray(values).ravel())


_format_real = "{:.17g}".format


# The text format: each key, in field order, with the parser and the formatter
# of its value.  `_parse_value` opens every parse error with the key.
_KEYS = {
    "prep": (_parse_ket, lambda ket: _format_vector(ket.amplitudes)),
    "post": (_parse_ket, lambda ket: _format_vector(ket.amplitudes)),
    "post_effect": (lambda raw: PhotonEffect(_complex_values(raw, 16).reshape(4, 4)),
                    lambda effect: _format_vector(effect.matrix)),
    "g_a": (_parse_number, _format_real),
    "g_b": (_parse_number, _format_real),
    "noise_a": (_parse_number, _format_real),
    "noise_b": (_parse_number, _format_real),
    "n_trials": (lambda raw: _parse_number(raw, int), str),
    "seed": (lambda raw: _parse_number(raw, int), str),
    "grid": (_parse_grid, lambda grid: f"{grid.x_min:.17g},{grid.x_max:.17g},{grid.n_points}"),
}


def _parse_value(key: str, raw: str):
    try:
        return _KEYS[key][0](raw)
    except ValidationError as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    """Build a config from flat key=value text; errors name the bad field."""
    entries: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not (sep and key):
            raise ValidationError(f"line {line_no}: expected key=value, got {stripped!r}")
        if key not in _KEYS:
            raise ValidationError(f"{key}: unknown configuration key")
        if key in entries:
            raise ValidationError(f"{key}: duplicate configuration key")
        entries[key] = value.strip()

    if "prep" not in entries:
        raise ValidationError("prep: missing required key")
    if "post" not in entries and "post_effect" not in entries:
        raise ValidationError("post: missing required key (post or post_effect)")
    return ExperimentConfig(**{key: _parse_value(key, entries[key]) for key in _KEYS if key in entries})


def load_config(path) -> ExperimentConfig:
    # utf-8-sig drops the byte-order mark some editors write before the first key
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_config_text(fh.read())


def dump_config(config: ExperimentConfig) -> str:
    """Canonical key=value text; parsing it recreates the experiment."""
    return "".join(f"{key}={text(value)}\n" for key, (_, text) in _KEYS.items()
                   if (value := getattr(config, key)) is not None)
