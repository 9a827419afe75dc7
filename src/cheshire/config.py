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
from .meter import DEFAULT_GRID, MAX_READOUT_SCALE, Grid, _real_scales, format_complex, parse_complex
from .qsystem import (
    PhotonEffect,
    PhotonKet,
    TransitionAmplitudes,
    branch_coherence,
    transition_amplitudes,
)
from .tolerances import NORM_SNAP_TOL

MAX_SEED = 2 ** 64


def _snap_normalized(values, fieldname: str) -> PhotonKet:
    """Accept amplitudes up to 1e-6 off normalization; keep exact bits
    when already normalized to working precision."""
    amps = np.asarray(values, dtype=complex)
    if amps.shape != (4,):
        raise ValidationError(f"{fieldname}: expected 4 amplitudes, got {amps.shape}")
    try:
        return PhotonKet(amps)
    except ValidationError:
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) <= NORM_SNAP_TOL:
            return PhotonKet(amps / norm)
        raise ValidationError(
            f"{fieldname}: state norm {norm:.9g} is further than {NORM_SNAP_TOL} from 1"
        ) from None


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
            value = getattr(self, name)
            if np.ndim(value) or not _real_scales(value):
                raise ValidationError(
                    f"{name}: must be a finite real in [0, {MAX_READOUT_SCALE:g}], got {value!r}")
            object.__setattr__(self, name, float(value))
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


_KNOWN_KEYS = (
    "prep", "post", "post_effect", "g_a", "g_b",
    "noise_a", "noise_b", "n_trials", "seed", "grid",
)


def _parse_float(fieldname: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ValidationError(f"{fieldname}: cannot parse {raw!r} as a real number") from exc


def _parse_int(fieldname: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"{fieldname}: cannot parse {raw!r} as an integer") from exc


def _parse_complex_vector(fieldname: str, raw: str, count: int) -> np.ndarray:
    parts = [p for p in (s.strip() for s in raw.split(",")) if p]
    if len(parts) != count:
        raise ValidationError(f"{fieldname}: expected {count} comma-separated values, got {len(parts)}")
    try:
        return np.array([parse_complex(p) for p in parts])
    except ValidationError as exc:
        raise ValidationError(f"{fieldname}: {exc}") from exc


def _parse_grid(raw: str) -> Grid:
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) != 3:
        raise ValidationError(f"grid: expected min,max,points, got {raw!r}")
    return Grid(_parse_float("grid", parts[0]), _parse_float("grid", parts[1]),
                _parse_int("grid", parts[2]))


def parse_config_text(text: str) -> ExperimentConfig:
    """Build a config from flat key=value text; errors name the bad field."""
    entries: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValidationError(f"line {line_no}: expected key=value, got {stripped!r}")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ValidationError(f"{key}: unknown configuration key")
        if key in entries:
            raise ValidationError(f"{key}: duplicate configuration key")
        entries[key] = value.strip()

    if "prep" not in entries:
        raise ValidationError("prep: missing required key")
    if "post" not in entries and "post_effect" not in entries:
        raise ValidationError("post: missing required key (post or post_effect)")

    kwargs: dict = {"prep": _snap_normalized(_parse_complex_vector("prep", entries["prep"], 4), "prep")}
    if "post" in entries:
        kwargs["post"] = _snap_normalized(_parse_complex_vector("post", entries["post"], 4), "post")
    if "post_effect" in entries:
        flat = _parse_complex_vector("post_effect", entries["post_effect"], 16)
        try:
            kwargs["post_effect"] = PhotonEffect(flat.reshape(4, 4))
        except ValidationError as exc:
            raise ValidationError(f"post_effect: {exc}") from exc
    for name in ("g_a", "g_b", "noise_a", "noise_b"):
        if name in entries:
            kwargs[name] = _parse_float(name, entries[name])
    for name in ("n_trials", "seed"):
        if name in entries:
            kwargs[name] = _parse_int(name, entries[name])
    if "grid" in entries:
        kwargs["grid"] = _parse_grid(entries["grid"])
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _format_vector(values) -> str:
    return ",".join(format_complex(complex(z)) for z in np.asarray(values).ravel())


def dump_config(config: ExperimentConfig) -> str:
    """Canonical key=value text; parsing it recreates the experiment."""
    lines = [f"prep={_format_vector(config.prep.amplitudes)}"]
    if config.post is not None:
        lines.append(f"post={_format_vector(config.post.amplitudes)}")
    else:
        lines.append(f"post_effect={_format_vector(config.post_effect.matrix)}")
    lines.extend([
        f"g_a={config.g_a:.17g}",
        f"g_b={config.g_b:.17g}",
        f"noise_a={config.noise_a:.17g}",
        f"noise_b={config.noise_b:.17g}",
        f"n_trials={config.n_trials}",
        f"seed={config.seed}",
        f"grid={config.grid.x_min:.17g},{config.grid.x_max:.17g},{config.grid.n_points}",
    ])
    return "\n".join(lines) + "\n"
