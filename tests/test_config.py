"""Configuration parsing, validation, and round-trip serialization tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cheshire.config import (
    ExperimentConfig,
    dump_config,
    load_config,
    parse_config_text,
)
from cheshire.errors import ValidationError
from cheshire.meter import DEFAULT_GRID, Grid
from cheshire.qsystem import PhotonEffect, PhotonKet

R3 = 1.0 / math.sqrt(3.0)

MINIMAL_TEXT = f"""
# example preparation and postselection
prep={R3!r}+0i,0+0i,{R3!r}+0i,{R3!r}+0i
post={R3!r}+0i,0+0i,{R3!r}+0i,{-R3!r}+0i
"""


def example_config(**overrides) -> ExperimentConfig:
    prep = PhotonKet.normalized([1.0, 0.0, 1.0, 1.0])
    post = PhotonKet.normalized([1.0, 0.0, 1.0, -1.0])
    base = dict(prep=prep, post=post, g_a=2.0, g_b=2.0, seed=42)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestParsing:
    def test_minimal_text_fills_defaults(self):
        config = parse_config_text(MINIMAL_TEXT)
        assert config.g_a == 2.0
        assert config.g_b == 2.0
        assert config.noise_a == 0.0
        assert config.noise_b == 0.0
        assert config.n_trials == 1_000_000
        assert config.seed == 0
        assert config.grid == DEFAULT_GRID
        assert config.is_pure

    def test_plain_reals_accepted_for_amplitudes(self):
        text = f"prep={R3!r},0,{R3!r},{R3!r}\npost=1,0,0,0\ng_a=1.5\nseed=7\n"
        config = parse_config_text(text)
        assert config.g_a == 1.5
        assert config.seed == 7
        amps = config.amplitudes()
        assert amps.l == pytest.approx(R3, abs=1e-15)

    def test_spaces_and_comments_ignored(self):
        text = MINIMAL_TEXT.replace("prep=", "  prep = ") + "\n\n# trailing comment\n"
        config = parse_config_text(text)
        assert config.prep.amplitudes[0] == R3

    def test_example_amplitudes(self):
        config = parse_config_text(MINIMAL_TEXT)
        amps = config.amplitudes()
        assert amps.l == pytest.approx(1 / 3, abs=1e-15)
        assert amps.r_plus == pytest.approx(1 / 3, abs=1e-15)
        assert amps.r_minus == pytest.approx(-1 / 3, abs=1e-15)
        weights = config.weights()
        assert weights.probabilities[0] == pytest.approx(1 / 3, abs=1e-15)

    def test_effect_config(self):
        effect_entries = ",".join(
            ("1+0i" if i == j and i < 2 else "0+0i") for i in range(4) for j in range(4)
        )
        text = f"prep={R3!r},0,{R3!r},{R3!r}\npost_effect={effect_entries}\n"
        config = parse_config_text(text)
        assert not config.is_pure
        assert isinstance(config.post_effect, PhotonEffect)
        with pytest.raises(ValidationError, match="post"):
            config.amplitudes()


class TestValidation:
    def test_missing_prep_names_field(self):
        with pytest.raises(ValidationError, match="prep"):
            parse_config_text("post=1,0,0,0\n")

    def test_missing_post_names_field(self):
        with pytest.raises(ValidationError, match="post"):
            parse_config_text("prep=1,0,0,0\n")

    def test_both_post_forms_rejected(self):
        effect = ",".join("1+0i" if i % 5 == 0 else "0+0i" for i in range(16))
        text = MINIMAL_TEXT + f"post_effect={effect}\n"
        with pytest.raises(ValidationError, match="post"):
            parse_config_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="coupling"):
            parse_config_text(MINIMAL_TEXT + "coupling=3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match="g_a"):
            parse_config_text(MINIMAL_TEXT + "g_a=1\ng_a=2\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_config_text("prep=1,0,0,0\nnonsense line\n")

    def test_bad_complex_names_field(self):
        with pytest.raises(ValidationError, match="post"):
            parse_config_text("prep=1,0,0,0\npost=1,0,zebra,0\n")

    def test_wrong_vector_length_names_field(self):
        with pytest.raises(ValidationError, match="prep"):
            parse_config_text("prep=1,0,0\npost=1,0,0,0\n")

    def test_bad_float_names_field(self):
        with pytest.raises(ValidationError, match="g_b"):
            parse_config_text(MINIMAL_TEXT + "g_b=fast\n")

    def test_bad_int_names_field(self):
        with pytest.raises(ValidationError, match="n_trials"):
            parse_config_text(MINIMAL_TEXT + "n_trials=1e6\n")

    def test_negative_coupling_names_field(self):
        with pytest.raises(ValidationError, match="g_a"):
            example_config(g_a=-1.0)

    def test_negative_noise_names_field(self):
        with pytest.raises(ValidationError, match="noise_b"):
            example_config(noise_b=-0.5)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError, match="n_trials"):
            example_config(n_trials=0)

    @pytest.mark.parametrize("field", ["g_a", "g_b", "noise_a", "noise_b"])
    @pytest.mark.parametrize("value", [1 + 0j, "2", None, True, np.array([0.5])])
    def test_non_real_scale_names_field(self, field, value):
        with pytest.raises(ValidationError, match=field):
            example_config(**{field: value})

    @pytest.mark.parametrize("field", ["n_trials", "seed"])
    @pytest.mark.parametrize("value", [True, False, 7.0])
    def test_bool_or_float_count_rejected(self, field, value):
        # dump_config would write n_trials=True, which the parser rejects
        with pytest.raises(ValidationError, match=field):
            example_config(**{field: value})

    def test_seed_range(self):
        with pytest.raises(ValidationError, match="seed"):
            example_config(seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            example_config(seed=2 ** 64)
        assert example_config(seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_grid_does_not_limit_couplings(self):
        # only the sweep's oracle uses the grid, and it checks its own range
        assert example_config(g_a=15.0).g_a == 15.0
        assert example_config(grid=Grid(-4.0, 4.0, 401)).grid == Grid(-4.0, 4.0, 401)

    @pytest.mark.parametrize("bounds", ["-inf, 20, 4001", "-20, inf, 4001"])
    def test_non_finite_grid_bounds_rejected(self, bounds):
        with pytest.raises(ValidationError, match="grid"):
            parse_config_text(MINIMAL_TEXT + f"grid = {bounds}\n")

    def test_effect_eigenvalues_checked(self):
        entries = ",".join("2+0i" if i % 5 == 0 else "0+0i" for i in range(16))
        text = f"prep={R3!r},0,{R3!r},{R3!r}\npost_effect={entries}\n"
        with pytest.raises(ValidationError, match="post_effect"):
            parse_config_text(text)


class TestNormalization:
    def test_small_error_renormalized(self):
        off = np.array([1.0, 0.0, 1.0, 1.0]) / math.sqrt(3.0) * (1.0 + 5e-7)
        text = "prep=" + ",".join(repr(float(v)) for v in off) + "\npost=1,0,0,0\n"
        config = parse_config_text(text)
        assert np.linalg.norm(config.prep.amplitudes) == pytest.approx(1.0, abs=1e-14)

    def test_large_error_rejected_naming_field(self):
        off = np.array([1.0, 0.0, 1.0, 1.0]) / math.sqrt(3.0) * 1.001
        text = "prep=" + ",".join(repr(float(v)) for v in off) + "\npost=1,0,0,0\n"
        with pytest.raises(ValidationError, match="prep"):
            parse_config_text(text)

    def test_exact_amplitudes_kept_bitwise(self):
        config = parse_config_text(MINIMAL_TEXT)
        again = parse_config_text(dump_config(config))
        assert np.array_equal(config.prep.amplitudes, again.prep.amplitudes)
        assert np.array_equal(config.post.amplitudes, again.post.amplitudes)


class TestRoundTrip:
    def test_pure_round_trip_is_canonical(self):
        config = example_config(noise_a=0.25, n_trials=5000, seed=99,
                                grid=Grid(-15.0, 15.0, 1501))
        text = dump_config(config)
        again = parse_config_text(text)
        assert dump_config(again) == text
        assert again.g_a == config.g_a
        assert again.noise_a == config.noise_a
        assert again.n_trials == config.n_trials
        assert again.seed == config.seed
        assert again.grid == config.grid

    def test_effect_round_trip(self):
        effect = PhotonEffect(np.diag([1.0, 1.0, 0.5, 0.0]))
        config = example_config(post=None, post_effect=effect)
        text = dump_config(config)
        again = parse_config_text(text)
        assert dump_config(again) == text
        assert np.array_equal(again.post_effect.matrix, effect.matrix)

    def test_complex_amplitudes_round_trip(self):
        prep = PhotonKet.normalized([1.0 + 0.5j, 0.25j, -0.75, 0.125 - 0.625j])
        post = PhotonKet.normalized([0.5, 0.5j, -0.5, 0.5j])
        config = example_config(prep=prep, post=post, g_a=1.25, g_b=0.75)
        again = parse_config_text(dump_config(config))
        assert np.array_equal(config.prep.amplitudes, again.prep.amplitudes)
        assert np.array_equal(config.post.amplitudes, again.post.amplitudes)

    def test_file_round_trip(self, tmp_path):
        config = example_config(seed=7)
        path = tmp_path / "experiment.cfg"
        path.write_text(dump_config(config), encoding="utf-8")
        again = load_config(path)
        assert dump_config(again) == dump_config(config)

    def test_with_overrides(self):
        # dataclasses.replace runs the config's own validation
        config = example_config(seed=1)
        changed = replace(config, seed=123, n_trials=777)
        assert changed.seed == 123
        assert changed.n_trials == 777
        assert changed.g_a == config.g_a
        assert np.array_equal(changed.prep.amplitudes, config.prep.amplitudes)
        for bad in ({"seed": -1}, {"n_trials": 0}, {"g_a": math.nan}, {"grid": (0, 1, 5)}):
            with pytest.raises(ValidationError):
                replace(config, **bad)
