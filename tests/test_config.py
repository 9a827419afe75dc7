"""Configuration parsing, validation, and round-trip serialization tests."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from cheshire.config import (
    _KEYS,
    ExperimentConfig,
    dump_config,
    load_config,
    parse_complex,
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


EXAMPLE_EFFECT = PhotonEffect(np.diag([1.0, 1.0, 0.5, 0.0]))

# malformed values for every key of the text format, in field order; the grid
# ones after the first three fail in `Grid` itself, the last prep is 0.1 % off norm
MALFORMED = {
    "prep": ["1,0,0", "1,0,zebra,0", "1,1,1,1", "nan,0,0,0",
             ",".join(repr(v * 1.001) for v in (R3, 0.0, R3, R3))],
    "post": ["1,0,0,0,0", "1,0,0,spam", "0,0,0,0", "1,0,zebra,0"],
    "post_effect": [",".join(["0"] * 15), ",".join(["1+1i"] * 16),
                    ",".join("2" if i % 5 == 0 else "0" for i in range(16))],
    "g_a": ["fast"],
    "g_b": ["1,2", "fast"],
    "noise_a": ["0.1i"],
    "noise_b": [""],
    "n_trials": ["1e6"],
    "seed": ["seven"],
    "grid": ["0, 1", "0, x, 5", "0, 1, 4.5", "1, 0, 5", "0, 1, 1", "-inf, 20, 5",
             "-20, inf, 4001"],
}


class TestStateFile:
    """The ``re+imi`` text form of complex values in config files."""

    def test_parse_complex_forms(self):
        assert parse_complex("1.5") == 1.5
        assert parse_complex("1.5+0.25i") == 1.5 + 0.25j
        assert parse_complex("-2e-3-1i") == -2e-3 - 1j
        with pytest.raises(ValidationError):
            parse_complex("spam")


class TestKeyTable:
    """One table of keys gives the parser, the formatter and the known keys."""

    def test_keys_are_the_config_fields_in_order(self):
        assert list(_KEYS) == [f.name for f in fields(ExperimentConfig)] == list(MALFORMED)

    @pytest.mark.parametrize("key, raw", [(k, raw) for k, values in MALFORMED.items() for raw in values])
    def test_malformed_value_error_names_its_key_once(self, key, raw):
        entries = {"prep": "1,0,0,0", "post": "0,0,1,0", key: raw}
        if key == "post_effect":
            del entries["post"]
        text = "".join(f"{k} = {v}\n" for k, v in entries.items())
        with pytest.raises(ValidationError) as info:
            parse_config_text(text)
        message = str(info.value)
        assert message.startswith(f"{key}: ") and message.count(f"{key}: ") == 1, message

    def test_dump_writes_exactly_the_keys_that_are_set(self):
        pure, effect = example_config(), example_config(post=None, post_effect=EXAMPLE_EFFECT)
        for config, unset in ((pure, "post_effect"), (effect, "post")):
            keys = [line.partition("=")[0] for line in dump_config(config).splitlines()]
            assert keys == [f.name for f in fields(ExperimentConfig) if f.name != unset]


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

    def test_line_with_empty_key_rejected(self):
        with pytest.raises(ValidationError, match="^line 3: expected key=value, got '=3'$"):
            parse_config_text("prep=1,0,0,0\npost=1,0,0,0\n  =3\n")

    def test_wrong_vector_length_names_field(self):
        with pytest.raises(ValidationError, match="prep"):
            parse_config_text("prep=1,0,0\npost=1,0,0,0\n")

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
        config = example_config(post=None, post_effect=EXAMPLE_EFFECT)
        text = dump_config(config)
        again = parse_config_text(text)
        assert dump_config(again) == text
        assert np.array_equal(again.post_effect.matrix, EXAMPLE_EFFECT.matrix)

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

    def test_file_with_byte_order_mark_loads(self, tmp_path):
        # as some editors save UTF-8; the mark is not part of the first key
        config = example_config(seed=7)
        path = tmp_path / "experiment.cfg"
        path.write_text(dump_config(config), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfprep=")
        assert dump_config(load_config(path)) == dump_config(config)

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
