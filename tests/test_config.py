import sys

import pytest

from roadscene import config
from roadscene.config import (AnalyticsConfig, Config, DimensionPrior,
                              RansacParams, SrgParams, load_config,
                              parse_config)
from roadscene.errors import ConfigError, InputError
from roadscene.imaging import BackgroundAccumulator


def test_defaults():
    cfg = Config()
    assert cfg.fps == 25.0
    assert cfg.iota_m_per_px == 0.05
    assert cfg.analytics.speed_limit_mph == 30.0
    assert cfg.priors["bus"] == DimensionPrior(5.8, 2.9)


def test_parse_overrides_and_comments():
    cfg = parse_config(
        "# a comment\n"
        "fps = 30\n"
        "tracker.max_age = 5   # trailing comment\n"
        "\n"
        "ransac.rho = 0.9\n")
    assert cfg.fps == 30.0
    assert cfg.max_age == 5
    assert cfg.ransac.rho == 0.9
    # untouched keys keep their defaults
    assert cfg.min_hits == 3


def test_parse_prior_override():
    cfg = parse_config("prior.car = 4.2 1.7\n")
    assert cfg.priors["car"] == DimensionPrior(4.2, 1.7)
    assert cfg.priors["bus"] == DimensionPrior(5.8, 2.9)


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("fps = 25\nnot_a_key = 1\n")


def test_bad_value_reports_line_and_key():
    with pytest.raises(ConfigError, match="line 1.*fps"):
        parse_config("fps = fast\n")


def test_range_checks():
    with pytest.raises(ConfigError, match="positive"):
        parse_config("fps = -1\n")
    with pytest.raises(ConfigError, match=r"\(0, 1\)"):
        parse_config("ransac.rho = 1.5\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("tracker.max_age = 0\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("fps 25\n")


def test_unknown_prior_class():
    with pytest.raises(ConfigError, match="unknown class"):
        parse_config("prior.tank = 6.0 3.0\n")


def test_prior_needs_two_values():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("prior.car = 4.5\n")


def test_builders_produce_validated_params():
    cfg = parse_config("ransac.tau = 2.0\nsrg.tau_alpha = 20\n"
                       "analytics.parking_duration_s = 30\n"
                       "speed_limit_mph = 40\nransac.rho = 0.9\n")
    assert cfg.ransac == RansacParams(tau_z=2.0, rho=0.9)
    assert cfg.srg == SrgParams(tau_alpha=20.0)
    assert cfg.analytics == AnalyticsConfig(speed_limit_mph=40.0,
                                            parking_duration_s=30.0)
    assert cfg.min_hits == 3


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 42\nfps = 10\n")
    cfg = load_config(path)
    assert cfg.seed == 42
    assert cfg.fps == 10.0


_TINY = repr(5e-324)
_HUGE = repr(sys.float_info.max)
_BIG_INT = str(10 ** 30)

# (the lowest and the highest accepted value, values just outside them)
_POSITIVE = ((_TINY, _HUGE), ("0", "-" + _TINY))
_UNIT_OPEN = ((_TINY, repr(1.0 - 2 ** -53)), ("0", "1"))
_UNIT_CLOSED = (("0", "1"), ("-" + _TINY, repr(1.0 + 2 ** -52)))
_AT_LEAST_1 = (("1", _BIG_INT), ("0",))
_AT_LEAST_0 = (("0", _BIG_INT), ("-1",))
# every key -> its bounds, as the type holding its field draws them
_BOUNDS = {
    "fps": _POSITIVE,
    "iota_m_per_px": _POSITIVE,
    "speed_limit_mph": _POSITIVE,
    "seed": _AT_LEAST_0,
    "tracker.iou_min": _UNIT_CLOSED,
    "tracker.max_age": _AT_LEAST_1,
    "tracker.min_hits": _AT_LEAST_1,
    "tracker.objectness_min": _UNIT_CLOSED,
    "ransac.tau": _POSITIVE,
    "ransac.rho": _UNIT_OPEN,
    "ransac.max_iter": _AT_LEAST_1,
    "srg.tau_alpha": ((_TINY, repr(256.0 - 2 ** -45)), ("0", "256")),
    "analytics.parking_speed_mph": (("0", _HUGE), ("-" + _TINY,)),
    "analytics.parking_border_m": _POSITIVE,
    "analytics.parking_duration_s": _POSITIVE,
    "analytics.proximity_risk_m": _POSITIVE,
    "analytics.congestion_distance_m": _POSITIVE,
    "analytics.congestion_speed_mph": _POSITIVE,
    "box.beta": _POSITIVE,
    "background.alpha": _UNIT_OPEN,
    "background.frames": _AT_LEAST_1,
    "render.floor": _AT_LEAST_0,
    "render.alpha": _UNIT_CLOSED,
}


def _holder(key):
    """The type holding the field `key` sets, the field's name and its
    default value."""
    section, _, name = config._KEYS[key].rpartition(".")
    holder = getattr(Config(), section) if section else Config()
    return type(holder), name, getattr(holder, name)


@pytest.mark.parametrize("key", sorted(config._KEYS))
def test_every_accepted_value_builds(key):
    inside, outside = _BOUNDS[key]
    for raw in inside:
        cfg = parse_config(f"{key} = {raw}\n")
        BackgroundAccumulator(cfg.alpha)
    # an int field takes only base-10 integers, a float field only finite
    # numbers
    _, _, default = _holder(key)
    unreadable = ("1.5", "0x10") if type(default) is int else ("inf", "nan")
    for raw in outside + unreadable:
        with pytest.raises(ConfigError, match=f"line 1: {key}: "):
            parse_config(f"{key} = {raw}\n")


def test_every_key_is_range_checked_by_its_type_only():
    assert set(_BOUNDS) == set(config._KEYS)
    for key, (_, outside) in _BOUNDS.items():
        holder, name, default = _holder(key)
        for raw in outside:
            with pytest.raises((ValueError, InputError)) as built:
                holder(**{name: type(default)(raw)})
            with pytest.raises(ConfigError) as parsed:
                parse_config(f"{key} = {raw}\n")
            assert str(parsed.value) == f"line 1: {key}: {built.value}"


def test_tau_alpha_range():
    assert parse_config("srg.tau_alpha = 255.5\n").srg.tau_alpha == 255.5
    for raw in ("0", "256", "300"):
        with pytest.raises(ConfigError, match=r"line 1: srg.tau_alpha.*256"):
            parse_config(f"srg.tau_alpha = {raw}\n")


@pytest.mark.parametrize("key", ["ransac.gamma", "boundary.radius",
                                 "speed_axis"])
def test_removed_keys_are_unknown(key):
    with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
        parse_config(f"{key} = 5\n")
