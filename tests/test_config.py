import pytest
from hypothesis import given
from hypothesis import strategies as st

from rabinovich import (
    ConfigError,
    PredictionMode,
    default_config,
    parse_config,
)


def test_empty_text_gives_reference_defaults():
    cfg = parse_config("")
    assert (cfg.params.a, cfg.params.b, cfg.params.d, cfg.params.h) == (4.0, 1.0, 1.0, 6.75)
    assert (cfg.s0.x, cfg.s0.y, cfg.s0.z) == (1.5, -1.25, 3.5)
    assert (cfg.grid.t_end, cfg.grid.dt) == (200.0, 0.1)
    assert cfg.controller.K == -0.6
    assert cfg.controller.epsilon == 0.1
    assert cfg.controller.t_on == 40.0
    assert cfg.controller.mode is PredictionMode.DERIVATIVE
    assert cfg.controller.tau == 1.0
    assert cfg.capture_radius == 0.5
    assert cfg.tail == 20.0


def test_default_config_equals_empty_parse():
    assert default_config() == parse_config("")


def test_comments_and_blank_lines():
    cfg = parse_config(
        """
        # full-line comment
        K = -0.3   # trailing comment
        t_on = 100
        mode = euler
        """
    )
    assert cfg.controller.K == -0.3
    assert cfg.controller.t_on == 100.0
    assert cfg.controller.mode is PredictionMode.EULER


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match=r"line 3: unknown key 'bogus'"):
        parse_config("a = 4\nb = 1\nbogus = 7\n")
    # every run starts at t = 0: there is no key for its start
    with pytest.raises(ConfigError, match=r"^line 1: unknown key 't0'$"):
        parse_config("t0 = 0")
    # outputs are named on the command line: the config holds only the run
    with pytest.raises(ConfigError, match=r"^line 1: unknown key 'out_csv'$"):
        parse_config("out_csv = a.csv\n")
    with pytest.raises(ConfigError, match=r"^line 2: unknown key 'out_report'$"):
        parse_config("K = -0.6\nout_report = r.txt\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match=r"line 2: duplicate key 'K'"):
        parse_config("K = -0.6\nK = -0.3\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("this is not a pair\n")


def test_unparseable_number_rejected():
    with pytest.raises(ConfigError, match=r"line 1: K: not a number"):
        parse_config("K = minus-point-six\n")


def test_negative_d_names_the_field():
    with pytest.raises(ConfigError, match="d must be"):
        parse_config("d = -1\n")


@pytest.mark.parametrize("key, value", [("x0", "1e7"), ("y0", "-1000000.0000000001"), ("z0", "1e300")])
def test_initial_state_beyond_the_divergence_limit_names_the_field(key, value):
    with pytest.raises(ConfigError, match=f"^{key} must be at most 1e\\+06 in magnitude, got "):
        parse_config(f"{key} = {value}\n")


def test_initial_state_at_the_divergence_limit_is_accepted():
    cfg = parse_config("x0 = 1e6\ny0 = -1e6\n")
    assert (cfg.s0.x, cfg.s0.y) == (1e6, -1e6)


def test_tau_grid_mismatch_rejected():
    with pytest.raises(ConfigError, match="tau"):
        parse_config("dt = 0.3\ntau = 1\nt_end = 30\n")


def test_tail_must_fit_span():
    with pytest.raises(ConfigError, match="tail"):
        parse_config("t_end = 10\ntail = 10\n")


def test_tau_must_be_shorter_than_span():
    with pytest.raises(ConfigError, match=r"tau \(10.0\) must be shorter than the run span"):
        parse_config("t_end = 10\nt_on = 5\ntail = 5\ntau = 10\n")
    assert parse_config("t_end = 10\nt_on = 5\ntail = 5\ntau = 9.9\n").controller.tau == 9.9


def test_t_on_must_be_before_the_last_step():
    # a gate can open only at t > t_on, and one open at the last sample
    # controls no step
    last = "must be before the last step starts, at t = "
    for t_on in ("10.0", "9.9"):
        with pytest.raises(ConfigError, match=rf"t_on \({t_on}\) {last}9\.9$"):
            parse_config(f"t_end = 10\nt_on = {t_on}\ntail = 5\n")
    assert parse_config("t_end = 10\nt_on = 9.85\ntail = 5\n").controller.t_on == 9.85


def test_capture_radius_must_be_positive():
    with pytest.raises(ConfigError, match="capture_radius"):
        parse_config("capture_radius = 0\n")


def test_bad_mode_token_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("mode = forward\n")
    assert str(info.value) == "mode: expected one of literal,euler, got 'forward'"


def test_nonfinite_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("h = inf\n")


@pytest.mark.parametrize("text, field", [
    ("tail = nan\n", "tail"),
    ("capture_radius = inf\n", "capture_radius"),
    ("capture_radius = nan\n", "capture_radius"),
    ("x0 = -inf\n", "x0"),
])
def test_nonfinite_value_names_the_field(text, field):
    with pytest.raises(ConfigError, match=rf"line 1: {field} must be finite"):
        parse_config(text)


@given(
    K=st.floats(min_value=-0.999, max_value=-0.001),
    eps=st.floats(min_value=1e-6, max_value=10.0),
    h=st.floats(min_value=2.5, max_value=20.0),
)
def test_float_round_trip_is_bit_exact(K, eps, h):
    # repr round-trips any double through text, and parsing keeps every bit
    text = f"K = {K!r}\nepsilon = {eps!r}\nh = {h!r}\n"
    cfg = parse_config(text)
    assert cfg.controller.K == K
    assert cfg.controller.epsilon == eps
    assert cfg.params.h == h
