import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhg1d.config import ConfigError, RunConfig, parse_config, render_config
from hhg1d.tdse import Grid

DEFAULT_TEXT = """\
[laser]
F_L = 0.15
omega = 0.044
n_up = 2
n_plateau = 11
n_down = 2
[atom]
softening = 0.4837
[environment]
A_E = 0.8
sigma_E = 0.5
a = 10.0
sigma = 1.0
n_p = 38
mask_radius = 5.0
mask_width = 2.0
[grid]
x_min = -400.0
x_max = 400.0
n = 8192
dt = 0.02
record_stride = 4
[ensemble]
n_c = 1000
master_seed = 1
[output]
gabor_window_cycles = 0.35
"""


class TestDefaults:
    def test_empty_text_gives_reference_values(self):
        cfg = parse_config("")
        assert cfg.laser.F_L == 0.15
        assert cfg.laser.omega_L == 0.044
        assert (cfg.laser.n_up, cfg.laser.n_plateau, cfg.laser.n_down) \
            == (2, 11, 2)
        assert cfg.atom.softening == 0.4837
        assert cfg.perturber.A_E == 0.8
        assert cfg.perturber.sigma_E == 0.5
        assert cfg.structure.a == 10.0
        assert cfg.structure.sigma == 1.0
        assert cfg.n_c == 1000
        assert cfg.mask.r0 == 5.0
        assert cfg.gabor_window_cycles == 0.35

    def test_default_rendering_is_pinned(self):
        # the checksum of this text is stamped into every CSV header
        assert render_config(RunConfig()) == DEFAULT_TEXT

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\n[laser]\nF_L = 0.2  # inline\n")
        assert cfg.laser.F_L == 0.2


class TestParsing:
    def test_gas_phase(self):
        cfg = parse_config("[environment]\nA_E = 0\n")
        assert cfg.perturber.A_E == 0.0

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError, match="sigma"):
            parse_config("[environment]\nsigma = -1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[laser]\nfrobnicate = 3\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[quantum]\n")

    def test_syntax_error_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[laser]\nF_L = 0.1\nnonsense\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("F_L = 0.1\n")

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="F_L"):
            parse_config("[laser]\nF_L = banana\n")

    def test_pulse_shorter_than_record_stride(self):
        # a zero-length pulse and a stride longer than the pulse each leave
        # a one-record series; the shortest accepted pulse has two records
        with pytest.raises(ConfigError, match="record_stride = 4"):
            parse_config("[laser]\nn_up = 0\nn_plateau = 0\nn_down = 0\n")
        n_steps = round(RunConfig().laser.duration / RunConfig().dt)
        with pytest.raises(ConfigError, match="shorter than record_stride"):
            parse_config(f"[grid]\nrecord_stride = {n_steps + 1}\n")
        parse_config(f"[grid]\nrecord_stride = {n_steps}\n")

    @pytest.mark.parametrize("value", ["0", "-1", "0.0"])
    def test_gabor_window_must_be_positive(self, value):
        with pytest.raises(ConfigError, match="gabor_window_cycles must be "
                                              "finite and > 0"):
            parse_config(f"[output]\ngabor_window_cycles = {value}\n")
        parse_config("[output]\ngabor_window_cycles = 1e-3\n")

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan")])
    def test_run_config_refuses_gabor_window(self, value):
        with pytest.raises(ValueError, match="gabor_window_cycles"):
            RunConfig(gabor_window_cycles=value)

    # the absorber's inner edge nearest the origin lies at |x| = 64 in each
    # box, and the ramp of a mask of width 2 ends at r0 + 1
    @pytest.mark.parametrize("grid", ["x_min = -80\nx_max = 80",
                                      "x_min = -84\nx_max = 116",
                                      "x_min = -116\nx_max = 84"],
                             ids=["centred", "left_edge", "right_edge"])
    def test_mask_must_end_before_the_absorber(self, grid):
        text = f"[grid]\n{grid}\nn = 256\ndt = 0.1\n[environment]\n"
        with pytest.raises(ConfigError, match=r"^mask_radius 63\.0: .* "
                                              r"\|x\| = 64, .* \|x\| = 64$"):
            parse_config(text + "mask_radius = 63\n")
        parse_config(text + "mask_radius = 62.9\n")

    def test_absorber_band_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown key 'absorber_band'"):
            parse_config("[grid]\nabsorber_band = 0.1\n")

    def test_wavelength_alternative(self):
        cfg = parse_config("[laser]\nwavelength_nm = 1030\n")
        assert cfg.laser.omega_L == pytest.approx(0.044, abs=3e-4)

    def test_intensity_alternative(self):
        cfg = parse_config("[laser]\nintensity_wcm2 = 7.896e14\n")
        assert cfg.laser.F_L == pytest.approx(0.15, abs=5e-5)

    def test_grid_and_ensemble_sections(self):
        text = ("[grid]\nx_min = -100\nx_max = 100\nn = 512\ndt = 0.05\n"
                "[ensemble]\nn_c = 7\nmaster_seed = 99\n")
        cfg = parse_config(text)
        assert cfg.n_grid == 512 and cfg.n_c == 7
        assert cfg.master_seed == 99
        assert (cfg.x_min, cfg.x_max, cfg.dt) == (-100.0, 100.0, 0.05)

    @pytest.mark.parametrize("text, later, earlier", [
        ("[laser]\nF_L = 0.1\nintensity_wcm2 = 1e14\n", 3, 2),
        ("[laser]\nintensity_wcm2 = 1e14\nF_L = 0.1\n", 3, 2),
        ("[grid]\ndt = 0.05\ndt = 0.1\n", 3, 2),
        ("[laser]\nomega = 0.05\n[grid]\nn = 512\n"
         "[laser]\nwavelength_nm = 800\n", 6, 2),
        ("[ensemble]\nn_c = 3\n\n# again\n[ensemble]\nn_c = 4\n", 6, 2),
    ], ids=["F_L_then_intensity", "intensity_then_F_L", "dt_twice",
            "omega_then_wavelength", "n_c_in_two_sections"])
    def test_field_set_twice_names_both_lines(self, text, later, earlier):
        with pytest.raises(ConfigError,
                           match=f"^line {later}: .* line {earlier} "
                                 f"already set"):
            parse_config(text)


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = RunConfig()
        assert parse_config(render_config(cfg)) == cfg

    @settings(max_examples=30, deadline=None)
    @given(
        f=st.floats(1e-3, 0.5),
        omega=st.floats(0.01, 0.2),
        a=st.floats(5.0, 20.0),
        sigma=st.floats(0.0, 3.0),
        n_c=st.integers(1, 2000),
        seed=st.integers(0, 2**31),
        n_p=st.integers(1, 20).map(lambda k: 2 * k),
    )
    def test_round_trip_property(self, f, omega, a, sigma, n_c, seed, n_p):
        from hhg1d.model import LaserParams, PerturberParams
        from hhg1d.sampler import StructureParams
        cfg = RunConfig(
            laser=LaserParams(F_L=f, omega_L=omega),
            structure=StructureParams(a=a, sigma=sigma, n_p=n_p),
            n_c=n_c, master_seed=seed)
        assert parse_config(render_config(cfg)) == cfg

    def test_ensemble_spec_carries_parameters(self):
        cfg = parse_config("[ensemble]\nn_c = 5\nmaster_seed = 3\n"
                           "[grid]\nn = 256\ndt = 0.05\n"
                           "[environment]\nA_E = 0.25\n")
        assert cfg.n_c == 5 and cfg.master_seed == 3
        assert cfg.n_grid == 256 and cfg.dt == 0.05
        assert cfg.perturber.A_E == 0.25
        assert cfg.grid() == Grid(-400.0, 400.0, 256)
