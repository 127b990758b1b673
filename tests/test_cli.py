import hashlib
import json
import re
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from hhg1d.cli import main
from hhg1d.config import RunConfig, parse_config
from hhg1d.ensemble import PropagationFailure, purity_series
from hhg1d.sampler import load_configurations
from hhg1d.semiclassics import OrbitError
from hhg1d.storage import (MalformedRecordError, Manifest, SnapshotSet,
                           read_csv, read_map, read_wavefunctions, write_map,
                           write_wavefunctions)

TINY_CONFIG = """
[laser]
F_L = 0.06
omega = 0.057
n_up = 1
n_plateau = 1
n_down = 1
[environment]
n_p = 4
[grid]
x_min = -80
x_max = 80
n = 256
dt = 0.1
record_stride = 2
[ensemble]
n_c = 2
master_seed = 13
"""


@pytest.fixture
def tiny_config(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CONFIG)
    return p


def tree_digest(root: Path, skip=("manifest.json",)) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = hashlib.sha256(
                p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def tiny_records(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    assert main(["run", "--config", str(cfg), "--out",
                 str(root / "records")]) == 0
    return root


BAD_INPUTS = {
    "run_workers_0": ["run", "--config", "{cfg}", "--workers", "0"],
    "run_workers_negative": ["run", "--config", "{cfg}", "--workers", "-1"],
    "config_dt_nan": ["run", "--config", "{cfg_dt_nan}"],
    "config_dt_inf": ["run", "--config", "{cfg_dt_inf}"],
    "config_dt_0": ["run", "--config", "{cfg_dt_0}"],
    "config_dt_negative": ["run", "--config", "{cfg_dt_negative}"],
    "config_x_max_below_x_min": ["run", "--config", "{cfg_x_max_-80}"],
    "config_n_1": ["run", "--config", "{cfg_n_1}"],
    "config_record_stride_0": ["run", "--config", "{cfg_record_stride_0}"],
    "config_record_stride_past_pulse": ["run", "--config",
                                        "{cfg_record_stride_10000}"],
    "config_pulse_0": ["run", "--config", "{cfg_pulse_0}"],
    "config_mask_outside_grid": ["run", "--config",
                                 "{cfg_mask_radius_500}"],
    "config_omega_inf": ["run", "--config", "{cfg_omega_inf}"],
    "config_omega_nan": ["run", "--config", "{cfg_omega_nan}"],
    "config_F_L_nan": ["run", "--config", "{cfg_F_L_nan}"],
    "config_F_L_inf": ["run", "--config", "{cfg_F_L_inf}"],
    "config_wavelength_nm_negative": ["run", "--config",
                                      "{cfg_wavelength_nm_negative}"],
    "config_intensity_wcm2_negative": ["run", "--config",
                                       "{cfg_intensity_wcm2_negative}"],
    "config_wavelength_nm_tiny": ["run", "--config",
                                  "{cfg_wavelength_nm_tiny}"],
    "density_map_x_lo_alone": ["density-map", "--records", "{records}",
                               "--x-lo", "-10"],
    "density_map_x_hi_alone": ["density-map", "--records", "{records}",
                               "--x-hi", "10"],
    "density_map_x_range_off_grid": ["density-map", "--records",
                                     "{records}", "--x-lo", "-90",
                                     "--x-hi", "10"],
    "density_map_stride_0": ["density-map", "--records", "{records}",
                             "--stride", "0"],
    "density_map_time_nan": ["density-map", "--records", "{records}",
                             "--time", "nan"],
    "density_map_time_inf": ["density-map", "--records", "{records}",
                             "--time", "inf"],
    "spectrum_member_n_c": ["spectrum", "--records", "{records}",
                            "--member", "2"],
    "gabor_member_negative": ["gabor", "--records", "{records}",
                              "--member", "-1"],
    "gabor_d_order_0": ["gabor", "--records", "{records}", "--d-order", "0"],
    "gabor_d_order_negative": ["gabor", "--records", "{records}",
                               "--d-order", "-0.5"],
    "gabor_max_order_negative": ["gabor", "--records", "{records}",
                                 "--max-order", "-1"],
    "gabor_max_order_inf": ["gabor", "--records", "{records}",
                            "--max-order", "inf"],
    # the tiny records' Nyquist order is π/(2·0.1·0.057) = 275.6
    "gabor_max_order_above_nyquist": ["gabor", "--records", "{records}",
                                      "--max-order", "1000"],
    "gabor_d_order_inf": ["gabor", "--records", "{records}",
                          "--d-order", "inf"],
    "density_map_x_range_between_points": ["density-map", "--records",
                                           "{records}", "--x-lo", "0.1",
                                           "--x-hi", "0.2"],
    "sfa_ell_list_not_numbers": ["sfa", "--ell-list", "0,x"],
    "sfa_ell_list_negative": ["sfa", "--ell-list", "0,-5"],
    "sfa_horizon_0": ["sfa", "--horizon", "0"],
    "sfa_horizon_negative": ["sfa", "--horizon", "-1"],
    "sfa_horizon_inf": ["sfa", "--horizon", "inf"],
    "sfa_ell_list_inf": ["sfa", "--ell-list", "0,inf"],
    "sfa_launches_0": ["sfa", "--launches", "0"],
    "orbits_anchors_not_numbers": ["orbits", "--anchors", "x"],
    "orbits_anchors_trailing_comma": ["orbits", "--anchors", "2.0,"],
    "orbits_anchors_inf": ["orbits", "--anchors", "inf"],
    "orbits_anchors_nan": ["orbits", "--anchors", "nan"],
    "pair_correlation_bin_width_0": ["pair-correlation", "--records",
                                     "{records}", "--bin-width", "0"],
    "pair_correlation_r_max_0": ["pair-correlation", "--records",
                                 "{records}", "--r-max", "0"],
    "pair_correlation_r_max_inf": ["pair-correlation", "--records",
                                   "{records}", "--r-max", "inf"],
    "pair_correlation_bin_width_inf": ["pair-correlation", "--records",
                                       "{records}", "--bin-width", "inf"],
    "run_n_c_0": ["run", "--config", "{cfg_n_c_0}"],
    "sample_env_n_c_0": ["sample-env", "--config", "{cfg_n_c_0}"],
    "config_master_seed_negative": ["run", "--config",
                                    "{cfg_master_seed_-1}"],
    "config_gabor_window_cycles_0": ["run", "--config",
                                     "{cfg_gabor_window_cycles_0}"],
    "config_gabor_window_cycles_negative": [
        "run", "--config", "{cfg_gabor_window_cycles_-1}"],
}

# the {cfg_...} files of BAD_INPUTS: TINY_CONFIG with the given keys (see
# tiny_config_with)
BAD_CONFIGS = {
    "cfg_n_c_0": ("ensemble", {"n_c": "0"}),
    "cfg_master_seed_-1": ("ensemble", {"master_seed": "-1"}),
    "cfg_dt_nan": ("grid", {"dt": "nan"}),
    "cfg_dt_inf": ("grid", {"dt": "inf"}),
    "cfg_dt_0": ("grid", {"dt": "0"}),
    "cfg_dt_negative": ("grid", {"dt": "-0.1"}),
    "cfg_x_max_-80": ("grid", {"x_max": "-80"}),
    "cfg_n_1": ("grid", {"n": "1"}),
    "cfg_record_stride_0": ("grid", {"record_stride": "0"}),
    # the tiny pulse lasts 3307 steps
    "cfg_record_stride_10000": ("grid", {"record_stride": "10000"}),
    # no up, plateau or down cycle
    "cfg_pulse_0": ("laser", {"n_up": "0", "n_plateau": "0", "n_down": "0"}),
    # the tiny grid's absorber starts at |x| = 64
    "cfg_mask_radius_500": ("environment", {"mask_radius": "500"}),
    "cfg_omega_inf": ("laser", {"omega": "inf"}),
    "cfg_omega_nan": ("laser", {"omega": "nan"}),
    "cfg_F_L_nan": ("laser", {"F_L": "nan"}),
    "cfg_F_L_inf": ("laser", {"F_L": "inf"}),
    "cfg_wavelength_nm_negative": ("laser", {"wavelength_nm": "-5"}),
    "cfg_intensity_wcm2_negative": ("laser", {"intensity_wcm2": "-1"}),
    # overflows to omega_L = inf after the finite check of the text
    "cfg_wavelength_nm_tiny": ("laser", {"wavelength_nm": "1e-320"}),
    "cfg_gabor_window_cycles_0": ("output", {"gabor_window_cycles": "0"}),
    "cfg_gabor_window_cycles_-1": ("output", {"gabor_window_cycles": "-1"}),
}

# keys that set the same field as a key of TINY_CONFIG
SAME_FIELD = {"wavelength_nm": "omega", "intensity_wcm2": "F_L"}


def tiny_config_with(section: str, keys: dict) -> str:
    """TINY_CONFIG with each `key = value` in place of the line that sets
    the same field, or added under a second [section] header: a field set
    twice would be refused for that alone."""
    text, added = TINY_CONFIG, ""
    for key, value in keys.items():
        line = re.compile(rf"^{SAME_FIELD.get(key, key)} = .*$", re.M)
        if line.search(text):
            text = line.sub(f"{key} = {value}", text)
        else:
            added += f"{key} = {value}\n"
    return text + (f"[{section}]\n{added}" if added else "")


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_is_config_error(self, case, tiny_records, tmp_path,
                                       capsys):
        places = {"cfg": tiny_records / "tiny.cfg",
                  "records": tiny_records / "records"}
        for name, (section, keys) in BAD_CONFIGS.items():
            places[name] = tmp_path / f"{name}.cfg"
            places[name].write_text(tiny_config_with(section, keys))
        argv = [a.format(**places) for a in BAD_INPUTS[case]]
        argv += ["--out", str(tmp_path / "out")]
        before = tree_digest(tiny_records / "records", skip=())
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "unknown key" not in err
        assert "already set" not in err
        assert tree_digest(tiny_records / "records", skip=()) == before
        assert not (tmp_path / "out").exists()

    # execution settings are options, not configuration
    @pytest.mark.parametrize("section, key", [("ensemble", "workers"),
                                              ("output", "out_dir")])
    def test_removed_config_key_is_unknown(self, section, key, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "removed.cfg"
        cfg.write_text(TINY_CONFIG + f"[{section}]\n{key} = 2\n")
        assert main(["run", "--config", str(cfg), "--out", "records"]) == 2
        err = capsys.readouterr().err
        assert f"unknown key '{key}' in section [{section}]" in err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("value", ["0.0", "-1.0"])
    def test_gabor_window_from_manifest_is_config_error(self, value,
                                                        tiny_records,
                                                        tmp_path, capsys):
        records = Path(shutil.copytree(tiny_records / "records",
                                       tmp_path / "records"))
        path = records / "manifest.json"
        data = json.loads(path.read_text())
        line = "gabor_window_cycles = 0.35\n"
        assert line in data["config"]
        data["config"] = data["config"].replace(
            line, f"gabor_window_cycles = {value}\n")
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["gabor", "--records", str(records),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: gabor_window_cycles must be finite and "
            f"> 0, got {value}")
        assert not (tmp_path / "out").exists()

    # a producing command refuses in _start, an analysis when it opens the
    # records; --out names a file, or a path through one
    @pytest.mark.parametrize("argv", [
        ["orbits"], ["sfa"], ["spectrum", "--records", "{records}"]],
        ids=["orbits", "sfa", "spectrum"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below"])
    def test_out_not_a_directory_is_config_error(self, argv, below,
                                                 tiny_records, tmp_path,
                                                 capsys):
        records = tiny_records / "records"
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if below else afile
        before = tree_digest(records, skip=())
        capsys.readouterr()
        argv = [a.format(records=records) for a in argv]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: --out {out}: {afile} exists and is not a "
            f"directory")
        assert list(tmp_path.iterdir()) == [afile]
        assert afile.read_text() == "kept\n"
        assert tree_digest(records, skip=()) == before

    @staticmethod
    def hashed_by(case, records, out, monkeypatch) -> list:
        """The files BAD_INPUTS[case] hashes on `records` before it exits
        2."""
        hashed = []
        monkeypatch.setattr("hhg1d.storage.sha256_of", hashed.append)
        argv = [a.format(records=records) for a in BAD_INPUTS[case]]
        assert main(argv + ["--out", str(out)]) == 2
        return hashed

    @pytest.mark.parametrize("case", sorted(
        c for c in BAD_INPUTS if c.startswith("density_map")))
    def test_density_map_refuses_before_hashing(self, case, tiny_records,
                                                tmp_path, monkeypatch):
        assert self.hashed_by(case, tiny_records / "records",
                              tmp_path / "out", monkeypatch) == []

    def test_gabor_above_nyquist_refuses_before_hashing(self, tiny_records,
                                                        tmp_path,
                                                        monkeypatch):
        assert self.hashed_by("gabor_max_order_above_nyquist",
                              tiny_records / "records", tmp_path / "out",
                              monkeypatch) == []

    def test_pair_correlation_needs_one_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pair-correlation"])
        assert exc.value.code == 2
        assert "--records" in capsys.readouterr().err

    # options that acted on nothing, and pair-correlation's second source
    @pytest.mark.parametrize("argv", [
        ["ground-state", "--workers", "2"],
        ["sample-env", "--workers", "2"],
        ["run", "--seed", "3"],
        ["sample-env", "--seed", "3"],
        ["sfa", "--seed", "3"],
        ["orbits", "--workers", "2"],
        ["pair-correlation", "--records", "{records}", "--env",
         "{records}/environment.txt"],
    ], ids=lambda argv: f"{argv[0]}_{argv[-2].lstrip('-')}")
    def test_removed_option_is_usage_error(self, argv, tiny_records,
                                           tmp_path, capsys):
        records = tiny_records / "records"
        argv = [a.format(records=records) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[environment]\nsigma = -4\n")
        rc = main(["ground-state", "--config", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_artifact_is_3(self, tmp_path):
        rc = main(["spectrum", "--records", str(tmp_path / "nothing")])
        assert rc == 3

    def test_missing_environment_is_3(self, tiny_config, tmp_path, capsys):
        env = tmp_path / "env"
        assert main(["sample-env", "--config", str(tiny_config),
                     "--out", str(env)]) == 0
        (env / "environment.txt").unlink()
        capsys.readouterr()
        rc = main(["pair-correlation", "--records", str(env),
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("missing artifact: ")
        assert str(env / "environment.txt") in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_2_and_named(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        rc = main(["ground-state", "--config", str(missing),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(missing) in err
        assert not (tmp_path / "out").exists()

    def test_numerical_failure_is_4(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise OrbitError("no closure: residual 1.000e+00", 0.0)

        monkeypatch.setattr("hhg1d.cli.find_periodic_orbit", explode)
        rc = main(["orbits", "--anchors", "2.0",
                   "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_orbit_failure_names_its_anchor(self, tmp_path, capsys):
        # at this laser the anchor 2.25 T_L has an orbit, and at 2.5 T_L the
        # symmetry line holds a parabolic one
        cfg = tmp_path / "weak.cfg"
        cfg.write_text(tiny_config_with("laser", {"F_L": "0.05",
                                                  "omega": "0.06"}))
        rc = main(["orbits", "--config", str(cfg), "--anchors", "2.25,2.5",
                   "--out", str(tmp_path / "o")])
        assert rc == 4
        t0 = 2.5 * parse_config(cfg.read_text()).laser.period
        assert capsys.readouterr().err.startswith(
            f"numerical failure: orbit at t0 = {t0:.12g} a.u.: singular "
            "Jacobian")

    # the tiny grid's absorber starts at |x| = 64: 2F_L/ω_L² is 64.02 at
    # F_L = 0.104, and 5 gaps of 4a/3 reach 66.67 at n_p = 10
    @pytest.mark.parametrize("section, keys, message", [
        ("laser", {"F_L": "0.104"}, "quiver excursion 2F_L/ω_L² reaches "
                                    "|x| = 64.0197"),
        ("environment", {"n_p": "10"}, "outermost possible scatterer "
                                       "(n_p/2 gaps of 4a/3) reaches "
                                       "|x| = 66.6667"),
    ], ids=["quiver", "scatterer"])
    def test_run_reaching_the_absorber_is_2(self, section, keys, message,
                                            tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(tiny_config_with(section, keys))
        assert main(["run", "--config", str(cfg), "--out", "records"]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {message}, in the absorber band, which "
            f"starts at |x| = 64\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_gas_phase_chain_may_reach_the_absorber(self, tmp_path,
                                                    monkeypatch):
        # with A_E = 0 the scatterers exert no force: the run starts
        def started(cfg, workers):
            raise PropagationFailure(0, 1)

        monkeypatch.setattr("hhg1d.cli.run_ensemble", started)
        cfg = tmp_path / "gas.cfg"
        cfg.write_text(tiny_config_with("environment",
                                        {"n_p": "10", "A_E": "0"}))
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 4

    def test_overflowing_softening_is_2_before_out_exists(self, tmp_path,
                                                          capsys):
        # V(0) = -1e150: the first stage's e^{-dτV/2} overflows
        cfg = tmp_path / "soft.cfg"
        cfg.write_text(TINY_CONFIG + "[atom]\nsoftening = 1e-300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["ground-state", "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("configuration error: softening 1e-300")
        assert "Warning" not in err
        assert not (tmp_path / "o").exists()
        # the reference softening passes; the bound, |e^{-dτV(0)}|² finite,
        # falls between 1.9e-6 (nan energy at the first iteration) and 2e-6
        RunConfig()
        parse_config(TINY_CONFIG + "[atom]\nsoftening = 2e-6\n")
        with pytest.raises(ValueError, match="softening 1.9e-06"):
            parse_config(TINY_CONFIG + "[atom]\nsoftening = 1.9e-6\n")


class TestRecordChecks:
    """An analysis command hashes only the files it reads, and refuses a
    snapshot set whose files disagree on times or grid, or a truncated or
    malformed record file."""

    @pytest.fixture
    def records(self, tiny_records, tmp_path):
        return Path(shutil.copytree(tiny_records / "records",
                                    tmp_path / "records"))

    def test_warns_only_for_files_read(self, records, tmp_path, capsys):
        snap = records / "snapshots" / "config_0000.bin"
        x_min, x_max, times, states = read_wavefunctions(snap)
        write_wavefunctions(snap, x_min, x_max, times, 0.5j * states)
        rows, cols, accel, rl, cl = read_map(records / "accel_configs.bin")
        write_map(records / "accel_configs.bin", rows, cols, accel + 1.0,
                  rl, cl)
        capsys.readouterr()
        assert main(["spectrum", "--records", str(records),
                     "--out", str(tmp_path / "s")]) == 0
        err = capsys.readouterr().err
        assert "checksum mismatch for accel_configs.bin" in err
        assert err.count("warning:") == 1
        assert main(["purity", "--records", str(records),
                     "--out", str(tmp_path / "p")]) == 0
        err = capsys.readouterr().err
        assert "checksum mismatch for snapshots/config_0000.bin" in err
        assert err.count("warning:") == 1

    # the digests of the one pass over the snapshot files are compared: a
    # flipped amplitude byte warns once, and no file is hashed again
    @pytest.mark.parametrize("command", ["purity", "density-map"])
    def test_tampered_snapshot_warns_once(self, command, records, tmp_path,
                                          capsys, monkeypatch):
        snap = records / "snapshots" / "config_0000.bin"
        raw = bytearray(snap.read_bytes())
        raw[-16] ^= 0x01        # lowest mantissa byte of the last amplitude
        snap.write_bytes(bytes(raw))
        hashed = []
        monkeypatch.setattr("hhg1d.storage.sha256_of", hashed.append)
        capsys.readouterr()
        assert main([command, "--records", str(records),
                     "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert ("warning: checksum mismatch for snapshots/config_0000.bin "
                "(records were edited?)") in err
        assert hashed == []

    # a file cut short after the set was opened fails the pass: exit 3,
    # before any digest is compared or any output written
    @pytest.mark.parametrize("command", ["purity", "density-map"])
    def test_file_truncated_mid_pass_is_3(self, command, records, tmp_path,
                                          capsys, monkeypatch):
        class CutAfterOpening(SnapshotSet):
            def __init__(self, paths):
                super().__init__(paths)
                victim = self.paths[1]
                record = victim.stat().st_size // len(self)
                victim.write_bytes(victim.read_bytes()[:2 * record + 10])

        monkeypatch.setattr("hhg1d.cli.SnapshotSet", CutAfterOpening)
        capsys.readouterr()
        assert main([command, "--records", str(records),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert (f"missing artifact: malformed record file: "
                f"{records / 'snapshots' / 'config_0001.bin'}: file ends "
                f"inside record 2") in err
        assert "warning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["purity", "density-map"])
    def test_mixed_snapshot_set_is_3(self, command, records, tmp_path,
                                     capsys):
        snap = records / "snapshots" / "config_0001.bin"
        x_min, x_max, times, states = read_wavefunctions(snap)
        write_wavefunctions(snap, x_min, x_max, times + 50.0, states)
        before = tree_digest(records, skip=())
        capsys.readouterr()
        assert main([command, "--records", str(records),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "missing artifact: " in err and "config_0001.bin" in err
        assert not (tmp_path / "out").exists()
        assert tree_digest(records, skip=()) == before

    @pytest.mark.parametrize("command", ["purity", "density-map"])
    def test_one_record_at_another_time_is_3(self, command, records,
                                             tmp_path, capsys):
        # not the middle probe, which density-map reads first
        snap = records / "snapshots" / "config_0001.bin"
        x_min, x_max, times, states = read_wavefunctions(snap)
        times[1] += 50.0
        assert 1 != len(times) // 2
        write_wavefunctions(snap, x_min, x_max, times, states)
        before = tree_digest(records, skip=())
        capsys.readouterr()
        assert main([command, "--records", str(records),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "missing artifact: " in err and "config_0001.bin" in err
        assert not (tmp_path / "out").exists()
        assert tree_digest(records, skip=()) == before

    @pytest.mark.parametrize("command, name, damage", [
        ("purity", "snapshots/config_0001.bin", "truncate"),
        ("density-map", "snapshots/config_0001.bin", "truncate"),
        ("spectrum", "accel_configs.bin", "truncate"),
        ("pair-correlation", "environment.txt", "append"),
    ])
    def test_corrupt_record_is_3(self, command, name, damage, records,
                                 tmp_path, capsys):
        path = records / name
        raw = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(raw[:-3])
            where = name
        else:
            path.write_bytes(raw + b"# x\n")
            where = f"{name}, line {len(raw.splitlines()) + 1}"
        before = tree_digest(records, skip=())
        capsys.readouterr()
        assert main([command, "--records", str(records),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "missing artifact: " in err and where in err
        assert not (tmp_path / "out").exists()
        assert tree_digest(records, skip=()) == before

    def refused_with_3(self, command, records, tmp_path, capsys) -> str:
        """`command` on `records` exits 3, creates no --out and leaves the
        records as they are; returns its standard error."""
        before = tree_digest(records, skip=())
        capsys.readouterr()
        assert main([command, "--records", str(records),
                     "--out", str(tmp_path / "out")]) == 3
        assert not (tmp_path / "out").exists()
        assert tree_digest(records, skip=()) == before
        return capsys.readouterr().err

    @pytest.mark.parametrize("command", ["purity", "density-map"])
    def test_empty_snapshot_files_are_3(self, command, records, tmp_path,
                                        capsys):
        for snap in (records / "snapshots").glob("config_*.bin"):
            snap.write_bytes(b"")
        err = self.refused_with_3(command, records, tmp_path, capsys)
        assert ("missing artifact: malformed record file: "
                f"{records / 'snapshots' / 'config_0000.bin'}: 0 bytes hold "
                "no snapshot record") in err

    @pytest.mark.parametrize("command", ["spectrum", "gabor"])
    def test_one_time_row_is_3(self, command, records, tmp_path, capsys):
        path = records / "accel_configs.bin"
        rows, cols, accel, rl, cl = read_map(path)
        write_map(path, rows[:1], cols, accel[:1], rl, cl)
        err = self.refused_with_3(command, records, tmp_path, capsys)
        assert f"malformed record file: {path}: 1 time row(s)" in err

    @pytest.mark.parametrize("command", ["spectrum", "pair-correlation"])
    def test_corrupt_manifest_is_3(self, command, records, tmp_path,
                                   capsys):
        # truncated JSON, and JSON that is not a manifest object
        path = records / "manifest.json"
        for text in (path.read_text()[:-10], "[]\n", "{}\n"):
            path.write_text(text)
            err = self.refused_with_3(command, records, tmp_path, capsys)
            assert err.startswith(f"missing artifact: malformed record "
                                  f"file: {path}: ")

    @pytest.mark.parametrize("command", ["spectrum", "pair-correlation"])
    def test_manifest_seed_unlike_its_config_is_3(self, command, records,
                                                  tmp_path, capsys):
        # an edited key would stamp another run's checksum on the outputs
        path = records / "manifest.json"
        data = json.loads(path.read_text())
        assert "master_seed = 13\n" in data["config"]
        data["master_seed"] = 14
        path.write_text(json.dumps(data))
        err = self.refused_with_3(command, records, tmp_path, capsys)
        assert err == (f"missing artifact: malformed record file: {path}: "
                       f"master_seed 14, but its config has master_seed = "
                       f"13\n")

    # the snapshot files hold the tiny grid: x_min = -80, x_max = 80, n = 256
    @pytest.mark.parametrize("command", ["purity", "density-map"])
    @pytest.mark.parametrize("line, edited, config_grid", [
        ("n = 256", "n = 512", "-80.0, 80.0, 512"),
        ("x_max = 80.0", "x_max = 81.0", "-80.0, 81.0, 256"),
    ], ids=["n", "x_max"])
    def test_snapshot_grid_unlike_the_config_is_3(self, command, line,
                                                  edited, config_grid,
                                                  records, tmp_path, capsys):
        path = records / "manifest.json"
        data = json.loads(path.read_text())
        assert f"\n{line}\n" in data["config"]
        data["config"] = data["config"].replace(f"\n{line}\n",
                                                f"\n{edited}\n")
        path.write_text(json.dumps(data))
        err = self.refused_with_3(command, records, tmp_path, capsys)
        snap = records / "snapshots" / "config_0000.bin"
        assert err == (f"missing artifact: malformed record file: {snap}: "
                       f"grid x_min = -80.0, x_max = 80.0, n = 256, but the "
                       f"config has {config_grid}\n")

    @pytest.mark.parametrize("command", ["spectrum", "gabor"])
    def test_no_configuration_column_is_3(self, command, records, tmp_path,
                                          capsys):
        path = records / "accel_configs.bin"
        rows, cols, accel, rl, cl = read_map(path)
        write_map(path, rows, cols[:0], accel[:, :0], rl, cl)
        err = self.refused_with_3(command, records, tmp_path, capsys)
        assert (f"malformed record file: {path}: {rows.size} time row(s) "
                f"and 0 configuration column(s)") in err

    @pytest.fixture
    def before_fit_window(self, records):
        # every snapshot file keeps its first record only, at t = 0, before
        # the fit window (n_up·T, duration)
        for snap in (records / "snapshots").glob("config_*.bin"):
            x_min, x_max, times, states = read_wavefunctions(snap)
            write_wavefunctions(snap, x_min, x_max, times[:1], states[:1])
        return records

    def test_empty_fit_window_is_3(self, before_fit_window, tmp_path,
                                   capsys):
        err = self.refused_with_3("purity", before_fit_window, tmp_path,
                                  capsys)
        assert (f"missing artifact: {before_fit_window / 'snapshots'}: no "
                f"snapshot time in the fit window [") in err

    def test_empty_fit_window_refused_before_hashing(self, before_fit_window,
                                                     tmp_path, monkeypatch):
        hashed = []
        monkeypatch.setattr("hhg1d.storage.sha256_of", hashed.append)
        assert main(["purity", "--records", str(before_fit_window),
                     "--out", str(tmp_path / "out")]) == 3
        assert hashed == []

    @pytest.mark.parametrize("command", ["purity", "density-map"])
    def test_missing_listed_snapshot_is_3(self, command, records, tmp_path,
                                          capsys):
        snap = records / "snapshots" / "config_0001.bin"
        snap.unlink()
        err = self.refused_with_3(command, records, tmp_path, capsys)
        assert err.startswith("missing artifact: ") and str(snap) in err

    @pytest.mark.parametrize("command", ["spectrum", "gabor"])
    def test_unlisted_accel_is_3(self, command, records, tiny_records,
                                 tmp_path, capsys):
        # sample-env replaces the run's manifest with one that lists only
        # its own environment.txt; the run's map is still in the directory
        assert main(["sample-env", "--config", str(tiny_records / "tiny.cfg"),
                     "--out", str(records)]) == 0
        assert (records / "accel_configs.bin").exists()
        err = self.refused_with_3(command, records, tmp_path, capsys)
        assert err.startswith(f"missing artifact: no accel_configs.bin in "
                              f"{records / 'manifest.json'}")

    # each storage reader refuses a file whose first four bytes are wrong,
    # and a command that reads that file exits 3 naming it
    @pytest.mark.parametrize("reader, name, command", [
        (read_map, "accel_configs.bin", "spectrum"),
        (read_wavefunctions, "snapshots/config_0000.bin", "purity"),
        (lambda path: SnapshotSet(sorted(path.parent.iterdir()))[0],
         "snapshots/config_0001.bin", "density-map"),
        (load_configurations, "environment.txt", "pair-correlation"),
    ], ids=["read_map", "read_wavefunctions", "SnapshotSet",
            "load_configurations"])
    def test_reader_fault_is_3(self, reader, name, command, records,
                               tmp_path, capsys):
        path = records / name
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(MalformedRecordError,
                           match=f"^{re.escape(str(path))}") as exc:
            reader(path)
        assert isinstance(exc.value, ValueError)
        err = self.refused_with_3(command, records, tmp_path, capsys)
        assert f"missing artifact: malformed record file: {path}" in err

class TestBoundedMemory:
    """purity and density-map hold one probe of the snapshot set at a
    time, never the whole set."""

    N_FILES = 128

    @pytest.fixture(scope="class")
    def big_records(self, tiny_records, tmp_path_factory):
        # the tiny run's manifest and grid, with N_FILES snapshot files
        rdir = Path(shutil.copytree(tiny_records / "records",
                                    tmp_path_factory.mktemp("big") / "r"))
        snaps = rdir / "snapshots"
        x_min, x_max, times, states = read_wavefunctions(
            snaps / "config_0000.bin")
        rng = np.random.default_rng(5)
        manifest = Manifest.load(rdir)
        for i in range(self.N_FILES):
            path = snaps / f"config_{i:04d}.bin"
            noise = rng.normal(size=(states.shape[0], 2 * states.shape[1]))
            write_wavefunctions(path, x_min, x_max, times,
                                states + 1e-3 * noise.view(complex))
            manifest.record_output(path)
        manifest.save()
        total = sum(f.stat().st_size for f in snaps.iterdir())
        assert total > 10 * 2**20
        return rdir, total

    @pytest.mark.parametrize("command", ["purity", "density-map"])
    def test_peak_below_quarter_of_snapshots(self, command, big_records,
                                             tmp_path):
        rdir, total = big_records
        import scipy.optimize  # noqa: F401 -- imported untraced: not states
        tracemalloc.start()
        try:
            rc = main([command, "--records", str(rdir),
                       "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < total / 4


class TestPipeline:
    def test_ground_state_and_sample_env(self, tiny_config, tmp_path):
        out = tmp_path / "gs"
        assert main(["ground-state", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
        cols, comments = read_csv(out / "ground_state.csv")
        assert "density" in cols
        energy = [float(c.split(":")[1]) for c in comments
                  if c.startswith("energy_au")][0]
        assert energy == pytest.approx(-0.903, abs=0.01)

        assert main(["sample-env", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
        assert (out / "environment.txt").exists()
        assert main(["pair-correlation", "--records", str(out)]) == 0
        cols, comments = read_csv(out / "pair_correlation.csv")
        assert cols["mass"].sum() > 0
        assert f"manifest: {Manifest.load(out).checksum()}" in comments

    def test_run_then_analyses(self, tiny_config, tmp_path):
        out = tmp_path / "records"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 13
        assert "mean_series.csv" in manifest["outputs"]

        assert main(["spectrum", "--records", str(out)]) == 0
        cols, _ = read_csv(out / "spectrum_mean.csv")
        assert cols["order"].size > 10

        assert main(["spectrum", "--records", str(out), "--member", "1"]) == 0
        assert (out / "spectrum_member1.csv").exists()

        assert main(["gabor", "--records", str(out),
                     "--max-order", "20"]) == 0
        taus, orders, vals, rl, cl = read_map(out / "gabor.bin")
        assert vals.shape == (taus.size, orders.size)
        # window centres every T_L/64 from the first record on
        period = 2 * np.pi / 0.057
        assert taus[0] == 0.0
        np.testing.assert_allclose(np.diff(taus), period / 64, rtol=1e-12)

        assert main(["purity", "--records", str(out)]) == 0
        cols, _ = read_csv(out / "purity.csv")
        assert np.all(cols["purity_total"] <= 1.0 + 1e-9)

        assert main(["density-map", "--records", str(out),
                     "--stride", "2"]) == 0
        r, c, v, _, _ = read_map(out / "density_matrix.bin")
        np.testing.assert_allclose(v, v.T, atol=1e-300, rtol=1e-12)

        assert main(["pair-correlation", "--records", str(out),
                     "--r-max", "50"]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert "pair_correlation.csv" in outputs
        assert Manifest.load(out).verify_outputs(sorted(outputs)) == []

    def test_rerun_manifest_lists_only_its_outputs(self, tiny_config,
                                                    tmp_path):
        out = tmp_path / "records"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
        assert main(["spectrum", "--records", str(out)]) == 0
        seed14 = tmp_path / "seed14.cfg"
        seed14.write_text(tiny_config_with("ensemble", {"master_seed": "14"}))
        assert main(["run", "--config", str(seed14), "--out", str(out)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert (out / "spectrum_mean.csv").exists()
        assert sorted(outputs) == [
            "accel_configs.bin", "environment.txt", "mean_series.csv",
            "snapshots/config_0000.bin", "snapshots/config_0001.bin"]

    def test_rerun_reads_only_its_own_snapshots(self, tiny_config, tmp_path):
        # three configurations, then two of another seed into the same
        # --out: config_0002.bin is left over and must not be read
        three, seed9 = tmp_path / "three.cfg", tmp_path / "seed9.cfg"
        three.write_text(tiny_config_with("ensemble", {"n_c": "3"}))
        seed9.write_text(tiny_config_with("ensemble", {"master_seed": "9"}))
        reused, clean = tmp_path / "reused", tmp_path / "clean"
        assert main(["run", "--config", str(three), "--out", str(reused)]) == 0
        for out in (reused, clean):
            assert main(["run", "--config", str(seed9), "--out",
                         str(out)]) == 0
        assert (reused / "snapshots" / "config_0002.bin").exists()
        products = {}
        for out in (reused, clean):
            for command in ("purity", "density-map"):
                assert main([command, "--records", str(out),
                             "--out", str(out / "analysis")]) == 0
            products[out] = tree_digest(out / "analysis")
        assert set(products[clean]) >= {"purity.csv",
                                        "probability_density.bin"}
        assert products[reused] == products[clean]

    def test_run_writes_to_out_by_default(self, tiny_config, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(tiny_config)]) == 0
        outputs = Manifest.load(tmp_path / "out").data["outputs"]
        assert "mean_series.csv" in outputs

    def test_unconverged_fit_warns(self, tiny_records, tmp_path, capsys,
                                   monkeypatch):
        # a total purity that falls near-linearly far below 1 stops the fit
        # at its evaluation cap; the photoelectron fit still converges
        real = purity_series
        t = read_wavefunctions(tiny_records / "records" / "snapshots"
                               / "config_0000.bin")[2]

        def near_linear_total(*args):
            _, p_ph = real(*args)
            return 0.46 - 1e-5 * t, p_ph

        monkeypatch.setattr("hhg1d.cli.purity_series", near_linear_total)
        capsys.readouterr()
        assert main(["purity", "--records", str(tiny_records / "records"),
                     "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert ("warning: the total purity fit stopped at its evaluation cap "
                "before converging") in err
        cols, _ = read_csv(tmp_path / "purity_fit.csv")
        assert cols["converged"].tolist() == [0.0, 1.0]

    def test_spectrum_hann(self, tiny_records, tmp_path):
        records = tiny_records / "records"
        assert main(["spectrum", "--records", str(records), "--hann",
                     "--out", str(tmp_path)]) == 0
        cols, comments = read_csv(tmp_path / "spectrum_mean.csv")
        assert "hann: True" in comments
        _, _, accel, _, _ = read_map(records / "accel_configs.bin")
        mean = accel.mean(axis=1)
        expected = np.abs(np.fft.rfft(mean * np.hanning(mean.size))) \
            / np.sqrt(mean.size)
        np.testing.assert_allclose(cols["magnitude"], expected, rtol=1e-12,
                                   atol=0)

    def test_snapshot_files_carry_grid(self, tiny_config, tmp_path):
        out = tmp_path / "records2"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        x_min, x_max, times, states = read_wavefunctions(
            out / "snapshots" / "config_0000.bin")
        assert (x_min, x_max) == (-80.0, 80.0)
        assert states.shape[1] == 256
        assert times.size >= 2


class TestRewrite:
    """A producing command deletes the manifest in its --out just before
    its first write, not before it computes."""

    @pytest.fixture
    def records(self, tiny_config, tmp_path):
        out = tmp_path / "rec"
        assert main(["run", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
        return out

    @pytest.fixture
    def seed14(self, tmp_path):
        path = tmp_path / "seed14.cfg"
        path.write_text(tiny_config_with("ensemble", {"master_seed": "14"}))
        return path

    def test_death_while_writing_leaves_no_manifest(self, records, seed14,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        # the second snapshot write of a seed-14 run dies: config_0000.bin
        # is of seed 14 and config_0001.bin still of seed 13
        real, written = write_wavefunctions, []

        def dies_at_second(path, *args):
            if written:
                raise KeyboardInterrupt
            written.append(path)
            real(path, *args)

        monkeypatch.setattr("hhg1d.cli.write_wavefunctions", dies_at_second)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(seed14), "--out", str(records)])
        assert written == [records / "snapshots" / "config_0000.bin"]
        for command in ("purity", "density-map", "spectrum",
                        "pair-correlation"):
            capsys.readouterr()
            assert main([command, "--records", str(records),
                         "--out", str(tmp_path / "out")]) == 3
            assert capsys.readouterr().err == (
                f"missing artifact: missing manifest: "
                f"{records / 'manifest.json'}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, name, error", [
        (["run", "--config", "{seed14}"], "run_ensemble",
         PropagationFailure(1, 7)),
        (["orbits", "--anchors", "2.0"], "find_periodic_orbit",
         OrbitError("no closure: residual 1.000e+00", 0.0)),
    ], ids=["run", "orbits"])
    def test_failure_before_writing_keeps_records(self, argv, name, error,
                                                  records, seed14, tmp_path,
                                                  monkeypatch, capsys):
        before = tree_digest(records, skip=())

        def fails(*args, **kwargs):
            raise error

        monkeypatch.setattr(f"hhg1d.cli.{name}", fails)
        argv = [a.format(seed14=seed14) for a in argv]
        assert main(argv + ["--out", str(records)]) == 4
        assert tree_digest(records, skip=()) == before
        capsys.readouterr()
        assert main(["purity", "--records", str(records),
                     "--out", str(tmp_path / "out")]) == 0
        assert "warning" not in capsys.readouterr().err


class TestDeterminism:
    def test_same_seed_byte_identical_any_worker_count(self, tiny_config,
                                                       tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(tiny_config), "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["run", "--config", str(tiny_config), "--out", str(out2),
                     "--workers", "2"]) == 0
        assert tree_digest(out1) == tree_digest(out2)

    def test_master_seed_changes_outputs(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        seed14 = tmp_path / "seed14.cfg"
        seed14.write_text(tiny_config_with("ensemble", {"master_seed": "14"}))
        main(["run", "--config", str(tiny_config), "--out", str(out1)])
        main(["run", "--config", str(seed14), "--out", str(out2)])
        d1, d2 = tree_digest(out1), tree_digest(out2)
        assert d1 != d2


class TestSemiclassicsCommands:
    def test_sfa_outputs(self, tmp_path):
        out = tmp_path / "sfa"
        assert main(["sfa", "--ell-list", "0,10", "--launches", "100",
                     "--out", str(out)]) == 0
        cols, _ = read_csv(out / "sfa_returns_ell0.csv")
        assert np.all(cols["e_r"] >= 0)
        emax, _ = read_csv(out / "sfa_emax.csv")
        assert emax["e_max"][1] > emax["e_max"][0]

    def test_orbits_output(self, tmp_path):
        out = tmp_path / "orbits"
        assert main(["orbits", "--anchors", "2.0", "--out", str(out)]) == 0
        text = (out / "orbits.txt").read_text()
        assert "hyperbolic" in text
        assert "partner" in text
        blocks = [dict(line.split(" = ") for line in block.splitlines()[1:])
                  for block in text.split("\n\n")]
        assert len(blocks) == 2
        for block in blocks:
            m00, _, _, m11 = map(float, block["monodromy"].split())
            assert float(block["trace"]) == pytest.approx(m00 + m11,
                                                          rel=1e-11)
            assert abs(float(block["trace"])) > 2.0
