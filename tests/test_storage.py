import numpy as np
import pytest

from hhg1d.storage import (Manifest, MissingArtifactError,
                           append_wavefunction, read_csv, read_map,
                           read_wavefunctions, sha256_of, write_csv,
                           write_map, write_wavefunctions)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        t = np.linspace(0, 10, 50)
        v = np.sin(t) * 1e-7
        write_csv(path, {"t": t, "value": v}, "run", "abc123",
                  extra_comments=("n_c: 3",))
        cols, comments = read_csv(path)
        np.testing.assert_array_equal(cols["t"], t)
        np.testing.assert_array_equal(cols["value"], v)
        assert any("produced-by: hhg1d run" in c for c in comments)
        assert any("manifest: abc123" in c for c in comments)

    def test_full_precision(self, tmp_path):
        path = tmp_path / "p.csv"
        vals = np.array([1.0 / 3.0, np.pi, 1e-300])
        write_csv(path, {"v": vals}, "x")
        cols, _ = read_csv(path)
        np.testing.assert_array_equal(cols["v"], vals)

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv",
                      {"a": np.zeros(3), "b": np.zeros(4)}, "x")

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            read_csv(tmp_path / "nope.csv")


class TestWavefunctions:
    def test_round_trip_multiple_records(self, tmp_path):
        path = tmp_path / "snaps.bin"
        rng = np.random.default_rng(0)
        states = rng.normal(size=(3, 64)) + 1j * rng.normal(size=(3, 64))
        times = np.array([0.0, 1.5, 3.0])
        write_wavefunctions(path, -10.0, 10.0, times, states)
        x_min, x_max, t, s = read_wavefunctions(path)
        assert (x_min, x_max) == (-10.0, 10.0)
        np.testing.assert_array_equal(t, times)
        np.testing.assert_array_equal(s, states)

    def test_little_endian_layout(self, tmp_path):
        path = tmp_path / "one.bin"
        psi = np.array([1.0 + 2.0j, -3.0 + 0.5j])
        write_wavefunctions(path, -1.0, 1.0, [7.0], [psi])
        raw = path.read_bytes()
        assert raw[:4] == b"HHG1"
        payload = np.frombuffer(raw[-32:], dtype="<f8")
        np.testing.assert_array_equal(payload, [1.0, 2.0, -3.0, 0.5])

    def test_missing(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            read_wavefunctions(tmp_path / "gone.bin")

    @pytest.mark.parametrize("cut", [8, 16 * 64, 16 * 64 + 20])
    def test_truncated_file(self, tmp_path, cut):
        path = tmp_path / "snaps.bin"
        write_wavefunctions(path, -10.0, 10.0, [0.0, 1.0],
                            np.ones((2, 64), dtype=complex))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError):
            read_wavefunctions(path)

    @pytest.mark.parametrize("x_max, n", [(12.0, 64), (10.0, 32)])
    def test_mixed_grids(self, tmp_path, x_max, n):
        path = tmp_path / "snaps.bin"
        with open(path, "wb") as fh:
            append_wavefunction(fh, -10.0, 10.0, 0.0,
                                np.ones(64, dtype=complex))
            append_wavefunction(fh, -10.0, x_max, 1.0,
                                np.ones(n, dtype=complex))
        with pytest.raises(ValueError):
            read_wavefunctions(path)


class TestMaps:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "map.bin"
        rows = np.linspace(0, 5, 4)
        cols = np.linspace(-1, 1, 6)
        vals = np.arange(24.0).reshape(4, 6)
        write_map(path, rows, cols, vals, "t", "x")
        r, c, v, rl, cl = read_map(path)
        np.testing.assert_array_equal(r, rows)
        np.testing.assert_array_equal(c, cols)
        np.testing.assert_array_equal(v, vals)
        assert (rl, cl) == ("t", "x")

    def test_shape_check(self, tmp_path):
        with pytest.raises(ValueError):
            write_map(tmp_path / "bad.bin", np.zeros(3), np.zeros(4),
                      np.zeros((4, 3)))

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "wf.bin"
        write_wavefunctions(path, -1.0, 1.0, [0.0],
                            [np.zeros(8, dtype=complex)])
        with pytest.raises(ValueError):
            read_map(path)


class TestManifest:
    def test_save_load_verify(self, tmp_path):
        m = Manifest(tmp_path, "config text", 42)
        data = tmp_path / "out.csv"
        write_csv(data, {"a": np.arange(3.0)}, "run", m.checksum())
        m.record_output(data)
        m.save()

        loaded = Manifest.load(tmp_path)
        assert loaded.data["master_seed"] == 42
        assert loaded.verify_outputs(["out.csv"]) == []

        data.write_text("tampered")
        # a name the manifest does not list is not checked
        assert loaded.verify_outputs(["out.csv", "absent.csv"]) == ["out.csv"]

    def test_checksum_depends_on_seed(self, tmp_path):
        a = Manifest(tmp_path, "cfg", 1)
        b = Manifest(tmp_path, "cfg", 2)
        assert a.checksum() != b.checksum()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            Manifest.load(tmp_path)

    def test_sha256(self, tmp_path):
        f = tmp_path / "f"
        f.write_bytes(b"abc")
        assert sha256_of(f) == ("ba7816bf8f01cfea414140de5dae2223"
                                "b00361a396177a9cb410ff61f20015ad")
