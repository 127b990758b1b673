import struct
import tracemalloc

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

    @pytest.mark.parametrize("n_rec, n", [(0, 16), (1, 1), (4, 1), (6, 33)])
    def test_bytes_match_packed_records(self, tmp_path, n_rec, n):
        def packed(x_min, x_max, t, psi):
            # the record packed field by field, re/im interleaved by hand
            head = b"HHG1" + struct.pack("<II", 1, 1)
            head += struct.pack("<ddQd", x_min, x_max, psi.size, t)
            inter = np.empty(2 * psi.size)
            inter[0::2] = psi.real
            inter[1::2] = psi.imag
            return head + inter.astype("<f8").tobytes()

        rng = np.random.default_rng(n_rec * 100 + n)
        parts = rng.normal(size=(n_rec, 2 * n))
        specials = np.array([-0.0, np.nan, np.inf, -np.inf, -np.nan, 0.0])
        parts.flat[:min(parts.size, 6)] = specials[:min(parts.size, 6)]
        states = parts.view(complex)
        times = rng.normal(size=n_rec) * 100.0
        times[:min(n_rec, 1)] = -0.0
        expected = b"".join(packed(-12.5, 7.25, float(t), psi)
                            for t, psi in zip(times, states))
        path = tmp_path / "w.bin"
        write_wavefunctions(path, -12.5, 7.25, times, states)
        assert path.read_bytes() == expected
        with open(tmp_path / "a.bin", "wb") as fh:
            for t, psi in zip(times, states):
                append_wavefunction(fh, -12.5, 7.25, t, psi)
        assert (tmp_path / "a.bin").read_bytes() == expected

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

    # nothing, then cuts inside the magic, the first label's length, right
    # after that label, inside the axis sizes and the row axis, and a whole
    # value and part of one off the end
    @pytest.mark.parametrize("keep", [0, 2, 14, 17, 30, 50, -8, -3])
    def test_truncated_file(self, tmp_path, keep):
        path = tmp_path / "map.bin"
        write_map(path, np.arange(4.0), np.arange(6.0),
                  np.ones((4, 6)), "t", "x")
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="map.bin"):
            read_map(path)

    def test_reads_payload_once(self, tmp_path):
        path = tmp_path / "map.bin"
        values = np.random.default_rng(3).normal(size=(2000, 256))
        write_map(path, np.arange(2000.0), np.arange(256.0), values)
        tracemalloc.start()
        try:
            _, _, read, _, _ = read_map(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(read, values)
        assert values.nbytes <= peak <= 1.2 * values.nbytes

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
