import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest

from hhg1d.ensemble import MaskSpec, purity_series
from hhg1d.storage import (MalformedRecordError, Manifest,
                           MissingArtifactError, SnapshotSet, read_csv,
                           read_map, read_wavefunctions, sha256_of,
                           write_csv, write_map, write_wavefunctions)

# offsets into a snapshot record's header of magic, version, kind, x_min,
# x_max, n and t, and a value other than the one written
HEADER_FIELDS = pytest.mark.parametrize("offset, value", [
    (0, b"HHG2"), (4, struct.pack("<I", 2)), (8, struct.pack("<I", 2)),
    (12, struct.pack("<d", -9.0)), (20, struct.pack("<d", 9.0)),
    (28, struct.pack("<Q", 7)), (36, struct.pack("<d", 1.5))],
    ids=["magic", "version", "kind", "x_min", "x_max", "n", "t"])
from hhg1d.tdse import Grid


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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "snaps.bin"
        path.write_bytes(b"")
        with pytest.raises(MalformedRecordError,
                           match=f"^{re.escape(str(path))}: 0 bytes hold no"):
            read_wavefunctions(path)
        with pytest.raises(MalformedRecordError, match="hold no snapshot"):
            SnapshotSet([path])

    # the rule SnapshotSet applies too: every record repeats the first
    # record's header in all but the time
    @HEADER_FIELDS
    def test_header_rule(self, tmp_path, offset, value):
        path = tmp_path / "snaps.bin"
        write_wavefunctions(path, -10.0, 10.0, [0.0, 1.0, 2.0],
                            np.ones((3, 8), dtype=complex))
        raw = bytearray(path.read_bytes())
        at = 2 * (44 + 16 * 8) + offset
        raw[at:at + len(value)] = value
        path.write_bytes(bytes(raw))
        if offset == 36:
            np.testing.assert_array_equal(read_wavefunctions(path)[2],
                                          [0.0, 1.0, 1.5])
            return
        with pytest.raises(MalformedRecordError,
                           match=f"^{re.escape(str(path))}: "):
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

    @pytest.mark.parametrize("x_max, n", [(12.0, 64), (10.0, 32)])
    def test_mixed_grids(self, tmp_path, x_max, n):
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        write_wavefunctions(first, -10.0, 10.0, [0.0],
                            [np.ones(64, dtype=complex)])
        write_wavefunctions(second, -10.0, x_max, [1.0],
                            [np.ones(n, dtype=complex)])
        path = tmp_path / "snaps.bin"
        path.write_bytes(first.read_bytes() + second.read_bytes())
        with pytest.raises(ValueError):
            read_wavefunctions(path)


def write_snapshot_set(directory, n_files, times, n, seed=0):
    """n_files snapshot files on one grid and time axis; the states, stacked
    as (n_s, n_files, n)."""
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(len(times), n_files, 2 * n)).view(complex)
    for i in range(n_files):
        write_wavefunctions(directory / f"config_{i:04d}.bin", -10.0, 10.0,
                            times, states[:, i])
    return sorted(directory.glob("config_*.bin")), states


class TestSnapshotSet:
    def test_probe_is_stacked_files_bit_for_bit(self, tmp_path):
        files, states = write_snapshot_set(tmp_path, 5, [0.0, 0.5, 1.0], 16)
        probes = SnapshotSet(files)
        stacked = np.stack([read_wavefunctions(f)[3] for f in files], axis=1)
        assert len(probes) == 3
        for k in range(3):
            probe = probes[k]
            assert probe.flags.c_contiguous and probe.shape == (5, 16)
            assert probe.tobytes() == stacked[k].tobytes()
        assert probes[-1].tobytes() == stacked[2].tobytes()
        assert np.stack(list(probes)).tobytes() == states.tobytes()
        with pytest.raises(IndexError):
            probes[3]

    def test_purity_series_on_probes_is_bitwise(self, tmp_path):
        times = np.linspace(0.0, 4.0, 6)
        files, states = write_snapshot_set(tmp_path, 7, times, 32, seed=1)
        grid, mask = Grid(-10.0, 10.0, 32), MaskSpec(r0=3.0, width=2.0)
        lazy = purity_series(times, SnapshotSet(files), grid, mask)
        eager = purity_series(times, states, grid, mask)
        for a, b in zip(lazy, eager):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cut", [3, 44 + 16 * 8])
    def test_size_differs_from_first_file(self, tmp_path, cut):
        files, _ = write_snapshot_set(tmp_path, 3, [0.0, 1.0], 8)
        files[2].write_bytes(files[2].read_bytes()[:-cut])
        with pytest.raises(ValueError, match="config_0002.bin"):
            SnapshotSet(files)

    def test_first_file_not_whole_records(self, tmp_path):
        files, _ = write_snapshot_set(tmp_path, 2, [0.0, 1.0], 8)
        for f in files:
            f.write_bytes(f.read_bytes()[:-3])
        with pytest.raises(ValueError, match="config_0000.bin"):
            SnapshotSet(files)

    # a field of the second record of one file changed; a time changed in
    # config_0000 is named as the other files' mismatch
    @pytest.mark.parametrize("which", [0, 1])
    @HEADER_FIELDS
    def test_header_differs(self, tmp_path, which, offset, value):
        files, _ = write_snapshot_set(tmp_path, 3, [0.0, 1.0, 2.0], 8)
        raw = bytearray(files[which].read_bytes())
        at = 44 + 16 * 8 + offset
        raw[at:at + len(value)] = value
        files[which].write_bytes(bytes(raw))
        probes = SnapshotSet(files)
        assert probes[0].shape == (3, 8)
        named = files[1 if offset == 36 else which]
        with pytest.raises(ValueError, match=f"^{re.escape(str(named))}"):
            probes[1]
        assert probes[2].shape == (3, 8)


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

    def test_label_not_utf8(self, tmp_path):
        path = tmp_path / "map.bin"
        write_map(path, np.arange(4.0), np.arange(6.0), np.ones((4, 6)),
                  "t", "x")
        raw = bytearray(path.read_bytes())
        raw[16] = 0xFF  # the row label "t"
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedRecordError,
                           match=f"^{re.escape(str(path))}: axis label"):
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

    def test_writes_without_a_copy(self, tmp_path):
        path = tmp_path / "map.bin"
        values = np.random.default_rng(4).normal(size=(2000, 256))
        tracemalloc.start()
        try:
            write_map(path, np.arange(2000.0), np.arange(256.0), values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * values.nbytes
        np.testing.assert_array_equal(read_map(path)[2], values)

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
        assert loaded.verify_outputs(["out.csv"]) == ["out.csv"]
        data.unlink()
        with pytest.raises(FileNotFoundError, match="out.csv"):
            loaded.verify_outputs(["out.csv"])

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

    @pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20,
                                      (1 << 20) + 1, 3 * (1 << 20) + 7])
    def test_sha256_at_chunk_edges(self, tmp_path, size):
        f = tmp_path / "f"
        f.write_bytes(np.random.default_rng(size).bytes(size))
        assert sha256_of(f) == hashlib.sha256(f.read_bytes()).hexdigest()
