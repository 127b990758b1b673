"""
On-disk formats and reproducibility manifests.

Text products are CSV: '#' comment lines naming the producing subcommand,
code version, and manifest checksum, then a header row, then rows at full
double precision.  Wavefunction snapshots and 2D maps share one binary
container: a 12-byte header (magic "HHG1", <u4 format version, <u4 record
kind), then little-endian 64-bit payloads.  A snapshot file may hold any
number of consecutive wavefunction records of 44 + 16·n bytes each: the
header with kind 1, then <f8 x_min, <f8 x_max, <u8 n and <f8 t, then n <c16
amplitudes; `_snapshot_record` is that layout.  The run manifest (JSON)
stores the resolved configuration, seed, version, timestamps, and a
checksum per output, so a re-run can be byte-verified.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import struct
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import __version__

MAGIC = b"HHG1"
FORMAT_VERSION = 1
KIND_WAVEFUNCTION = 1
KIND_MAP = 2


class MissingArtifactError(FileNotFoundError):
    """An analysis command needs an upstream product that is not there."""


class MalformedRecordError(ValueError):
    """A stored record file is truncated, of another format, or does not
    agree with itself; the message starts with the file's path."""


def sha256_of(path) -> str:
    # one 1 MiB buffer read into and hashed in place: no bytes object per
    # chunk
    h = hashlib.sha256()
    buf = bytearray(1 << 20)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


# --- CSV ---

def write_csv(path, columns: dict[str, np.ndarray], subcommand: str,
              manifest_checksum: str = "", extra_comments: tuple[str, ...] = ()):
    cols = {name: np.asarray(vals) for name, vals in columns.items()}
    n_rows = {c.shape[0] for c in cols.values()}
    if len(n_rows) != 1:
        raise ValueError("CSV columns differ in length")
    with open(path, "w") as fh:
        for line in (f"produced-by: hhg1d {subcommand}",
                     f"version: {__version__}",
                     f"manifest: {manifest_checksum}", *extra_comments):
            fh.write(f"# {line}\n")
        fh.write(",".join(cols) + "\n")
        for row in zip(*cols.values()):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_csv(path) -> tuple[dict[str, np.ndarray], list[str]]:
    """Returns (columns, comment lines)."""
    comments, header, rows = [], None, []
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"missing file: {path}")
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append([float(v) for v in line.split(",")])
    if header is None:
        raise MalformedRecordError(f"{path}: no header row")
    data = np.array(rows) if rows else np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}, comments


# --- binary container ---

def _check_header(path, head: bytes, kind: int) -> None:
    """Refuse, naming `path`, a 12-byte container header of another magic,
    version or kind."""
    if head[:4] != MAGIC:
        raise MalformedRecordError(f"{path}: not an HHG1 binary file")
    version, got = struct.unpack("<II", head[4:12])
    if version != FORMAT_VERSION:
        raise MalformedRecordError(f"{path}: unsupported format version "
                                   f"{version}")
    if got != kind:
        raise MalformedRecordError(f"{path}: expected " + (
            "a map record" if kind == KIND_MAP else "wavefunction records"))


def _snapshot_record(n: int) -> np.dtype:
    """One wavefunction record, 44 + 16·n bytes: the 12-byte container
    header, grid descriptor and time stamp, then n amplitudes."""
    return np.dtype([("magic", "S4"), ("version", "<u4"), ("kind", "<u4"),
                     ("x_min", "<f8"), ("x_max", "<f8"), ("n", "<u8"),
                     ("t", "<f8"), ("psi", "<c16", (n,))])


def write_wavefunctions(path, x_min: float, x_max: float,
                        times, states) -> None:
    """One snapshot record per (time, state) pair, in a new file."""
    states = np.asarray(states, dtype=complex)
    n = states.shape[-1]
    recs = np.empty(len(times), dtype=_snapshot_record(n))
    recs["magic"], recs["version"] = MAGIC, FORMAT_VERSION
    recs["kind"], recs["n"] = KIND_WAVEFUNCTION, n
    recs["x_min"], recs["x_max"], recs["t"] = x_min, x_max, times
    recs["psi"] = states
    with open(path, "wb") as fh:
        fh.write(recs.data)


# a snapshot record's header, and its bytes before the time stamp: magic,
# version, kind, grid and n
_HEAD = _snapshot_record(0)
_FIXED = _HEAD.fields["t"][1]


def _check_heads(paths, heads: np.ndarray, first: bytes) -> None:
    """The header rule of snapshot records: each row of `heads`, the raw
    header of a record of the file at its index in `paths`, repeats `first`,
    the first file's first header, in all but the time stamp."""
    bad = np.any(heads[:, :_FIXED] != np.frombuffer(first, np.uint8, _FIXED),
                 axis=1)
    if np.any(bad):
        i = np.argmax(bad)
        _check_header(paths[i], heads[i, :12].tobytes(), KIND_WAVEFUNCTION)
        raise MalformedRecordError(f"{paths[i]}: another grid than "
                                   f"{paths[0].name}'s first record")


def _open_snapshots(path: Path) -> tuple[bytes, int, int]:
    """The first record's header of a snapshot file, its n, and its
    number of records: a whole number, and at least one."""
    size = path.stat().st_size
    with open(path, "rb") as fh:
        first = fh.read(_HEAD.itemsize)
    if len(first) < _HEAD.itemsize:
        raise MalformedRecordError(f"{path}: {size} bytes hold no snapshot "
                                   f"record")
    _check_header(path, first, KIND_WAVEFUNCTION)
    n = int(np.frombuffer(first, _HEAD)["n"][0])
    record = _HEAD.itemsize + 16 * n
    if size % record:
        raise MalformedRecordError(f"{path}: {size} bytes are not a whole "
                                   f"number of {record}-byte snapshot records")
    return first, n, size // record


def read_wavefunctions(path) -> tuple[float, float, np.ndarray, np.ndarray]:
    """All snapshot records in a file: (x_min, x_max, times, states).

    The file is read in one pass as an array of fixed-size records, sized
    by the first record's n; every record must carry the first one's
    header in all but the time.
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"missing file: {path}")
    first, n, _ = _open_snapshots(path)
    recs = np.fromfile(path, dtype=_snapshot_record(n))
    _check_heads([path] * recs.size,
                 recs.view(np.uint8).reshape(recs.size, -1), first)
    return (float(recs["x_min"][0]), float(recs["x_max"][0]),
            recs["t"].copy(), recs["psi"])


class SnapshotSet(Sequence):
    """The snapshot files of an ensemble read one probe at a time: item k
    is record k of every file, a contiguous complex (n_files, n) array.

    Opening the set checks that every file has the size of the first, a
    whole number of its records, and at least one.  Reading a probe takes
    record k of each file with one positional read, `os.preadv` (POSIX
    only), its header into a row of one header array and its amplitudes
    straight into the probe's row.  Every header must repeat the first
    file's first one in all but the time, the rule of `read_wavefunctions`,
    and carry the time of the first file's record k.  Files are not
    memory-mapped, since mapped pages count in the process's resident set
    just as read ones do.

    The records of a file cover all its bytes, in file order, so reading
    probes 0, 1, …, n_s − 1 in turn feeds each file's SHA-256 with each
    of its records as it is read: `digests` then holds every file's digest
    with no second read of the files.
    """

    def __init__(self, paths):
        self.paths = [Path(p) for p in paths]
        first = self.paths[0]
        self._first, self._n, self._n_probes = _open_snapshots(first)
        size = first.stat().st_size
        self._record = size // self._n_probes
        for path in self.paths[1:]:
            if path.stat().st_size != size:
                raise MalformedRecordError(
                    f"{path}: {path.stat().st_size} bytes, but "
                    f"{first.name} has {size}")
        self._hashes = [hashlib.sha256() for _ in self.paths]
        self._hashed = 0        # records fed to the hashes, in file order

    def __len__(self) -> int:
        return self._n_probes

    def __getitem__(self, k) -> np.ndarray:
        k = range(self._n_probes)[operator.index(k)]
        heads = np.empty((len(self.paths), _HEAD.itemsize), dtype=np.uint8)
        states = np.empty((len(self.paths), self._n), dtype=complex)
        rows = states.view(np.uint8).reshape(len(self.paths), -1)
        for path, head, row in zip(self.paths, heads, rows):
            fd = os.open(path, os.O_RDONLY)
            try:
                got = os.preadv(fd, (head, row), k * self._record)
            finally:
                os.close(fd)
            if got != self._record:
                raise MalformedRecordError(f"{path}: file ends inside record "
                                           f"{k}")
        _check_heads(self.paths, heads, self._first)
        late = np.any(heads[:, _FIXED:] != heads[0, _FIXED:], axis=1)
        if np.any(late):
            raise MalformedRecordError(
                f"{self.paths[np.argmax(late)]} holds other times than "
                f"{self.paths[0].name}")
        if k == self._hashed:
            for h, head, row in zip(self._hashes, heads, rows):
                h.update(head)
                h.update(row)
            self._hashed += 1
        return states

    def digests(self) -> list[str] | None:
        """The SHA-256 hex digest of each file, in the order of `paths`,
        once every record has been read right after the one before it;
        None while a record is missing from that in-order pass (a probe
        read out of turn feeds no digest)."""
        if self._hashed < self._n_probes:
            return None
        return [h.hexdigest() for h in self._hashes]


def write_map(path, row_axis, col_axis, values, row_label: str = "",
              col_label: str = "") -> None:
    """2D field with labelled axes, row-major values."""
    values = np.asarray(values, dtype=float)
    row_axis = np.asarray(row_axis, dtype=float)
    col_axis = np.asarray(col_axis, dtype=float)
    if values.shape != (row_axis.size, col_axis.size):
        raise ValueError("map shape does not match its axes")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", FORMAT_VERSION, KIND_MAP))
        for label in (row_label, col_label):
            enc = label.encode()[:64]
            fh.write(struct.pack("<I", len(enc)))
            fh.write(enc)
        fh.write(struct.pack("<QQ", row_axis.size, col_axis.size))
        # written from the arrays themselves, without a bytes copy
        for a in (row_axis, col_axis, values):
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)


def read_map(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, str, str]:
    """(row_axis, col_axis, values, row_label, col_label); each array is
    read once, and the file size must be what the header says."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"missing file: {path}")
    with open(path, "rb") as fh:
        try:
            _check_header(path, fh.read(12), KIND_MAP)
            labels = []
            for _ in range(2):
                (ln,) = struct.unpack("<I", fh.read(4))
                labels.append(fh.read(ln).decode())
            n_rows, n_cols = struct.unpack("<QQ", fh.read(16))
        except struct.error:
            raise MalformedRecordError(
                f"{path}: file ends inside its header") from None
        except UnicodeDecodeError as exc:
            raise MalformedRecordError(f"{path}: axis label is not UTF-8: "
                                       f"{exc.reason}") from None
        need = fh.tell() + 8 * (n_rows + n_cols + n_rows * n_cols)
        have = path.stat().st_size
        if have != need:
            raise MalformedRecordError(f"{path}: {have} bytes, but a {n_rows}"
                                       f" x {n_cols} map takes {need}")
        row_axis = np.fromfile(fh, dtype="<f8", count=n_rows)
        col_axis = np.fromfile(fh, dtype="<f8", count=n_cols)
        values = np.fromfile(fh, dtype="<f8", count=n_rows * n_cols)
    return (row_axis, col_axis, values.reshape(n_rows, n_cols),
            labels[0], labels[1])


# --- manifest ---

class Manifest:
    """Reproducibility ledger of one run directory."""

    def __init__(self, directory, config_text: str = "", master_seed: int = 0):
        self.directory = Path(directory)
        self.data = {
            "version": __version__,
            "master_seed": master_seed,
            "config": config_text,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "finished": None,
            "outputs": {},
        }

    @property
    def path(self) -> Path:
        return self.directory / "manifest.json"

    def checksum(self) -> str:
        """Checksum of the configuration + seed, quoted by output headers."""
        key = (self.data["config"] + str(self.data["master_seed"])).encode()
        return hashlib.sha256(key).hexdigest()[:16]

    def record_output(self, path) -> None:
        rel = str(Path(path).relative_to(self.directory))
        self.data["outputs"][rel] = sha256_of(path)

    def save(self) -> None:
        self.data["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        with open(self.path, "w") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, directory) -> "Manifest":
        directory = Path(directory)
        mpath = directory / "manifest.json"
        if not mpath.exists():
            raise MissingArtifactError(f"missing manifest: {mpath}")
        m = cls(directory)
        try:
            m.data = data = json.loads(mpath.read_text())
        except ValueError as exc:
            raise MalformedRecordError(f"{mpath}: {exc}") from None
        if not (isinstance(data, dict) and isinstance(data.get("config"), str)
                and type(data.get("master_seed")) is int
                and isinstance(data.get("outputs"), dict)
                and all(isinstance(v, str) for v in data["outputs"].values())):
            raise MalformedRecordError(f"{mpath}: not an object of config, "
                                       f"master_seed and outputs")
        return m

    def verify_outputs(self, names, digests=None) -> list[str]:
        """Those of the given listed names whose file no longer has its
        recorded checksum.  `digests`, one per name and in their order, are
        the files' SHA-256 from a read that covered them; without them each
        file is hashed here, and a listed file that is gone raises
        FileNotFoundError."""
        names = list(names)
        if digests is None:
            digests = (sha256_of(self.directory / rel) for rel in names)
        return [rel for rel, digest in zip(names, digests, strict=True)
                if digest != self.data["outputs"][rel]]
