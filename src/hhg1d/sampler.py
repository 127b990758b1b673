"""
Sampling of disordered scatterer configurations.

Successive gaps Δx_k = x_{k+1} - x_k are independent draws from a Gaussian
N(a, σ²) truncated to [2a/3, 4a/3]; the same truncated law fixes the two
innermost scatterers -x_j and x_{j+1}, leaving a buffer zone around the
parent atom at the origin.  Sampling is reproducible: a configuration is
fully determined by (master_seed, stream_index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import EnvironmentConfig, LaserParams, quiver_radius
from .storage import MalformedRecordError


@dataclass(frozen=True)
class StructureParams:
    """Disorder statistics: mean gap a, gap spread sigma, scatterer count n_p."""

    a: float = 10.0
    sigma: float = 1.0
    n_p: int = 38

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError(f"a must be > 0, got {self.a}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.n_p < 2 or self.n_p % 2 != 0:
            raise ValueError(f"n_p must be an even integer >= 2, got {self.n_p}")

    @property
    def window(self) -> tuple[float, float]:
        """Support [2a/3, 4a/3] of the truncated gap distribution."""
        return (2.0 * self.a / 3.0, 4.0 * self.a / 3.0)


@dataclass(frozen=True)
class SeededRng:
    """Deterministic random stream: (master_seed, stream_index) fixes the draws."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(seq)


def default_perturber_count(laser: LaserParams, structure: StructureParams) -> int:
    """Smallest even n_p whose chain spans at least ±(2·quiver_radius + 3a)."""
    reach = 2.0 * quiver_radius(laser) + 3.0 * structure.a
    half = int(np.ceil(reach / structure.a))
    return max(2, 2 * half)


def sample_gap(rng: np.random.Generator | SeededRng, s: StructureParams) -> float:
    """One draw from N(a, σ²) restricted to [2a/3, 4a/3], by rejection."""
    if isinstance(rng, SeededRng):
        rng = rng.generator()
    if s.sigma == 0.0:
        return s.a
    lo, hi = s.window
    while True:
        g = rng.normal(s.a, s.sigma)
        if lo <= g <= hi:
            return float(g)


def sample_configuration(rng: np.random.Generator | SeededRng,
                         s: StructureParams) -> EnvironmentConfig:
    """Draw one scatterer configuration.

    The innermost pair is drawn first (left then right), then each side is
    grown outward by cumulative gap sums, right side before left.  The draw
    order is part of the determinism contract.
    """
    if isinstance(rng, SeededRng):
        rng = rng.generator()
    half = s.n_p // 2
    inner_left = -sample_gap(rng, s)
    inner_right = sample_gap(rng, s)
    right = [inner_right]
    for _ in range(half - 1):
        right.append(right[-1] + sample_gap(rng, s))
    left = [inner_left]
    for _ in range(half - 1):
        left.append(left[-1] - sample_gap(rng, s))
    positions = np.array(left[::-1] + right)
    return EnvironmentConfig(positions=positions)


def sample_ensemble(master_seed: int, n_configs: int,
                    s: StructureParams) -> list[EnvironmentConfig]:
    """n_configs independent configurations on streams 0..n_configs-1."""
    return [sample_configuration(SeededRng(master_seed, i), s)
            for i in range(n_configs)]


def pair_correlation(configs: list[EnvironmentConfig], bin_width: float,
                     r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of pairwise scatterer distances, averaged over configurations.

    Returns (bin_edges, mass) with bins of the given width covering
    [0, r_max]; the total mass equals the mean number of pairs per
    configuration whose distance falls below r_max.
    """
    if not configs:
        raise ValueError("pair_correlation needs at least one configuration")
    if bin_width <= 0 or r_max <= 0:
        raise ValueError("bin_width and r_max must be positive")
    edges = np.arange(0.0, r_max + bin_width, bin_width)
    counts = np.zeros(edges.size - 1)
    for c in configs:
        pos = c.positions
        d = np.abs(pos[:, None] - pos[None, :])[np.triu_indices(pos.size, k=1)]
        counts += np.histogram(d, bins=edges)[0]
    return edges, counts / len(configs)


# --- plain-text serialization: header line, then one configuration per line ---

def save_configurations(path, configs: list[EnvironmentConfig],
                        s: StructureParams, master_seed: int) -> None:
    with open(path, "w") as fh:
        fh.write(f"# a={s.a!r} sigma={s.sigma!r} n_p={s.n_p} "
                 f"master_seed={master_seed}\n")
        for c in configs:
            fh.write(" ".join(f"{x:.17g}" for x in c.positions) + "\n")


def load_configurations(path) -> tuple[list[EnvironmentConfig], dict]:
    """Read configurations saved by save_configurations; returns (configs, header)."""
    configs = []
    header: dict = {}
    # undecodable bytes become U+FFFD, which no number or key parses as
    with open(path, errors="replace") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise MalformedRecordError(f"{path}: missing header line")
        try:
            for item in first[1:].split():
                key, _, val = item.partition("=")
                header[key] = float(val) if "." in val or "e" in val \
                    else int(val)
        except ValueError as exc:
            raise MalformedRecordError(f"{path}, line 1: {exc}") from None
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                configs.append(EnvironmentConfig(
                    positions=[float(v) for v in line.split()]))
            except ValueError as exc:
                raise MalformedRecordError(f"{path}, line {lineno}: "
                                           f"{exc}") from None
    if not configs:
        raise MalformedRecordError(f"{path}: holds no configuration")
    return configs, header
