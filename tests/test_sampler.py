import numpy as np
import pytest
from scipy.integrate import quad

from hhg1d.sampler import (SeededRng, StructureParams, load_configurations,
                           pair_correlation, sample_configuration,
                           sample_ensemble, sample_gap, save_configurations)
from hhg1d.storage import MalformedRecordError


class TestSampleGap:
    def test_degenerate_sigma(self):
        s = StructureParams(a=10.0, sigma=0.0, n_p=4)
        assert sample_gap(SeededRng(1), s) == 10.0

    def test_support(self):
        s = StructureParams(a=10.0, sigma=3.0, n_p=4)
        rng = SeededRng(42).generator()
        draws = np.array([sample_gap(rng, s) for _ in range(2000)])
        assert draws.min() >= 2 * 10.0 / 3
        assert draws.max() <= 4 * 10.0 / 3

    def test_variance_against_quadrature_oracle(self):
        # oracle: moments of the truncated normal by numeric quadrature
        a, sigma = 10.0, 1.0
        lo, hi = 2 * a / 3, 4 * a / 3
        w = lambda x: np.exp(-((x - a) ** 2) / (2 * sigma**2))
        z = quad(w, lo, hi)[0]
        m1 = quad(lambda x: x * w(x), lo, hi)[0] / z
        m2 = quad(lambda x: x * x * w(x), lo, hi)[0] / z
        var_oracle = m2 - m1**2

        s = StructureParams(a=a, sigma=sigma, n_p=4)
        rng = SeededRng(7).generator()
        draws = rng.normal(a, sigma, size=4_000_000)
        draws = draws[(draws >= lo) & (draws <= hi)][:1_000_000]
        assert draws.size == 1_000_000
        assert np.var(draws) == pytest.approx(var_oracle, rel=0.01)


class TestSampleConfiguration:
    def test_two_perturbers(self):
        s = StructureParams(a=10.0, sigma=1.0, n_p=2)
        c = sample_configuration(SeededRng(5), s)
        assert c.positions.size == 2
        assert -40.0 / 3 <= c.positions[0] <= -20.0 / 3
        assert 20.0 / 3 <= c.positions[1] <= 40.0 / 3

    def test_rigid_lattice_at_zero_sigma(self):
        s = StructureParams(a=10.0, sigma=0.0, n_p=6)
        c = sample_configuration(SeededRng(5), s)
        np.testing.assert_allclose(c.positions,
                                   [-30.0, -20.0, -10.0, 10.0, 20.0, 30.0])

    def test_buffer_zone(self):
        s = StructureParams(a=10.0, sigma=1.5, n_p=8)
        for i in range(50):
            c = sample_configuration(SeededRng(99, i), s)
            assert np.min(np.abs(c.positions)) >= 2 * 10.0 / 3

    def test_strictly_increasing(self):
        s = StructureParams(a=10.0, sigma=2.0, n_p=12)
        for i in range(20):
            c = sample_configuration(SeededRng(123, i), s)
            assert np.all(np.diff(c.positions) > 0)

    def test_determinism(self):
        s = StructureParams(a=10.0, sigma=1.0, n_p=10)
        a = sample_configuration(SeededRng(77, 3), s)
        b = sample_configuration(SeededRng(77, 3), s)
        np.testing.assert_array_equal(a.positions, b.positions)
        c = sample_configuration(SeededRng(77, 4), s)
        assert not np.array_equal(a.positions, c.positions)

    def test_streams_independent_of_order(self):
        s = StructureParams(a=10.0, sigma=1.0, n_p=6)
        ensemble = sample_ensemble(2024, 5, s)
        again = [sample_configuration(SeededRng(2024, i), s)
                 for i in (3, 0, 4, 1, 2)]
        for i, j in enumerate((3, 0, 4, 1, 2)):
            np.testing.assert_array_equal(again[i].positions,
                                          ensemble[j].positions)


class TestPairCorrelation:
    def test_empty_input(self):
        with pytest.raises(ValueError):
            pair_correlation([], 0.5, 50.0)

    def test_lattice_comb(self):
        s = StructureParams(a=10.0, sigma=0.0, n_p=6)
        configs = [sample_configuration(SeededRng(1, i), s) for i in range(3)]
        edges, mass = pair_correlation(configs, 1.0, 65.0)
        centers = 0.5 * (edges[:-1] + edges[1:])
        occupied = centers[mass > 0]
        # distances are multiples of a (origin gap 2a included)
        assert np.all(np.abs(occupied - 10.0 * np.round(occupied / 10.0))
                      <= 1.0)
        assert mass.sum() == pytest.approx(6 * 5 / 2)

    def test_total_mass_counts_pairs(self):
        s = StructureParams(a=10.0, sigma=1.0, n_p=8)
        configs = [sample_configuration(SeededRng(8, i), s) for i in range(40)]
        _, mass = pair_correlation(configs, 0.5, 200.0)
        assert mass.sum() == pytest.approx(8 * 7 / 2)

    def test_shell_structure(self):
        # near shells at a, 2a, 3a; flat far out
        s = StructureParams(a=10.0, sigma=1.0, n_p=10)
        configs = [sample_configuration(SeededRng(31, i), s)
                   for i in range(400)]
        edges, mass = pair_correlation(configs, 0.5, 45.0)
        centers = 0.5 * (edges[:-1] + edges[1:])
        for shell in (10.0, 20.0, 30.0):
            near = mass[np.abs(centers - shell) <= 1.0].sum()
            off = mass[np.abs(centers - shell - 5.0) <= 1.0].sum()
            assert near > 5 * max(off, 1e-12)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        s = StructureParams(a=10.0, sigma=1.0, n_p=6)
        configs = [sample_configuration(SeededRng(55, i), s) for i in range(4)]
        path = tmp_path / "env.txt"
        save_configurations(path, configs, s, master_seed=55)
        loaded, header = load_configurations(path)
        assert header["n_p"] == 6 and header["master_seed"] == 55
        assert len(loaded) == 4
        for c0, c1 in zip(configs, loaded):
            np.testing.assert_array_equal(c0.positions, c1.positions)

    @pytest.mark.parametrize("text, line", [
        ("# a=10.0 n_p=x\n1 2\n", 1),
        ("# a=10.0 n_p=2\n-1 1\n\n# x\n", 4),
        ("# a=10.0 n_p=2\n-1 1\n-1 0 1\n", 3),
    ], ids=["header_value", "not_a_number", "odd_count"])
    def test_malformed_line_named(self, tmp_path, text, line):
        path = tmp_path / "env.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"env.txt, line {line}: "):
            load_configurations(path)

    @pytest.mark.parametrize("raw, message", [
        (b"# a=10.0 n_p=2\n\n", "env.txt: holds no configuration"),
        (b"# a=10.0 n_p=2\n-1 1\n-1 \xff1\n", "env.txt, line 3: "),
    ], ids=["no_configuration", "not_utf8"])
    def test_unusable_file_named(self, tmp_path, raw, message):
        path = tmp_path / "env.txt"
        path.write_bytes(raw)
        with pytest.raises(MalformedRecordError, match=message):
            load_configurations(path)
