import hashlib

import numpy as np
import pytest
from scipy.integrate import quad

from hhg1d.sampler import (StructureParams, load_configurations,
                           pair_correlation, sample_configuration,
                           sample_ensemble, sample_gap, save_configurations,
                           stream)
from hhg1d.storage import MalformedRecordError


# sample_ensemble(1, 4, StructureParams()), each position to 17 significant
# digits (so, exactly): a change of generator, seeding or draw order moves
# them, and with them every stored configuration of a seeded run
GOLDEN_POSITIONS = [
    [-187.35067524974943, -179.10716427101494, -169.95994542897785,
     -160.34478938815906, -149.73534416432358, -139.74534613628884,
     -128.78105546284704, -119.86022394561337, -108.89325733789855,
     -98.6301043678513, -89.33705838521979, -78.97854318528984,
     -69.22161873294165, -58.501643423997756, -49.64927775877135,
     -37.659684973810045, -29.030097791435068, -18.4572123832437,
     -9.359681471601334, 10.392772715400664, 19.999620331693784,
     31.09689472194783, 38.42408696663176, 47.31682340069804,
     57.01566760532637, 68.24728304708685, 79.27223775533552,
     90.29110552630246, 99.75155910428973, 108.38483377828106,
     118.59278010762017, 128.23836564984754, 137.47338754243236,
     148.20914415602104, 157.12463963762903, 167.38351607378303,
     176.97046333272124, 186.59175445394737],
    [-191.92063540825532, -181.3332129821689, -171.11476030634225,
     -161.78526076273786, -153.10173549813874, -143.64280352731967,
     -134.91822180762017, -125.7898961742723, -116.61210558502572,
     -105.98119690570104, -95.85425193757649, -84.27000060901582,
     -73.34170439607028, -63.675992117454236, -54.7526656225936,
     -44.61913239465523, -33.897377335895165, -23.259627887872504,
     -12.485680210006816, 11.105944286094799, 19.850198809128557,
     30.31972278081864, 41.27520213057943, 50.35826340552176,
     59.60064055615169, 68.34984755425859, 80.04878400257121,
     90.69121607370012, 100.4885141016521, 109.39346807978552,
     118.78258609384118, 126.55696316050356, 134.85652327747775,
     144.58331169669336, 154.03985809284683, 164.87238990070594,
     175.06605305203863, 184.97628871509937],
    [-187.214871417776, -177.61707893107345, -168.90337520418825,
     -160.36491356762718, -149.637768390481, -140.94509800870495,
     -131.05961879893783, -122.0675319410975, -111.79971589507727,
     -99.4932017481465, -90.1676880458449, -79.71474052912662,
     -70.42995226591538, -59.97661870222613, -51.391708336918015,
     -41.48613501610507, -31.65427037535111, -21.615491844030206,
     -11.442385644201584, 9.109885836204445, 19.8970812800642,
     30.855619377949296, 39.52946036864275, 47.679929828283555,
     59.559694920146086, 71.03652342657746, 82.7812319633317,
     92.67201393596277, 100.63612159368672, 112.12871981340635,
     121.5238880711001, 132.22857877217086, 142.24610411657716,
     152.09191900383365, 161.02538847941554, 170.29297571574415,
     180.31564656438533, 190.93872690394306],
    [-187.47122013119565, -177.53831282481045, -166.79697816768996,
     -155.8160811258436, -145.836969856845, -135.10766126806388,
     -125.71794701161124, -115.46727195801, -105.66872637245478,
     -94.54187083830008, -85.99121000324915, -75.84173349379398,
     -66.77932501872223, -57.43939564019298, -47.72887681928358,
     -38.695585915479974, -29.365747808137932, -19.412351722700045,
     -7.7697985660338365, 11.03015369175666, 20.313579814052034,
     28.347413482870486, 38.771556122638515, 49.76199446410468,
     59.15356191801932, 70.24640852536616, 81.47108879966473,
     91.37950293978557, 101.91895826702893, 111.37893940962668,
     120.07615814545842, 131.1781395440083, 139.70390641331653,
     150.19002676185946, 159.86087635892088, 171.7821937116982,
     182.17223863726548, 191.78180241882876],
]

GOLDEN_FILE_SHA256 = ("38c8a04aeef82ac022f8dbe20502c65d"
                      "07bfbfaa789f6a9255f77f076170a05a")


class TestGolden:
    def test_positions(self):
        got = sample_ensemble(1, 4, StructureParams())
        for c, want in zip(got, GOLDEN_POSITIONS, strict=True):
            np.testing.assert_array_equal(c.positions, want)

    def test_saved_bytes(self, tmp_path):
        path = tmp_path / "environment.txt"
        save_configurations(path, sample_ensemble(1, 4, StructureParams()),
                            StructureParams(), master_seed=1)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN_FILE_SHA256


class TestSampleGap:
    def test_degenerate_sigma(self):
        s = StructureParams(a=10.0, sigma=0.0, n_p=4)
        assert sample_gap(stream(1, 0), s) == 10.0

    def test_support(self):
        s = StructureParams(a=10.0, sigma=3.0, n_p=4)
        rng = stream(42, 0)
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
        rng = stream(7, 0)
        draws = rng.normal(a, sigma, size=4_000_000)
        draws = draws[(draws >= lo) & (draws <= hi)][:1_000_000]
        assert draws.size == 1_000_000
        assert np.var(draws) == pytest.approx(var_oracle, rel=0.01)


class TestSampleConfiguration:
    def test_two_perturbers(self):
        s = StructureParams(a=10.0, sigma=1.0, n_p=2)
        c = sample_configuration(stream(5, 0), s)
        assert c.positions.size == 2
        assert -40.0 / 3 <= c.positions[0] <= -20.0 / 3
        assert 20.0 / 3 <= c.positions[1] <= 40.0 / 3

    def test_rigid_lattice_at_zero_sigma(self):
        s = StructureParams(a=10.0, sigma=0.0, n_p=6)
        c = sample_configuration(stream(5, 0), s)
        np.testing.assert_allclose(c.positions,
                                   [-30.0, -20.0, -10.0, 10.0, 20.0, 30.0])

    def test_buffer_zone(self):
        s = StructureParams(a=10.0, sigma=1.5, n_p=8)
        for i in range(50):
            c = sample_configuration(stream(99, i), s)
            assert np.min(np.abs(c.positions)) >= 2 * 10.0 / 3

    def test_strictly_increasing(self):
        s = StructureParams(a=10.0, sigma=2.0, n_p=12)
        for i in range(20):
            c = sample_configuration(stream(123, i), s)
            assert np.all(np.diff(c.positions) > 0)

    def test_determinism(self):
        s = StructureParams(a=10.0, sigma=1.0, n_p=10)
        a = sample_configuration(stream(77, 3), s)
        b = sample_configuration(stream(77, 3), s)
        np.testing.assert_array_equal(a.positions, b.positions)
        c = sample_configuration(stream(77, 4), s)
        assert not np.array_equal(a.positions, c.positions)

    def test_negative_stream_index_refused(self):
        with pytest.raises(ValueError):
            stream(77, -1)

    def test_streams_independent_of_order(self):
        s = StructureParams(a=10.0, sigma=1.0, n_p=6)
        ensemble = sample_ensemble(2024, 5, s)
        again = [sample_configuration(stream(2024, i), s)
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
        configs = [sample_configuration(stream(1, i), s) for i in range(3)]
        edges, mass = pair_correlation(configs, 1.0, 65.0)
        centers = 0.5 * (edges[:-1] + edges[1:])
        occupied = centers[mass > 0]
        # distances are multiples of a (origin gap 2a included)
        assert np.all(np.abs(occupied - 10.0 * np.round(occupied / 10.0))
                      <= 1.0)
        assert mass.sum() == pytest.approx(6 * 5 / 2)

    def test_total_mass_counts_pairs(self):
        s = StructureParams(a=10.0, sigma=1.0, n_p=8)
        configs = [sample_configuration(stream(8, i), s) for i in range(40)]
        _, mass = pair_correlation(configs, 0.5, 200.0)
        assert mass.sum() == pytest.approx(8 * 7 / 2)

    def test_shell_structure(self):
        # near shells at a, 2a, 3a; flat far out
        s = StructureParams(a=10.0, sigma=1.0, n_p=10)
        configs = [sample_configuration(stream(31, i), s)
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
        configs = [sample_configuration(stream(55, i), s) for i in range(4)]
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
