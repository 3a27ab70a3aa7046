import math

import numpy as np
import pytest

from jacspectra.density import (
    SINGULAR,
    SQUARED_SINGULAR,
    SpectralDensity,
    make_lambda_grid,
    read_csv,
    read_json,
    to_singular_domain,
)


def _uniform_density():
    grid = np.linspace(1e-9, 1.0, 2001)
    return SpectralDensity(SQUARED_SINGULAR, grid, np.ones_like(grid), (), {})


class TestContainer:
    def test_clamps_small_negative_noise(self):
        d = SpectralDensity(
            SQUARED_SINGULAR, np.array([0.0, 1.0]), np.array([-5e-9, 1.0]), (), {}
        )
        assert d.rho[0] == 0.0

    def test_rejects_large_negative(self):
        with pytest.raises(ValueError):
            SpectralDensity(SQUARED_SINGULAR, np.array([0.0, 1.0]), np.array([-1e-6, 1.0]))

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            SpectralDensity(SQUARED_SINGULAR, np.array([1.0, 0.5]), np.zeros(2))

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            SpectralDensity("eigen", np.array([0.0, 1.0]), np.zeros(2))

    def test_cdf_sides_at_atom(self):
        d = SpectralDensity(
            SQUARED_SINGULAR, np.array([0.5, 2.0]), np.zeros(2), ((1.0, 0.6), (1.5, 0.4)), {}
        )
        assert d.cdf(1.0, side="right")[0] == pytest.approx(0.6)
        assert d.cdf(1.0, side="left")[0] == pytest.approx(0.0)
        assert d.cdf(1.5, side="right")[0] == pytest.approx(1.0)


class TestBelowGridMass:
    def test_round_off_is_clamped(self):
        grid = np.array([0.5, 1.0])
        assert SpectralDensity(SQUARED_SINGULAR, grid, np.zeros(2), below=-2.2e-16).below == 0.0
        assert SpectralDensity(SQUARED_SINGULAR, grid, np.zeros(2), below=1.0 + 1e-12).below == 1.0

    @pytest.mark.parametrize("below", [-1e-6, 1.0 + 1e-6, math.nan])
    def test_rejects_more_than_round_off(self, below):
        with pytest.raises(ValueError, match="below-grid mass"):
            SpectralDensity(SQUARED_SINGULAR, np.array([0.5, 1.0]), np.zeros(2), below=below)

    def test_a_maker_round_off_is_clamped(self):
        # the smooth law's closed form reads -2.2e-16 just above its lower edge at s0sq = 0.1
        from jacspectra.limits import smooth_density, smooth_edges

        lo, hi = smooth_edges(0.1)
        assert smooth_density(0.1, np.array([lo * (1.0 + 1e-15), hi])).below == 0.0

    def test_counts_in_total_mass_and_cdf(self):
        d = SpectralDensity(SQUARED_SINGULAR, np.array([0.5, 2.0]), np.full(2, 0.2), ((0.0, 0.25), (1.0, 0.1)), below=0.35)
        assert d.total_mass() == pytest.approx(1.0, abs=1e-15)
        # from grid[0] up: below plus the atoms at or under grid[0], then the trapezoid
        assert d.cdf(0.5)[0] == d.cdf(0.5, side="left")[0] == 0.35 + 0.25
        assert d.cdf(2.0)[0] == pytest.approx(1.0, abs=1e-15)


class TestDomainChange:
    def test_atom_at_one_is_fixed(self):
        d = SpectralDensity(SQUARED_SINGULAR, np.array([0.5, 2.0]), np.zeros(2), ((1.0, 1.0),), {})
        s = to_singular_domain(d)
        assert s.atoms == ((1.0, 1.0),)

    def test_deep_limit_atom_location(self):
        lam2 = math.exp(0.25)
        d = SpectralDensity(
            SQUARED_SINGULAR, np.array([0.5, 2.0]), np.zeros(2), ((lam2, 0.75),), {}
        )
        s = to_singular_domain(d)
        assert s.atoms[0][0] == pytest.approx(math.exp(0.125), abs=1e-12)

    def test_uniform_change_of_variables(self):
        s = to_singular_domain(_uniform_density())
        assert s.domain == SINGULAR
        assert np.allclose(s.rho, 2.0 * s.grid, atol=1e-12)
        assert s.continuum_mass() == pytest.approx(1.0, abs=1e-5)

    def test_mass_preserved(self):
        d = _uniform_density()
        assert to_singular_domain(d).total_mass() == pytest.approx(d.total_mass(), abs=1e-5)

    def test_keeps_below_bit_for_bit(self):
        d = SpectralDensity(SQUARED_SINGULAR, np.array([0.5, 2.0]), np.zeros(2), below=math.pi / 10)
        assert to_singular_domain(d).below == math.pi / 10

    def test_requires_lambda_domain(self):
        s = to_singular_domain(_uniform_density())
        with pytest.raises(ValueError):
            to_singular_domain(s)


class TestIO:
    def test_csv_round_trip(self, tmp_path):
        d = SpectralDensity(
            SQUARED_SINGULAR,
            np.array([0.1, 0.7, 1.9]),
            np.array([0.25, 0.5, 0.0]),
            ((0.0, 0.25),),
            {"note": "x"},
        )
        p = tmp_path / "d.csv"
        d.write_csv(p)
        back = read_csv(p)
        assert back.domain == d.domain
        assert np.array_equal(back.grid, d.grid)
        assert np.array_equal(back.rho, d.rho)
        assert back.atoms == d.atoms

    @pytest.mark.parametrize("suffix", ["csv", "json"])
    def test_round_trip_keeps_below_bit_for_bit(self, tmp_path, suffix):
        d = SpectralDensity(SQUARED_SINGULAR, np.array([0.1, 1.9]), np.array([0.5, 0.0]), ((0.0, 0.25),), below=math.pi / 10)
        p = tmp_path / f"d.{suffix}"
        (d.write_csv if suffix == "csv" else d.write_json)(p)
        back = (read_csv if suffix == "csv" else read_json)(p)
        assert back.below == math.pi / 10 and back.total_mass() == d.total_mass()

    def test_csv_below_row_must_sit_at_grid_start(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("domain,x,rho\nbelow,0.2,0.5\nsingular,0.1,0.0\nsingular,1.0,1.0\n")
        with pytest.raises(ValueError, match="below row"):
            read_csv(p)
        p.write_text("domain,x,rho\nsingular,0.1,0.0\nsingular,1.0,1.0\n")  # no row: nothing below
        assert read_csv(p).below == 0.0

    def test_csv_header(self, tmp_path):
        p = tmp_path / "d.csv"
        _uniform_density().write_csv(p)
        assert p.read_text().splitlines()[0] == "domain,x,rho"

    def test_json_round_trip(self, tmp_path):
        d = SpectralDensity(
            SQUARED_SINGULAR, np.array([0.1, 1.9]), np.array([0.5, 0.5]), ((2.0, 0.1),), {"a": 1}
        )
        p = tmp_path / "d.json"
        d.write_json(p)
        back = read_json(p)
        assert back.metadata == {"a": 1}
        assert back.atoms == d.atoms
        assert np.array_equal(back.grid, d.grid)

    def test_csv_bytes_match_scalar_formatter(self, tmp_path):
        # reference: each row formatted from float() of the numpy scalar
        grid = np.array([5e-324, 2.2250738585072014e-308, 1e-300, 1.5e-17, 0.1, 1.0, 1e16, 1e22, 1.7976931348623157e308])
        rho = np.array([0.0, 1.7976931348623157e308, 3e-310, 1e-300, 0.30000000000000004, 2.5, 1e-5, 5e-324, 1e300])
        d = SpectralDensity(SQUARED_SINGULAR, grid, rho, ((0.0, 0.25), (1e-300, 1e-3)), {}, below=0.1)
        rows = [f"{d.domain},{float(x)!r},{float(r)!r}" for x, r in zip(d.grid, d.rho)]
        atoms = [f"atom,{float(loc)!r},{float(mass)!r}" for loc, mass in d.atoms]
        p = tmp_path / "d.csv"
        d.write_csv(p)
        assert p.read_bytes() == "\n".join(["domain,x,rho", "below,5e-324,0.1", *rows, *atoms, ""]).encode()

    def test_csv_bytes_stable(self, tmp_path):
        d = _uniform_density()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        d.write_csv(p1)
        d.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestGrid:
    def test_monotone_and_bounds(self):
        g = make_lambda_grid(5.0, lam_min=1e-4, n=600)
        assert np.all(np.diff(g) > 0)
        assert g[0] == pytest.approx(1e-4)
        assert g[-1] == pytest.approx(5.0)

    def test_resolves_origin(self):
        g = make_lambda_grid(5.0, lam_min=1e-8, n=600)
        assert (g < 1e-4).sum() > 50  # geometric half covers the bottom decades

    def test_validation(self):
        with pytest.raises(ValueError):
            make_lambda_grid(1.0, lam_min=2.0)
