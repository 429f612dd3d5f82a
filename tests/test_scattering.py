"""Step-potential matching coefficients and transmission decay."""

import math

import pytest

from turnpoint import scattering
from turnpoint.errors import InvalidEnergy, InvalidInput, InvalidRegime, InvalidRegion
from turnpoint.potentials import UnitSystem

U = UnitSystem()


class TestRegimes:
    def test_above_barrier(self):
        assert scattering.match_coefficients(2.0, 1.0, U).regime == "above_barrier"

    def test_at_barrier(self):
        assert scattering.match_coefficients(1.0, 1.0, U).regime == "at_barrier"

    def test_below_barrier(self):
        assert scattering.match_coefficients(0.5, 1.0, U).regime == "below_barrier"

    @pytest.mark.parametrize("E", [0.0, -1.0, math.inf])
    def test_invalid_energy(self, E):
        with pytest.raises((InvalidEnergy, InvalidInput)):
            scattering.match_coefficients(E, 1.0, U)


class TestAboveBarrier:
    def test_r_closed_form(self):
        # R = U0 / (4E + U0)
        c = scattering.match_coefficients(3.0, 1.0, U)
        assert c.R == pytest.approx(1.0 / 13.0, rel=1e-15)
        assert c.T0 == pytest.approx(12.0 / 13.0, rel=1e-15)

    def test_r_at_barrier_is_one_fifth(self):
        c = scattering.match_coefficients(1.0, 1.0, U)
        assert c.R == 0.2
        assert c.T0 == 0.8

    def test_t0_plus_r_is_one(self):
        for E in (1.0, 1.5, 7.0, 300.0):
            c = scattering.match_coefficients(E, 1.0, U)
            assert abs(c.T0 + c.R - 1.0) <= math.ulp(1.0)

    def test_amplitude_ratios_consistent_with_r(self):
        c = scattering.match_coefficients(2.5, 1.0, U)
        assert abs(c.b1_over_a1) ** 2 == pytest.approx(c.R, rel=1e-12)
        assert abs(c.a2_over_a1) ** 2 == pytest.approx(c.T0, rel=1e-12)

    def test_r_decreases_with_energy(self):
        values = [scattering.match_coefficients(E, 1.0, U).R for E in (1.0, 2.0, 4.0, 8.0)]
        assert values == sorted(values, reverse=True)

    def test_decay_constant(self):
        c = scattering.match_coefficients(4.0, 2.0, U)
        assert c.a == pytest.approx(U.m1 * math.sqrt(2.0), rel=1e-15)
        assert c.K == pytest.approx(U.m1 * 2.0, rel=1e-15)


class TestTransmissionProfile:
    def test_exponential_decay_inside_the_step(self):
        E, u0 = 2.0, 1.0
        c = scattering.match_coefficients(E, u0, U)
        t1 = scattering.transmission_at(E, u0, 1.0, U)
        assert t1 == pytest.approx(c.T0 * math.exp(-2.0 * c.a), rel=1e-12)

    def test_transmission_at_is_the_coefficients_formula_bit_for_bit(self):
        for E, x in [(2.0, 0.0), (2.0, 0.7), (1.0, 3.0), (1e300, 1e-3)]:
            c = scattering.match_coefficients(E, 1.0, U)
            expected = c.T0 * math.exp(-2.0 * c.a * x)
            assert scattering.transmission_at(E, 1.0, x, U).hex() == c.transmission(x).hex() == expected.hex()

    @pytest.mark.parametrize("E,u0", [(1.0, 1.0), (3.0, 2.0)])
    def test_value_at_zero_is_t0_where_a_is_inf(self, E, u0):
        # hbar = 1e-310 makes a = m1 sqrt(U0) inf; exp(-2 a x) alone would be exp(nan) at x = 0
        c = scattering.match_coefficients(E, u0, UnitSystem(hbar=1e-310))
        assert c.a == math.inf
        assert c.transmission(0.0) == c.T0 and c.transmission(1.0) == 0.0

    def test_value_at_zero_is_t0(self):
        E, u0 = 2.0, 1.0
        c = scattering.match_coefficients(E, u0, U)
        assert scattering.transmission_at(E, u0, 0.0, U) == pytest.approx(c.T0, rel=1e-15)

    def test_region_one_rejected(self):
        with pytest.raises(InvalidRegion):
            scattering.transmission_at(2.0, 1.0, -0.5, U)

    def test_below_barrier_rejected(self):
        with pytest.raises(InvalidRegime):
            scattering.transmission_at(0.5, 1.0, 0.0, U)


class TestBelowBarrier:
    def test_total_reflection(self):
        c = scattering.match_coefficients(0.3, 1.0, U)
        assert c.R == 1.0
        assert c.T0 == 0.0

    @pytest.mark.parametrize("x", [0.0, 1.0, 1e300])
    @pytest.mark.parametrize("hbar", [1.0, 1e-310], ids=["finite a", "a = inf"])
    def test_transmission_is_zero_everywhere(self, x, hbar):
        # with a = inf at x = 0 the formula alone would give 0 * exp(nan)
        c = scattering.match_coefficients(0.3, 1.0, UnitSystem(hbar=hbar))
        assert c.transmission(x) == 0.0

    def test_raw_ratio_limit_matches_above_barrier(self):
        # the raw sub-barrier expression at E = U0 agrees with R = 0.20
        assert scattering.raw_subbarrier_R(1.0, 1.0) == pytest.approx(0.2, rel=1e-12)

    def test_raw_amplitude_ratio_gives_the_raw_r(self):
        c = scattering.match_coefficients(0.25, 1.0, U)
        assert abs(c.b1_over_a1) ** 2 == pytest.approx(scattering.raw_subbarrier_R(0.25, 1.0), rel=1e-12)

    def test_raw_ratio_closed_form(self):
        E, u0 = 0.25, 1.0
        expected = (E + (math.sqrt(E) - math.sqrt(u0)) ** 2) / (
            E + (math.sqrt(E) + math.sqrt(u0)) ** 2
        )
        assert scattering.raw_subbarrier_R(E, u0) == pytest.approx(expected, rel=1e-14)

    def test_raw_ratio_rejected_above_barrier(self):
        with pytest.raises((InvalidEnergy, InvalidInput, InvalidRegime)):
            scattering.raw_subbarrier_R(2.0, 1.0)


class TestNearFloatMax:
    @pytest.mark.parametrize("E", [4e307, 1e308, 1.79e308])
    def test_r_at_barrier_stays_one_fifth(self, E):
        assert scattering.match_coefficients(E, E, U).R == pytest.approx(0.2, rel=1e-15)
        assert scattering.raw_subbarrier_R(E, E) == pytest.approx(0.2, rel=1e-15)

    def test_huge_ratios_match_the_scaled_closed_forms(self):
        E, U0 = 1.5e308, 3e306
        assert scattering.match_coefficients(E, U0, U).R == pytest.approx(U0 / E / (4.0 + U0 / E), rel=1e-15)
        r = math.sqrt(U0 / E)
        expected = (r * r + (r - 1.0) ** 2) / (r * r + (r + 1.0) ** 2)
        assert scattering.raw_subbarrier_R(U0, E) == pytest.approx(expected, rel=1e-15)
