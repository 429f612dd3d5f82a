"""Numerov shooting oracle and the textbook step comparator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from turnpoint import potentials, reference
from turnpoint.errors import ConvergenceFailure, InvalidInput
from turnpoint.potentials import (
    HarmonicOscillator,
    InfiniteSquareWell,
    ParabolicWell,
    QuadraticInverse,
    TrigWell,
    UnitSystem,
    VWell,
    parse_potential_spec,
)

U = UnitSystem()

_DEFAULT_WELLS = [
    InfiniteSquareWell(L=1.0),
    HarmonicOscillator(omega=1.0),
    TrigWell(u0=1.0, a=1.0),
    VWell(u0=1.0),
    ParabolicWell(u0=1.0, a=1.0),
    QuadraticInverse(a=1.0, b=1.0),
]

# the six families at random parameters; trig wells stay below the steep-wall
# limit m u0 a^2 / hbar^2 < 6 pi^2, beyond which the oracle refuses them
_FAMILIES = st.one_of(
    st.builds(InfiniteSquareWell, L=st.floats(0.1, 10.0)),
    st.builds(HarmonicOscillator, omega=st.floats(0.1, 10.0)),
    st.floats(0.2, 5.0).flatmap(
        lambda a: st.builds(TrigWell, u0=st.floats(0.1, 0.99 * 6.0 * math.pi ** 2 / (a * a)), a=st.just(a))
    ),
    st.builds(VWell, u0=st.floats(0.1, 10.0)),
    st.builds(ParabolicWell, u0=st.floats(0.1, 10.0), a=st.floats(0.2, 5.0)),
    st.builds(QuadraticInverse, a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0)),
)


class TestConfig:
    def test_defaults_valid(self):
        cfg = reference.NumerovConfig()
        assert cfg.n_points % 2 == 1

    @pytest.mark.parametrize("kwargs", [{"n_points": 100}, {"n_points": 50}, {"box_padding": -1.0}, {"energy_tol": 0.0}])
    def test_invalid_config(self, kwargs):
        with pytest.raises(InvalidInput):
            reference.NumerovConfig(**kwargs)

    @pytest.mark.parametrize("name", ["box_padding", "energy_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(InvalidInput):
            reference.NumerovConfig(**{name: value})


class TestNumerovIntegration:
    def test_free_particle_sine(self):
        # U = 0 inside the box: psi proportional to sin(k x)
        spec = InfiniteSquareWell(L=1.0)
        k = math.pi
        grid = np.linspace(0.0, 1.0, 1001)
        psi = reference.numerov_integrate(spec, k * k / 2.0, grid, U)
        psi = psi / np.max(np.abs(psi))
        expected = np.sin(k * grid)
        assert float(np.max(np.abs(psi - expected))) < 1e-8

    def test_starts_at_zero(self):
        grid = np.linspace(0.0, 1.0, 101)
        psi = reference.numerov_integrate(InfiniteSquareWell(L=1.0), 1.0, grid, U)
        assert psi[0] == 0.0


def _counted_shots(monkeypatch) -> list[int]:
    """Counts the calls of both shot kernels, the counts' and Brent's, in its one item."""
    runs = [0]

    def counted(kernel):
        def run(b):
            runs[0] += 1
            return kernel(b)

        return run

    for name in ("_shot", "_ends"):
        monkeypatch.setattr(reference, name, counted(getattr(reference, name)))
    return runs


class TestBoundStates:
    def test_isw_spectrum(self):
        levels = reference.shoot_bound_states(InfiniteSquareWell(L=1.0), 3, units=U)
        for k, lv in enumerate(levels):
            exact = (k + 1) ** 2 * math.pi ** 2 / 2.0
            assert lv.energy == pytest.approx(exact, rel=1e-7)
            assert lv.node_count == k == lv.n_index

    def test_step_has_no_bound_levels(self):
        with pytest.raises(InvalidInput, match="no bound levels"):
            reference.shoot_bound_states(potentials.Step(u0=1.0), 1, units=U)

    def test_sho_half_integer_ladder(self):
        levels = reference.shoot_bound_states(HarmonicOscillator(omega=1.0), 3, units=U)
        for k, lv in enumerate(levels):
            assert lv.energy == pytest.approx(k + 0.5, abs=1e-6)

    def test_vwell_airy_ground_state(self):
        # lowest eigenvalue of U = |x| sits at (a1/2^(1/3)) with Airy zero a1
        (lv,) = reference.shoot_bound_states(VWell(u0=1.0), 1, units=U)
        assert lv.energy == pytest.approx(0.8086165174655018, abs=1e-5)

    def test_energies_strictly_increasing(self):
        levels = reference.shoot_bound_states(HarmonicOscillator(omega=1.0), 4, units=U)
        energies = [lv.energy for lv in levels]
        assert energies == sorted(energies)
        assert len(set(energies)) == len(energies)

    def test_invalid_n_max(self):
        with pytest.raises(InvalidInput):
            reference.shoot_bound_states(InfiniteSquareWell(L=1.0), 0, units=U)

    def test_steep_trig_wall_is_refused(self):
        # m u0 a^2 / hbar^2 above 6 pi^2 makes c = 1 + h^2 g / 12 negative
        # next to the wall at every grid step
        with pytest.raises(ConvergenceFailure, match=r"c = 1 \+ h\^2 g / 12 is -.* at x = "):
            reference.shoot_bound_states(TrigWell(u0=60.0, a=1.0), 1, units=U)

    def test_trig_wall_just_below_the_limit_keeps_its_levels(self):
        levels = reference.shoot_bound_states(TrigWell(u0=59.0, a=1.0), 2, units=U)
        assert [lv.node_count for lv in levels] == [0, 1]
        assert 19.0 < levels[0].energy < levels[1].energy

    def test_each_level_resumes_the_ladder_of_the_last(self, monkeypatch):
        # every shot counts, two a pass, whichever kernel runs it: 9 counts and
        # 44 mismatch evaluations; node count bisection from the floor took 166
        # passes here
        runs = _counted_shots(monkeypatch)
        reference.shoot_bound_states(InfiniteSquareWell(L=1.0), 5, units=U)
        assert runs[0] == 106

    @pytest.mark.parametrize("spec", _DEFAULT_WELLS, ids=repr)
    def test_at_most_25_passes_per_level(self, spec, monkeypatch):
        # a pass is a count or one mismatch evaluation, whose two shots count
        # as one whole pass even where they start inside the box
        shots = _counted_shots(monkeypatch)
        # levels come out in order and n_max only ends the loop, so level k
        # costs the difference between the first k + 1 and the first k
        totals = [0]
        for n_max in range(1, 6):
            shots[0] = 0
            reference.shoot_bound_states(spec, n_max, units=U)
            assert shots[0] % 2 == 0
            totals.append(shots[0] // 2)
        assert max(b - a for a, b in zip(totals, totals[1:])) <= 25

    @settings(max_examples=30, deadline=None)
    @given(_FAMILIES)
    def test_three_levels_rise_above_the_floor(self, spec):
        energies = [lv.energy for lv in reference.shoot_bound_states(spec, 3, units=U)]
        assert potentials.u_min(spec) < energies[0] < energies[1] < energies[2]

    @pytest.mark.parametrize("spec", [InfiniteSquareWell(L=2.0), TrigWell(u0=1000.0, a=1.0)])
    def test_a_finite_domain_is_the_box(self, spec):
        # E / u0 = 1e-3 puts the trig turning points within 0.02 of a / 2
        grid = reference._build_grid(spec, 1.0, reference.NumerovConfig(box_padding=1.0), U)
        assert (grid[0], grid[-1]) == (0.0, spec.domain().hi)


# -- the oracle against exact spectra ---------------------------------------

# zeros of Ai and Ai' (Abramowitz & Stegun table 10.13)
_AIRY_ZEROS = (-2.338107410459767, -4.087949444130971)
_AIRY_PRIME_ZEROS = (-1.018792971647471, -3.248197582179837, -4.820099211178735)


def _poschl_teller(u0: float, a: float, k: int) -> float:
    # u0*cot^2(pi x/a) = u0*csc^2(pi x/a) - u0, with lam*(lam-1) = 2 u0 a^2 / pi^2
    lam = 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * u0 * a * a / math.pi ** 2))
    return math.pi ** 2 / (2.0 * a * a) * (k + lam) ** 2 - u0


def _radial_oscillator(A: float, B: float, k: int) -> float:
    # A*x^2 + B/x^2 on x > 0: omega = sqrt(2A), ell*(ell+1)/2 = B
    ell = 0.5 * (-1.0 + math.sqrt(1.0 + 8.0 * B))
    return math.sqrt(2.0 * A) * (2 * k + ell + 1.5)


def _vwell(u0: float, k: int) -> float:
    # even states at zeros of Ai', odd ones at zeros of Ai
    zeros = _AIRY_PRIME_ZEROS if k % 2 == 0 else _AIRY_ZEROS
    return -zeros[k // 2] * (u0 * u0 / 2.0) ** (1.0 / 3.0)


_EXACT = [
    (TrigWell(u0=1.0, a=1.0), [_poschl_teller(1.0, 1.0, k) for k in range(4)]),
    (TrigWell(u0=3.0, a=2.0), [_poschl_teller(3.0, 2.0, k) for k in range(4)]),
    (ParabolicWell(u0=1.0, a=1.0), [_radial_oscillator(1.0, 1.0, k) - 2.0 for k in range(4)]),
    (ParabolicWell(u0=2.0, a=0.5), [_radial_oscillator(8.0, 0.5, k) - 4.0 for k in range(4)]),
    # strong poles: c / x^2 = 1e4 max(E, 1) lies right of the left turning
    # point on the lower rungs, so the box starts where U itself reaches that
    (ParabolicWell(u0=1e6, a=1.0), [_radial_oscillator(1e6, 1e6, k) - 2e6 for k in range(4)]),
    (ParabolicWell(u0=1e8, a=1.0), [_radial_oscillator(1e8, 1e8, k) - 2e8 for k in range(4)]),
    (ParabolicWell(u0=1e12, a=1.0), [_radial_oscillator(1e12, 1e12, k) - 2e12 for k in range(4)]),
    (QuadraticInverse(a=1.0, b=1.0), [_radial_oscillator(1.0, 1.0, k) for k in range(4)]),
    (QuadraticInverse(a=0.5, b=3.0), [_radial_oscillator(0.5, 3.0, k) for k in range(4)]),
    # levels below 1 share the pole clip, so boxes differ only at the right end
    (QuadraticInverse(a=0.02, b=0.5), [_radial_oscillator(0.02, 0.5, k) for k in range(4)]),
    (VWell(u0=1.0), [_vwell(1.0, k) for k in range(4)]),
    (VWell(u0=2.5), [_vwell(2.5, k) for k in range(4)]),
]


# level 4 of the same wells and of the oscillator; its wider boxes rescale
# psi many times per pass, which once underflowed the early oscillations
_LEVEL_4 = [
    (TrigWell(u0=1.0, a=1.0), _poschl_teller(1.0, 1.0, 4)),
    (TrigWell(u0=3.0, a=2.0), _poschl_teller(3.0, 2.0, 4)),
    (ParabolicWell(u0=1.0, a=1.0), _radial_oscillator(1.0, 1.0, 4) - 2.0),
    (ParabolicWell(u0=2.0, a=0.5), _radial_oscillator(8.0, 0.5, 4) - 4.0),
    (QuadraticInverse(a=1.0, b=1.0), _radial_oscillator(1.0, 1.0, 4)),
    (QuadraticInverse(a=0.5, b=3.0), _radial_oscillator(0.5, 3.0, 4)),
    (QuadraticInverse(a=0.02, b=0.5), _radial_oscillator(0.02, 0.5, 4)),
    (VWell(u0=1.0), _vwell(1.0, 4)),
    (VWell(u0=2.5), _vwell(2.5, 4)),
    (HarmonicOscillator(omega=1.0), 4.5),
]


class TestExactSpectra:
    @pytest.mark.parametrize("spec, exact", _EXACT, ids=[repr(spec) for spec, _ in _EXACT])
    def test_levels_0_to_3(self, spec, exact):
        levels = reference.shoot_bound_states(spec, 4, units=U)
        assert [lv.energy for lv in levels] == pytest.approx(exact, rel=5e-5)

    @pytest.mark.parametrize("spec, exact", _LEVEL_4, ids=[repr(spec) for spec, _ in _LEVEL_4])
    def test_level_4(self, spec, exact):
        levels = reference.shoot_bound_states(spec, 5, units=U)
        assert levels[4].energy == pytest.approx(exact, rel=5e-5)

    def test_weak_pole_in_a_wide_box(self):
        # u0 (1/x - x)^2 = 0.05 x^2 + 0.05 / x^2 - 0.1; the pole clip limits
        # the oracle to about 4e-4 on this weak pole, whatever the grid
        levels = reference.shoot_bound_states(
            ParabolicWell(u0=0.05, a=1.0), 5, reference.NumerovConfig(box_padding=10.0), U
        )
        exact = [_radial_oscillator(0.05, 0.05, k) - 0.1 for k in range(5)]
        assert [lv.energy for lv in levels] == pytest.approx(exact, rel=5e-4)


# -- matching refinement against node-count bisection -----------------------


def _bisected_levels(spec, n_max, config, units):
    """Levels as node-count bisection found them before the matching
    refinement: each level bisects the count transition k -> k+1 from the
    floor, in the box of the ladder rung that first shows more than k nodes."""
    floor = potentials.u_min(spec)
    scale = spec.energy_scale(units)
    levels = []
    e_lo, e_hi = floor + 1e-9 * scale, floor + scale

    def box(E):
        grid = reference._build_grid(spec, E, config, units)
        return reference._potential_on_grid(spec, grid, units), grid[1] - grid[0]

    u, h = box(e_hi)

    def nodes(E):
        return _stored_count(u, E, h, units)

    for k in range(n_max):
        while nodes(e_hi) <= k:
            e_hi = floor + (e_hi - floor) * 2.0
            u, h = box(e_hi)
        lo, hi = e_lo, e_hi
        while hi - lo > config.energy_tol * (1.0 + abs(lo)):
            mid = 0.5 * (lo + hi)
            if nodes(mid) > k:
                hi = mid
            else:
                lo = mid
        levels.append(0.5 * (lo + hi))
    return levels


_BOXES = [(spec, reference.NumerovConfig()) for spec in _DEFAULT_WELLS] + [
    (ParabolicWell(u0=0.05, a=1.0), reference.NumerovConfig(box_padding=10.0)),
    (parse_potential_spec("expr:0.5*x^2;domain=-12..12"), reference.NumerovConfig()),
    # unpadded boxes grow enough from rung to rung that the last level's
    # upper end counts more than k nodes in the next box
    (VWell(u0=1.0), reference.NumerovConfig(box_padding=0.0)),
    (ParabolicWell(u0=1.0, a=1.0), reference.NumerovConfig(box_padding=0.0)),
]


class TestMatchingRefinement:
    @pytest.fixture(scope="class")
    def bisected(self):
        return {repr((spec, config)): _bisected_levels(spec, 4, config, U) for spec, config in _BOXES}

    @pytest.mark.parametrize("spec, config", _BOXES, ids=[repr(box) for box in _BOXES])
    def test_the_box_eigenvalue_is_unchanged(self, spec, config, bisected):
        levels = reference.shoot_bound_states(spec, 4, config, U)
        for lv, old in zip(levels, bisected[repr((spec, config))]):
            assert abs(lv.energy - old) <= 2.0 * config.energy_tol * (1.0 + abs(old))

    def test_counts_refine_where_the_mismatch_shows_no_sign_change(self, bisected, monkeypatch):
        spec, config = _BOXES[1]
        monkeypatch.setattr(reference, "_mismatch", lambda *args: 1.0)
        levels = reference.shoot_bound_states(spec, 4, config, U)
        for lv, old in zip(levels, bisected[repr((spec, config))]):
            assert abs(lv.energy - old) <= 2.0 * config.energy_tol * (1.0 + abs(old))

    @pytest.mark.parametrize("m", [500, 2000, 3900])
    def test_mismatch_vanishes_at_the_box_eigenvalue(self, m):
        # the box eigenvalue does not depend on where the two shots meet
        spec, units = InfiniteSquareWell(L=1.0), U
        grid = reference._build_grid(spec, 1.0, reference.NumerovConfig(), units)
        u, h = reference._potential_on_grid(spec, grid, units), grid[1] - grid[0]
        energy = reference.shoot_bound_states(spec, 1, units=units)[0].energy
        hk = h * math.pi
        assert abs(reference._mismatch(u, energy, h, units, m, hk)) < 1e-8
        below = reference._mismatch(u, energy - 1e-3, h, units, m, hk)
        above = reference._mismatch(u, energy + 1e-3, h, units, m, hk)
        assert below * above < 0.0


def _psi_mismatch(u, E, h, units, m, hk):
    """The mismatch as the shots on psi itself computed it, before they ran on
    y = c psi."""
    c = 1.0 + h * h * ((2.0 * units.mass / (units.hbar * units.hbar)) * (E - u)) / 12.0
    c, a = c.tolist(), (12.0 - 10.0 * c).tolist()

    def shot(c, a):
        prev, cur = 0.0, 1e-6
        for c_prev, a_cur, c_next in zip(c, a[1:], c[2:]):
            prev, cur = cur, (a_cur * cur - c_prev * prev) / c_next
            if cur > 1e100 or cur < -1e100:
                prev, cur = prev / 1e100, cur / 1e100
        return prev, cur

    l0, l1 = shot(c[:m + 2], a[:m + 2])
    r1, r0 = shot(c[:m - 1:-1], a[:m - 1:-1])
    theta_l = math.atan2((l1 - l0) / hk, 0.5 * (l0 + l1))
    return math.sin(math.atan2((r1 - r0) / hk, 0.5 * (r0 + r1)) - theta_l)


class TestMismatchOnY:
    @pytest.mark.parametrize("spec", _DEFAULT_WELLS, ids=repr)
    def test_agrees_with_the_shots_on_psi(self, spec, monkeypatch):
        # each level's own box, matching point and hk, as the refinement used them
        groups = {}
        mismatch = reference._mismatch

        def recorded(u, E, h, units, m, hk):
            groups.setdefault((id(u), m, hk), ((u, h, m, hk), []))[1].append(E)
            return mismatch(u, E, h, units, m, hk)

        monkeypatch.setattr(reference, "_mismatch", recorded)
        levels = reference.shoot_bound_states(spec, 4, units=U)
        for lv in levels:
            # the refinement began with f(lo) and f(hi), so the level lies
            # within the energies its own setup was tried at
            ((u, h, m, hk),) = [s for s, tried in groups.values() if min(tried) <= lv.energy <= max(tried)]
            for f in (1.0, 1.0 - 1e-3, 1.0 + 1e-3, 1.0 - 1e-6, 1.0 + 1e-6):
                E = lv.energy * f
                old, new = _psi_mismatch(u, E, h, U, m, hk), mismatch(u, E, h, U, m, hk)
                assert abs(new - old) <= 1e-9
                if abs(old) > 1e-6:
                    assert (new > 0.0) == (old > 0.0)


class TestTrimmedShots:
    @pytest.mark.parametrize(
        "spec", _DEFAULT_WELLS + [HarmonicOscillator(omega=0.5), ParabolicWell(u0=0.05, a=1.0)], ids=repr
    )
    def test_agree_with_the_shots_from_the_walls(self, spec, monkeypatch):
        # each level's own trimmed box, matching point and hk, as the refinement
        # used them; the trimmed box is a view of the whole one
        groups = {}
        mismatch = reference._mismatch

        def recorded(u, E, h, units, m, hk):
            groups.setdefault((id(u), m, hk), ((u, h, m, hk), []))[1].append(E)
            return mismatch(u, E, h, units, m, hk)

        monkeypatch.setattr(reference, "_mismatch", recorded)
        levels = reference.shoot_bound_states(spec, 4, units=U)
        skipped = 0
        for lv in levels:
            ((u, h, m, hk),) = [s for s, tried in groups.values() if min(tried) <= lv.energy <= max(tried)]
            whole = u.base
            start = (u.__array_interface__["data"][0] - whole.__array_interface__["data"][0]) // u.itemsize
            skipped += len(whole) - len(u)
            for f in (1.0, 1.0 - 1e-3, 1.0 + 1e-3, 1.0 - 1e-6, 1.0 + 1e-6):
                E = lv.energy * f
                old, new = mismatch(whole, E, h, U, m + start, hk), mismatch(u, E, h, U, m, hk)
                assert abs(new - old) <= 1e-10
                if abs(old) > 1e-6:
                    assert (new > 0.0) == (old > 0.0)
        # the square and trig wells have no decaying tail to cut
        assert (skipped > 0) == (spec.kind not in ("isw", "trig"))


def _ladder_shots(spec):
    """The refinement's setup on each rung floor + scale 2^j, j = 0..4, of the ladder: the rung's
    box trimmed about the matching point at the rung, and energies up to the rung."""
    floor, scale = potentials.u_min(spec), spec.energy_scale(U)
    for j in range(5):
        top = floor + scale * 2.0 ** j
        grid = reference._build_grid(spec, top, reference.NumerovConfig(), U)
        u, h = reference._potential_on_grid(spec, grid, U), grid[1] - grid[0]
        hk = h * math.sqrt(2.0 * U.mass * (top - floor)) / U.hbar
        for f in (0.1, 0.4, 0.7, 1.0):
            E = floor + f * (top - floor)
            m = int(np.flatnonzero(u[1:-1] <= max(E, u[1:-1].min()))[-1]) + 1
            m = min(max(m, 2), len(u) - 4)
            start, stop = reference._live_span(u, top, h, U, m, m)
            yield u[start:stop], E, h, m - start, hk


class TestLinearEnds:
    # both kernels round differently; on the isw and trig boxes, whose shots run the whole box,
    # each is up to 1e-11 from the same recurrence in 64-bit-mantissa arithmetic
    TOL = 1e-10

    @pytest.mark.parametrize("spec", _DEFAULT_WELLS, ids=repr)
    def test_ends_are_the_shots_values_up_to_a_positive_factor(self, spec):
        for u, E, h, m, _ in _ladder_shots(spec):
            _, b = reference._weights(u, E, h, U)
            for steps in (b[:m], b[:m:-1]):
                shot = reference._shot(steps.tolist())
                assert reference._shot(memoryview(steps)) == shot
                (y0, y1), (_, s0, s1) = reference._ends(memoryview(steps)), shot
                norm = math.hypot(y0, y1) * math.hypot(s0, s1)
                assert abs(y0 * s1 - y1 * s0) <= self.TOL * norm and y0 * s0 + y1 * s1 > 0.0

    @pytest.mark.parametrize("spec", _DEFAULT_WELLS, ids=repr)
    def test_mismatch_is_the_matched_mismatch(self, spec):
        for u, E, h, m, hk in _ladder_shots(spec):
            assert abs(reference._mismatch(u, E, h, U, m, hk) - reference._match(u, E, h, U, m, hk)[1]) <= self.TOL

    def test_overflowing_ends_fall_back_to_the_ratio_kernel(self):
        # c = 1 + h^2 g / 12 is a multiple of 2^-53 where it is below 1/2, so it cannot
        # come nearer 0; at about 1e-14 on the 30 points next to the left wall, b is
        # about 1.2e15 there and y passes 1e308 on the way to the matching point
        u = np.zeros(101)
        u[1:31] = 6.0 * (1.0 - 1e-14)  # c = 1 - u / 6 at E = 0 with h = hbar = m = 1
        c, b = reference._weights(u, 0.0, 1.0, U)
        assert 0.0 < c[1:31].max() < 1e-13
        assert not math.isfinite(sum(reference._ends(memoryview(b[:60]))))
        expected = reference._match(u, 0.0, 1.0, U, 60, 0.5)[1]
        assert math.isfinite(expected) and reference._mismatch(u, 0.0, 1.0, U, 60, 0.5) == expected


# -- the float recurrence against the numpy loop it replaced -----------------


def _numpy_numerov(u, E, h, units):
    """The recurrence as numerov_integrate ran it on numpy scalars."""
    g = (2.0 * units.mass / (units.hbar * units.hbar)) * (E - u)
    c = 1.0 + h * h * g / 12.0
    psi = np.zeros(len(u))
    psi[0] = 0.0
    psi[1] = 1e-6
    for i in range(1, len(u) - 1):
        psi[i + 1] = ((12.0 - 10.0 * c[i]) * psi[i] - c[i - 1] * psi[i - 1]) / c[i + 1]
        if abs(psi[i + 1]) > 1e100:
            psi[: i + 2] /= 1e100
    return psi


def _stored_count(u, E, h, units) -> int:
    """Sign changes of psi shot from the left wall over the whole box, the
    right wall included, counted on float values as node counts once were:
    the number of box eigenvalues below E. Each step rescales by powers of
    two, which is exact, so that no product or quotient overflows, whatever
    the table."""
    c = reference._stencil(u, E, h, units)
    a = (12.0 - 10.0 * c).tolist()
    c = c.tolist() if c.all() else list(c)
    prev, cur, sign, nodes = 0.0, 1e-6, 1, 0
    for c_prev, a_cur, c_next in zip(c, a[1:], c[2:]):
        shift = -math.frexp(max(abs(prev), abs(cur)))[1]
        prev, cur = math.ldexp(prev, shift), math.ldexp(cur, shift)
        mantissa, shift = math.frexp(a_cur * cur - c_prev * prev)
        prev, cur = math.ldexp(cur, -shift), mantissa / c_next
        if cur * sign < 0:
            sign, nodes = -sign, nodes + 1
    return nodes


def _exact_count(u, E, h, units) -> int:
    """What _stored_count counts, in exact rational arithmetic on the same
    float coefficients: no value overflows, whatever the table."""
    c = reference._stencil(u, E, h, units)
    a = [Fraction(x) for x in (12.0 - 10.0 * c).tolist()]
    c = [Fraction(x) for x in c.tolist()]
    prev, cur, sign, nodes = Fraction(0), Fraction(1), 1, 0
    for c_prev, a_cur, c_next in zip(c, a[1:], c[2:]):
        prev, cur = cur, (a_cur * cur - c_prev * prev) / c_next
        if cur * sign < 0:
            sign, nodes = -sign, nodes + 1
    return nodes


def _bits(a: np.ndarray) -> list[int]:
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


_UNITS = st.builds(UnitSystem, hbar=st.floats(0.2, 5.0), mass=st.floats(0.2, 5.0))
_MAGNITUDES = st.sampled_from([1.0, 1e3, 1e30, 1e150, 1e300])


@st.composite
def tabulated(draw):
    """Random U tables: smooth wells, spiky tables that overflow the
    recurrence, and tables with a point where c = 1 + h^2 g / 12 is zero
    or within rounding of it."""
    n = draw(st.integers(2, 200))
    scale = draw(_MAGNITUDES)
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))) * scale
    E = draw(st.floats(-2.0, 2.0)) * draw(_MAGNITUDES)
    h = draw(st.floats(1e-4, 1.0))
    units = draw(_UNITS)
    if draw(st.booleans()) and n > 2:  # U at one point where c == 0
        u[draw(st.integers(0, n - 1))] = E + 12.0 / (h * h * 2.0 * units.mass / (units.hbar * units.hbar))
    return u, E, h, units


_WELLS = st.one_of(
    st.builds(InfiniteSquareWell, L=st.floats(0.1, 10.0)),
    st.builds(HarmonicOscillator, omega=st.floats(0.1, 10.0)),
    st.builds(TrigWell, u0=st.floats(0.1, 10.0), a=st.floats(0.2, 5.0)),
    st.builds(VWell, u0=st.floats(0.1, 10.0)),
    st.builds(ParabolicWell, u0=st.floats(0.1, 10.0), a=st.floats(0.2, 5.0)),
    st.builds(QuadraticInverse, a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0)),
    st.floats(0.1, 10.0).map(lambda c: parse_potential_spec(f"expr:{c!r}*x^4;domain=-3..3")),
)


class TestFloatRecurrence:
    @settings(max_examples=200, deadline=None)
    @given(tabulated())
    # hbar ** 2 != hbar * hbar here: the stencil squares hbar by multiplying
    @example((np.array([0.0, 0.0, 1.0]), 0.0, 1.0, UnitSystem(hbar=0.5301425271088089)))
    def test_equals_numpy_loop_bit_for_bit(self, case):
        u, E, h, units = case
        with np.errstate(all="ignore"):
            expected = _numpy_numerov(u, E, h, units)
            psi = reference._recurrence(u, E, h, units)
        assert _bits(psi) == _bits(expected)

    @settings(max_examples=60, deadline=None)
    @given(_WELLS, st.floats(1e-3, 200.0), st.integers(50, 600), _UNITS)
    def test_numerov_integrate_on_wells(self, spec, height, half, units):
        E = potentials.u_min(spec) + height
        config = reference.NumerovConfig(n_points=2 * half + 1)
        grid = reference._build_grid(spec, E, config, units)
        u = reference._potential_on_grid(spec, grid, units)
        h = grid[1] - grid[0]
        with np.errstate(all="ignore"):
            expected = _numpy_numerov(u, E, h, units)
            psi = reference.numerov_integrate(spec, E, grid, units)
        assert type(psi) is np.ndarray and psi.dtype == np.float64
        assert _bits(psi) == _bits(expected)

    @settings(max_examples=60, deadline=None)
    @given(_WELLS, st.floats(0.1, 30.0), st.floats(0.0, 1.0), st.integers(50, 150), _UNITS)
    def test_match_counts_the_box_eigenvalues_below_E(self, spec, rung, f, half, units):
        # a box of the ladder's rung floor + rung * scale, counted at E below it
        # from every matching point the kernel allows
        floor, scale = potentials.u_min(spec), spec.energy_scale(units)
        config = reference.NumerovConfig(n_points=2 * half + 1)
        grid = reference._build_grid(spec, floor + rung * scale, config, units)
        u = reference._potential_on_grid(spec, grid, units)
        h, E = grid[1] - grid[0], floor + f * rung * scale
        assume(reference._stencil(u, E, h, units)[1:].min() > 0.0)
        count = _stored_count(u, E, h, units)
        assert [reference._match(u, E, h, units, m, 1.0)[0] for m in range(2, len(u) - 3)] == [count] * (len(u) - 5)

    @pytest.mark.parametrize(
        "b, count",
        [
            ([0.0], 0),  # y: 0, 1e-6, 0
            ([-2.0, math.nan, 1.0], 1),  # y: 0, 1e-6, -2e-6, nan, nan
            ([0.0, 5.0], 1),  # y: 0, 1e-6, 0, -1e-6, -5e-6
        ],
    )
    def test_zeros_and_nan_carry_no_sign(self, b, count):
        assert reference._shot(b)[0] == count

    @settings(max_examples=100, deadline=None)
    @given(tabulated())
    @example((np.zeros(20), 1e300, 1.0, UnitSystem()))  # y grows tenfold a step; psi overflows
    def test_match_counts_without_a_rescale(self, case):
        # the shots keep only ratios of y, so tables on which psi and y overflow
        # need no rescale; _stored_count overflows on some of them
        u, E, h, units = case
        with np.errstate(all="ignore"):
            assume(len(u) >= 6 and reference._stencil(u, E, h, units)[1:].min() > 0.0)
        count = _exact_count(u, E, h, units)
        for m in range(2, len(u) - 3):
            nodes, mismatch = reference._match(u, E, h, units, m, 1.0)
            assert nodes == count and math.isfinite(mismatch)

    @settings(max_examples=200, deadline=None)
    @given(tabulated())
    @example((np.zeros(20), 1e300, 1.0, UnitSystem()))  # psi grows by 1e302 a step
    def test_stored_count_is_the_exact_count(self, case):
        u, E, h, units = case
        with np.errstate(all="ignore"):
            assume(reference._stencil(u, E, h, units)[1:].min() > 0.0)
        assert _stored_count(u, E, h, units) == _exact_count(u, E, h, units)

    @pytest.mark.parametrize(
        "b",
        [
            [0.0],  # y: 0, 1, 0
            [0.0, 0.0],  # y: 0, 1, 0, -1
            [2.0, 2.5],  # y: 0, 1, 2, 4
            [2.0, -0.25],  # y: 0, 1, 2, -1.5
            [0.5, 0.0],  # y: 0, 1, 0.5, -1
        ],
    )
    def test_shot_rebuilds_its_last_two_values(self, b):
        # from its last ratio, up to a positive factor, however y ended
        y = [0.0, 1.0]
        for b_cur in b:
            y.append(b_cur * y[-1] - y[-2])
        _, y0, y1 = reference._shot(b)
        assert y0 * y[-1] == y1 * y[-2] and y0 * y[-2] + y1 * y[-1] > 0.0
        assert max(abs(y0), abs(y1)) == 1.0


def _box(source: str, E: float):
    spec = parse_potential_spec(source)
    grid = reference._build_grid(spec, E, reference.NumerovConfig(), U)
    return reference._potential_on_grid(spec, grid, U), grid[1] - grid[0]


class TestTrimmedCounts:
    @pytest.mark.parametrize(
        "source, E, count",
        [
            ("expr:(x^2-9)^2;domain=-8..8", 5.0, 2),  # a window about the lowest U counts 1
            ("expr:(x^2-9)^2;domain=-8..8", 13.0, 4),
            ("expr:(x^2-4)^2;domain=-6..6", 2.7624125, 1),  # between the split ground pair
            ("expr:(x^2-4)^2;domain=-6..6", 5.0, 2),
            ("expr:(x^2-4)^2;domain=-6..6", 10.0, 4),
        ],
    )
    def test_every_pocket_counts(self, source, E, count, monkeypatch):
        u, h = _box(source, E)
        steps = 0
        shot = reference._shot

        def counted(b):
            nonlocal steps
            steps += len(b)
            return shot(b)

        monkeypatch.setattr(reference, "_shot", counted)
        assert _stored_count(u, E, h, U) == count
        assert reference._count(u, E, h, U, reference._count_span(u, E, h, U)) == count
        assert steps < len(u) - 2  # the walls' tails were cut

    @settings(max_examples=60, deadline=None)
    @given(_WELLS, st.floats(0.1, 30.0), st.floats(0.0, 1.0), st.integers(50, 600), _UNITS)
    def test_equals_the_count_over_the_whole_box(self, spec, rung, f, half, units):
        floor, scale = potentials.u_min(spec), spec.energy_scale(units)
        config = reference.NumerovConfig(n_points=2 * half + 1)
        grid = reference._build_grid(spec, floor + rung * scale, config, units)
        u = reference._potential_on_grid(spec, grid, units)
        h, E = grid[1] - grid[0], floor + f * rung * scale
        assume(reference._stencil(u, E, h, units)[1:].min() > 0.0)
        count = _stored_count(u, E, h, units)
        # the span of E itself, and the rung's, which the ladder gives every count on the rung
        for top in (E, floor + rung * scale):
            assert reference._count(u, E, h, units, reference._count_span(u, top, h, units)) == count


class TestStandardStep:
    def test_total_reflection_at_and_below(self):
        assert reference.standard_step_R(1.0, 1.0, U) == 1.0
        assert reference.standard_step_R(0.5, 1.0, U) == 1.0

    def test_above_barrier_value(self):
        # E = 2 U0: R = ((sqrt(2)-1)/(sqrt(2)+1))^2
        expected = ((math.sqrt(2.0) - 1.0) / (math.sqrt(2.0) + 1.0)) ** 2
        assert reference.standard_step_R(2.0, 1.0, U) == pytest.approx(expected, rel=1e-14)

    def test_vanishes_at_high_energy(self):
        assert reference.standard_step_R(1e6, 1.0, U) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInput):
            reference.standard_step_R(-1.0, 1.0, U)
        with pytest.raises(InvalidInput):
            reference.standard_step_R(1.0, 0.0, U)
