import dataclasses
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degelab.grid import build_radial_grid, grid_function
from degelab.problem import (
    BoundedRegimeError,
    CoefficientSpec,
    ConstantDatum,
    DatumFamily,
    DatumSpec,
    GradientSpace,
    LowerOrderTerm,
    NoAbsorption,
    PowerAbsorption,
    ProblemSpec,
    RadialPowerDatum,
    RegimeCase,
    SingularAbsorption,
    baseline_exponents,
    classify_regime,
    coefficient_eval,
    datum_eval,
    datum_in_class,
    datum_norm_exact,
    lower_order_eval,
    lower_order_inverse,
)


class TestCoefficient:
    def test_constant_when_not_degenerate(self):
        spec = CoefficientSpec(1.0, 1.0, 0.0)
        assert coefficient_eval(spec, 5.0) == 1.0

    def test_degenerate_value(self):
        spec = CoefficientSpec(1.0, 1.0, 1.0)
        assert coefficient_eval(spec, 3.0) == pytest.approx(0.25, rel=1e-14)

    def test_zero_state_gives_alpha(self):
        spec = CoefficientSpec(2.0, 2.0, 0.5)
        assert coefficient_eval(spec, 0.0) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CoefficientSpec(2.0, 1.0, 0.5)  # alpha > beta
        with pytest.raises(ValueError):
            CoefficientSpec(1.0, 1.0, -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, value):
        # numpy gives 1**nan = 1, so a nan gamma would solve as gamma = 0
        with pytest.raises(ValueError, match="gamma must be finite"):
            CoefficientSpec(1.0, 1.0, value)
        with pytest.raises(ValueError, match="alpha must be finite"):
            CoefficientSpec(value, value, 1.0)
        with pytest.raises(ValueError, match="beta must be finite"):
            CoefficientSpec(1.0, value, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.1, 5.0), extra=st.floats(0.0, 5.0),
           gamma=st.floats(0.0, 2.0), s=st.floats(-1e4, 1e4))
    def test_bounds_hold_everywhere(self, alpha, extra, gamma, s):
        spec = CoefficientSpec(alpha, alpha + extra, gamma)
        val = coefficient_eval(spec, s)
        floor = alpha / (1.0 + abs(s)) ** gamma
        assert floor * (1 - 1e-12) <= val <= spec.beta * (1 + 1e-12)


class TestLowerOrder:
    def test_odd_power(self):
        assert lower_order_eval(PowerAbsorption(3.0), -2.0) == pytest.approx(-8.0)

    def test_singular_value(self):
        assert lower_order_eval(SingularAbsorption(1.0), 0.75) == pytest.approx(3.0)

    def test_absent_term(self):
        assert lower_order_eval(NoAbsorption(), 42.0) == 0.0

    def test_singular_domain_errors(self):
        term = SingularAbsorption(1.0)
        with pytest.raises(ValueError):
            lower_order_eval(term, 1.0)
        with pytest.raises(ValueError):
            lower_order_eval(term, -0.1)

    @given(p=st.floats(0.25, 5.0), s=st.floats(-100.0, 100.0))
    def test_power_is_odd(self, p, s):
        g = PowerAbsorption(p)
        assert lower_order_eval(g, -s) == pytest.approx(-lower_order_eval(g, s), abs=1e-12)

    @settings(deadline=None)
    @given(p=st.floats(0.25, 5.0),
           a=st.floats(-50.0, 50.0), b=st.floats(-50.0, 50.0))
    def test_power_monotone(self, p, a, b):
        g = PowerAbsorption(p)
        lo, hi = min(a, b), max(a, b)
        assert lower_order_eval(g, lo) <= lower_order_eval(g, hi) + 1e-12

    def test_singular_strictly_increasing(self):
        term = SingularAbsorption(2.0)
        s = np.linspace(0.0, 2.0 - 1e-6, 100)
        vals = lower_order_eval(term, s)
        assert np.all(np.diff(vals) > 0)


class TestLowerOrderInverse:
    def test_examples(self):
        assert lower_order_inverse(SingularAbsorption(1.0), 3.0) == pytest.approx(0.75)
        assert lower_order_inverse(SingularAbsorption(1.0), 0.0) == 0.0
        assert lower_order_inverse(SingularAbsorption(2.0), 1.0) == pytest.approx(1.0)

    @settings(deadline=None)
    @given(sigma=st.floats(0.1, 10.0), frac=st.floats(0.0, 1.0))
    def test_round_trip(self, sigma, frac):
        term = SingularAbsorption(sigma)
        s = frac * (sigma - 1e-6 * sigma)
        y = lower_order_eval(term, s)
        back = lower_order_inverse(term, y)
        assert back == pytest.approx(s, rel=1e-12, abs=1e-12)


class TestDatum:
    def test_examples(self):
        assert datum_eval(DatumSpec(ConstantDatum(1.0)), 0.3) == 1.0
        assert datum_eval(DatumSpec(RadialPowerDatum(1.0, 1.0)), 0.5) == pytest.approx(2.0)
        assert datum_eval(DatumSpec(RadialPowerDatum(2.0, 0.5)), 0.25) == pytest.approx(4.0)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            DatumSpec(ConstantDatum(amplitude))
        with pytest.raises(ValueError, match="amplitude must be finite"):
            DatumSpec(RadialPowerDatum(amplitude, 1.0), 1.0)

    def test_singular_origin_rejected(self):
        with pytest.raises(ValueError, match="cell centers"):
            datum_eval(DatumSpec(RadialPowerDatum(1.0, 1.0)), 0.0)

    def test_norm_constant(self):
        spec = DatumSpec(ConstantDatum(1.0))
        assert datum_norm_exact(spec, 1.0, 3, 1.0) == pytest.approx(4 * math.pi / 3)

    def test_norm_diverges_at_critical_power(self):
        spec = DatumSpec(RadialPowerDatum(1.0, 3.0))
        assert datum_norm_exact(spec, 1.0, 3, 1.0) == math.inf

    def test_norm_radial_power(self):
        spec = DatumSpec(RadialPowerDatum(1.0, 1.0))
        assert datum_norm_exact(spec, 2.0, 3, 1.0) == pytest.approx(4 * math.pi)

    @pytest.mark.parametrize("family,m,N,inside", [
        (RadialPowerDatum(1.0, 1.0), 2.0, 3, True),
        (RadialPowerDatum(1.0, 1.5), 2.0, 3, False),  # delta*m = N
        (RadialPowerDatum(1.0, 1.6), 2.0, 3, False),
        (RadialPowerDatum(1.0, 1.6), 2.0, 4, True),
        # finite norms that overflow a float
        (RadialPowerDatum(1e308, 2.0), 1.0, 3, True),
        (ConstantDatum(1e10), 40.0, 3, True),
    ], ids=["inside", "edge", "outside", "inside-in-4", "overflow-radial", "overflow-constant"])
    def test_claimed_class(self, family, m, N, inside):
        spec = ProblemSpec(N, 1.0, CoefficientSpec(1.0, 1.0, 1.0), datum=DatumSpec(family, m))
        assert datum_in_class(spec) is inside

    @pytest.mark.parametrize("family,m", [
        (ConstantDatum(2.5), 1.0),
        (RadialPowerDatum(1.0, 1.0), 2.0),
        (RadialPowerDatum(3.0, 2.0), 1.0),
    ])
    def test_norm_matches_grid_quadrature(self, family, m):
        spec = DatumSpec(family, m)
        exact = datum_norm_exact(spec, m, 3, 1.0)
        grid = build_radial_grid(3, 1.0, 4096, grading=2.0)
        f = grid_function(grid, lambda r: datum_eval(spec, r))
        approx = float(np.dot(grid.weights, np.abs(f.values) ** m))
        assert approx == pytest.approx(exact, rel=1e-2)


class TestProblemSpec:
    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError, match=">= 3"):
            ProblemSpec(2, 1.0, CoefficientSpec(1.0, 1.0, 0.5))

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be finite"):
            ProblemSpec(3, radius, CoefficientSpec(1.0, 1.0, 0.5))

    def test_singular_requires_nonnegative_datum(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, 0.5),
                        SingularAbsorption(1.0), DatumSpec(ConstantDatum(-1.0)))

    def test_every_field_is_a_number_a_string_or_a_spec(self):
        # a spec is plain data, so it can be stored, compared and hashed
        todo = [ProblemSpec, *typing.get_args(LowerOrderTerm), *typing.get_args(DatumFamily)]
        seen = set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            for name, hint in typing.get_type_hints(cls).items():
                union = typing.get_origin(hint) is typing.Union
                for member in typing.get_args(hint) if union else (hint,):
                    if member in (int, float, str):
                        continue
                    assert dataclasses.is_dataclass(member), f"{cls.__name__}.{name}: {hint}"
                    assert member.__dataclass_params__.frozen, member
                    todo.append(member)
        assert {CoefficientSpec, DatumSpec, NoAbsorption, ConstantDatum} <= seen

    def test_equal_specs_compare_and_hash_equal(self):
        def build():
            return ProblemSpec(3, 1.0, CoefficientSpec(1.0, 1.0, 1.0), PowerAbsorption(2.0),
                               DatumSpec(RadialPowerDatum(1.0, 2.0), 1.0))

        first, second = build(), build()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second, dataclasses.replace(first, radius=2.0)}) == 2


class TestClassifyRegime:
    def test_sobolev_case_small_datum_class(self):
        pred = classify_regime(0.5, 2.0, 1.0)
        assert pred.case is RegimeCase.DISTRIBUTIONAL_SOBOLEV
        assert pred.gradient_exponent == pytest.approx(8.0 / 7.0)
        assert pred.gradient_space is GradientSpace.SOBOLEV_STRICT

    def test_finite_energy_case(self):
        pred = classify_regime(1.0, 4.0, 1.5)
        assert pred.case is RegimeCase.FINITE_ENERGY
        assert pred.lebesgue_exponent == pytest.approx(6.0)
        assert pred.gradient_exponent == 2.0
        assert pred.gradient_space is GradientSpace.H1

    def test_entropy_case(self):
        pred = classify_regime(1.0, 1.0, 1.5)
        assert pred.case is RegimeCase.ENTROPY
        assert pred.gradient_space is GradientSpace.MARCINKIEWICZ

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            classify_regime(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            classify_regime(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            classify_regime(-0.5, 1.0, 1.0)

    @pytest.mark.parametrize("gamma,m", [(1.0, 1.5), (0.5, 2.0), (2.0, 3.0)])
    def test_cases_partition_contiguously(self, gamma, m):
        low = gamma / (m - 1)
        high = (gamma + 1) / (m - 1)
        ps = np.linspace(1e-6, 2 * high, 4001)
        cases = [classify_regime(gamma, p, m).case for p in ps]
        # contiguous blocks: entropy, then distributional, then finite energy
        order = {RegimeCase.ENTROPY: 0, RegimeCase.DISTRIBUTIONAL_SOBOLEV: 1,
                 RegimeCase.FINITE_ENERGY: 2}
        codes = [order[c] for c in cases]
        assert codes == sorted(codes)
        # boundary ownership is exact
        assert classify_regime(gamma, low, m).case is RegimeCase.ENTROPY
        assert classify_regime(gamma, low * (1 + 1e-12), m).case is \
            RegimeCase.DISTRIBUTIONAL_SOBOLEV
        assert classify_regime(gamma, high, m).case is RegimeCase.FINITE_ENERGY
        assert classify_regime(gamma, high * (1 - 1e-12), m).case is \
            RegimeCase.DISTRIBUTIONAL_SOBOLEV

    def test_coercive_limit_boundaries(self):
        # gamma = 0: entropy case disappears (boundary at p = 0) and the
        # finite-energy boundary sits at 1/(m-1)
        m = 1.5
        assert classify_regime(0.0, 1e-9, m).case is RegimeCase.DISTRIBUTIONAL_SOBOLEV
        boundary = 1.0 / (m - 1)
        assert classify_regime(0.0, boundary, m).case is RegimeCase.FINITE_ENERGY
        assert classify_regime(0.0, boundary * (1 - 1e-12), m).case is \
            RegimeCase.DISTRIBUTIONAL_SOBOLEV

    def test_m_equal_one_split(self):
        gamma = 0.5
        assert classify_regime(gamma, gamma + 1.0, 1.0).case is RegimeCase.ENTROPY
        assert classify_regime(gamma, gamma + 1.0 + 1e-12, 1.0).case is \
            RegimeCase.DISTRIBUTIONAL_SOBOLEV


class TestBaselineExponents:
    def test_half_degenerate(self):
        base = baseline_exponents(0.5, 1.0, 3)
        assert base.r == pytest.approx(1.5)
        assert base.q == pytest.approx(1.0)
        assert base.m_threshold_low == pytest.approx(1.0)
        assert base.m_threshold_mid == pytest.approx(6.0 / 4.5)

    def test_fully_degenerate_vanishes(self):
        base = baseline_exponents(1.0, 1.0, 3)
        assert base.r == 0.0
        assert base.q == 0.0

    def test_five_dimensional(self):
        base = baseline_exponents(0.5, 2.0, 5)
        assert base.r == pytest.approx(5.0)
        assert base.q == pytest.approx(2.5)

    def test_bounded_regime_signalled(self):
        with pytest.raises(BoundedRegimeError, match="bounded regime"):
            baseline_exponents(0.5, 2.0, 3)

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError):
            baseline_exponents(0.5, 1.5, 3)  # m = N/2
