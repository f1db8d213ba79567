"""Tests for the DVFS operating-point layer (``repro.scenario.operating_point``).

Covers the :class:`OperatingPoint` container and its ``@V:F`` spec suffix,
the voltage-acceleration term of :class:`ArrheniusTimeScaling`, the
:class:`RetentionModel` idle-failure physics, hypothesis round-trip property
tests of the extended phase-spec mini-language (``parse(format(x)) == x``),
parse-error message snapshots, and the ``--grid`` alternate-separator
escaping convention.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aging.nbti import BOLTZMANN_EV, ReactionDiffusionSnmModel
from repro.aging.snm import default_snm_model
from repro.aging.stress import (
    DEFAULT_REFERENCE_FREQUENCY_GHZ,
    DEFAULT_REFERENCE_TEMPERATURE_C,
    DEFAULT_REFERENCE_VOLTAGE_V,
    DEVICE_TILE_ELEMENTS,
    ArrheniusTimeScaling,
    PhaseStress,
    aggregate_stress,
)
from repro.orchestration.sweep import split_grid_values
from repro.scenario import (
    LifetimeScenario,
    OperatingPoint,
    Phase,
    RetentionModel,
    parse_scenario_spec,
    reference_operating_point,
)
from repro.scenario.operating_point import (
    format_point_suffix,
    parse_point_suffix,
)


# --------------------------------------------------------------------------- #
# OperatingPoint container
# --------------------------------------------------------------------------- #
class TestOperatingPoint:
    def test_reference_point_is_reference(self):
        point = reference_operating_point()
        assert point.is_reference
        assert point.relative_frequency == 1.0
        assert point.voltage_v == DEFAULT_REFERENCE_VOLTAGE_V
        assert point.frequency_ghz == DEFAULT_REFERENCE_FREQUENCY_GHZ
        assert point.temperature_c == DEFAULT_REFERENCE_TEMPERATURE_C

    def test_relative_frequency_is_exactly_one_at_reference(self):
        # exact 1.0, not merely close: the wall-clock mapping divides by it
        assert OperatingPoint(frequency_ghz=1.0).relative_frequency == 1.0
        assert OperatingPoint(frequency_ghz=0.5).relative_frequency == 0.5

    @pytest.mark.parametrize("kwargs", [
        {"voltage_v": 0.0}, {"voltage_v": -1.0}, {"voltage_v": float("nan")},
        {"frequency_ghz": 0.0}, {"frequency_ghz": float("inf")},
        {"temperature_c": float("nan")},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OperatingPoint(**kwargs)

    def test_describe_round_trip(self):
        point = OperatingPoint(voltage_v=0.72, frequency_ghz=0.5,
                               temperature_c=45.0)
        assert OperatingPoint.from_description(point.describe()) == point

    def test_phase_resolves_omitted_point_to_reference(self):
        phase = Phase.active("lenet5", "int8", "none", 5)
        assert not phase.has_explicit_point
        assert phase.operating_point == OperatingPoint(
            temperature_c=phase.temperature_c)

    def test_naming_either_value_pins_both(self):
        phase = Phase.active("lenet5", "int8", "none", 5, voltage_v=0.8)
        assert phase.has_explicit_point
        assert phase.voltage_v == 0.8
        assert phase.frequency_ghz == DEFAULT_REFERENCE_FREQUENCY_GHZ


# --------------------------------------------------------------------------- #
# The ``@V:F`` suffix
# --------------------------------------------------------------------------- #
class TestPointSuffix:
    @pytest.mark.parametrize("text,expected", [
        ("0.72V:0.5GHz", (0.72, 0.5)),
        ("0.72:0.5", (0.72, 0.5)),
        ("0.72v:500MHz", (0.72, 0.5)),
        ("0.9V:1GHz", (0.9, 1.0)),
        ("1:2ghz", (1.0, 2.0)),
    ])
    def test_accepted_spellings(self, text, expected):
        assert parse_point_suffix(text, "token") == expected

    def test_format_is_parseable(self):
        suffix = format_point_suffix(0.72, 0.5)
        assert suffix == "@0.72V:0.5GHz"
        assert parse_point_suffix(suffix[1:], "token") == (0.72, 0.5)

    @pytest.mark.parametrize("text", ["0.72", "0.72V", ":0.5", "0.72:",
                                      "a:b", "0.72:fast", "-0.7:1", "0.7:-1"])
    def test_rejected_spellings(self, text):
        with pytest.raises(ValueError) as excinfo:
            parse_point_suffix(text, "token")
        assert "\n" not in str(excinfo.value)


# --------------------------------------------------------------------------- #
# Voltage acceleration in the stress aggregation
# --------------------------------------------------------------------------- #
class TestVoltageScaling:
    def test_reference_voltage_factor_is_exactly_one(self):
        scaling = ArrheniusTimeScaling()
        assert scaling.voltage_factor(scaling.reference_voltage_v) == 1.0
        assert scaling.time_factor(85.0, scaling.reference_voltage_v) == 1.0

    def test_none_voltage_matches_legacy_thermal_factor_bitwise(self):
        scaling = ArrheniusTimeScaling()
        for temperature in (25.0, 45.0, 85.0, 105.0):
            assert (scaling.time_factor(temperature)
                    == scaling.time_factor(temperature,
                                           scaling.reference_voltage_v))

    def test_overdrive_accelerates_undervolt_decelerates(self):
        scaling = ArrheniusTimeScaling()
        assert scaling.voltage_factor(1.0) > 1.0
        assert scaling.voltage_factor(0.72) < 1.0

    def test_voltage_and_temperature_compose_multiplicatively(self):
        scaling = ArrheniusTimeScaling()
        assert scaling.time_factor(45.0, 0.72) == pytest.approx(
            scaling.time_factor(45.0) * scaling.voltage_factor(0.72))

    def test_invalid_voltage_rejected(self):
        scaling = ArrheniusTimeScaling()
        with pytest.raises(ValueError):
            scaling.voltage_factor(0.0)
        with pytest.raises(ValueError):
            scaling.voltage_factor(float("nan"))

    def test_describe_round_trips_through_constructor(self):
        scaling = ArrheniusTimeScaling(voltage_acceleration_per_v=4.0,
                                       reference_voltage_v=0.8)
        assert ArrheniusTimeScaling(**scaling.describe()) == scaling

    def test_legacy_payload_without_voltage_keys_still_loads(self):
        legacy = {"activation_energy_ev": 0.1, "time_exponent": 1.0 / 6.0,
                  "reference_temperature_c": 85.0}
        scaling = ArrheniusTimeScaling(**legacy)
        assert scaling.reference_voltage_v == DEFAULT_REFERENCE_VOLTAGE_V

    def test_aggregate_stress_weights_voltage(self):
        duty = np.full(8, 0.7)
        low = [PhaseStress(duty, years=7.0, voltage_v=0.72)]
        ref = [PhaseStress(duty, years=7.0)]
        high = [PhaseStress(duty, years=7.0, voltage_v=1.0)]
        _, low_years = aggregate_stress(low)
        _, ref_years = aggregate_stress(ref)
        _, high_years = aggregate_stress(high)
        assert low_years < ref_years < high_years
        assert ref_years == 7.0  # bit-exact at the reference corner

    def test_phase_stress_rejects_bad_voltage(self):
        with pytest.raises(ValueError, match="voltage_v"):
            PhaseStress(np.zeros(4), years=1.0, voltage_v=-0.9)


# --------------------------------------------------------------------------- #
# The device axis: batched calls are the scalar calls, row by row
# --------------------------------------------------------------------------- #
#: A corner either exactly at the reference or anywhere off it.
corner_temperatures = st.one_of(st.just(DEFAULT_REFERENCE_TEMPERATURE_C),
                                st.floats(-40.0, 125.0))
corner_voltages = st.one_of(st.just(DEFAULT_REFERENCE_VOLTAGE_V),
                            st.floats(0.5, 1.1))
#: Held values a scenario can record: exact 0/1, TRBG expectations, NaN.
held_values = st.one_of(st.sampled_from([0.0, 1.0, float("nan")]),
                        st.floats(0.0, 1.0))


def whole_array_failure_probability(model, held, duty, snm_model, stressed_years,
                                    voltage_v, temperature_c, idle_years):
    """The untiled evaluation of ``RetentionModel.failure_probability``.

    One pass per side over whole ``(devices, cells)`` arrays, with the
    per-device corner terms as ``(devices, 1)`` columns: the arithmetic the
    tiled walk must reproduce bit for bit.
    """
    held = np.asarray(held, dtype=np.float64)
    duty = np.asarray(duty, dtype=np.float64)
    stressed_years, voltage_v, temperature_c, idle_years = (
        np.expand_dims(np.asarray(value, dtype=np.float64), -1)
        for value in (stressed_years, voltage_v, temperature_c, idle_years))
    worst = snm_model.worst_case_percent(stressed_years)
    best = snm_model.best_case_percent(stressed_years)
    kelvin = temperature_c + 273.15
    reference = model.reference_temperature_c + 273.15
    thermal = np.exp((model.activation_energy_ev / BOLTZMANN_EV)
                     * (1.0 / reference - 1.0 / kelvin))
    written = np.isfinite(held)
    probability = np.zeros(duty.shape)
    for value_probability, complement in ((held, False), (1.0 - held, True)):
        cells = np.flatnonzero(written & (value_probability != 0.0))
        if not cells.size:
            continue
        stress = duty[..., cells]
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = np.where(worst > best, np.log2(worst / best), 1.0)
            degradation = worst * np.power(
                np.clip(1.0 - stress if complement else stress, 0.0, 1.0), gamma)
        margin = ((voltage_v - model.retention_voltage_v)
                  - model.margin_loss_v_per_percent * degradation)
        with np.errstate(over="ignore", invalid="ignore"):
            rate = (model.attempts_per_year
                    * np.exp(-margin / model.voltage_scale_v) * thermal)
            probability[..., cells] += value_probability[cells] * (
                1.0 - np.exp(-rate * idle_years))
    probability = np.clip(probability, 0.0, 1.0)
    probability[..., ~written] = np.nan
    return probability


def whole_array_blend(phases, scaling):
    """The untiled stress blend: one outer-product temporary per phase."""
    weights = [phase.years * scaling.time_factor(phase.temperature_c,
                                                 phase.voltage_v)
               for phase in phases]
    effective_years = sum(weights)
    blend = np.multiply.outer(weights[0] / effective_years, phases[0].duty)
    for weight, phase in zip(weights[1:], phases[1:]):
        blend += np.multiply.outer(weight / effective_years, phase.duty)
    return blend, effective_years


def held_pattern(kind, cells, rng):
    """Held values of one idle phase, never-written (NaN) cells at both ends.

    ``expectations`` leaves every other cell written with a TRBG-style
    expectation (each side's cells are one contiguous run); ``bits`` and
    ``mixed`` scatter exact 0/1 values, expectations and NaN cells.
    """
    if kind == "expectations":
        held = rng.uniform(0.01, 0.99, cells)
    else:
        values = [0.0, 1.0] if kind == "bits" else [0.0, 1.0, 0.5, 0.25, 0.9]
        held = rng.choice(values, size=cells)
        held[rng.random(cells) < 0.05] = np.nan
    held[:3] = np.nan
    held[-2:] = np.nan
    return held


class TestDeviceAxis:
    SCALING = ArrheniusTimeScaling()
    MODEL = RetentionModel()

    @pytest.mark.parametrize("temperature,voltage", [
        ([85.0, 45.0], [0.9, float("inf")]),
        ([85.0, 45.0], [0.9, float("nan")]),
        ([85.0, 45.0], [0.9, 0.0]),
        ([85.0, float("inf")], [0.9, 0.8]),
        ([85.0, -300.0], [0.9, 0.8]),
    ])
    def test_time_factor_rejects_invalid_corner_arrays(self, temperature,
                                                       voltage):
        with pytest.raises(ValueError) as excinfo:
            self.SCALING.time_factor(np.asarray(temperature),
                                     np.asarray(voltage))
        assert "\n" not in str(excinfo.value)

    @settings(max_examples=60, deadline=None)
    @given(corners=st.lists(st.tuples(corner_temperatures, corner_voltages),
                            min_size=1, max_size=6))
    def test_time_factor_rows_equal_scalar_calls(self, corners):
        temperature, voltage = (np.asarray(values) for values in zip(*corners))
        batched = self.SCALING.time_factor(temperature, voltage)
        thermal = self.SCALING.time_factor(temperature)
        for row, (celsius, volts) in enumerate(corners):
            assert batched[row] == self.SCALING.time_factor(celsius, volts)
            assert thermal[row] == self.SCALING.time_factor(celsius)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           model=st.sampled_from([default_snm_model(),
                                  ReactionDiffusionSnmModel()]),
           held=st.lists(held_values, min_size=1, max_size=12),
           devices=st.integers(1, 5))
    def test_failure_probability_rows_equal_scalar_calls(self, data, model,
                                                         held, devices):
        held = np.asarray(held)
        duty = np.asarray(data.draw(st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=held.size,
                     max_size=held.size),
            min_size=devices, max_size=devices)))
        temperature, voltage = (np.asarray(values) for values in zip(*data.draw(
            st.lists(st.tuples(corner_temperatures, corner_voltages),
                     min_size=devices, max_size=devices))))
        stressed, idle = (np.asarray(data.draw(st.lists(
            st.floats(0.05, 10.0), min_size=devices, max_size=devices)))
            for _ in range(2))
        batched = self.MODEL.failure_probability(
            held, duty, model, stressed, voltage, temperature, idle)
        assert batched.shape == duty.shape
        for row in range(devices):
            scalar = self.MODEL.failure_probability(
                held, duty[row], model, float(stressed[row]),
                float(voltage[row]), float(temperature[row]), float(idle[row]))
            assert batched[row].tobytes() == scalar.tobytes()
        assert np.array_equal(np.isnan(batched[0]), np.isnan(held))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), phases=st.integers(1, 4), devices=st.integers(1, 5))
    def test_aggregate_stress_rows_equal_scalar_calls(self, data, phases,
                                                      devices):
        duties = [np.asarray(data.draw(st.lists(st.floats(0.0, 1.0),
                                                min_size=6, max_size=6)))
                  for _ in range(phases)]
        grids = []
        for _ in range(phases):
            temperature, voltage = (np.asarray(values) for values in zip(
                *data.draw(st.lists(st.tuples(corner_temperatures,
                                              corner_voltages),
                                    min_size=devices, max_size=devices))))
            years = np.asarray(data.draw(st.lists(
                st.floats(0.01, 7.0), min_size=devices, max_size=devices)))
            grids.append((years, temperature, voltage))
        duty, effective_years = aggregate_stress(
            [PhaseStress(phase_duty, years, temperature, voltage_v=voltage)
             for phase_duty, (years, temperature, voltage)
             in zip(duties, grids)], self.SCALING)
        assert duty.shape == (devices, 6)
        for row in range(devices):
            row_duty, row_years = aggregate_stress(
                [PhaseStress(phase_duty, float(years[row]),
                             float(temperature[row]),
                             voltage_v=float(voltage[row]))
                 for phase_duty, (years, temperature, voltage)
                 in zip(duties, grids)], self.SCALING)
            assert duty[row].tobytes() == row_duty.tobytes()
            assert effective_years[row] == row_years

    # Tiled walks against the whole-array arithmetic.  Cell counts span
    # several tiles of DEVICE_TILE_ELEMENTS and end in a partial tile, so
    # every tile boundary, the short last tile and both the sliced
    # (contiguous) and gathered (scattered) cell walks are covered.
    @staticmethod
    def corners(rng, devices):
        temperature = rng.uniform(-40.0, 125.0, devices)
        voltage = rng.uniform(0.55, 1.1, devices)
        temperature[::3] = DEFAULT_REFERENCE_TEMPERATURE_C
        voltage[1::3] = DEFAULT_REFERENCE_VOLTAGE_V
        return temperature, voltage

    @pytest.mark.parametrize("kind", ["bits", "expectations", "mixed"])
    @pytest.mark.parametrize("devices", [1, 5, 64])
    def test_failure_probability_tiles_match_whole_array(self, devices, kind):
        rng = np.random.default_rng(devices)
        tile = DEVICE_TILE_ELEMENTS // devices
        cells = 2 * tile + tile // 3 + 7
        held = held_pattern(kind, cells, rng)
        duty = rng.random((devices, cells))
        duty[:, :5] = (0.0, 1.0, 0.5, 0.0, 1.0)
        temperature, voltage = self.corners(rng, devices)
        stressed, idle = rng.uniform(0.05, 10.0, (2, devices))
        model = default_snm_model()
        expected = whole_array_failure_probability(
            self.MODEL, held, duty, model, stressed, voltage, temperature, idle)
        batched = self.MODEL.failure_probability(
            held, duty, model, stressed, voltage, temperature, idle)
        assert batched.tobytes() == expected.tobytes()
        for row in {0, devices // 2, devices - 1}:
            scalar = self.MODEL.failure_probability(
                held, duty[row], model, float(stressed[row]),
                float(voltage[row]), float(temperature[row]), float(idle[row]))
            assert scalar.tobytes() == expected[row].tobytes()

    @pytest.mark.parametrize("devices,cells,phases", [
        (1, DEVICE_TILE_ELEMENTS + 3, 14),     # one row over budget
        (7, DEVICE_TILE_ELEMENTS // 3 + 1, 9),  # 2-row blocks, 1-row tail
        (61, DEVICE_TILE_ELEMENTS // 5 + 11, 14),  # 4-row blocks, 1-row tail
        (64, 6, 3),                             # every row in one block
    ])
    def test_aggregate_stress_tiles_match_whole_array(self, devices, cells,
                                                      phases):
        rng = np.random.default_rng(cells)
        timeline = []
        for _ in range(phases):
            temperature, voltage = self.corners(rng, devices)
            timeline.append(PhaseStress(rng.random(cells),
                                        rng.uniform(0.01, 7.0, devices),
                                        temperature, voltage_v=voltage))
        expected, expected_years = whole_array_blend(timeline, self.SCALING)
        duty, effective_years = aggregate_stress(timeline, self.SCALING)
        assert duty.tobytes() == expected.tobytes()
        assert effective_years.tobytes() == expected_years.tobytes()
        for row in {0, devices // 2, devices - 1}:
            row_duty, row_years = aggregate_stress(
                [PhaseStress(phase.duty, float(phase.years[row]),
                             float(phase.temperature_c[row]),
                             voltage_v=float(phase.voltage_v[row]))
                 for phase in timeline], self.SCALING)
            assert row_duty.tobytes() == expected[row].tobytes()
            assert row_years == expected_years[row]


# --------------------------------------------------------------------------- #
# Retention model
# --------------------------------------------------------------------------- #
class TestRetentionModel:
    MODEL = RetentionModel()
    SNM = default_snm_model()

    def probability(self, held=1.0, duty=0.9, voltage=0.72, years=5.0,
                    temperature=45.0, idle=1.0):
        return self.MODEL.failure_probability(
            np.asarray([held]), np.asarray([duty]), self.SNM, years,
            voltage, temperature, idle)[0]

    def test_lower_voltage_raises_failure_probability(self):
        probabilities = [self.probability(voltage=v)
                         for v in (0.9, 0.8, 0.72, 0.65)]
        assert all(a < b for a, b in zip(probabilities, probabilities[1:]))

    def test_nominal_supply_is_negligible(self):
        assert self.probability(voltage=DEFAULT_REFERENCE_VOLTAGE_V) < 1e-3

    def test_held_value_selects_the_worn_side(self):
        # A cell that spent its life at duty 0.95 is much riskier holding a
        # '1' (its worn side) than a '0' (the fresh side).
        worn = self.probability(held=1.0, duty=0.95)
        fresh = self.probability(held=0.0, duty=0.95)
        assert worn > 10 * fresh

    def test_expectation_interpolates_between_sides(self):
        worn = self.probability(held=1.0, duty=0.95)
        fresh = self.probability(held=0.0, duty=0.95)
        mixed = self.probability(held=0.5, duty=0.95)
        assert mixed == pytest.approx(0.5 * worn + 0.5 * fresh)

    def test_longer_idle_and_more_aging_raise_probability(self):
        assert self.probability(idle=2.0) > self.probability(idle=1.0)
        assert self.probability(years=7.0) > self.probability(years=0.5)

    def test_hotter_idle_raises_probability(self):
        assert (self.probability(temperature=85.0)
                > self.probability(temperature=25.0))

    def test_nan_held_cells_propagate(self):
        result = self.MODEL.failure_probability(
            np.asarray([np.nan, 1.0]), np.asarray([0.5, 0.5]), self.SNM,
            5.0, 0.72, 45.0, 1.0)
        assert np.isnan(result[0]) and np.isfinite(result[1])

    def test_probability_is_clipped_to_unit_interval(self):
        value = self.probability(voltage=0.51, duty=1.0, years=7.0, idle=10.0)
        assert value == 1.0

    def test_describe_is_json_safe(self):
        import json

        json.dumps(self.MODEL.describe())


# --------------------------------------------------------------------------- #
# Hypothesis round-trips of the spec mini-language
# --------------------------------------------------------------------------- #
def _g_float(minimum, maximum):
    """Floats that survive the ``:g`` token formatting round trip exactly."""
    return st.floats(min_value=minimum, max_value=maximum,
                     allow_nan=False, allow_infinity=False).map(
                         lambda value: float(f"{value:g}"))


_NETWORKS = st.sampled_from(["custom_mnist", "lenet5", "alexnet", "vgg16"])
_FORMATS = st.sampled_from(["int8", "int8_symmetric", "fp32", "float32"])
_POLICIES = st.sampled_from(["none", "inversion", "inversion_per_location",
                             "barrel_shifter", "dnn_life"])
_TEMPERATURES = _g_float(-100.0, 300.0)
_POINTS = st.one_of(
    st.none(),
    st.tuples(_g_float(0.3, 1.4), _g_float(0.05, 4.0)))


@st.composite
def phases(draw, formats=_FORMATS):
    duration = draw(st.integers(min_value=1, max_value=10_000))
    temperature = draw(_TEMPERATURES)
    point = draw(_POINTS)
    voltage, frequency = point if point is not None else (None, None)
    if draw(st.booleans()):
        return Phase.idle(duration, temperature, voltage_v=voltage,
                          frequency_ghz=frequency)
    return Phase.active(draw(_NETWORKS), draw(formats), draw(_POLICIES),
                        duration, temperature, voltage_v=voltage,
                        frequency_ghz=frequency)


class TestSpecRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(phases(), min_size=1, max_size=5))
    def test_parse_format_round_trip(self, phase_list):
        spec = ",".join(phase.to_token() for phase in phase_list)
        assert parse_scenario_spec(spec) == tuple(phase_list)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(phases(formats=st.just("int8")), min_size=1, max_size=4))
    def test_describe_round_trip(self, phase_list):
        # one word width per scenario (the geometry is scenario-wide), and a
        # scenario cannot open idle
        if phase_list[0].is_idle:
            phase_list[0] = Phase.active("lenet5", "int8", "none",
                                         phase_list[0].duration)
        scenario = LifetimeScenario(tuple(phase_list))
        rebuilt = LifetimeScenario.from_description(scenario.describe())
        assert rebuilt.phases == scenario.phases

    @settings(max_examples=100, deadline=None)
    @given(phases())
    def test_token_parses_alone(self, phase):
        (parsed,) = parse_scenario_spec(phase.to_token())
        assert parsed == phase

    @settings(max_examples=100, deadline=None)
    @given(phases())
    def test_reference_point_phases_format_without_suffix(self, phase):
        token = phase.to_token()
        assert ("V:" in token) == phase.has_explicit_point


class TestGridEscapingProperties:
    _PLAIN = st.text(
        alphabet=st.characters(whitelist_categories=("L", "N"),
                               whitelist_characters=":@._-"),
        min_size=1, max_size=20)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_PLAIN, min_size=1, max_size=6))
    def test_comma_join_round_trip(self, values):
        assert split_grid_values(",".join(values)) == values

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.text(alphabet=st.characters(whitelist_categories=("L", "N"),
                                       whitelist_characters=":@,._-"),
                min_size=1, max_size=24).filter(lambda s: s[0] not in ";|/"),
        min_size=1, max_size=4))
    def test_alternate_separator_round_trip(self, values):
        # comma-bearing values survive when the axis declares ';'
        assert split_grid_values(";" + ";".join(values)) == values

    def test_declared_separator_with_no_values_is_empty(self):
        assert split_grid_values(";") == []
        assert split_grid_values("|  |") == []

    def test_multi_phase_spec_rides_an_axis(self):
        axis = (";custom_mnist:int8:none:3,idle:2"
                ";custom_mnist:int8:inversion:3@45C@0.72V:0.5GHz")
        values = split_grid_values(axis)
        assert len(values) == 2
        for value in values:
            parse_scenario_spec(value)  # every axis value is a valid spec


# --------------------------------------------------------------------------- #
# Parse-error message snapshots
# --------------------------------------------------------------------------- #
class TestParseErrorSnapshots:
    SNAPSHOTS = {
        "lenet5:int8:none:5@":
            "phase 'lenet5:int8:none:5@': '@' must be followed by a "
            "temperature (e.g. '@85C') or an operating point "
            "(e.g. '@0.72V:0.5GHz')",
        "lenet5:int8:none:5@85C@45C":
            "phase 'lenet5:int8:none:5@85C@45C': multiple temperature "
            "suffixes (at most one '@TEMP' is allowed)",
        "lenet5:int8:none:5@0.7V:1GHz@0.8V:1GHz":
            "phase 'lenet5:int8:none:5@0.7V:1GHz@0.8V:1GHz': multiple "
            "operating-point suffixes (at most one '@V:F' is allowed)",
        "lenet5:int8:none:5@0.7V:":
            "phase 'lenet5:int8:none:5@0.7V:': invalid operating point "
            "'0.7V:' (expected 'V:F', e.g. '0.72V:0.5GHz')",
        "lenet5:int8:none:5@volts:1GHz":
            "phase 'lenet5:int8:none:5@volts:1GHz': invalid voltage 'volts' "
            "(expected volts, e.g. '0.72V')",
        "lenet5:int8:none:5@0.7V:fast":
            "phase 'lenet5:int8:none:5@0.7V:fast': invalid frequency 'fast' "
            "(expected GHz, e.g. '0.5GHz' or '500MHz')",
        "lenet5:int8:none:5@cold":
            "phase 'lenet5:int8:none:5@cold': invalid temperature 'cold' "
            "(expected degrees Celsius, e.g. '85C')",
        "idle:5:5":
            "phase 'idle:5:5': expected 'idle:DURATION[@TEMP][@V:F]'",
        "lenet5:int8:none":
            "phase 'lenet5:int8:none': expected "
            "'NETWORK:FORMAT:POLICY:DURATION[@TEMP][@V:F]' or "
            "'idle:DURATION[@TEMP][@V:F]'",
    }

    @pytest.mark.parametrize("spec", sorted(SNAPSHOTS))
    def test_error_message_snapshot(self, spec):
        with pytest.raises(ValueError) as excinfo:
            parse_scenario_spec(spec)
        message = str(excinfo.value)
        assert message == self.SNAPSHOTS[spec]
        assert "\n" not in message
