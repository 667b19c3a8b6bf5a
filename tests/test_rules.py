"""The value rules every public entry point shares. Each frozen type
declares one (field, rule) table, RULES, that errors.apply_rules applies;
RULES below is the expected map of those tables, and every field case here
is generated from it, so a field without a rule, or a rule without cases,
fails. Each count goes through errors.check_count, each real number through
errors.check_real, each sequence through errors.check_sequence, and so on,
so each is refused by the same message naming its field, and a numpy value
builds what the Python value builds."""

import dataclasses
import inspect
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

import shepwm
from shepwm import (
    HarmonicSpectrum,
    LookupTable,
    PsoConfig,
    SheProblem,
    SwitchingPattern,
    WaveformSamples,
    analytic_harmonic,
    analytic_spectrum,
    build_lookup,
    compare_methods,
    cost,
    cost_batch,
    default_sign_pattern,
    derive_seed,
    dft_spectrum,
    minimize,
    pattern_thd,
    segment_integral_harmonic,
    sweep,
    synthesize,
)
from shepwm.dclink import check_flag, check_lookup_grid, lookup_csv, read_lookup_csv
from shepwm.errors import (GridPositionError, ShePwmError, check_count,
                           check_nonnegative, check_real)
from shepwm.harmonics import check_magnitudes
from shepwm.optimizer import check_seed, check_swarm_size
from shepwm.pattern import check_angles, check_signs, check_vdc
from shepwm.she import _signs_or_none, check_orders, check_target, solve_pairs

PATTERN = SwitchingPattern((0.1, 0.2), (1, -1), 1, 200.0)
TINY = PsoConfig(seed=1, swarm_size=3, iterations=2, restarts=1)

# field -> rule for every field of the five types
RULES = {
    SwitchingPattern: {"angles": check_angles, "signs": check_signs,
                       "cells": check_count, "vdc_per_cell": check_vdc},
    SheProblem: {"target_m": check_target, "eliminate_orders": check_orders,
                 "cells": check_count, "angles_per_cell": check_count,
                 "sign_pattern": _signs_or_none, "weight_fundamental": check_nonnegative,
                 "weight_harmonics": check_nonnegative, "vdc_per_cell": check_vdc},
    PsoConfig: {"seed": check_seed, "swarm_size": check_swarm_size, "iterations": check_count,
                "inertia_start": check_nonnegative, "inertia_end": check_nonnegative,
                "cognitive": check_nonnegative, "social": check_nonnegative,
                "velocity_clamp_fraction": check_real, "restarts": check_count},
    LookupTable: {"grid": check_lookup_grid, "angles": check_angles,
                  "thd": check_nonnegative, "feasible": check_flag,
                  "fundamental_v": check_nonnegative, "base_vdc_per_cell": check_vdc,
                  "cells": check_count, "thd_max_order": check_count},
    HarmonicSpectrum: {"magnitudes": check_magnitudes, "base_volts": check_nonnegative},
}

# a valid value of every field; each real, or a sequence's first, is one that
# float32 holds exactly
VALID = {
    SwitchingPattern: dict(angles=(0.5, 1.5), signs=(1, -1), cells=1, vdc_per_cell=200.0),
    SheProblem: dict(target_m=0.5, eliminate_orders=(3, 5, 7, 9, 11), cells=2,
                     angles_per_cell=3, sign_pattern=(1, -1, 1, 1, -1, -1),
                     weight_fundamental=100.0, weight_harmonics=10.0, vdc_per_cell=200.0),
    PsoConfig: dict(seed=1, swarm_size=3, iterations=3, inertia_start=0.75,
                    inertia_end=0.25, cognitive=1.5, social=1.5,
                    velocity_clamp_fraction=0.25, restarts=3),
    LookupTable: dict(grid=(0.5, 1.0), angles=(0.25, 0.5), thd=0.25, feasible=True,
                      fundamental_v=300.0, base_vdc_per_cell=200.0, cells=1,
                      thd_max_order=49),
    HarmonicSpectrum: dict(magnitudes=(0.0, 1.0, 0.0, 0.5), base_volts=1.0),
}

# the rules whose field is a sequence; the element cases set its first value
SEQUENCE_RULES = {check_angles, check_lookup_grid, check_signs, _signs_or_none,
                  check_orders, check_magnitudes}
COUNT_RULES = {check_count, check_orders, check_swarm_size}
REAL_RULES = {check_real, check_nonnegative, check_vdc, check_target, check_angles,
              check_lookup_grid, check_magnitudes}
SIGN_RULES = {check_signs, _signs_or_none}
# the name a refusal gives, where it is not the field's own
NAMES = {check_angles: "angles?"}


def _build(cls, **fields):
    return cls(**{**VALID[cls], **fields})


def _table(**fields):
    return _build(LookupTable, **fields)


def _field_case(cls, name):
    """(call with a value for the field, the name its refusal gives, the value
    it stores, a valid value); a sequence field takes the value as its first
    element."""
    rule, valid = RULES[cls][name], VALID[cls][name]
    if rule in SEQUENCE_RULES:
        return (lambda v: _build(cls, **{name: (v, *valid[1:])}), NAMES.get(rule, name),
                lambda obj: getattr(obj, name)[0], valid[0])
    return lambda v: _build(cls, **{name: v}), name, lambda obj: getattr(obj, name), valid


def _field_cases(rules):
    """{"Type.field": _field_case(Type, field)} for every field whose rule is
    one of rules."""
    return {f"{cls.__name__}.{name}": _field_case(cls, name)
            for cls, table in RULES.items() for name, rule in table.items()
            if rule in rules}


@pytest.mark.parametrize("cls", RULES, ids=lambda cls: cls.__name__)
def test_each_type_declares_one_rule_per_field(cls):
    assert dict(cls.RULES) == RULES[cls]
    assert len(cls.RULES) == len(RULES[cls])
    fields = {f.name for f in dataclasses.fields(cls)}
    assert set(RULES[cls]) == fields


def test_every_rule_has_cases():
    cased = COUNT_RULES | REAL_RULES | SIGN_RULES | SEQUENCE_RULES
    cased |= {check_seed, check_flag}
    assert {rule for table in RULES.values() for rule in table.values()} <= cased


# (call with the count, name its refusal gives, the count it stores or None,
# a valid count)
COUNTS = {
    "analytic_harmonic": (lambda n: analytic_harmonic(PATTERN, n),
                          "harmonic order", None, 5),
    "segment_integral_harmonic": (lambda n: segment_integral_harmonic(PATTERN, n),
                                  "harmonic order", None, 5),
    "analytic_spectrum": (lambda n: analytic_spectrum(PATTERN, n), "max_order",
                          lambda s: s.max_order, 9),
    "dft_spectrum": (lambda n: dft_spectrum(synthesize(PATTERN, 64), n), "max_order",
                     lambda s: s.max_order, 9),
    "default_sign_pattern.cells": (lambda n: default_sign_pattern(n, 3), "cells",
                                   None, 2),
    "default_sign_pattern.per_cell": (lambda n: default_sign_pattern(2, n),
                                      "per_cell", None, 3),
    # an integer below 1 keeps the multiple-of-4 message, which names the count
    "synthesize": (lambda n: synthesize(PATTERN, n).samples.tolist(), "sample count",
                   None, 8),
    "sweep.jobs": (lambda n: sweep(SheProblem(1.0), [0.5, 0.7], TINY, jobs=n),
                   "jobs", None, 1),
    "compare_methods.jobs": (
        lambda n: compare_methods([0.5, 1.0], TINY, SheProblem(1.0), jobs=n), "jobs",
        None, 1),
    "compare_methods.thd_max_order": (
        lambda n: compare_methods([0.5, 1.0], TINY, SheProblem(1.0), n),
        "thd_max_order", lambda t: t.proposed.thd_max_order, 9),
    "build_lookup.thd_max_order": (
        lambda n: build_lookup([0.5, 1.0], TINY, SheProblem(1.0), n), "thd_max_order",
        lambda t: t.thd_max_order, 9),
    **_field_cases(COUNT_RULES),
}
BAD_COUNTS = [2.0, 2.5, "3", 0, -1]


@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize("case", COUNTS)
def test_a_bad_count_is_refused_by_name(case, value):
    call, name, _, _ = COUNTS[case]
    rule = "an integer" if not isinstance(value, int) else ".*"
    with pytest.raises(ShePwmError) as info:
        call(value)
    assert type(info.value) is ShePwmError
    assert re.fullmatch(f"{re.escape(name)} must be {rule}, got {re.escape(repr(value))}",
                        str(info.value))


# a seed is a count that may be 0; PsoConfig stores a numpy seed as an int,
# so asdict(config) gives JSON
NUMPY_COUNTS = {**COUNTS, **_field_cases({check_seed})}


@pytest.mark.parametrize("case", NUMPY_COUNTS)
def test_a_numpy_count_builds_what_an_int_builds(case):
    call, _, stored, k = NUMPY_COUNTS[case]
    got, want = call(np.int64(k)), call(k)
    assert got == want
    if stored is not None:
        assert type(stored(got)) is int


BAD_VOLTAGES = [math.nan, math.inf, -math.inf, 0.0, -1.0]
VOLTAGES = _field_cases({check_vdc})


@pytest.mark.parametrize("value", BAD_VOLTAGES, ids=repr)
@pytest.mark.parametrize("case", VOLTAGES)
def test_a_bad_voltage_is_refused_by_name(case, value):
    call, name, _, _ = VOLTAGES[case]
    with pytest.raises(ShePwmError, match=f"^{name} must be finite and > 0, got "):
        call(value)


@pytest.mark.parametrize("value", [5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0)],
                         ids=repr)
@pytest.mark.parametrize("case", VOLTAGES)
def test_a_subnormal_voltage_is_refused_by_name(case, value):
    # a subnormal V_dc holds too few bits for a THD; the least normal passes
    call, name, _, _ = VOLTAGES[case]
    with pytest.raises(ShePwmError) as info:
        call(value)
    assert str(info.value) == (f"{name} must be at least {sys.float_info.min!r} "
                               f"(not subnormal), got {float(value)!r}")


def test_the_least_normal_voltage_builds_a_pattern():
    pattern = SwitchingPattern((0.1, 0.2), (1, -1), 1, sys.float_info.min)
    assert pattern.vdc_per_cell == sys.float_info.min


@pytest.mark.parametrize(
    "argument, value, message",
    [(name, value, f"{name} must be ") for name in ("cells", "thd_max_order")
     for value in BAD_COUNTS]
    + [("base_vdc_per_cell", value, "base_vdc_per_cell must be finite and > 0")
       for value in BAD_VOLTAGES],
)
def test_read_lookup_csv_refuses_its_arguments_before_the_file(tmp_path, argument,
                                                               value, message):
    # the file does not exist: a refusal that names the argument comes first
    with pytest.raises(ShePwmError, match=f"^{message}.*, got {re.escape(repr(value))}$"):
        read_lookup_csv(tmp_path / "missing.csv", **{argument: value})


@pytest.mark.parametrize("argument", ["cells", "thd_max_order"])
def test_read_lookup_csv_stores_a_numpy_count_as_an_int(tmp_path, argument):
    path = tmp_path / "table.csv"
    path.write_text("".join(lookup_csv(_table())))
    counts = {name: VALID[LookupTable][name] for name in ("cells", "thd_max_order")}
    counts[argument] = np.int64(counts[argument])
    table = read_lookup_csv(path, 200.0, **counts)
    assert table == _table()
    assert type(getattr(table, argument)) is int


# (call with the real, the name its refusal gives as a pattern, the real it
# stores, a valid real that float32 holds exactly)
REALS = {
    "build_lookup.grid": (lambda v: build_lookup([v, 1.0], TINY, SheProblem(1.0)),
                          "grid", lambda t: t.grid[0], 0.5),
    "compare_methods.grid": (
        lambda v: compare_methods([v, 1.0], TINY, SheProblem(1.0)), "grid",
        lambda t: t.proposed.grid[0], 0.5),
    "sweep.target": (lambda v: sweep(SheProblem(1.0), [v], TINY), "target_m",
                     lambda s: s[0].target_m, 0.5),
    "solve_pairs.target": (lambda v: solve_pairs(SheProblem(1.0), [(v, 3)], TINY),
                           "target_m", lambda s: s[0].target_m, 0.5),
    "dft_spectrum.base_volts": (
        lambda v: dft_spectrum(synthesize(PATTERN, 64), 9, base_volts=v), "base_volts",
        lambda s: s.base_volts, 200.0),
    **_field_cases(REAL_RULES),
}
NOT_REAL = ["0.5", None, 1j]
NOT_FINITE = [math.nan, np.float32("nan"), math.inf, -math.inf]
# dft_spectrum's base_volts=None asks for the waveform's peak
BAD_REALS = [(case, value) for case in REALS for value in NOT_REAL + NOT_FINITE
             if (case, value) != ("dft_spectrum.base_volts", None)]


@pytest.mark.parametrize("case, value", BAD_REALS,
                         ids=[f"{case}-{value!r}" for case, value in BAD_REALS])
def test_a_bad_real_is_refused_by_name(case, value):
    call, name, _, _ = REALS[case]
    with pytest.raises(ShePwmError) as info:
        call(value)
    message = str(info.value)
    if value in NOT_REAL:
        assert type(info.value) is ShePwmError
        assert re.fullmatch(f"{name} must be a real number, got {re.escape(repr(value))}",
                            message)
    else:
        # the field's own range rule; a grid's names the refused position
        assert type(info.value) in (ShePwmError, GridPositionError)
        assert re.search(rf"\b{name}\b", message)
        assert "\n" not in message


@pytest.mark.parametrize("case", REALS)
def test_a_numpy_real_builds_what_a_float_builds(case):
    call, _, stored, v = REALS[case]
    want = call(v)
    for numpy_value in (np.float32(v), np.float64(v)):
        got = call(numpy_value)
        assert got == want
        assert type(stored(got)) is float


def test_an_int_real_is_stored_as_a_float():
    problem = SheProblem(1, weight_fundamental=100, vdc_per_cell=200)
    assert problem == SheProblem(1.0)
    assert [type(x) for x in (problem.target_m, problem.weight_fundamental,
                              problem.vdc_per_cell)] == [float] * 3


# an array of signs in one sign's place has no one truth value
BAD_SIGNS = [1.5, 1.9, "1", 0, 2, -0.5, None, np.array([1, 1])]
# each type has one sign field, so a case is named by its type
SIGNS = {cls.__name__: (cls, name) for cls, table in RULES.items()
         for name, rule in table.items() if rule in SIGN_RULES}


def _signs(case, first_two):
    cls, name = SIGNS[case]
    return _build(cls, **{name: (*first_two, *VALID[cls][name][2:])})


@pytest.mark.parametrize("value", BAD_SIGNS, ids=repr)
@pytest.mark.parametrize("case", SIGNS)
def test_a_bad_sign_is_refused_not_truncated(case, value):
    with pytest.raises(ShePwmError) as info:
        _signs(case, (value, -1))
    assert type(info.value) is ShePwmError
    assert str(info.value) == f"transition sign must be +1 or -1, got {value!r}"


@pytest.mark.parametrize("case", SIGNS)
def test_a_two_dimensional_sign_array_is_refused(case):
    cls, name = SIGNS[case]
    rows = np.array([[1, -1]] * len(VALID[cls][name]))
    with pytest.raises(ShePwmError) as info:
        _build(cls, **{name: rows})
    assert str(info.value) == f"transition sign must be +1 or -1, got {rows[0]!r}"


@pytest.mark.parametrize("case", SIGNS)
def test_a_sign_equal_to_one_builds_what_the_int_builds(case):
    got = _signs(case, (1.0, np.int64(-1)))
    assert got == _signs(case, (1, -1))
    assert [type(s) for s in getattr(got, SIGNS[case][1])] == [int] * len(
        VALID[SIGNS[case][0]][SIGNS[case][1]])


SEEDS = _field_cases({check_seed})


@pytest.mark.parametrize("value", [-1, 2**64, 2.0, "3", None], ids=repr)
@pytest.mark.parametrize("case", SEEDS)
def test_a_bad_seed_is_refused_by_name(case, value):
    with pytest.raises(ShePwmError) as info:
        SEEDS[case][0](value)
    assert type(info.value) is ShePwmError
    assert str(info.value) == f"seed must be an unsigned 64-bit integer, got {value!r}"


def test_a_numpy_seed_config_dumps_to_json():
    # the CLI writes asdict(config) into its manifest
    doc = json.loads(json.dumps(dataclasses.asdict(PsoConfig(np.uint64(3)))))
    assert doc["seed"] == 3


FLAGS = _field_cases({check_flag})


@pytest.mark.parametrize("value", ["no", "true", None, 2, 0.5, -1, [True],
                                   np.array([True, False])], ids=repr)
@pytest.mark.parametrize("case", FLAGS)
def test_a_bad_flag_is_refused_not_cast(case, value):
    call, name, _, _ = FLAGS[case]
    with pytest.raises(ShePwmError) as info:
        call(value)
    assert type(info.value) is ShePwmError
    assert str(info.value) == f"{name} must be True or False, got {value!r}"


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("case", FLAGS)
def test_a_flag_equal_to_a_bool_builds_what_the_bool_builds(case, flag):
    call, _, stored, _ = FLAGS[case]
    for value in (np.bool_(flag), int(flag), float(flag)):
        got = call(value)
        assert got == call(flag)
        assert stored(got) is flag


# (call with the whole sequence, the name its refusal gives, a valid tuple)
SEQUENCES = {
    "build_lookup.grid": (lambda g: build_lookup(g, TINY, SheProblem(1.0)), "grid",
                          (0.5, 1.0)),
    "compare_methods.grid": (lambda g: compare_methods(g, TINY, SheProblem(1.0)),
                             "grid", (0.5, 1.0)),
    "sweep.m_values": (lambda m: sweep(SheProblem(1.0), m, TINY), "m_values",
                       (0.5, 0.7)),
    "solve_pairs.pairs": (lambda p: solve_pairs(SheProblem(1.0), p, TINY), "pairs",
                          ((0.5, 3), (0.7, 4))),
    # a field's whole value, where _field_cases sets its first element
    **{f"{cls.__name__}.{name}": (lambda v, cls=cls, name=name: _build(cls, **{name: v}),
                                  name, VALID[cls][name])
       for cls, table in RULES.items() for name, rule in table.items()
       if rule in SEQUENCE_RULES},
}
NOT_SEQUENCES = ["0.5", {0.5: 1}, None, 0.5, 3, np.float64(0.5), np.array(0.5)]
# SheProblem's sign_pattern=None asks for the default signs
BAD_SEQUENCES = [(case, value) for case in SEQUENCES for value in NOT_SEQUENCES
                 if (case, value) != ("SheProblem.sign_pattern", None)]


@pytest.mark.parametrize("case, value", BAD_SEQUENCES,
                         ids=[f"{case}-{value!r}" for case, value in BAD_SEQUENCES])
def test_a_non_sequence_is_refused_by_name(case, value):
    call, name, _ = SEQUENCES[case]
    with pytest.raises(ShePwmError) as info:
        call(value)
    assert type(info.value) is ShePwmError
    assert str(info.value) == f"{name} must be a sequence, got {value!r}"


def _as_array(values):
    # pairs mix a float and an int, which only an object array keeps apart
    return np.array(values, dtype=object if isinstance(values[0], tuple) else None)


@pytest.mark.parametrize("form", [list, _as_array, lambda t: (v for v in t)],
                         ids=["list", "ndarray", "generator"])
@pytest.mark.parametrize("case", SEQUENCES)
def test_any_sequence_builds_what_the_tuple_builds(case, form):
    call, _, valid = SEQUENCES[case]
    assert call(form(valid)) == call(valid)


@pytest.mark.parametrize("pair", [(0.5,), (0.5, 3, 4), ()], ids=repr)
def test_a_pair_of_another_length_is_refused_by_name(pair):
    with pytest.raises(ShePwmError) as info:
        solve_pairs(SheProblem(1.0), [(0.7, 4), pair], TINY)
    assert type(info.value) is ShePwmError
    assert str(info.value) == f"pairs must hold (target_m, seed) pairs, got {pair!r}"


# The value arguments of every exported function, and the samples of
# WaveformSamples: each call takes one value, the others valid and small.
# Object arguments (a problem, config, pattern, samples, spectrum, objective
# or solution) are out of the table.
TWO_ANGLES = SheProblem(0.5, eliminate_orders=(3,), cells=1, angles_per_cell=2,
                        sign_pattern=(1, -1))
SAMPLES = synthesize(PATTERN, 16)
VALUE_ARGUMENTS = {
    "analytic_harmonic.n": lambda v: analytic_harmonic(PATTERN, v),
    "analytic_spectrum.max_order": lambda v: analytic_spectrum(PATTERN, v),
    "build_lookup.v_pu_grid": lambda v: build_lookup(v, TINY, TWO_ANGLES),
    "build_lookup.thd_max_order": lambda v: build_lookup((1.0,), TINY, TWO_ANGLES, v),
    "compare_methods.v_pu_grid": lambda v: compare_methods(v, TINY, TWO_ANGLES),
    "compare_methods.thd_max_order": lambda v: compare_methods((1.0,), TINY, TWO_ANGLES, v),
    # one grid point, so one pair and never a pool
    "compare_methods.jobs": lambda v: compare_methods((1.0,), TINY, TWO_ANGLES, jobs=v),
    "cost.angles": lambda v: cost(v, TWO_ANGLES),
    "cost_batch.positions": lambda v: cost_batch(v, TWO_ANGLES),
    "default_sign_pattern.cells": lambda v: default_sign_pattern(v, 3),
    "default_sign_pattern.per_cell": lambda v: default_sign_pattern(1, v),
    "derive_seed.seed": lambda v: derive_seed(v, 0),
    "derive_seed.index": lambda v: derive_seed(1, v),
    "dft_spectrum.max_order": lambda v: dft_spectrum(SAMPLES, v),
    "dft_spectrum.base_volts": lambda v: dft_spectrum(SAMPLES, 3, v),
    "minimize.bounds": lambda v: minimize(lambda pts, cutoff: np.sum(pts**2, axis=1), v, TINY),
    "pattern_thd.max_order": lambda v: pattern_thd(PATTERN, v),
    "segment_integral_harmonic.n": lambda v: segment_integral_harmonic(PATTERN, v),
    "sweep.m_values": lambda v: sweep(TWO_ANGLES, v, TINY),
    "sweep.jobs": lambda v: sweep(TWO_ANGLES, (0.5,), TINY, v),
    "synthesize.n_samples": lambda v: synthesize(PATTERN, v),
    "WaveformSamples.samples": lambda v: WaveformSamples(v),
}
OBJECT_ARGUMENTS = {"analytic_harmonic.pattern", "analytic_spectrum.pattern",
                    "build_lookup.pso", "build_lookup.problem", "build_lookup.base_solution",
                    "compare_methods.pso", "compare_methods.problem", "cost.problem",
                    "cost_batch.problem", "dft_spectrum.samples", "minimize.objective",
                    "minimize.config", "pattern_thd.pattern", "segment_integral_harmonic.pattern",
                    "solve.problem", "solve.pso", "sweep.problem", "sweep.pso",
                    "synthesize.pattern", "thd.spectrum"}
# Counts of 2**70 reach only plans and refusals; none allocates.
ODD_VALUES = ["x", -1, 0, 1e308, math.nan, math.inf, [], 1.5, 2**70, 1j,
              np.full((2, 2), 0.5)]


def test_the_refusal_table_covers_every_exported_function():
    arguments = {f"{name}.{parameter}" for name in shepwm.__all__
                 if inspect.isfunction(function := getattr(shepwm, name))
                 for parameter in inspect.signature(function).parameters}
    assert arguments == set(VALUE_ARGUMENTS) - {"WaveformSamples.samples"} | OBJECT_ARGUMENTS
    assert not set(VALUE_ARGUMENTS) & OBJECT_ARGUMENTS


@pytest.mark.parametrize("value", ODD_VALUES, ids=lambda v: " ".join(repr(v).split()))
@pytest.mark.parametrize("argument", VALUE_ARGUMENTS)
def test_an_odd_value_returns_or_raises_one_line(argument, value):
    # nothing but a result or one ShePwmError line, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            VALUE_ARGUMENTS[argument](value)
        except ShePwmError as error:
            assert "\n" not in str(error)
