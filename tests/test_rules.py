"""The value rules every public entry point shares: each count goes through
errors.check_count, each real number through errors.check_real, each DC-link
voltage through pattern.check_vdc and each transition sign through
pattern.check_signs, so each is refused by the same message naming its
field, and a numpy number builds what the Python number builds."""

import math
import re

import numpy as np
import pytest

from shepwm import (
    HarmonicSpectrum,
    LookupTable,
    PsoConfig,
    SheProblem,
    SwitchingPattern,
    analytic_harmonic,
    analytic_spectrum,
    build_lookup,
    compare_methods,
    default_sign_pattern,
    dft_spectrum,
    segment_integral_harmonic,
    sweep,
    synthesize,
)
from shepwm.dclink import lookup_csv, read_lookup_csv
from shepwm.errors import GridPositionError, ShePwmError
from shepwm.she import solve_pairs
from shepwm.harmonics import segment_integral_coefficients

PATTERN = SwitchingPattern((0.1, 0.2), (1, -1), 1, 200.0)
TINY = PsoConfig(seed=1, swarm_size=3, iterations=2, restarts=1)
TABLE = dict(grid=(0.5, 1.0), angles=(0.1, 0.2), thd=0.2, feasible=True,
             fundamental_v=300.0, base_vdc_per_cell=200.0, cells=1, thd_max_order=49)


def _table(**fields):
    return LookupTable(**{**TABLE, **fields})


# (call with the count, name its refusal gives, the count it stores or None,
# a valid count)
COUNTS = {
    "HarmonicSpectrum.max_order": (
        lambda n: HarmonicSpectrum({1: 1.0, 2: 0.0, 3: 0.5}, n, 1.0), "max_order",
        lambda s: s.max_order, 3),
    "analytic_harmonic": (lambda n: analytic_harmonic(PATTERN, n),
                          "harmonic order", None, 5),
    "segment_integral_harmonic": (lambda n: segment_integral_harmonic(PATTERN, n),
                                  "harmonic order", None, 5),
    "segment_integral_coefficients": (
        lambda n: segment_integral_coefficients(PATTERN, n), "harmonic order", None, 5),
    "analytic_spectrum": (lambda n: analytic_spectrum(PATTERN, n), "max_order",
                          lambda s: s.max_order, 9),
    "dft_spectrum": (lambda n: dft_spectrum(synthesize(PATTERN, 64), n), "max_order",
                     lambda s: s.max_order, 9),
    "SwitchingPattern.cells": (
        lambda n: SwitchingPattern((0.1, 0.2), (1, -1), n, 200.0), "cells",
        lambda p: p.cells, 1),
    "default_sign_pattern.cells": (lambda n: default_sign_pattern(n, 3), "cells",
                                   None, 2),
    "default_sign_pattern.per_cell": (lambda n: default_sign_pattern(2, n),
                                      "per_cell", None, 3),
    # an integer below 1 keeps the multiple-of-4 message, which names the count
    "synthesize": (lambda n: synthesize(PATTERN, n).samples.tolist(), "sample count",
                   None, 8),
    "SheProblem.cells": (lambda n: SheProblem(0.5, cells=n), "cells",
                         lambda p: p.cells, 2),
    "SheProblem.angles_per_cell": (lambda n: SheProblem(0.5, angles_per_cell=n),
                                   "angles_per_cell", lambda p: p.angles_per_cell, 3),
    "SheProblem.eliminate_orders": (
        lambda n: SheProblem(0.5, eliminate_orders=(n, 5)), "eliminate_orders",
        lambda p: p.eliminate_orders[0], 3),
    "PsoConfig.swarm_size": (lambda n: PsoConfig(1, swarm_size=n), "swarm_size",
                             lambda c: c.swarm_size, 3),
    "PsoConfig.iterations": (lambda n: PsoConfig(1, iterations=n), "iterations",
                             lambda c: c.iterations, 3),
    "PsoConfig.restarts": (lambda n: PsoConfig(1, restarts=n), "restarts",
                           lambda c: c.restarts, 3),
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
    "LookupTable.cells": (lambda n: _table(cells=n), "cells", lambda t: t.cells, 2),
    "LookupTable.thd_max_order": (lambda n: _table(thd_max_order=n), "thd_max_order",
                                  lambda t: t.thd_max_order, 9),
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


@pytest.mark.parametrize("case", COUNTS)
def test_a_numpy_count_builds_what_an_int_builds(case):
    call, _, stored, k = COUNTS[case]
    got, want = call(np.int64(k)), call(k)
    assert got == want
    if stored is not None:
        assert type(stored(got)) is int


BAD_VOLTAGES = [math.nan, math.inf, -math.inf, 0.0, -1.0]
VOLTAGES = {
    "SwitchingPattern.vdc_per_cell": (
        lambda v: SwitchingPattern((0.1,), (1,), 1, v), "vdc_per_cell"),
    "SheProblem.vdc_per_cell": (lambda v: SheProblem(0.5, vdc_per_cell=v),
                                "vdc_per_cell"),
    "LookupTable.base_vdc_per_cell": (lambda v: _table(base_vdc_per_cell=v),
                                      "base_vdc_per_cell"),
}


@pytest.mark.parametrize("value", BAD_VOLTAGES, ids=repr)
@pytest.mark.parametrize("case", VOLTAGES)
def test_a_bad_voltage_is_refused_by_name(case, value):
    call, name = VOLTAGES[case]
    with pytest.raises(ShePwmError, match=f"^{name} must be finite and > 0, got "):
        call(value)


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
    counts = {name: TABLE[name] for name in ("cells", "thd_max_order")}
    counts[argument] = np.int64(counts[argument])
    table = read_lookup_csv(path, 200.0, **counts)
    assert table == _table()
    assert type(getattr(table, argument)) is int


# (call with the real, the name its refusal gives as a pattern, the real it
# stores, a valid real that float32 holds exactly)
REALS = {
    "SheProblem.target_m": (lambda v: SheProblem(v), "target_m",
                            lambda p: p.target_m, 0.5),
    "SheProblem.weight_fundamental": (
        lambda v: SheProblem(0.5, weight_fundamental=v), "weight_fundamental",
        lambda p: p.weight_fundamental, 100.0),
    "SheProblem.weight_harmonics": (
        lambda v: SheProblem(0.5, weight_harmonics=v), "weight_harmonics",
        lambda p: p.weight_harmonics, 10.0),
    "SheProblem.vdc_per_cell": (lambda v: SheProblem(0.5, vdc_per_cell=v),
                                "vdc_per_cell", lambda p: p.vdc_per_cell, 200.0),
    **{f"PsoConfig.{name}": (lambda v, name=name: PsoConfig(1, **{name: v}), name,
                             lambda c, name=name: getattr(c, name), value)
       for name, value in (("inertia_start", 0.75), ("inertia_end", 0.25),
                           ("cognitive", 1.5), ("social", 1.5),
                           ("velocity_clamp_fraction", 0.25))},
    "SwitchingPattern.angles": (
        lambda v: SwitchingPattern((v, 1.5), (1, -1), 1, 200.0), "angles?",
        lambda p: p.angles[0], 0.5),
    "SwitchingPattern.vdc_per_cell": (
        lambda v: SwitchingPattern((0.1, 0.2), (1, -1), 1, v), "vdc_per_cell",
        lambda p: p.vdc_per_cell, 200.0),
    "LookupTable.grid": (lambda v: _table(grid=(v, 1.0)), "grid",
                         lambda t: t.grid[0], 0.5),
    "LookupTable.angles": (lambda v: _table(angles=(v, 0.5)), "angles?",
                           lambda t: t.angles[0], 0.25),
    "LookupTable.thd": (lambda v: _table(thd=v), "thd", lambda t: t.thd, 0.25),
    "LookupTable.fundamental_v": (lambda v: _table(fundamental_v=v), "fundamental_v",
                                  lambda t: t.fundamental_v, 300.0),
    "LookupTable.base_vdc_per_cell": (
        lambda v: _table(base_vdc_per_cell=v), "base_vdc_per_cell",
        lambda t: t.base_vdc_per_cell, 200.0),
    "build_lookup.grid": (lambda v: build_lookup([v, 1.0], TINY, SheProblem(1.0)),
                          "grid", lambda t: t.grid[0], 0.5),
    "compare_methods.grid": (
        lambda v: compare_methods([v, 1.0], TINY, SheProblem(1.0)), "grid",
        lambda t: t.proposed.grid[0], 0.5),
    "sweep.target": (lambda v: sweep(SheProblem(1.0), [v], TINY), "target_m",
                     lambda s: s[0].target_m, 0.5),
    "solve_pairs.target": (lambda v: solve_pairs(SheProblem(1.0), [(v, 3)], TINY),
                           "target_m", lambda s: s[0].target_m, 0.5),
    "HarmonicSpectrum.base_volts": (
        lambda v: HarmonicSpectrum({1: 1.0, 2: 0.0}, 2, v), "base_volts",
        lambda s: s.base_volts, 1.0),
    "dft_spectrum.base_volts": (
        lambda v: dft_spectrum(synthesize(PATTERN, 64), 9, base_volts=v), "base_volts",
        lambda s: s.base_volts, 200.0),
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


BAD_SIGNS = [1.5, 1.9, "1", 0, 2, -0.5, None]
SIGNS = {
    "SwitchingPattern": (lambda s: SwitchingPattern((0.1, 0.2), s, 1, 200.0),
                         lambda p: p.signs),
    "SheProblem": (lambda s: SheProblem(0.5, sign_pattern=(*s, 1, 1, -1, -1)),
                   lambda p: p.sign_pattern[:2]),
}


@pytest.mark.parametrize("value", BAD_SIGNS, ids=repr)
@pytest.mark.parametrize("case", SIGNS)
def test_a_bad_sign_is_refused_not_truncated(case, value):
    call, _ = SIGNS[case]
    with pytest.raises(ShePwmError) as info:
        call((value, -1))
    assert type(info.value) is ShePwmError
    assert str(info.value) == f"transition sign must be +1 or -1, got {value!r}"


@pytest.mark.parametrize("case", SIGNS)
def test_a_sign_equal_to_one_builds_what_the_int_builds(case):
    call, stored = SIGNS[case]
    got = call((1.0, np.int64(-1)))
    assert got == call((1, -1))
    assert [type(s) for s in stored(got)] == [int, int]
