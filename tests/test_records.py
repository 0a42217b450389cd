"""The record types' contracts: immutable, checked on every construction, and
in the CLI's column order where the CLI writes them field by field."""

import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from energysieve import cli
from energysieve.arith import EPS_HALF, EpsilonSpec, SeriesTable, series_table
from energysieve.correlation import ExperimentRow, ramanujan_row
from energysieve.energy import EnergyReport, RepFunction, energy_sum_path, rep_sum
from energysieve.errors import InvariantViolationError
from energysieve.sets import IntegerSet, squares_up_to
from energysieve.sieve import (DivisorSumRow, SieveCheckResult, composite_moduli_check,
                               divisor_sum_partition)

ROW = dict(n=100, card_a=10, card_s=10, energy=100, lower_bound=0.0, ratio_as=1.0,
           ratio_log=0.1, seconds=0.0)
TABLE = dict(xs=(10, 20), m_values=(1.0, 2.0), t_values=(1.0, 2.0), t_all_values=(1.0, 2.0),
             trunc_prime=100, singular=1.5)


def records():
    """One of each kind of record, made by the functions that make them."""
    S = squares_up_to(100)
    return [S, rep_sum(S, S), EPS_HALF, energy_sum_path(S, S), ramanujan_row(100),
            series_table([10, 20]), composite_moduli_check(S, 6, EPS_HALF),
            divisor_sum_partition(S, 100), divisor_sum_partition(S, 100).rows[0]]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_attributes_cannot_be_assigned(record):
    name = getattr(record, "_fields", None) or record.__slots__
    with pytest.raises(AttributeError):
        setattr(record, name[0], None)
    with pytest.raises(AttributeError):
        delattr(record, name[0])
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("make, bad", [
    (EpsilonSpec, dict(default=Fraction(-1))),
    (EpsilonSpec, dict(default=Fraction(0), overrides=((1, Fraction(1)),))),
    (EpsilonSpec, dict(default=Fraction(0), overrides=((3, Fraction(-1, 2)),))),
    (SeriesTable, dict(TABLE, m_values=(2.0, 1.0))),
    (SeriesTable, dict(TABLE, t_values=(0.0, 1.0))),
    (SeriesTable, dict(TABLE, t_all_values=(1.0, math.inf))),
    (EnergyReport, dict(value=1, method="sum", lower_trivial=2, upper_trivial=4)),
    (EnergyReport, dict(value=5, method="sum", lower_trivial=2, upper_trivial=4)),
    (ExperimentRow, dict(ROW, energy=99)),
])
def test_invalid_construction_raises(make, bad):
    error = ValueError if make in (EpsilonSpec, SeriesTable) else InvariantViolationError
    with pytest.raises(error):
        make(**bad)
    with pytest.raises(error):  # positionally too
        make(*bad.values())


@pytest.mark.parametrize("make, good, bad", [
    (SeriesTable, TABLE, dict(m_values=(2.0, 1.0))),
    (EnergyReport, dict(value=3, method="sum", lower_trivial=2, upper_trivial=4), dict(value=5)),
    (ExperimentRow, ROW, dict(energy=99)),
])
def test_checks_run_on_make_and_replace(make, good, bad):
    record = make(**good)
    assert make._make(record) == record
    assert type(make._make(record)) is make
    with pytest.raises((ValueError, InvariantViolationError)):
        record._replace(**bad)
    with pytest.raises((ValueError, InvariantViolationError)):
        make._make(dict(good, **bad).values())


def test_arrays_stay_read_only():
    elements = np.array([1, 4, 9], dtype=np.int64)
    A = IntegerSet(9, elements)
    r = RepFunction(offset=2, counts=np.array([1, 0, 2]))
    for array in (A.elements, elements, r.counts, squares_up_to(100).elements,
                  rep_sum(A, A).counts):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 7
    assert r.backend == "direct" and r.at(4) == 2


def test_sets_and_counts_compare_by_identity():
    A, B = squares_up_to(100), squares_up_to(100)
    assert A == A and A != B and len({A, B}) == 2
    assert rep_sum(A, A) != rep_sum(A, A)


def test_epsilon_spec_value_equality_and_hash():
    a = EpsilonSpec(Fraction(1, 2), ((3, Fraction(1)),))
    b = EpsilonSpec(default=Fraction(1, 2), overrides=((3, Fraction(1)),))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != EpsilonSpec(Fraction(1, 2)) and EpsilonSpec.constant(Fraction(1, 2)) == EPS_HALF
    assert a != (Fraction(1, 2), ((3, Fraction(1)),))  # not a tuple
    assert repr(EPS_HALF) == "EpsilonSpec(default=Fraction(1, 2), overrides=())"


def test_copies_and_pickles_rebuild_through_the_checks():
    for record in (EPS_HALF, squares_up_to(100), ramanujan_row(100)):
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record)
            assert repr(twin) == repr(record)
    twin = pickle.loads(pickle.dumps(squares_up_to(100)))
    assert not twin.elements.flags.writeable


def test_reports_are_named_tuples():
    report = energy_sum_path(squares_up_to(100), squares_up_to(100))
    value, method, lower, upper = report
    assert report._asdict() == {"value": value, "method": method, "lower_trivial": lower,
                                "upper_trivial": upper}
    assert report == (value, method, lower, upper)


# each record the CLI writes through `cli._records`: its column -> field pairs
CLI_COLUMNS = {
    DivisorSumRow: (["sieve", "{set}", "--divisor-sum"], {
        "v": "v", "J_v": "j_count", "window_count": "window_count",
        "partition_lower_bound": "partition_lower_bound"}),
    ExperimentRow: (["sweep", "theorem", "--grid", "100"], {
        "N": "n", "card_A": "card_a", "card_S": "card_s", "energy": "energy",
        "lower_bound": "lower_bound", "ratio_AS": "ratio_as", "ratio_log": "ratio_log",
        "seconds": "seconds"}),
    SieveCheckResult: (["sieve", "{set}", "--check-v", "6"], {
        "v": "modulus", "card": "card", "delta": "delta_value", "lhs": "lhs", "rhs": "rhs",
        "hypothesis_ok": "hypothesis_ok", "holds": "holds"}),
}


@pytest.mark.parametrize("kind", CLI_COLUMNS, ids=lambda k: k.__name__)
def test_fields_are_in_cli_column_order(kind, tmp_path, capsys):
    argv, pairs = CLI_COLUMNS[kind]
    assert kind._fields == tuple(pairs.values())
    path = tmp_path / "sq.txt"
    path.write_text("N=100\n" + "".join(f"{k * k}\n" for k in range(1, 11)))
    assert cli.main([a.format(set=path) for a in argv]) == 0
    assert capsys.readouterr().out.splitlines()[0] == ",".join(pairs)


def test_records_keys_fields_by_column():
    rows = divisor_sum_partition(squares_up_to(100), 100).rows
    columns = tuple(CLI_COLUMNS[DivisorSumRow][1])
    assert cli._records(columns, rows) == [
        {c: getattr(row, f) for c, f in CLI_COLUMNS[DivisorSumRow][1].items()} for row in rows]
