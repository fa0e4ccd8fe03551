"""The value records are ``NamedTuple`` types: they pickle through the
pipes of ``_map_points`` unchanged, no field can be set, and the two
validated records check their values on every path to a new record."""

import math
import pickle

import pytest

from helfrich import HelfrichParams, SolverConfig, bounds
from helfrich.analysis import Classification, Landmarks, SurfaceTotals
from helfrich.bounds import AsymptoticRecord, AsymptoticReport, BoundsReport, PhaseCell
from helfrich.cubic import CubicAnalysis, DerivedConstants, analyze_cubic, derived_constants
from helfrich.errors import InvalidParams
from helfrich.solver import Event

from conftest import PAPER

# cells of a sweep: biconcave, blowing up, and failing before the solve
CELLS = [(1.0, 0.25, 1.0, 0.05), (1.0, 0.25, 1.0, 2.0), (1.0, 0.25, 1.0, 0.0)]


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def _assert_same(got, want):
    """Equal, and of the same types all the way down: a record compares
    equal to a plain tuple of its values."""
    assert got == want and type(got) is type(want)
    if isinstance(want, (tuple, list)):
        for g, w in zip(got, want):
            _assert_same(g, w)


def test_records_sent_through_the_pipes_come_back_equal(monkeypatch):
    """``_map_points`` pickles each child's results: the phase cells of
    ``phase_sweep``, and the (landmarks, verdict, report) triples of
    ``verify_point``, whose report holds its check records."""
    cells = [bounds._phase_cell(cell, None, analyze_cubic(PAPER)) for cell in CELLS]
    point = bounds.verify_point(PAPER, 0.05, None)
    assert [type(v) for v in point] == [Landmarks, str, BoundsReport]
    assert {type(rec) for rec in point[2].records} == {bounds.CheckRecord}
    for obj in (*cells, point):
        _assert_same(_roundtrip(obj), obj)

    # through a real pipe: the second of two workers computes the odd items
    monkeypatch.setattr(bounds, "_cpu_count", lambda: 2)
    _assert_same(bounds.phase_sweep(CELLS), cells)
    points = bounds._map_points(lambda w0p: bounds.verify_point(PAPER, w0p, None),
                                [0.04, 0.05])
    _assert_same(points[1], point)


def _samples():
    return [
        PAPER, SolverConfig(), analyze_cubic(PAPER), derived_constants(PAPER, 0.05),
        Event("Equator", 1.0, (1.0, 0.0, 0.0, 0.0, 0.0)),
        Landmarks(*[None] * 8), Classification("Biconcave", True, True, True, ""),
        SurfaceTotals(1.0, 2.0, 3.0),
        bounds._make("X", True, 0.0, 1.0, 1e-8),
        BoundsReport(0.05, ()), AsymptoticRecord(0.05, "Biconcave"),
        AsymptoticReport((), (), (), {}, None),
        PhaseCell(1.0, 0.25, 1.0, 0.05, "Biconcave", True, False),
    ]


@pytest.mark.parametrize("rec", _samples(), ids=lambda rec: type(rec).__name__)
def test_fields_cannot_be_set(rec):
    with pytest.raises(AttributeError):
        setattr(rec, rec._fields[0], getattr(rec, rec._fields[0]))
    with pytest.raises(AttributeError):
        rec.not_a_field = 1.0  # no instance dict, the validated subclasses included


def test_every_record_type_is_covered():
    assert {type(rec) for rec in _samples()} == {
        HelfrichParams, SolverConfig, CubicAnalysis, DerivedConstants, Event, Landmarks,
        Classification, SurfaceTotals, bounds.CheckRecord, BoundsReport, AsymptoticRecord,
        AsymptoticReport, PhaseCell}


def test_params_store_floats():
    params = HelfrichParams(1, True, 2)
    assert [type(v) for v in params] == [float] * 3 and params == (1.0, 1.0, 2.0)
    moved = params._replace(c0=3)
    assert type(moved) is HelfrichParams and type(moved.c0) is float and moved.c0 == 3.0


def _unpickle_bypassing_new(cls, values):
    """A pickle of the record with ``values`` made without ``cls.__new__``'s
    checks, loaded: unpickling calls ``cls.__new__`` again."""
    return pickle.loads(pickle.dumps(tuple.__new__(cls, values), pickle.HIGHEST_PROTOCOL))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_values_on_every_path(bad):
    with pytest.raises(ValueError, match="lam must be finite"):
        HelfrichParams(1.0, bad, 1.0)
    with pytest.raises(ValueError, match="lam must be finite"):
        HelfrichParams(c0=1.0, lam=bad, p=1.0)
    with pytest.raises(ValueError, match="lam must be finite"):
        PAPER._replace(lam=bad)
    with pytest.raises(ValueError, match="lam must be finite"):
        HelfrichParams._make([1.0, bad, 1.0])
    with pytest.raises(ValueError, match="lam must be finite"):
        _unpickle_bypassing_new(HelfrichParams, (1.0, bad, 1.0))


@pytest.mark.parametrize("field, bad", [
    ("rel_tol", 0.0), ("rel_tol", 1.0), ("abs_tol", math.inf), ("eps_start", -1.0),
    ("w_switch", 1.0), ("r_max", math.nan), ("max_steps", 0), ("event_tol", 0.0)])
def test_solver_config_rejects_bad_values_on_every_path(field, bad):
    cfg = SolverConfig()
    with pytest.raises(InvalidParams, match=field):
        SolverConfig(**{field: bad})
    with pytest.raises(InvalidParams, match=field):
        cfg._replace(**{field: bad})
    values = [bad if name == field else v for name, v in cfg._asdict().items()]
    with pytest.raises(InvalidParams, match=field):
        SolverConfig._make(values)
    with pytest.raises(InvalidParams, match=field):
        SolverConfig(*values)
    with pytest.raises(InvalidParams, match=field):
        _unpickle_bypassing_new(SolverConfig, values)


def test_validated_records_keep_defaults_and_pickle():
    cfg = SolverConfig(w_switch=20.0)
    assert cfg == SolverConfig(5e-12, 5e-14, None, 20.0, None, 1_000_000, 1e-12)
    _assert_same(_roundtrip(cfg), cfg)
    _assert_same(_roundtrip(PAPER), PAPER)
    assert repr(PAPER) == "HelfrichParams(c0=1.0, lam=0.25, p=1.0)"
