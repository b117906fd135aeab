"""The contract every public record type keeps: immutable fields, equality
by fields, hashing, and the argument checks of the validating records."""

from fractions import Fraction

import pytest

from polyfrac.construct import FractalSpec, PointReport, SamplePoint, make_spec
from polyfrac.dimension import (BoxCount, ComplexityProfile, ExactCount,
                                FalconerReport, SlabGroup, SlabSystem)
from polyfrac.distset import BlockCollapse, CollapseReport, DistanceRecord
from polyfrac.errors import InfeasibleSchedule, OutOfRange
from polyfrac.norms import Functional, preset
from polyfrac.schedule import Block, BlockSchedule, ScheduleReport, generate

LINF2 = preset("linf", 2)
DESK = generate(Fraction(1, 2), 3, 2, m=[1, 16, 32, 96])

# (type, field names, factory): each factory call builds a fresh record
RECORDS = [
    (Functional, ("mantissas", "precision", "pivot"),
     lambda: Functional((1, -1), 0, 0)),
    (BlockSchedule, ("margin", "bounds", "splits", "free_fraction",
                     "n_functionals"),
     lambda: BlockSchedule(3, (1, 16, 32), (9, 24), Fraction(1, 2), 2)),
    (Block, ("k", "ell", "start", "split", "end", "a", "b"),
     lambda: Block(1, 0, 1, 9, 16, 12, 13)),
    (ScheduleReport, ("checks",),
     lambda: ScheduleReport((("first bound is 1", True, "m_1 = 1"),))),
    (FractalSpec, ("dim", "target", "norm", "schedule", "seed"),
     lambda: FractalSpec(2, Fraction(3, 2), LINF2, DESK, 7)),
    (SamplePoint, ("mantissas", "precision", "role", "index"),
     lambda: SamplePoint((1, 2), 4, "sample", 3)),
    (PointReport, ("failures",),
     lambda: PointReport(((1, "carry", 5),))),
    (DistanceRecord, ("mantissa", "precision", "achieving", "source",
                      "euclid"),
     lambda: DistanceRecord(3, 4, 0, (0, 1), 5)),
    (BlockCollapse, ("block", "window", "trimmed", "constant_full",
                     "constant_trimmed"),
     lambda: BlockCollapse(1, (2, 5), (3, 4), True, False)),
    (CollapseReport, ("achieving", "ties", "blocks"),
     lambda: CollapseReport(0, (0,), (BlockCollapse(1, (2, 5), (3, 4),
                                                    True, True),))),
    (SlabGroup, ("mantissas", "precision", "windows"),
     lambda: SlabGroup((1, 0), 0, ((1, 3), (5, 8)))),
    (SlabSystem, ("dim", "depth", "groups"),
     lambda: SlabSystem(2, 8, (SlabGroup((1, 0), 0, ((1, 3),)),))),
    (ExactCount, ("r", "lower", "upper", "examined"),
     lambda: ExactCount(4, 10, 12, 7)),
    (BoxCount, ("r", "count", "mode"),
     lambda: BoxCount(4, 10, "exact")),
    (ComplexityProfile, ("segments",),
     lambda: ComplexityProfile(((0, 4, 1), (4, 9, 2)))),
    (FalconerReport, ("dim_set", "dim_dist", "ambient", "tol", "threshold",
                      "passed"),
     lambda: FalconerReport(1.5, 0.5, 2, 0.05, 0.45, True)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,fields,make", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, make):
    rec = make()
    assert type(rec) is cls
    for name in fields:
        value = getattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        assert getattr(rec, name) is value


@pytest.mark.parametrize("cls,fields,make", RECORDS, ids=IDS)
def test_equal_fields_compare_equal_and_hash_alike(cls, fields, make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls,fields,make", RECORDS, ids=IDS)
def test_keyword_construction_matches_positional(cls, fields, make):
    rec = make()
    assert cls(**{name: getattr(rec, name) for name in fields}) == rec


def test_records_differ_when_a_field_differs():
    assert SamplePoint((1, 2), 4, "sample", 3) != SamplePoint((1, 2), 4,
                                                              "sample", 4)
    assert BoxCount(4, 10, "exact") != BoxCount(4, 10, "sampled")
    assert ExactCount(4, 10, 12, 7) != ExactCount(4, 10, 12, 8)


def test_properties_and_methods_survive():
    assert Functional((1, -1, 2), 0, 0).dim == 3
    assert SamplePoint((1, 2, 3), 4, "pinned", 0).dim == 3
    assert not PointReport(((1, "carry", 5),)).ok and PointReport(()).ok
    ec = ExactCount(4, 10, 10, 7)
    assert ec.exact and ec.count == 10
    prof = ComplexityProfile(((0, 4, 1), (4, 9, 2)))
    assert prof.depth == 9 and prof.value_at(6) == 8
    assert SlabGroup((0, 3), 1, ()).support == (1,)
    assert DESK.n_blocks == 3 and DESK.depth == DESK.bounds[-1]
    assert DESK.blocks is DESK.blocks  # computed once, then cached
    spec = make_spec(2, Fraction(3, 2), LINF2, seed=7, m=[1, 16, 32, 96])
    assert spec.plan is spec.plan  # computed once, then cached
    assert len(spec.tail_paths) == 2


@pytest.mark.parametrize("args", [
    ((4,), 2, "pinned", 0),      # 1.0 is not in [0, 1)
    ((1, -1), 2, "pinned", 0),   # -1/4 is not in [0, 1)
    ((1,), 1, "probe", 0),       # unknown role
    ((), 2, "pinned", 0),        # no coordinate
])
def test_sample_point_refuses_bad_arguments(args):
    with pytest.raises(OutOfRange):
        SamplePoint(*args)


def _spec_args(**change):
    args = dict(dim=2, target=Fraction(3, 2), norm=LINF2, schedule=DESK,
                seed=7)
    args.update(change)
    return args


@pytest.mark.parametrize("change,error", [
    ({"norm": preset("linf", 3)}, OutOfRange),  # norm dimension
    ({"seed": -1}, OutOfRange),
    ({"seed": 1 << 64}, OutOfRange),
    ({"seed": True}, OutOfRange),
    ({"seed": 7.0}, OutOfRange),
    ({"target": Fraction(7, 4)}, OutOfRange),  # free fraction mismatch
    ({"schedule": generate(Fraction(1, 2), 3, 3, m=[1, 16, 32, 96])},
     OutOfRange),  # cycle length != functional count
    ({"schedule": generate(Fraction(1, 2), 2, 2, m=[1, 16, 32, 96])},
     OutOfRange),  # margin below the norm's requirement
    ({"schedule": BlockSchedule(3, (1, 2), (2,), Fraction(1, 2), 2)},
     InfeasibleSchedule),
])
def test_fractal_spec_refuses_bad_arguments(change, error):
    FractalSpec(**_spec_args())
    with pytest.raises(error):
        FractalSpec(**_spec_args(**change))


@pytest.mark.parametrize("args", [
    (3, (), (), Fraction(1, 2), 2),            # no m_1
    (3, (1, 16, 32), (9,), Fraction(1, 2), 2),  # one split short
])
def test_block_schedule_refuses_bad_arguments(args):
    with pytest.raises(OutOfRange):
        BlockSchedule(*args)


@pytest.mark.parametrize("args", [
    ((1, 0), -1, ()),               # negative precision
    ((0, 0), 0, ()),                # zero functional
    ((1, 0), 0, ((3, 3),)),         # empty window
    ((1, 0), 0, ((-1, 2),)),        # window below place 0
    ((1, 0), 0, ((1, 4), (3, 6))),  # overlapping windows
    ((1, 0), 0, ((5, 8), (1, 3))),  # descending windows
])
def test_slab_group_refuses_bad_arguments(args):
    with pytest.raises(OutOfRange):
        SlabGroup(*args)


@pytest.mark.parametrize("args", [
    (3, 8, (SlabGroup((1, 0), 0, ((1, 3),)),)),  # group dimension
    (2, 2, (SlabGroup((1, 0), 0, ((1, 3),)),)),  # window deeper than the depth
])
def test_slab_system_refuses_bad_arguments(args):
    with pytest.raises(OutOfRange):
        SlabSystem(*args)

