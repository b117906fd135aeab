"""The contract every public record type keeps: immutable fields, equality
by fields, hashing, and the argument checks of the validating records."""

from fractions import Fraction

import pytest

from polyfrac.construct import FractalSpec, PointReport, SamplePoint, make_spec
from polyfrac.dimension import (BoxCount, ComplexityProfile, ExactCount,
                                FalconerReport, SlabGroup, SlabSystem)
from polyfrac.distset import BlockCollapse, CollapseReport, DistanceRecord
from polyfrac.errors import (BadPivot, DegenerateNorm, InfeasibleSchedule,
                             NonDyadicCoefficient, OutOfRange)
from polyfrac.norms import Functional, PolyhedralNorm, preset
from polyfrac.schedule import Block, BlockSchedule, generate

LINF2 = preset("linf", 2)
DESK = generate(Fraction(1, 2), 3, 2, m=[1, 16, 32, 96])

# (type, field names, factory): each factory call builds a fresh record
RECORDS = [
    (Functional, ("mantissas", "precision", "pivot"),
     lambda: Functional((1, -1), 0, 0)),
    (PolyhedralNorm, ("dim", "functionals"),
     lambda: preset("linf", 2)),
    (BlockSchedule, ("margin", "bounds", "free_fraction", "n_functionals"),
     lambda: BlockSchedule(3, (1, 16, 32), Fraction(1, 2), 2)),
    (Block, ("k", "ell", "start", "split", "end", "a", "b"),
     lambda: Block(1, 0, 1, 9, 16, 12, 13)),
    (FractalSpec, ("norm", "schedule", "seed"),
     lambda: FractalSpec(preset("linf", 2), DESK, 7)),
    (SamplePoint, ("mantissas", "precision", "index"),
     lambda: SamplePoint((1, 2), 4, 3)),
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
    assert SamplePoint((1, 2), 4, 3) != SamplePoint((1, 2), 4, 4)
    assert BoxCount(4, 10, "exact") != BoxCount(4, 10, "sampled")
    assert ExactCount(4, 10, 12, 7) != ExactCount(4, 10, 12, 8)


def test_properties_and_methods_survive():
    assert Functional((1, -1, 2), 0, 0).dim == 3
    assert SamplePoint((1, 2, 3), 4, 0).dim == 3
    assert not PointReport(((1, "carry", 5),)).ok and PointReport(()).ok
    ec = ExactCount(4, 10, 10, 7)
    assert ec.exact and ec.count == 10
    prof = ComplexityProfile(((0, 4, 1), (4, 9, 2)))
    assert prof.depth == 9 and prof.value_at(6) == 8
    assert SlabGroup((0, 3), 1, ()).support == (1,)
    assert DESK.n_blocks == 3 and DESK.depth == DESK.bounds[-1]
    assert DESK.blocks is DESK.blocks  # computed once, then cached
    assert DESK.splits == (9, 24, 64) and DESK.splits is DESK.splits
    spec = make_spec(2, Fraction(3, 2), LINF2, seed=7, m=[1, 16, 32, 96])
    assert spec.dim == 2
    assert spec.plan is spec.plan  # computed once, then cached
    assert len(spec.tail_paths) == 2


def _as_tuples(value):
    """value with every list in it, however deep, made a tuple."""
    if isinstance(value, (list, tuple)):
        items = [_as_tuples(v) for v in value]
        return type(value)(*items) if hasattr(value, "_fields") else \
            tuple(items)
    return value


def _extend_lists(value):
    """Append to every list in value, however deep."""
    if isinstance(value, (list, tuple)):
        for v in value:
            _extend_lists(v)
        if isinstance(value, list):
            value.append(value[-1])


# each checking record built from lists, nested ones included
@pytest.mark.parametrize("cls,args", [
    (Functional, ([1, 0], 0, 0)),
    (BlockSchedule, (3, [1, 16, 32, 96], Fraction(1, 2), 2)),
    (SamplePoint, ([1, 2], 4, 3)),
    (SlabGroup, ([1, 0], 0, [[1, 3], [5, 8]])),
    (SlabSystem, (2, 8, [SlabGroup((1, 0), 0, ((1, 3),))])),
    (ComplexityProfile, ([[0, 4, 1], [4, 9, 2]],)),
    (PolyhedralNorm, (2, [Functional([1, 0], 0, 0),
                          Functional([0, 1], 0, 1)])),
], ids=["Functional", "BlockSchedule", "SamplePoint", "SlabGroup",
        "SlabSystem", "ComplexityProfile", "PolyhedralNorm"])
def test_records_keep_no_list_of_the_caller(cls, args):
    # a record holding the caller's list is unhashable, and changes (while
    # a cached value derived from it does not) when the caller edits it
    rec = cls(*args)
    want = cls(*_as_tuples(args))
    _extend_lists(args)
    assert rec == want and hash(rec) == hash(want)
    assert {rec: 1}[want] == 1


@pytest.mark.parametrize("args", [
    ((4,), 2, 0),      # 1.0 is not in [0, 1)
    ((1, -1), 2, 0),   # -1/4 is not in [0, 1)
    ((1,), 0, 0),      # precision 0 leaves only 0; 1.0 is not in [0, 1)
    ((), 2, 0),        # no coordinate
])
def test_sample_point_refuses_bad_arguments(args):
    with pytest.raises(OutOfRange):
        SamplePoint(*args)


def _spec_args(**change):
    args = dict(norm=LINF2, schedule=DESK, seed=7)
    args.update(change)
    return args


@pytest.mark.parametrize("change,error", [
    ({"norm": preset("linf", 3)}, OutOfRange),  # 3-D norm, 3-cycle
    ({"seed": -1}, OutOfRange),
    ({"seed": 1 << 64}, OutOfRange),
    ({"seed": True}, OutOfRange),
    ({"seed": 7.0}, OutOfRange),
    ({"norm": preset("l1", 2)}, OutOfRange),  # margin 3 below l1's 4
    ({"schedule": generate(Fraction(1, 2), 3, 3, m=[1, 16, 32, 96])},
     OutOfRange),  # cycle length != functional count
    ({"schedule": generate(Fraction(1, 2), 2, 2, m=[1, 16, 32, 96])},
     OutOfRange),  # margin below the norm's requirement
])
def test_fractal_spec_refuses_bad_arguments(change, error):
    FractalSpec(**_spec_args())
    with pytest.raises(error):
        FractalSpec(**_spec_args(**change))


@pytest.mark.parametrize("args", [
    (3, (), Fraction(1, 2), 2),       # no m_1
    (3, (1, 16), Fraction(1, 2), 0),  # no functional to cycle through
    # every field is exact: a float or bool is refused before the block
    # table is read, not left to fail inside build_point
    (3.25, (1, 16, 32, 96), Fraction(1, 2), 2),
    (3.0, (1, 16, 32, 96), Fraction(1, 2), 2),
    (True, (1, 16, 32, 96), Fraction(1, 2), 2),
    (3, (1, 16.0, 32, 96), Fraction(1, 2), 2),
    (3, (True, 16, 32, 96), Fraction(1, 2), 2),
    (3, (1, 16, 32, 96), 0.5, 2),
    (3, (1, 16, 32, 96), False, 2),
    (3, (1, 16, 32, 96), Fraction(1, 2), 2.0),
    (3, (1, 16, 32, 96), Fraction(1, 2), True),
])
def test_block_schedule_refuses_bad_arguments(args):
    with pytest.raises(OutOfRange):
        BlockSchedule(*args)


@pytest.mark.parametrize("args,message", [
    ((3, (1, 2), Fraction(1, 2), 2),
     "margin fits below first block end: 2c = 6 vs m_2 = 2; "
     "window at block 1 nonempty: (5, -1]"),
    ((3, (5, 3), Fraction(1, 2), 2),
     "first bound is 1: m_1 = 5; bounds strictly increasing: m = [5, 3]; "
     "margin fits below first block end: 2c = 6 vs m_2 = 3; "
     "growth at block 1: 1*m_1 = 5 vs m_2 = 3; "
     "window at block 1 nonempty: (7, 0]"),
    ((0, (1, 16), Fraction(3, 2), 1),
     "margin positive: c = 0; free fraction in [0, 1]: alpha = 3/2"),
    ((3, (1, 16, 17), Fraction(1, 2), 2),
     "growth at block 2: 2*m_2 = 32 vs m_3 = 17; "
     "window at block 2 nonempty: (20, 14]"),
], ids=["short-first-block", "descending", "margin-alpha", "growth-window"])
def test_block_schedule_refuses_infeasible_bounds(args, message):
    # every failed check, in order, joined by "; "
    with pytest.raises(InfeasibleSchedule) as info:
        BlockSchedule(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("args", [
    ((1, 0), -1, ()),               # negative precision
    ((0, 0), 0, ()),                # zero functional
    ((1, 0), 0, ((3, 3),)),         # empty window
    ((1, 0), 0, ((-1, 2),)),        # window below place 0
    ((1, 0), 0, ((1, 4), (3, 6))),  # overlapping windows
    ((1, 0), 0, ((5, 8), (1, 3))),  # descending windows
    # every field is an exact int: the walk shifts by them
    ((1, 1), 1.5, ((1, 2),)),
    ((1, 1), True, ((1, 2),)),
    ((1, 1), 0, ((1.0, 2),)),
    ((1, 1), 0, ((1, 2.0),)),
    ((1, 1), 0, ((False, 2),)),
    ((1.0, 1), 0, ((1, 2),)),
])
def test_slab_group_refuses_bad_arguments(args):
    with pytest.raises(OutOfRange):
        SlabGroup(*args)


@pytest.mark.parametrize("args", [
    (3, 8, (SlabGroup((1, 0), 0, ((1, 3),)),)),  # group dimension
    (2, 2, (SlabGroup((1, 0), 0, ((1, 3),)),)),  # window deeper than the depth
    (0, 8, ()),     # no coordinate
    (-1, 8, ()),
    (2.0, 8, ()),   # dim and depth are exact ints
    (True, 8, ()),
    (2, 8.0, ()),
    (2, True, ()),
])
def test_slab_system_refuses_bad_arguments(args):
    with pytest.raises(OutOfRange):
        SlabSystem(*args)


@pytest.mark.parametrize("args,error", [
    (((1, 0), -1, 0), NonDyadicCoefficient),
    (((1, 0), 1.5, 0), NonDyadicCoefficient),
    (((1, 0), True, 0), NonDyadicCoefficient),
    (((1, 0), 0, 2), BadPivot),     # past the last coordinate
    (((1, 0), 0, -1), BadPivot),    # an index from the end is no pivot
    (((1, 0), 0, True), BadPivot),
    (((0, 1), 0, 0), BadPivot),     # a zero pivot coefficient
    (((-1, 1), 0, 0), BadPivot),    # a negative one
])
def test_functional_refuses_bad_arguments(args, error):
    with pytest.raises(error):
        Functional(*args)


def test_functional_pivot_message():
    with pytest.raises(BadPivot) as info:
        Functional((0, 1), 0, 0)
    assert str(info.value) == ("functional (0, 1) lacks a positive pivot "
                               "coefficient at index 0")




@pytest.mark.parametrize("make,change,error", [
    (lambda: SamplePoint((1, 2), 4, 0), {"mantissas": (-5, 99)}, OutOfRange),
    (lambda: FractalSpec(LINF2, DESK, 7), {"seed": -1}, OutOfRange),
    (lambda: FractalSpec(LINF2, DESK, 7),  # margin 2 below linf's 3
     {"schedule": generate(Fraction(1, 2), 2, 2, m=[1, 16, 32, 96])},
     OutOfRange),
    (lambda: DESK, {"bounds": ()}, OutOfRange),
    (lambda: DESK, {"bounds": (5, 3)}, InfeasibleSchedule),
    (lambda: LINF2, {"functionals": LINF2.functionals[:1] * 2},
     DegenerateNorm),
    (lambda: ComplexityProfile(((0, 4, 1), (4, 9, 2))),
     {"segments": ((0, 4, 1), (5, 9, 2))}, OutOfRange),
    (lambda: SlabGroup((1, 0), 0, ((1, 3),)), {"windows": ((3, 3),)},
     OutOfRange),
    (lambda: SlabSystem(2, 8, (SlabGroup((1, 0), 0, ((1, 3),)),)),
     {"dim": 3}, OutOfRange),
    (lambda: Functional((1, 0), 0, 0), {"pivot": 1}, BadPivot),
], ids=["SamplePoint", "FractalSpec-seed", "FractalSpec-schedule",
        "BlockSchedule", "BlockSchedule-bounds", "PolyhedralNorm",
        "ComplexityProfile", "SlabGroup", "SlabSystem", "Functional"])
def test_replace_checks_like_the_constructor(make, change, error):
    rec = make()
    assert rec._replace() == rec and type(rec._replace()) is type(rec)
    with pytest.raises(error):
        rec._replace(**change)
    with pytest.raises(error):
        type(rec)._make(change.get(name, value)
                        for name, value in zip(rec._fields, rec))


@pytest.mark.parametrize("make,name", [
    (lambda: generate(Fraction(1, 2), 3, 2, m=[1, 16, 32, 96]), "splits"),
    (lambda: generate(Fraction(1, 2), 3, 2, m=[1, 16, 32, 96]), "blocks"),
    (lambda: FractalSpec(LINF2, DESK, 7), "plan"),
    (lambda: FractalSpec(LINF2, DESK, 7), "tail_paths"),
    (lambda: preset("l1", 2), "_shifts"),
    (lambda: preset("l1", 2), "_coeffs"),
], ids=["splits", "blocks", "plan", "tail_paths", "_shifts", "_coeffs"])
def test_derived_values_cannot_be_assigned(make, name):
    rec = make()
    with pytest.raises(AttributeError):  # before the value is first read
        setattr(rec, name, ())
    value = getattr(rec, name)
    assert value == getattr(make(), name) and value
    with pytest.raises(AttributeError):  # and once it is cached
        setattr(rec, name, ())
    assert getattr(rec, name) is value
