"""The frozen record contract every value type of the package keeps."""

import copy
import math
import pickle

import pytest

from ribbonfold.constructions import FamilyId, TorusKnotParams, build
from ribbonfold.errors import (
    InvalidDiagramError,
    InvalidInputError,
    MalformedProgramError,
    ParameterError,
)
from ribbonfold.fold_core import (
    CreaseSpec,
    CutSpec,
    ExactAngle,
    FoldedLayout,
    Panel,
    Point,
    WeaveRule,
    layout,
)
from ribbonfold.formulas import bounds_table, closed_form_ratio, ratio_report
from ribbonfold.knot_id import certification_report, extract_diagram
from ribbonfold.render import RenderOptions


def _trefoil_layout():
    return layout(build(FamilyId("odd_wrap", 2)))


def _trefoil_diagram():
    return extract_diagram(_trefoil_layout())


# (record, a change its __init__ rejects and the error, or None for a
# record whose __init__ checks nothing, its derived fields)
RECORDS = {
    "ExactAngle": (lambda: ExactAngle(2, 6), ({"denominator": 0}, InvalidInputError), ("radians",)),
    "CreaseSpec": (lambda: CreaseSpec(1.0, ExactAngle(1, 3), -2),
                   ({"position": -1.0}, MalformedProgramError), ()),
    "CutSpec": (lambda: CutSpec(0.5, ExactAngle(1, 3)),
                ({"position": math.nan}, MalformedProgramError), ()),
    "WeaveRule": (lambda: WeaveRule("explicit", ((0, 2, 1), (3, 1, -1))),
                  ({"mode": "torus"}, MalformedProgramError), ("senses",)),
    "FoldProgram": (lambda: build(FamilyId("odd_wrap", 3), presentation="truncated"),
                    ({"width": -1.0}, MalformedProgramError), ()),
    "Panel": (lambda: _trefoil_layout().panels[1], None, ()),
    "FoldedLayout": (_trefoil_layout, None, ()),
    "TorusKnotParams": (lambda: TorusKnotParams(5, 2), ({"q": 5}, ParameterError), ()),
    "FamilyId": (lambda: FamilyId("odd_wrap", 3), ({"parameter": 1}, ParameterError), ()),
    "RatioFormula": (lambda: closed_form_ratio(FamilyId("short_52")), None, ()),
    "BoundsRow": (lambda: bounds_table()[2], None, ()),
    "RatioReport": (lambda: ratio_report(FamilyId("odd_wrap", 3), "truncated"), None, ()),
    "KnotDiagram": (_trefoil_diagram, ({"gauss": ()}, InvalidDiagramError), ("crossings",)),
    "CertificationReport": (lambda: certification_report(_trefoil_diagram(), (3, 2)), None, ()),
    "RenderOptions": (lambda: RenderOptions(0.5, show_centerline=True),
                      ({"scale": 0}, ParameterError), ()),
}
SLOTTED = ("ExactAngle", "CreaseSpec", "CutSpec", "Panel")


@pytest.mark.parametrize("name", list(RECORDS))
def test_record_is_frozen_copies_and_replaces_through_its_checks(name):
    make, rejected, derived = RECORDS[name]
    value = make()
    assert type(value).__name__ == name
    assert hasattr(value, "__dict__") == (name not in SLOTTED)
    # no field can be set or deleted, and the refusal names it
    for field in type(value).__match_args__ + derived:
        before = getattr(value, field)
        with pytest.raises(AttributeError, match="^cannot assign to field %r$" % field):
            setattr(value, field, before)
        with pytest.raises(AttributeError, match="^cannot delete field %r$" % field):
            delattr(value, field)
        assert getattr(value, field) is before
    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value) and repr(again) == repr(value)
        for field in derived:
            assert getattr(again, field) == getattr(value, field)
    # hashed as @dataclass hashed, by the tuple of the compared fields
    assert hash(value) == hash(tuple(getattr(value, f) for f in type(value)._fields))
    # equal fields make no equal value across classes, a subclass included
    kin = copy.copy(value)
    object.__setattr__(kin, "__class__", type("Kin", (type(value),), {"__slots__": ()}))
    assert value.__eq__(kin) is NotImplemented and value != kin
    # _replace builds through __init__, and takes only what __init__ takes
    assert value._replace() == value
    if rejected is not None:
        changes, error = rejected
        with pytest.raises(error):
            value._replace(**changes)
    for field in derived + ("no_such_field",):
        with pytest.raises(ValueError, match=repr(field)):
            value._replace(**{field: getattr(value, field, None)})


# subclasses that add no slots, and one that adds a slot, defined at module
# level so that pickle can find them by name
class KinAngle(ExactAngle):
    __slots__ = ()


class KinCrease(CreaseSpec):
    __slots__ = ()


class KinCut(CutSpec):
    __slots__ = ()


class KinPanel(Panel):
    __slots__ = ()


class TaggedCrease(CreaseSpec):
    __slots__ = ("tag",)


KIN = {"ExactAngle": KinAngle, "CreaseSpec": KinCrease, "CutSpec": KinCut, "Panel": KinPanel}


def _kin_of(name):
    """A record of each slotted type, and the same fields built through its
    parent's __init__ as an instance of the subclass that adds no slots."""
    value = RECORDS[name][0]()
    kin = KIN[name](**{field: getattr(value, field) for field in type(value).__match_args__})
    return value, kin


@pytest.mark.parametrize("name", SLOTTED)
def test_slotted_subclass_builds_freezes_copies_and_pickles(name):
    value, kin = _kin_of(name)
    parent = type(value)
    assert type(kin) is KIN[name] and not hasattr(kin, "__dict__")
    # the setter table is the parent's own, and its state names every slot
    assert KIN[name]._setters is parent._setters
    assert tuple(parent._setters) == parent.__slots__
    assert kin.__getstate__() == {slot: getattr(value, slot) for slot in parent.__slots__}
    # the same fields, derived ones included, as the parent builds, frozen
    for field in parent.__slots__:
        before = getattr(kin, field)
        assert before == getattr(value, field)
        with pytest.raises(AttributeError, match="^cannot assign to field %r$" % field):
            setattr(kin, field, before)
        with pytest.raises(AttributeError, match="^cannot delete field %r$" % field):
            delattr(kin, field)
        assert getattr(kin, field) is before
    for again in (copy.copy(kin), copy.deepcopy(kin), pickle.loads(pickle.dumps(kin))):
        assert type(again) is KIN[name]
        assert again == kin and hash(again) == hash(kin) and repr(again) == repr(kin)
        for field in parent.__slots__:
            assert getattr(again, field) == getattr(value, field)
    # a subclass is never equal to its parent, as the contract test checks
    assert kin != value


def test_setter_table_holds_every_slot_along_the_mro():
    assert tuple(TaggedCrease._setters) == ("position", "angle", "layer_shift", "tag")
    crease = TaggedCrease(1.0, ExactAngle(1, 3))
    TaggedCrease._setters["tag"](crease, "seam")
    again = pickle.loads(pickle.dumps(crease))
    assert (again.position, again.angle, again.layer_shift, again.tag) == \
        (1.0, ExactAngle(1, 3), 1, "seam")
    with pytest.raises(AttributeError, match="^cannot assign to field 'tag'$"):
        again.tag = "other"


def test_malformed_panel_in_a_layout_is_rejected():
    # the panel is rejected before any layout holds it
    with pytest.raises(InvalidInputError, match="^panel vertices must be four pairs"):
        FoldedLayout((Panel(None, "x", 0),), ())


_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


@pytest.mark.parametrize("vertices", [
    None, list(_SQUARE), _SQUARE[:3], _SQUARE + ((0.0, 0.5),), ((0.0, 0.0, 0.0),) + _SQUARE[1:],
    ([0.0, 0.0],) + _SQUARE[1:], ((math.nan, 0.0),) + _SQUARE[1:],
    ((0.0, math.inf),) + _SQUARE[1:], ((10**400, 0.0),) + _SQUARE[1:],
    ((True, 0.0),) + _SQUARE[1:], (("0", 0.0),) + _SQUARE[1:],
], ids=["none", "list", "three", "five", "triple", "list-vertex", "nan", "inf", "huge-int",
        "bool", "string"])
def test_panel_rejects_malformed_vertices(vertices):
    with pytest.raises(InvalidInputError,
                       match="^panel vertices must be four pairs of finite numbers$"):
        Panel(vertices, 0, 0)


@pytest.mark.parametrize("field", ["layer", "index"])
@pytest.mark.parametrize("bad", ["x", True, 1.0, None])
def test_panel_rejects_a_layer_or_index_that_is_not_an_int(field, bad):
    args = {"vertices": _SQUARE, "layer": 0, "index": 0, field: bad}
    with pytest.raises(InvalidInputError, match="^panel %s must be an int$" % field):
        Panel(**args)


def test_panel_takes_ints_and_points():
    panel = Panel(tuple(Point(float(x), y) for x, y in _SQUARE), -3, 7)
    assert (panel.layer, panel.index) == (-3, 7)
    assert Panel(((0, 0), (1, 0), (1, 1), (0, 1)), 0, 0).orientation == 1


@pytest.mark.parametrize("changes, message", [
    ({"panels": None}, "panels must be a tuple of Panel"),
    ({"panels": []}, "panels must be a tuple of Panel"),
    ({"panels": (_SQUARE,)}, "panels must be a tuple of Panel"),
    ({"centerline": None}, "centerline must be a tuple of point pairs"),
    ({"centerline": [((0.0, 0.0), (1.0, 0.0))]}, "centerline must be a tuple of point pairs"),
    ({"centerline": (((0.0, 0.0),),)}, "centerline must be a tuple of point pairs"),
    ({"centerline": (((0.0, 0.0), (math.nan, 0.0)),)},
     "centerline must be a tuple of point pairs"),
    ({"centerline": (((0.0, 0.0), None),)}, "centerline must be a tuple of point pairs"),
    ({"source": "closed"}, "source must be a FoldProgram or None"),
    ({"source": FamilyId("odd_wrap", 2)}, "source must be a FoldProgram or None"),
], ids=["panels-none", "panels-list", "panels-not-panel", "centerline-none",
        "centerline-list", "segment-one-point", "segment-nan", "segment-none",
        "source-string", "source-family"])
def test_folded_layout_rejects_malformed_fields(changes, message):
    args = {"panels": (Panel(_SQUARE, 0, 0),), "centerline": (((0.0, 0.5), (1.0, 0.5)),),
            "source": None}
    FoldedLayout(**args)
    args.update(changes)
    with pytest.raises(InvalidInputError, match="^layout %s$" % message):
        FoldedLayout(**args)


@pytest.mark.parametrize("family", [FamilyId("odd_wrap", 3), FamilyId("star_polygon", 7)])
def test_layout_stores_what_the_checking_inits_would_build(family):
    # layout fills its panels and its layout without their __init__; the
    # same fields pass those checks and give equal records
    lay = layout(build(family))
    for panel in lay.panels:
        assert Panel(panel.vertices, panel.layer, panel.index) == panel
    assert FoldedLayout(lay.panels, lay.centerline, lay.source) == lay
    assert lay.__dict__ == {"panels": lay.panels, "centerline": lay.centerline,
                            "source": lay.source}
