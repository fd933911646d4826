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
from ribbonfold.fold_core import CreaseSpec, CutSpec, ExactAngle, WeaveRule, layout
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
