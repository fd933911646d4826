"""Fuzz the fold program JSON: malformed input may only raise RibbonError.

Each case takes the JSON of a built program and mutates it: fields are
deleted, replaced by wrong types, NaN and infinities, huge integers or
nested junk, or nudged to other plausible numbers, and sometimes the
text is cut short.  The run is
derandomized, so it checks the same documents every time.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from ribbonfold import FamilyId, FoldProgram, RibbonError, build, cli, layout
from ribbonfold.knot_id import alexander_polynomial, extract_diagram


def _base_documents():
    docs = [
        build(FamilyId("odd_wrap", 2)).to_json(),
        build(FamilyId("odd_wrap", 3), presentation="truncated").to_json(),
        build(FamilyId("pinwheel", 2)).to_json(),
        build(FamilyId("rect_74")).to_json(),
        build(FamilyId("short_52")).to_json(),
    ]
    # no builder sets a weave, so give the star each kind of weave
    star = json.loads(build(FamilyId("star_polygon", 7)).to_json())
    for weave in (None, "alternating", "torus",
                  {"mode": "explicit", "pairs": [[0, 2, 1], [3, 1, -1]]}):
        docs.append(json.dumps(dict(star, weave=weave)))
    return docs


BASES = _base_documents()
FIELDS = ("position", "angle_num", "angle_den", "layer_shift", "width",
          "creases", "presentation", "start_cut", "end_cut", "weave", "mode", "pairs")
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.sampled_from([2**63, -(2**63), 10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "closed", "truncated", "torus", "explicit", "x"])
)
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(FIELDS), inner, max_size=4),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def fuzzed_documents(draw):
    doc = json.loads(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JUNK)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        action = draw(st.sampled_from(("delete", "junk", "nudge")))
        if action == "delete":
            del parent[path[-1]]
        elif action == "junk":
            parent[path[-1]] = draw(JUNK)
        elif isinstance(value, float):
            # a plausible value keeps the document parsing, so layout and
            # extraction see it
            parent[path[-1]] = value * draw(st.floats(0.5, 2.0))
        elif isinstance(value, int) and not isinstance(value, bool):
            parent[path[-1]] = draw(st.integers(-3, 12))
    text = json.dumps(doc, allow_nan=True)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


_FUZZ = settings(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@settings(_FUZZ, max_examples=200)
@given(fuzzed_documents())
def test_fuzzed_programs_raise_only_ribbon_errors(text):
    try:
        program = FoldProgram.from_json(text)
        lay = layout(program)
        if program.presentation == "closed":
            alexander_polynomial(extract_diagram(lay))
    except RibbonError:
        pass


@settings(_FUZZ, max_examples=8)
@given(fuzzed_documents())
def test_cli_exits_cleanly_on_fuzzed_files(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "program.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for command in ("identify", "render"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--input", path])
            assert code in (0, 1, 2), (command, text)
