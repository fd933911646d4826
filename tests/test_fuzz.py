"""Fuzz the inputs: malformed input may only raise RibbonError.

Program JSON: each case takes the JSON of a built program and mutates
it: fields are deleted, replaced by wrong types, NaN and infinities,
huge integers or nested junk, or nudged to other plausible numbers, and
sometimes the text is cut short.  Direct construction: ``CreaseSpec``,
``CutSpec``, ``FoldProgram``, ``RenderOptions``, ``KnotDiagram`` and
``LaurentPolynomial`` get arbitrary Python values, among them real creases
and cuts, and may only return or raise RibbonError; ``RenderOptions``
must refuse a flag that is not a bool.  Command lines: each case draws a set
of flags and values for one subcommand and runs it in-process; it must
exit 0, 1 or 2 without a traceback.  Closed polylines, some snapped to a
coarse lattice, check the crossing search against its all-pairs oracle.
Coefficient lists check the determinant's fused Z[t] update against a
separate product and sum, and its exact division, by divisors with
interior zeros, against the product it must undo.  Small polynomial
matrices, some singular, check the pivoted fraction-free determinant,
sign included, and the sparse elimination on +-1 entries, up to sign,
against elimination in index order.  Signed Gauss codes,
valid or with one corruption, check ``KnotDiagram``'s one walk against a
separate validation and derivation.
Every run is derandomized, so it checks the same cases every time.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ribbonfold import (
    CreaseSpec,
    CutSpec,
    ExactAngle,
    FamilyId,
    FoldProgram,
    InconsistencyError,
    InvalidDiagramError,
    ParameterError,
    Point,
    RenderOptions,
    RibbonError,
    build,
    cli,
    layout,
)
from ribbonfold.determinant import (
    _axpy_terms,
    _divide,
    _poly_bareiss,
    _pstrip,
    _terms,
    _unit_pivot_det,
)
from ribbonfold.knot_id import (
    KnotDiagram,
    LaurentPolynomial,
    _find_crossings,
    alexander_polynomial,
    extract_diagram,
)

from diagram_sources import (
    _padd,
    _pmul,
    _poly_bareiss as oracle_bareiss,
    all_pairs_crossings,
    boundary_outcomes,
    crossing_outcome,
    farey_memo,
    gauss_oracle,
)


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


LEAVES = SCALARS | st.sampled_from([
    ExactAngle(1, 3), ExactAngle(0, 1), CutSpec(0.5),
    CreaseSpec(1.0, ExactAngle(1, 2)), CreaseSpec(2.0, ExactAngle(2, 3), -1),
])
# values are leaves, lists of leaves and nested lists, or small dicts of
# scalars to leaves
ARGUMENTS = LEAVES | st.lists(
    st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3), max_leaves=4), max_size=3
) | st.dictionaries(SCALARS, LEAVES, max_size=3)
# each constructor's required arguments, then its optional ones
CONSTRUCTORS = {
    CreaseSpec: (("position", "angle"), ("layer_shift",)),
    CutSpec: (("position",), ("angle",)),
    FoldProgram: (("width", "creases"),
                  ("presentation", "label", "start_cut", "end_cut", "weave")),
    RenderOptions: ((), ("epsilon_display", "show_creases", "show_circumcircle",
                         "show_centerline", "scale")),
    KnotDiagram: (("gauss",), ()),
    LaurentPolynomial: ((), ("coefficients",)),
}
RENDER_FLAGS = ("show_creases", "show_circumcircle", "show_centerline")


@pytest.mark.parametrize("cls", CONSTRUCTORS, ids=lambda cls: cls.__name__)
@settings(_FUZZ, max_examples=150)
@given(data=st.data())
def test_fuzzed_construction_raises_only_ribbon_errors(cls, data):
    required, optional = CONSTRUCTORS[cls]
    chosen = data.draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
    kwargs = {name: data.draw(ARGUMENTS) for name in required + tuple(chosen)}
    if cls is RenderOptions and any(
            not isinstance(kwargs.get(name, True), bool) for name in RENDER_FLAGS):
        # to_svg reads a flag by its truth value, so only a bool may pass
        with pytest.raises(ParameterError):
            cls(**kwargs)
        return
    try:
        cls(**kwargs)
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


# ------------------------------------------------------------ command lines

# files each command-line case finds in its directory, written as "{tmp}"
FILES = {
    "star.json": build(FamilyId("star_polygon", 7)).to_json(),
    "rect.json": build(FamilyId("rect_74")).to_json(),
    "trunc.json": build(FamilyId("odd_wrap", 3), presentation="truncated").to_json(),
    "junk.json": "{not json",
}
# paths are only ever these, so that no case writes outside its directory
INPUTS = st.sampled_from(["{tmp}/" + name for name in FILES] + ["{tmp}/missing.json", "{tmp}"])
OUTPUTS = st.sampled_from(["-", "{tmp}/out.txt", "{tmp}/missing/out.txt", "{tmp}"])
PATHS = (INPUTS, OUTPUTS)
# valid numbers stay small: a wrap of parameter q has about 2q^2 crossings
INTS = st.integers(-2, 12).map(str)
JUNK_TEXT = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "-0", "1.5", "0x10",
                             "1_000", " 3", "99999999999999999999", "-99999999999999999999"])
FLOATS = (st.floats(allow_nan=True, allow_infinity=True).map(repr)
          | st.sampled_from(["1e-3", "0.05", "1e-9", "0.3", "1e308", "5e-324"]))
# 10**20 + 1 is prime to every small parameter
TORUS = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "7", "100000000000000000001"])
EXPECTED = st.tuples(TORUS, TORUS).map(",".join)
FAMILY = [("--family", st.sampled_from(cli._FAMILY_CHOICES + ("nope",))), ("--q", INTS),
          ("--p", INTS), ("--variant", st.sampled_from(["2", "4", "3"])), ("--epsilon", FLOATS)]
# what a command works on, with the flags it needs, so that most cases
# get past the argument checks; the empty block leaves it to the flags
FAMILY_BLOCKS = [
    ["--family", "odd-wrap", "--q", "3"], ["--family", "pinwheel", "--q", "2"],
    ["--family", "even-wrap", "--q", "3", "--variant", "4"], ["--family", "star", "--p", "7"],
    ["--family", "short-52"], ["--family", "short-72", "--epsilon", "0.01"],
    ["--family", "rect74"], [],
]
SOURCES = {
    "build": FAMILY_BLOCKS,
    "verify": FAMILY_BLOCKS,
    "identify": FAMILY_BLOCKS + [["--input", "{tmp}/" + name] for name in FILES],
}
SOURCE_FLAGS = [flag for flag, _ in FAMILY] + ["--input"]
PRESENTATION = ("--presentation", st.sampled_from(["closed", "truncated"]))
# each subcommand's flags, with a strategy for the value or None for a switch
FLAGS = {
    "build": FAMILY + [PRESENTATION, ("--output", OUTPUTS)],
    "verify": FAMILY + [PRESENTATION, ("--tolerance", FLOATS), ("--knot-check", None)],
    "table": [("--quotients", None), ("--bounds", None),
              ("--format", st.sampled_from(["csv", "markdown"])),
              ("--q-max", st.integers(-2, 30).map(str)),
              ("--p-max", st.integers(-2, 40).map(str)), ("--output", OUTPUTS)],
    "render": [("--input", INPUTS), ("--output", OUTPUTS), ("--scale", FLOATS),
               ("--epsilon-display", FLOATS), ("--circumcircle", None),
               ("--centerline", None), ("--no-creases", None)],
    "identify": [("--input", INPUTS)] + FAMILY
                + [("--expected", EXPECTED), ("--perturbation", FLOATS), ("--json", None)],
}


@st.composite
def command_lines(draw, command):
    argv = [command]
    flags = FLAGS[command]
    if command in SOURCES:
        block = draw(st.sampled_from(SOURCES[command]))
        argv += block
        if block:
            flags = [(flag, values) for flag, values in flags if flag not in SOURCE_FLAGS]
    for flag, values in flags:
        if draw(st.integers(0, 2)) != 0:
            continue
        argv.append(flag)
        if values is not None:
            junk = values not in PATHS and draw(st.integers(0, 4)) == 0
            argv.append(draw(JUNK_TEXT if junk else values))
    return argv


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(_FUZZ, max_examples=80)
@given(data=st.data())
def test_command_lines_exit_cleanly(command, data):
    argv = data.draw(command_lines(command))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


# ------------------------------------------------------------ crossing search


@st.composite
def closed_polylines(draw):
    """Closed polylines with no zero-length segment.

    Most are snapped to a coarse lattice, which makes touches and
    collinear pairs common; some join lattice points to their mirror
    images through the origin, so several segments meet there.
    """
    kind = draw(st.sampled_from(("float", "lattice", "diameters")))
    if kind == "float":
        coord = st.floats(-10, 10)
    else:
        unit = draw(st.sampled_from([1.0, 0.1, 1e-3, 1e3]))
        reach = draw(st.sampled_from([2, 5, 20]))
        coord = st.integers(-reach, reach).map(lambda k: k * unit)
    points = draw(st.lists(st.tuples(coord, coord), min_size=2 if kind == "diameters" else 3,
                           max_size=12))
    if kind == "diameters":
        points = [q for x, y in points for q in ((x, y), (-x, -y))]
    assume(all(points[k] != points[k - 1] for k in range(len(points))))
    return [Point(x, y) for x, y in points]


@settings(_FUZZ, max_examples=300)
@given(closed_polylines())
def test_crossing_search_matches_oracle_on_polylines(vertices):
    assert crossing_outcome(_find_crossings, vertices) == \
        crossing_outcome(all_pairs_crossings, vertices)


COEFFICIENT_LISTS = st.lists(
    st.integers(-3, 3) | st.sampled_from([10**30, -(2**70)]), max_size=9)


@settings(_FUZZ, max_examples=300)
@given(COEFFICIENT_LISTS, COEFFICIENT_LISTS, COEFFICIENT_LISTS)
def test_axpy_terms_matches_separate_product_and_sum(acc, f, v):
    inputs = (list(acc), list(f), list(v))
    got = _axpy_terms(acc, _terms(f), _terms(v))
    assert got == _padd(acc, _pmul(f, v))
    assert (acc, f, v) == inputs and got is not acc


@st.composite
def gapped_divisors(draw):
    """Divisors with a run of interior zeros, some with low zeros too (a
    factor t^k), and a leading coefficient that is not always a unit."""
    low = [0] * draw(st.integers(0, 3))
    first = [draw(st.sampled_from([-2, -1, 1, 3]))]
    gap = [0] * draw(st.integers(1, 6))
    lead = [draw(st.sampled_from([-1, 1, 2, -3, 10**30]))]
    return low + first + gap + draw(COEFFICIENT_LISTS) + lead


@settings(_FUZZ, max_examples=300)
@given(gapped_divisors(), COEFFICIENT_LISTS, COEFFICIENT_LISTS, st.integers(0, 4))
def test_exact_division_undoes_the_product(b, quotient, remainder, low):
    a = _pmul(quotient, b)
    want = _terms(quotient)
    inputs = (list(a), list(b))
    assert _divide(list(a), 0, _terms(b)) == want
    assert (a, b) == inputs
    # the same dividend held from t^low, as elimination holds a numerator
    if not any(a[:low]):
        assert _divide(a[low:], low, _terms(b)) == want
    # b has two nonzero terms at least, so adding t^deg(b) or a nonzero
    # remainder below deg(b) leaves a non-multiple
    r = _pstrip(remainder[:len(b) - 1])
    for other in ([0] * (len(b) - 1) + [1], r):
        if other:
            with pytest.raises(InconsistencyError):
                _divide(_padd(a, other), 0, _terms(b))
    # a divisor of zeros only once raised ZeroDivisionError
    with pytest.raises(InconsistencyError):
        _divide(list(a), 0, _terms([0] * len(b)))


# entries of at most three terms, with gaps and a huge coefficient, and
# often zero
MATRIX_ENTRIES = st.sampled_from(
    [[], [], [], [1], [-1], [0, 1], [1, -1], [-1, 0, 2], [0, 0, 3], [2, 0, 0, -1], [10**30]])


@st.composite
def polynomial_matrices(draw):
    """Square matrices over Z[t] of 1 to 6 rows, some with a zero leading
    entry, a zero row or column, or a row that repeats another times t."""
    n = draw(st.integers(1, 6))
    m = [draw(st.lists(MATRIX_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(("plain", "zero-lead", "zero-row", "zero-column", "repeat")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "zero-lead":
        m[0][0] = []
    elif kind == "zero-row":
        m[i] = [[] for _ in range(n)]
    elif kind == "zero-column":
        for row in m:
            row[j] = []
    elif kind == "repeat" and i != j:
        m[i] = [[0] + v if v else [] for v in m[j]]
    return m


@settings(_FUZZ, max_examples=400)
@given(polynomial_matrices())
def test_pivoted_bareiss_matches_index_order_oracle(matrix):
    # alexander_polynomial normalizes the sign away, so only this direct
    # comparison checks the sign of the row and column swaps
    terms = [[_terms(v) for v in row] for row in matrix]
    assert _poly_bareiss(terms) == _terms(oracle_bareiss(matrix))


# entries that are often the constant units +-1, which the sparse
# elimination pivots on, and otherwise zero or up to three terms
UNIT_RICH_ENTRIES = st.sampled_from(
    [[1], [-1], [1], [-1], [], [], [0, 1], [1, -1], [-1, 0, 2], [2], [0, 0, 3], [10**30]])


@st.composite
def unit_rich_matrices(draw):
    """Square matrices over Z[t] of 1 to 8 rows, mostly +-1 entries, some
    with an empty column, a zero row or a row that repeats another."""
    n = draw(st.integers(1, 8))
    m = [draw(st.lists(UNIT_RICH_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(("plain", "empty-column", "zero-row", "repeat")))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "empty-column":
        for row in m:
            row[j] = []
    elif kind == "zero-row":
        m[i] = [[] for _ in range(n)]
    elif kind == "repeat" and i != j:
        m[i] = [list(v) for v in m[j]]
    return m


@settings(_FUZZ, max_examples=400)
@given(unit_rich_matrices())
def test_unit_pivot_det_matches_index_order_oracle(matrix):
    # sparse rows keyed by column ids that are not 0..n-1, as in a minor
    # whose deleted column is gone
    columns = [2 * j + 1 for j in range(len(matrix))]
    rows = [{c: list(v) for c, v in zip(columns, row) if v} for row in matrix]
    want = _terms(oracle_bareiss(matrix))
    assert _unit_pivot_det(rows, columns) in (want, [(e, -c) for e, c in want])


@st.composite
def gauss_codes(draw):
    """Signed Gauss codes of up to 8 crossings, valid or with one corruption.

    A corruption drops an entry, flips an over flag, flips one sign,
    gives an entry another entry's id or an unused one, gives both
    entries of a crossing another crossing's id, or sets the sign of one
    entry, or of both entries of its crossing, to 0 or 2.  Over flags
    are sometimes the ints 0 and 1, which construction normalizes.
    """
    n = draw(st.integers(0, 8))
    ids = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    signs = {cid: draw(st.sampled_from([-1, 1])) for cid in ids}
    passages = draw(st.permutations([(cid, over) for cid in ids for over in (True, False)]))
    flag = draw(st.sampled_from([bool, int]))
    gauss = [[cid, flag(over), signs[cid]] for cid, over in passages]
    corruption = draw(st.sampled_from(
        ("none", "drop", "over", "sign", "id", "fresh", "merge", "zero", "two")))
    if gauss and corruption != "none":
        k = draw(st.integers(0, len(gauss) - 1))
        if corruption == "drop":
            del gauss[k]
        elif corruption == "over":
            gauss[k][1] = flag(not gauss[k][1])
        elif corruption == "sign":
            gauss[k][2] = -gauss[k][2]
        elif corruption == "id":
            gauss[k][0] = gauss[draw(st.integers(0, len(gauss) - 1))][0]
        elif corruption == "fresh":
            gauss[k][0] = 51
        elif corruption == "merge":
            cid, other = gauss[k][0], gauss[draw(st.integers(0, len(gauss) - 1))][0]
            for entry in gauss:
                if entry[0] == cid:
                    entry[0] = other
        else:
            cid = gauss[k][0]
            both = draw(st.booleans())
            for entry in gauss:
                if entry is gauss[k] or (both and entry[0] == cid):
                    entry[2] = 0 if corruption == "zero" else 2
    return [tuple(entry) for entry in gauss]


def _diagram_outcome(make, gauss):
    try:
        return make(gauss)
    except InvalidDiagramError:
        return "rejected"


@settings(_FUZZ, max_examples=400)
@given(gauss_codes())
def test_knot_diagram_matches_separate_validation_and_derivation(gauss):
    def construct(code):
        diagram = KnotDiagram(code)
        return diagram.gauss, diagram.crossings

    assert _diagram_outcome(construct, gauss) == _diagram_outcome(gauss_oracle, gauss)


@st.composite
def angles_near_fractions(draw):
    n = draw(st.integers(1, 10**4))
    k = draw(st.integers(0, n))
    g = math.gcd(k, n)
    factor = draw(st.sampled_from([-1.0, 1.0]) | st.floats(-2.0, 2.0))
    return k // g, n // g, factor, draw(st.integers(-4, 4)), draw(st.booleans())


@settings(_FUZZ, max_examples=300)
@given(angles_near_fractions(), st.floats(1e-9, math.pi - 1e-9))
def test_unfold_angle_memo_matches_from_float(case, generic):
    # an angle near k/n, up to twice from_float's tolerance and a few ulps
    # either way, and a generic angle: the memo must give what from_float
    # gives, whether or not k/n itself was snapped first
    k, n, factor, steps, meant_first = case
    memo = farey_memo(k, n)
    theta = k / n * math.pi
    if meant_first:
        boundary_outcomes(theta, memo)
    theta += factor * 1e-11 * min(1.0, (1000.0 / n) ** 2)
    for _ in range(abs(steps)):
        theta = math.nextafter(theta, math.copysign(math.inf, steps))
    for angle in (theta, generic):
        memoized, oracle = boundary_outcomes(angle, memo)
        assert memoized == oracle
