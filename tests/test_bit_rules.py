"""Each bit-width rule has one owner, read from the package's source with ``ast``.

``mmqlab.quantizers`` declares the code widths (``MIN_BITS`` to ``FP_BITS``,
where a grid's ``FP_BITS`` means full precision) and ``DEFAULT_GROUP_SIZE``;
``RunRecord`` declares a results row's per-component bit fields. No module
compares against a spelled 16, and every ``group_size`` default (parameter,
class field or ``--group-size`` option) reads ``DEFAULT_GROUP_SIZE``, so the
rules cannot be restated again unnoticed.
"""

import ast
import re
from pathlib import Path

import pytest

import mmqlab
from mmqlab.experiments import RUN_KEY, RunRecord
from mmqlab.pipeline import COMPONENT_ORDER

SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(Path(mmqlab.__file__).parent.glob("*.py"))}
OWNED = ("MIN_BITS", "FP_BITS", "DEFAULT_GROUP_SIZE")
BITS_FIELDS = tuple(f"{comp.value}_bits" for comp in COMPONENT_ORDER)


def _is_sixteen(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 16


def sixteen_comparisons(tree) -> list[int]:
    """Line numbers of the comparisons with a literal 16 anywhere in them."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(_is_sixteen(sub) for sub in ast.walk(node))
    ]


def group_size_defaults(tree) -> list[tuple[int, ast.expr | None]]:
    """(line, default) of every ``group_size`` parameter or class field with a
    default, and of every ``--group-size`` option (None: it sets no default)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = [*zip(positional[len(positional) - len(a.defaults):], a.defaults), *zip(a.kwonlyargs, a.kw_defaults)]
            found += [(arg.lineno, value) for arg, value in pairs if arg.arg == "group_size" and value is not None]
        elif isinstance(node, ast.ClassDef):
            found += [
                (stmt.lineno, stmt.value)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "group_size" and stmt.value is not None
            ]
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"
            and any(isinstance(arg, ast.Constant) and arg.value == "--group-size" for arg in node.args)
        ):
            found.append((node.lineno, next((kw.value for kw in node.keywords if kw.arg == "default"), None)))
    return found


def _reads_default(value) -> bool:
    return (isinstance(value, ast.Name) and value.id == "DEFAULT_GROUP_SIZE") or (
        isinstance(value, ast.Attribute) and value.attr == "DEFAULT_GROUP_SIZE"
    )


def wrong_group_size_defaults(tree) -> list[int]:
    return [line for line, value in group_size_defaults(tree) if not _reads_default(value)]


def test_no_comparison_spells_sixteen():
    found = {name: sixteen_comparisons(ast.parse(text)) for name, text in SOURCES.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}, "compare against FP_BITS"


def test_every_group_size_default_reads_the_one_default():
    trees = {name: ast.parse(text) for name, text in SOURCES.items()}
    assert sum(len(group_size_defaults(tree)) for tree in trees.values()) >= 5  # the scan still finds them
    wrong = {name: wrong_group_size_defaults(tree) for name, tree in trees.items()}
    assert {name: lines for name, lines in wrong.items() if lines} == {}, "default to DEFAULT_GROUP_SIZE"


@pytest.mark.parametrize(
    "source, comparisons, defaults",
    [
        ("ok = 2 <= k <= 16", 1, 0),
        ("ok = bits in ({8}, {16})", 1, 0),
        ("ok = x < 16.0", 1, 0),
        ("ok = MIN_BITS <= k <= FP_BITS", 0, 0),
        ("total = 16.0 * n", 0, 0),
        ("def f(w, group_size=128): pass", 0, 1),
        ("def f(w, *, group_size=64): pass", 0, 1),
        ("def f(w, group_size=DEFAULT_GROUP_SIZE, k=128): pass", 0, 0),
        ("def f(w, group_size): pass", 0, 0),
        ("class C:\n    group_size: int = 128", 0, 1),
        ("class C:\n    group_size: int = quantizers.DEFAULT_GROUP_SIZE", 0, 0),
        ("class C:\n    group_size: int", 0, 0),
        ("p.add_argument('--group-size', type=int, default=128)", 0, 1),
        ("p.add_argument('--group-size', type=int)", 0, 1),
        ("p.add_argument('--group-size', type=int, default=DEFAULT_GROUP_SIZE)", 0, 0),
    ],
)
def test_scan_catches_each_form(source, comparisons, defaults):
    tree = ast.parse(source)
    assert (len(sixteen_comparisons(tree)), len(wrong_group_size_defaults(tree))) == (comparisons, defaults)


@pytest.mark.parametrize("name", OWNED)
def test_each_rule_is_assigned_once_in_quantizers(name):
    owners = [
        (module, node.lineno)
        for module, text in SOURCES.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == name
    ]
    assert [module for module, _ in owners] == ["quantizers.py"]


def test_component_bit_fields_are_spelled_only_where_declared():
    """``RunRecord`` declares the fields; every other use derives them from
    ``COMPONENT_ORDER`` (``RUN_KEY``, ``RunRecord.component_bits``)."""
    spelled = {name: sum(len(re.findall(rf"\b{name}\b", text)) for text in SOURCES.values()) for name in BITS_FIELDS}
    assert spelled == dict.fromkeys(BITS_FIELDS, 1)
    assert all(name in RunRecord.__dataclass_fields__ for name in BITS_FIELDS)
    # the tuple every run_id hashes, field for field
    assert RUN_KEY == (
        "method", "task", "vision_bits", "connector_bits", "language_bits", "groups", "layer_types", "group_size", "seed",
    )


def test_component_bits_follow_component_order():
    record = RunRecord(
        run_id="r", method=None, task=None, vision_bits=2, connector_bits=5, language_bits=16,
        groups=frozenset(), layer_types=frozenset(), group_size=0, bpw=1.0, score=1.0, seed=0, wall_ms=0,
    )
    assert record.component_bits == (2, 5, 16)
