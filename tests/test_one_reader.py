"""One reader for every input file, checked on the package's source with ``ast``.

``experiments.read_input`` is the one function that opens a file to read it
(``--config``, a results CSV, the resume manifest) and ``experiments.write_atomic``
the one that opens a file to write it, so every input is decoded by one rule and
an unreadable one always gives ``cannot read <what> <path>: <reason>``.
"""

import ast
from pathlib import Path

import mmqlab

SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(Path(mmqlab.__file__).parent.glob("*.py"))}
# ``open`` by name or as an attribute (``io.open``, ``os.open``, ``Path.open``), and pathlib's shortcuts
OPENERS = {"open", "fdopen", "read_text", "read_bytes", "write_text", "write_bytes"}
OWNERS = {"read_input", "write_atomic"}
ALLOWED = {("experiments.py", owner) for owner in OWNERS}
READERS = {"cli.py": ("load_config", "_resumable_rows"), "experiments.py": ("load_results",)}


def _called_name(node) -> str | None:
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
    return None


def opening_calls(tree) -> list[tuple[str, int]]:
    """(top-level function or class holding it, or ``<module>``; line) of every call that opens a file."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        found += [(owner, node.lineno) for node in ast.walk(top) if _called_name(node) in OPENERS]
    return found


def test_scanner_sees_every_way_to_open():
    tree = ast.parse(
        "import io\nfrom pathlib import Path\nTEXT = Path('a').read_text()\n"
        "def one(p):\n    with open(p) as fh:\n        return fh.read()\n"
        "def two(p):\n    return io.open(p).read() + Path(p).open().read()\n"
        "class Three:\n    def load(self, p):\n        return Path(p).read_bytes()\n"
    )
    assert opening_calls(tree) == [("<module>", 3), ("one", 5), ("two", 8), ("two", 8), ("Three", 11)]


def test_only_the_reader_and_write_atomic_open_files():
    found = {
        name: [(owner, line) for owner, line in opening_calls(ast.parse(text)) if (name, owner) not in ALLOWED]
        for name, text in SOURCES.items()
    }
    assert {name: calls for name, calls in found.items() if calls} == {}, "read through experiments.read_input"


def test_reader_and_writer_each_open_once():
    owners = [owner for owner, _ in opening_calls(ast.parse(SOURCES["experiments.py"]))]
    assert sorted(owner for owner in owners if owner in OWNERS) == sorted(OWNERS)


def test_each_input_is_read_through_the_reader():
    for name, readers in READERS.items():
        functions = {node.name: node for node in ast.parse(SOURCES[name]).body if isinstance(node, ast.FunctionDef)}
        for reader in readers:
            calls = [_called_name(node) for node in ast.walk(functions[reader])]
            assert calls.count("read_input") == 1, (name, reader)
