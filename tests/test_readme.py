"""The README's Python examples, run as a user would run them.

Every fenced python block of README.md runs in order, in one namespace,
in a directory holding words.txt, corpus.tsv and my_tables.txt copied
from the bundled data. A statement whose trailing comment is shaped
like a repr (it opens with a quote or a bracket) must give a value
whose repr matches that comment, "..." standing for any text; other
comments are prose and are not checked.

The file imports only the standard library and the package, so it runs
without pytest: `PYTHONPATH=src python tests/test_readme.py` checks the
source tree, and the same command without PYTHONPATH checks an
installed copy.
"""

import ast
import contextlib
import io
import os
import re
import shutil
import tempfile
from pathlib import Path

from amharic_metaphone.ethiopic import data_dir

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
# The names the examples open -> the bundled file copied under each.
_FILES = {
    "words.txt": "lexicon.txt",
    "corpus.tsv": "corpus.tsv",
    "my_tables.txt": "script_tables.txt",
}


def _shown(statement: ast.stmt, lines: list[str]) -> str | None:
    """The repr an expression statement's trailing comment shows, if any."""
    if not isinstance(statement, ast.Expr):
        return None
    line = lines[statement.end_lineno - 1]
    # Column offsets count UTF-8 bytes.
    rest = line.encode("utf-8")[statement.end_col_offset:].decode("utf-8").strip()
    if not rest.startswith("#"):
        return None
    comment = rest[1:].strip()
    return comment if comment[:1] in ("'", '"', "(", "[", "{") else None


def _run_block(block: str, namespace: dict) -> int:
    """Run one block statement by statement; the number of values checked."""
    lines = block.splitlines()
    checked = 0
    for statement in ast.parse(block).body:
        shown = _shown(statement, lines)
        if shown is None:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"),
                     namespace)
        pattern = ".*".join(re.escape(part) for part in shown.split("..."))
        if re.fullmatch(pattern, repr(value), re.DOTALL) is None:
            raise AssertionError(
                f"README shows {shown} for {ast.unparse(statement)}, "
                f"which gives {value!r}"
            )
        checked += 1
    return checked


def run_examples(directory: Path) -> int:
    """Run the README's python blocks in directory; the number of values checked."""
    blocks = _BLOCK.findall(README.read_text(encoding="utf-8"))
    if len(blocks) < 2:
        raise AssertionError(f"expected the README's python blocks, found {len(blocks)}")
    for name, bundled in _FILES.items():
        shutil.copyfile(data_dir() / bundled, directory / name)
    namespace: dict = {"__name__": "readme"}
    checked = 0
    previous = os.getcwd()
    os.chdir(directory)
    try:
        # The examples print a report; it is not part of the check.
        with contextlib.redirect_stdout(io.StringIO()):
            for block in blocks:
                checked += _run_block(block, namespace)
    finally:
        os.chdir(previous)
    return checked


def test_readme_examples_run(tmp_path):
    assert run_examples(tmp_path) == 3


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        checked = run_examples(Path(scratch))
    print(f"README examples run: {checked} shown values match")
