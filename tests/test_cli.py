"""End-to-end tests for the command-line front end.

Most tests run in-process through main() so stdout/stderr and exit
codes can be asserted exactly; a property checks that the parser built
for an argv list parses it as the all-commands parser does; subprocess
tests cover the `python -m` wiring, undecodable stdin bytes, a reader that closes the pipe and the
modules the CLI imports.
"""

import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import unicodedata
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amharic_metaphone.cli import _SEPARATORS, _build_parser, main
from amharic_metaphone.ethiopic import SUPPORTED, data_dir

LEXICON = str(data_dir() / "lexicon.txt")
CORPUS = str(data_dir() / "corpus.tsv")


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- encode -----------------------------------------------------------------

def test_encode_single_word_golden_line(capsys):
    code, out, err = run(capsys, "encode", "ላም")
    assert code == 0
    assert out == "ላም\t0\tልም\n"
    assert err == ""


def test_encode_prints_every_tier_in_order(capsys):
    code, out, _ = run(capsys, "encode", "ፕሬዚዳንት", "ጧት")
    assert code == 0
    assert out.splitlines() == [
        "ፕሬዚዳንት\t0\tፕርዝድንት",
        "ፕሬዚዳንት\t2\tኝርዝድንት",
        "ፕሬዚዳንት\t3\tንርዝድንት",
        "ጧት\t0\tጥውት",
        "ጧት\t3\tትውት",
    ]


def test_encode_without_words_is_a_usage_error(capsys):
    code, out, err = run(capsys, "encode")
    assert code == 1
    assert out == ""
    assert "usage" in err and "WORD" in err


def test_encode_rejects_words_mixed_with_stdin(capsys, monkeypatch):
    code, _, err = run(capsys, "encode", "--stdin", "ላም", stdin="", monkeypatch=monkeypatch)
    assert code == 1
    assert "--stdin" in err


def test_usage_errors_print_argparse_text_and_exit_one(capsys, monkeypatch):
    # argparse wraps the usage line to the terminal's width.
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, "suggest", "--lexicon", LEXICON, "--limit", "0", "ሊም") == (
        1, "",
        "usage: amharic-metaphone suggest [-h] [--lexicon FILE] [--index FILE]\n"
        "                                 [--limit LIMIT] [--profile PATH|none]\n"
        "                                 [--wy-vowels] [--format {text,jsonl}]\n"
        "                                 WORD\n"
        "amharic-metaphone suggest: error: argument --limit: must be at least 1\n",
    )
    assert run(capsys, "encode") == (
        1, "",
        "usage: amharic-metaphone encode [-h] [--stdin] [--profile PATH|none]\n"
        "                                [--wy-vowels] [--format {text,jsonl}]\n"
        "                                [WORD ...]\n"
        "amharic-metaphone encode: error: at least one WORD is required (or --stdin)\n",
    )
    assert run(capsys, "encode", "--nope", "ላም") == (
        1, "",
        "usage: amharic-metaphone [-h] command ...\n"
        "amharic-metaphone: error: unrecognized arguments: --nope\n",
    )


# The command names, in the order the top-level help lists them, each
# with the help line printed beside it.
HELP_LINES = {
    "encode": "print phonetic keys for words",
    "suggest": "rank lexicon words phonetically close to a word",
    "index": "build and save a phonetic index of a lexicon",
    "evaluate": "score the encoder against a misspelling corpus",
}


def test_unknown_flag_and_missing_subcommand_exit_one(capsys):
    # Only substrings that Python 3.10 to 3.13 all print are pinned.
    assert run(capsys, "encode", "--nope", "ላም")[0] == 1
    code, out, err = run(capsys)
    assert (code, out) == (1, "")
    assert "the following arguments are required: command" in err
    code, out, err = run(capsys, "frobnicate")
    assert (code, out) == (1, "")
    assert "invalid choice" in err and "frobnicate" in err
    assert all(name in err for name in HELP_LINES)


def test_help_exits_zero(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, "--help")
    assert code == 0
    lines = out.splitlines()
    listed = [
        next(i for i, line in enumerate(lines) if line.split() == [name, *help_line.split()])
        for name, help_line in HELP_LINES.items()
    ]
    assert listed == sorted(listed)


def test_main_without_an_argument_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["evaluate", "--corpus", CORPUS, "--format", "jsonl"], ["evaluate", "-h"]):
        expected = run(capsys, *argv)
        assert expected[0] == 0 and expected[1]
        monkeypatch.setattr(sys, "argv", ["amharic-metaphone", *argv])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected


def _parse(parser, argv):
    """Exit code, stdout, stderr and namespace of parser.parse_args(argv).

    The namespace's sub-parser is given by its prog and its help text.
    """
    out, err = io.StringIO(), io.StringIO()
    code, args = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    if args is not None:
        args["parser"] = (args["parser"].prog, args["parser"].format_help())
    return code, out.getvalue(), err.getvalue(), args


_ARGV_TOKENS = st.one_of(
    st.sampled_from(list(HELP_LINES)),
    st.sampled_from([
        "--stdin", "--lexicon", "--index", "--limit", "--out", "--corpus",
        "--profile", "--wy-vowels", "--format", "-h", "--help", "--",
        "--nope", "--he",
    ]),
    st.sampled_from(["text", "jsonl", "none", "0", "3", "words.txt"]),
    st.text(st.sampled_from(sorted(SUPPORTED) + list("abcxyz")), min_size=1, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(_ARGV_TOKENS, max_size=6),
        st.builds(lambda name, rest: [name, *rest], st.sampled_from(list(HELP_LINES)),
                  st.lists(_ARGV_TOKENS, max_size=6)),
    )
)
def test_the_parser_built_for_argv_parses_it_as_the_full_parser_does(argv):
    # main() builds only the sub-parser argv[0] names; the all-commands
    # parser, which main() builds for argv naming no command, is the
    # reference.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        assert _parse(_build_parser(argv), argv) == _parse(_build_parser(()), argv)


def test_encode_non_ethiopic_argument_is_a_data_error(capsys):
    code, out, err = run(capsys, "encode", "hello")
    assert code == 2
    assert out == ""
    assert "U+0068" in err


def test_encode_jsonl_one_record_per_word(capsys):
    code, out, _ = run(capsys, "encode", "--format", "jsonl", "ፕሬዚዳንት", "ላም")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 2
    assert records[0]["word"] == "ፕሬዚዳንት"
    assert records[0]["ethiopic"] is True
    assert records[0]["encodings"][0] == {"key": "ፕርዝድንት", "tier": 0}
    assert records[1] == {
        "word": "ላም",
        "ethiopic": True,
        "encodings": [{"key": "ልም", "tier": 0}],
    }


def test_encode_stdin_tokenizes_and_flags_passthrough(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        "encode",
        "--stdin",
        stdin="ላም hello\nጤና፡ወጤት።",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ላም\t0\tልም"
    assert lines[1] == "hello\t-\thello"
    assert "ጤና\t0\tጥን" in lines
    assert "ወጤት\t0\tውጥት" in lines


def test_encode_stdin_jsonl_flags_passthrough(capsys, monkeypatch):
    code, out, _ = run(
        capsys,
        "encode",
        "--stdin",
        "--format",
        "jsonl",
        stdin="ላም hello",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[1] == {"word": "hello", "ethiopic": False, "encodings": []}


def test_encode_stdin_echoes_a_refused_token_as_written(capsys, monkeypatch):
    # A decomposed é: NFC would compose it, and the echo would differ.
    token = "Abe\u0301be"
    for flags, echo in (
        ((), f"{token}\t-\t{token}\n"),
        (("--format", "jsonl"),
         f'{{"word": "{token}", "ethiopic": false, "encodings": []}}\n'),
    ):
        code, out, err = run(capsys, "encode", "--stdin", *flags,
                             stdin=f"{token}\n", monkeypatch=monkeypatch)
        assert (code, out.encode("utf-8"), err) == (0, echo.encode("utf-8"), "")


def test_nfc_would_change_no_accepted_word_and_no_token_boundary():
    # Words are taken as written. By UAX #15, NFC would change nothing
    # the encoder accepts or refuses, and move no token boundary, while
    # these hold: an accepted scalar neither decomposes nor combines, no
    # canonical decomposition holds one (so none is ever composed), every
    # separator is a starter, and the canonical decompositions that hold
    # a separator only map a separator to a separator.
    def separator(ch):
        return _SEPARATORS.fullmatch(ch) is not None

    for ch in SUPPORTED:
        assert (unicodedata.decomposition(ch), unicodedata.combining(ch)) == ("", 0)
    with_separators = {}
    for code_point in range(0x110000):
        ch = chr(code_point)
        if separator(ch):
            assert unicodedata.combining(ch) == 0, ch
        fields = unicodedata.decomposition(ch).split()
        if not fields or fields[0].startswith("<"):
            continue  # none, or a compatibility decomposition
        parts = "".join(chr(int(field, 16)) for field in fields)
        assert SUPPORTED.isdisjoint(parts), ch
        if separator(ch) or any(map(separator, parts)):
            with_separators[ch] = parts
    assert with_separators == {"\u2000": "\u2002", "\u2001": "\u2003"}
    assert all(map(separator, "\u2000\u2001\u2002\u2003"))


# Line breaks (\r\n, blank lines), Ethiopic punctuation, a Latin name,
# Ethiopic numerals, and two spellings that share one canonical key.
_STDIN_TEXT = (
    "ሰላም ዓለም፡ Abebe\r\nበ፲፱፻፹ ዓ.ም። ጤና ይስጥልኝ\r\n\r\nMarta ፪ ምንባብ፡፡ሠላም"
)
_STDIN_GOLDEN = (
    "ሰላም\t0\tስልም\n"
    "ዓለም\t0\tአልም\n"
    "Abebe\t-\tAbebe\n"
    "በ፲፱፻፹\t-\tበ፲፱፻፹\n"
    "ዓ.ም\t-\tዓ.ም\n"
    "ጤና\t0\tጥን\n"
    "ጤና\t3\tትን\n"
    "ይስጥልኝ\t0\tይስጥልኝ\n"
    "ይስጥልኝ\t2\tይስጥልፕ\n"
    "ይስጥልኝ\t3\tይስትልን\n"
    "ይስጥልኝ\t3\tይስትልፕ\n"
    "Marta\t-\tMarta\n"
    "፪\t-\t፪\n"
    "ምንባብ\t0\tምንብብ\n"
    "ምንባብ\t1\tምምብብ\n"
    "ሠላም\t0\tስልም\n"
)


_STDIN_GOLDEN_JSONL = (
    '{"word": "ሰላም", "ethiopic": true, "encodings": [{"key": "ስልም", "tier": 0}]}\n'
    '{"word": "ዓለም", "ethiopic": true, "encodings": [{"key": "አልም", "tier": 0}]}\n'
    '{"word": "Abebe", "ethiopic": false, "encodings": []}\n'
    '{"word": "በ፲፱፻፹", "ethiopic": false, "encodings": []}\n'
    '{"word": "ዓ.ም", "ethiopic": false, "encodings": []}\n'
    '{"word": "ጤና", "ethiopic": true, "encodings": [{"key": "ጥን", "tier": 0}, '
    '{"key": "ትን", "tier": 3}]}\n'
    '{"word": "ይስጥልኝ", "ethiopic": true, "encodings": [{"key": "ይስጥልኝ", "tier": 0}, '
    '{"key": "ይስጥልፕ", "tier": 2}, {"key": "ይስትልን", "tier": 3}, '
    '{"key": "ይስትልፕ", "tier": 3}]}\n'
    '{"word": "Marta", "ethiopic": false, "encodings": []}\n'
    '{"word": "፪", "ethiopic": false, "encodings": []}\n'
    '{"word": "ምንባብ", "ethiopic": true, "encodings": [{"key": "ምንብብ", "tier": 0}, '
    '{"key": "ምምብብ", "tier": 1}]}\n'
    '{"word": "ሠላም", "ethiopic": true, "encodings": [{"key": "ስልም", "tier": 0}]}\n'
)
# (extra encode flags, expected stdout) for _STDIN_TEXT.
_STDIN_GOLDENS = [((), _STDIN_GOLDEN), (("--format", "jsonl"), _STDIN_GOLDEN_JSONL)]


def test_encode_stdin_golden_output(capsys, monkeypatch):
    for flags, golden in _STDIN_GOLDENS:
        code, out, err = run(
            capsys, "encode", "--stdin", *flags, stdin=_STDIN_TEXT,
            monkeypatch=monkeypatch,
        )
        assert (code, out, err) == (0, golden, "")
        result = subprocess.run(
            [sys.executable, "-m", "amharic_metaphone.cli", "encode", "--stdin", *flags],
            input=_STDIN_TEXT.encode("utf-8"),
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        )
        assert result.returncode == 0
        assert result.stdout == golden.encode("utf-8")


class _WriteLog(io.TextIOBase):
    """A stdout that keeps the text of each write call."""

    def __init__(self):
        self.calls = []

    def writable(self):
        return True

    def write(self, text):
        self.calls.append(text)
        return len(text)


def test_encode_stdin_writes_each_line_in_one_call(monkeypatch):
    # perfbench's stream-encode times each token by the writes that end
    # its output lines (ROADMAP item 3). Batching several lines into one
    # write changes what that benchmark measures, so it has to be a
    # deliberate change made together with the benchmark.
    for flags, golden in _STDIN_GOLDENS:
        out = _WriteLog()
        monkeypatch.setattr(sys, "stdin", io.StringIO(_STDIN_TEXT))
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["encode", "--stdin", *flags]) == 0
        assert [c for c in out.calls
                if not c.endswith("\n") or c.count("\n") != 1] == []
        assert "".join(out.calls) == golden


def test_encode_stdin_passes_through_a_token_wherever_its_bad_scalar_is(
        capsys, monkeypatch):
    # The key maps refuse an unsupported scalar as they map it, at the
    # first scalar (one lookup) or later (the translate), and the token
    # passes through as written, also with the scalar outside the BMP.
    text = "xላም ላxም ላምx ፩ ላ\U0001F600ም ሰላም\n"
    tokens = ["xላም", "ላxም", "ላምx", "፩", "ላ\U0001F600ም"]
    golden_text = "".join(f"{t}\t-\t{t}\n" for t in tokens) + "ሰላም\t0\tስልም\n"
    golden_jsonl = "".join(
        f'{{"word": "{t}", "ethiopic": false, "encodings": []}}\n' for t in tokens
    ) + '{"word": "ሰላም", "ethiopic": true, "encodings": [{"key": "ስልም", "tier": 0}]}\n'
    for flags, golden in (((), golden_text), (("--format", "jsonl"), golden_jsonl)):
        code, out, err = run(capsys, "encode", "--stdin", *flags, stdin=text,
                             monkeypatch=monkeypatch)
        assert (code, out, err) == (0, golden, "")


def test_encode_profile_none_drops_the_input_method_tier(capsys):
    code, out, _ = run(capsys, "encode", "--profile", "none", "ጧት")
    assert code == 0
    assert out == "ጧት\t0\tጥውት\n"


def test_encode_custom_profile_file(capsys, tmp_path):
    profile = tmp_path / "p.txt"
    profile.write_text("[mistrike-pairs]\nጠ ተ\n", encoding="utf-8")
    code, out, _ = run(capsys, "encode", "--profile", str(profile), "ዓለምፀሐይ")
    assert code == 0
    # this profile has no ጸ/ሰ pair, so the worked example loses its alternate
    assert out == "ዓለምፀሐይ\t0\tአልምጽህይ\n"


def test_encode_missing_profile_file_is_a_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "encode", "--profile", str(tmp_path / "no.txt"), "ላም")
    assert code == 2
    assert "not found" in err


def test_encode_wy_vowels_flag(capsys):
    code, out, _ = run(capsys, "encode", "--wy-vowels", "ሆኖአል", "ሆኗል")
    assert code == 0
    keys = {line.split("\t")[2] for line in out.splitlines()}
    assert keys == {"ህንል"}


# --- suggest ----------------------------------------------------------------

def test_suggest_ranked_output(capsys):
    code, out, _ = run(capsys, "suggest", "--lexicon", LEXICON, "ሊም")
    assert code == 0
    assert out.splitlines() == [
        "ለም\t0\t1",
        "ላም\t0\t1",
        "ልም\t0\t1",
        "ለማ\t0\t2",
        "ልሚ\t0\t2",
        "ልማ\t0\t2",
        "ሎሚ\t0\t2",
    ]


def test_suggest_limit_must_be_an_integer(capsys):
    code, out, err = run(capsys, "suggest", "--lexicon", LEXICON, "--limit", "abc", "ሊም")
    assert (code, out) == (1, "")
    assert err.endswith(
        "amharic-metaphone suggest: error: argument --limit: not an integer: 'abc'\n")


def test_suggest_limit_and_jsonl(capsys):
    code, out, _ = run(
        capsys, "suggest", "--lexicon", LEXICON, "--limit", "2",
        "--format", "jsonl", "ሊም",
    )
    assert code == 0
    record = json.loads(out)
    assert record["word"] == "ሊም"
    assert record["suggestions"] == [
        {"word": "ለም", "tier": 0, "distance": 1},
        {"word": "ላም", "tier": 0, "distance": 1},
    ]


def test_suggest_usage_errors(capsys, tmp_path):
    # Exactly one of --lexicon and --index.
    assert run(capsys, "suggest", "ሊም")[0] == 1
    code, _, err = run(capsys, "suggest", "--lexicon", LEXICON,
                       "--index", str(tmp_path / "index.txt"), "ሊም")
    assert code == 1
    assert "exactly one of --lexicon and --index" in err
    assert run(capsys, "suggest", "--lexicon", LEXICON, "--limit", "0", "ሊም")[0] == 1
    assert run(capsys, "suggest", "--lexicon", LEXICON)[0] == 1  # no word


def test_suggest_missing_lexicon_is_a_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "suggest", "--lexicon", str(tmp_path / "no.txt"), "ሊም")
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize("config, output", [
    ([], []),
    (["--wy-vowels"], []),
    (["--profile", "none"], []),
    ([], ["--limit", "2", "--format", "jsonl"]),
])
def test_suggest_from_a_saved_index_prints_what_the_lexicon_does(
        capsys, tmp_path, config, output):
    dump = str(tmp_path / "index.txt")
    assert run(capsys, "index", "--lexicon", LEXICON, "--out", dump, *config)[0] == 0
    flags = config + output
    for word in ("ሊም", "ወምበር", "ሆኖአል"):
        from_lexicon = run(capsys, "suggest", "--lexicon", LEXICON, *flags, word)
        assert from_lexicon[0] == 0
        assert run(capsys, "suggest", "--index", dump, *flags, word) == from_lexicon


def test_suggest_takes_a_dump_built_under_an_empty_profile_as_none(capsys, tmp_path):
    # A profile file with no records keys every word as --profile none.
    empty, dump = tmp_path / "empty.txt", str(tmp_path / "index.txt")
    empty.write_text("[mistrike-pairs]\n", encoding="utf-8")
    assert run(capsys, "index", "--lexicon", LEXICON, "--out", dump,
               "--profile", str(empty))[0] == 0
    from_lexicon = run(capsys, "suggest", "--lexicon", LEXICON, "--profile", "none", "ሊም")
    assert from_lexicon[0] == 0 and from_lexicon[1]
    assert run(capsys, "suggest", "--index", dump, "--profile", "none", "ሊም") == from_lexicon


def test_suggest_refuses_a_dump_built_under_other_flags(capsys, tmp_path):
    dump = str(tmp_path / "index.txt")
    run(capsys, "index", "--lexicon", LEXICON, "--out", dump)
    code, out, err = run(capsys, "suggest", "--index", dump, "--wy-vowels", "ሊም")
    assert (code, out) == (2, "")
    assert err == (f"error: {dump}: index was built under a different encoder "
                   "config (index 451b81d7438dfea3, query 45f3c7dc670fbd3e); "
                   "rebuild it\n")


def test_suggest_refuses_a_dump_without_a_fingerprint(capsys, tmp_path):
    dump = tmp_path / "index.txt"
    dump.write_text("# amharic-metaphone-index v2\nልም\tላም\t0\n", encoding="utf-8")
    code, out, err = run(capsys, "suggest", "--index", str(dump), "ሊም")
    assert (code, out) == (2, "")
    assert err == f"error: {dump}:2: expected: # fingerprint <hex>\n"


def test_suggest_refuses_a_v1_dump_by_name(capsys, tmp_path):
    dump = tmp_path / "index.txt"
    dump.write_text("# amharic-metaphone-index v1\n# fingerprint c3b6d1e3774e103d\n"
                    "ልም\tላም\t0\n", encoding="utf-8")
    code, out, err = run(capsys, "suggest", "--index", str(dump), "ሊም")
    assert (code, out) == (2, "")
    assert err == (f"error: {dump}:1: index dump format v1 is no longer read; "
                   "rebuild it with 'amharic-metaphone index'\n")


def test_suggest_refuses_a_file_that_is_no_dump(capsys, tmp_path):
    code, out, err = run(capsys, "suggest", "--index", LEXICON, "ሊም")
    assert (code, out) == (2, "")
    assert err == f"error: {LEXICON}:1: not an index dump (bad header)\n"


# --- index ------------------------------------------------------------------

def test_index_writes_a_reloadable_dump(capsys, tmp_path):
    out_path = tmp_path / "index.txt"
    code, out, err = run(capsys, "index", "--lexicon", LEXICON, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert "98 words" in err
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# amharic-metaphone-index v2"
    assert lines[1].startswith("# fingerprint ")
    assert "ልም\tላም\t0" in lines


def test_index_output_is_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "index", "--lexicon", LEXICON, "--out", str(a))[0] == 0
    assert run(capsys, "index", "--lexicon", LEXICON, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_index_fingerprint_tracks_config(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "index", "--lexicon", LEXICON, "--out", str(a))
    run(capsys, "index", "--lexicon", LEXICON, "--wy-vowels", "--out", str(b))
    fp = lambda p: p.read_text(encoding="utf-8").splitlines()[1]
    assert fp(a) != fp(b)


def test_index_write_errors_name_the_target(capsys, tmp_path):
    missing = tmp_path / "missing_dir" / "x.txt"
    directory = tmp_path / "some_dir"
    directory.mkdir()
    for target, code in ((missing, errno.ENOENT), (directory, errno.EISDIR)):
        rc, out, err = run(capsys, "index", "--lexicon", LEXICON, "--out", str(target))
        assert rc == 2
        assert out == ""
        assert err == f"error: [Errno {code}] {os.strerror(code)}: {str(target)!r}\n"
    # no partial file is left beside either target
    assert [p.name for p in tmp_path.iterdir()] == ["some_dir"]
    assert list(directory.iterdir()) == []


# --- evaluate ---------------------------------------------------------------

def test_evaluate_text_report(capsys):
    code, out, _ = run(capsys, "evaluate", "--corpus", CORPUS)
    assert code == 0
    lines = out.splitlines()
    all_line = next(line for line in lines if line.startswith("all"))
    assert all_line.split() == ["all", "129", "113", "0.876"]
    assert lines[-1] == "config: wy_as_vowels=off mistrike_profile=on"


def test_evaluate_jsonl_report(capsys):
    code, out, _ = run(capsys, "evaluate", "--corpus", CORPUS, "--format", "jsonl")
    assert code == 0
    record = json.loads(out)
    assert record["overall"] == {"total": 129, "matched": 113, "rate": 0.876}
    assert record["expected_fail"] == {"total": 2, "matched": 0}
    assert len(record["types"]) == 9
    assert "missing_from_lexicon" not in record


def test_evaluate_wy_flag_improves_the_rate(capsys):
    _, out, _ = run(capsys, "evaluate", "--corpus", CORPUS, "--wy-vowels",
                    "--format", "jsonl")
    assert json.loads(out)["overall"]["matched"] == 122


def test_evaluate_with_lexicon_reports_coverage(capsys, tmp_path):
    code, out, _ = run(
        capsys, "evaluate", "--corpus", CORPUS, "--lexicon", LEXICON,
        "--format", "jsonl",
    )
    assert code == 0
    assert json.loads(out)["missing_from_lexicon"] == []

    partial = tmp_path / "partial.txt"
    partial.write_text("ላም\n", encoding="utf-8")
    code, out, _ = run(capsys, "evaluate", "--corpus", CORPUS,
                       "--lexicon", str(partial))
    assert code == 0
    assert "canonicals absent from lexicon" in out


def test_evaluate_malformed_corpus_is_a_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("x\ty\n", encoding="utf-8")
    code, out, err = run(capsys, "evaluate", "--corpus", str(bad))
    assert code == 2
    assert out == ""
    assert ":1:" in err  # file/line context


def test_evaluate_names_a_corpus_with_no_rows(capsys, tmp_path):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# canonical\tvariant\ttype\n\n", encoding="utf-8")
    code, out, err = run(capsys, "evaluate", "--corpus", str(empty))
    assert (code, out) == (2, "")
    assert err == f"error: {empty}: corpus has no entries\n"


def test_evaluate_requires_corpus_flag(capsys):
    assert run(capsys, "evaluate")[0] == 1


# --- wiring -----------------------------------------------------------------

def test_encode_output_is_byte_identical_across_runs(capsys):
    corpus_words = ["ዓለምፀሐይ", "ፕሬዚዳንት", "ሆኗል", "ጧት", "ወምበር"]
    first = run(capsys, "encode", *corpus_words)
    second = run(capsys, "encode", *corpus_words)
    assert first == second


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "amharic_metaphone.cli", "encode", "ላም"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "ላም\t0\tልም\n"


def test_importing_the_cli_loads_no_unicodedata():
    # The CLI normalizes no text, so nothing it imports needs the
    # Unicode database.
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, amharic_metaphone.cli; print('unicodedata' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")


def test_encode_stdin_into_a_closed_pipe_exits_quietly(tmp_path):
    # The output (about 600 kB) outgrows the pipe's buffer, so the writer
    # is still writing when the reader closes its end after one line.
    text = tmp_path / "text.txt"
    text.write_text("ላም ሰላም ወንበር ዓለም ጧት\n" * 4000, encoding="utf-8")
    with open(text, "rb") as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-m", "amharic_metaphone.cli", "encode", "--stdin"],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == "ላም\t0\tልም\n".encode("utf-8")
    assert (code, err) == (0, b"")


def test_undecodable_stdin_is_a_data_error():
    result = subprocess.run(
        [sys.executable, "-m", "amharic_metaphone.cli", "encode", "--stdin"],
        input=b"\xff " + "ላም\n".encode("utf-8"),
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
    )
    err = result.stderr.decode("utf-8")
    assert result.returncode == 2
    assert result.stdout == b""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_undecodable_stdin_is_a_data_error_in_utf8_mode(fmt):
    # UTF-8 mode (also the default under a C.UTF-8 locale) reads stdin
    # with surrogateescape, which would pass the byte through as text.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    result = subprocess.run(
        [sys.executable, "-m", "amharic_metaphone.cli", "encode", "--stdin",
         "--format", fmt],
        input="ላም ab".encode("utf-8") + b"\xffcd " + "ቤት\n".encode("utf-8"),
        capture_output=True,
        env={**env, "PYTHONUTF8": "1"},
    )
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr.decode("utf-8") == (
        "error: 'utf-8' codec can't decode byte 0xff in position 9: "
        "invalid start byte\n"
    )
