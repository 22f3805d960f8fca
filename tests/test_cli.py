"""End-to-end tests for the command-line front end.

Everything runs in-process through main() so stdout/stderr and exit
codes can be asserted exactly; one subprocess test covers the
`python -m` wiring.
"""

import errno
import io
import json
import os
import subprocess
import sys

import pytest

from amharic_metaphone.cli import main
from amharic_metaphone.ethiopic import data_dir

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


def test_unknown_flag_and_missing_subcommand_exit_one(capsys):
    assert run(capsys, "encode", "--nope", "ላም")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "frobnicate")[0] == 1


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "encode" in out and "evaluate" in out


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


def test_suggest_usage_errors(capsys):
    assert run(capsys, "suggest", "ሊም")[0] == 1  # --lexicon is required
    assert run(capsys, "suggest", "--lexicon", LEXICON, "--limit", "0", "ሊም")[0] == 1
    assert run(capsys, "suggest", "--lexicon", LEXICON)[0] == 1  # no word


def test_suggest_missing_lexicon_is_a_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "suggest", "--lexicon", str(tmp_path / "no.txt"), "ሊም")
    assert code == 2
    assert "not found" in err


# --- index ------------------------------------------------------------------

def test_index_writes_a_reloadable_dump(capsys, tmp_path):
    out_path = tmp_path / "index.txt"
    code, out, err = run(capsys, "index", "--lexicon", LEXICON, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert "98 words" in err
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# amharic-metaphone-index v1"
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
