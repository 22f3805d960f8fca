"""Command-line front end: encode, suggest, index, and evaluate.

A call builds the sub-parser its first argument names, or all four when
it names none. argparse reads no other sub-parser, so no output differs.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
malformed files, undecodable input, words the encoder rejects). A reader
that closes stdout early ends the run quietly with 0, as Unix filters do.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path
from typing import Iterator, Sequence

from .encoder import _TIER_TEXT, EncoderConfig, encode, load_mistrike_profile
from .errors import (
    AmharicMetaphoneError,
    ConfigMismatchError,
    EmptyCorpusError,
    InvalidInputError,
)
from .evaluate import ERROR_TYPE_LABELS, evaluate, load_corpus
from .lexicon import build_index, dump_index, load_index, load_lexicon, suggest

# Word separators for --stdin mode: whitespace plus the Ethiopic
# wordspace and punctuation block (U+1360..U+1368).
_SEPARATORS = re.compile(r"[\s፠-፨]+")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _config(args: argparse.Namespace) -> EncoderConfig:
    if args.profile is None:
        return EncoderConfig(wy_as_vowels=args.wy_vowels)
    if args.profile == "none":
        return EncoderConfig(wy_as_vowels=args.wy_vowels, profile=None)
    profile = load_mistrike_profile(Path(args.profile))
    return EncoderConfig(wy_as_vowels=args.wy_vowels, profile=profile)


def _stdin_words() -> Iterator[str]:
    """The tokens of standard input, read one line at a time.

    _SEPARATORS holds every line break, so no token spans two lines.
    Undecodable bytes raise UnicodeDecodeError, also in UTF-8 mode or
    under a C.UTF-8 locale, where Python reads stdin with surrogateescape.
    """
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(errors="strict")
    for line in sys.stdin:
        for token in _SEPARATORS.split(line):
            if token:
                yield token


def _cmd_encode(args: argparse.Namespace) -> int:
    config = _config(args)
    words = _stdin_words() if args.stdin else args.words
    jsonl = args.format == "jsonl"
    if jsonl:
        import json  # here, as text output never needs it
    # Each output line leaves in one write, newline included (print()
    # makes two). Batching lines into fewer writes would change what
    # perfbench's stream-encode times, since it stamps each line end.
    write = sys.stdout.write
    for word in words:
        try:
            encodings = encode(word, config).encodings
        except InvalidInputError:
            if not args.stdin:
                raise
            # Bulk text carries names, numbers, punctuation runs; pass
            # them through with a '-' tier flag instead of failing.
            if jsonl:
                record = {"word": word, "ethiopic": False, "encodings": []}
                write(json.dumps(record, ensure_ascii=False) + "\n")
            else:
                write(f"{word}\t-\t{word}\n")
            continue
        if jsonl:
            record = {
                "word": word,
                "ethiopic": True,
                "encodings": [
                    {"key": e.key, "tier": int(e.tier)} for e in encodings
                ],
            }
            write(json.dumps(record, ensure_ascii=False) + "\n")
        else:
            for e in encodings:
                write(f"{word}\t{_TIER_TEXT[e.tier]}\t{e.key}\n")
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.index is not None:
        # suggest() refuses a dump built under other flags.
        index = load_index(args.index)
    else:
        index = build_index(load_lexicon(args.lexicon), config)
    try:
        results = suggest(args.word, index, config, limit=args.limit)
    except ConfigMismatchError as exc:
        # Only a loaded dump can mismatch; name it, as its LoadErrors do.
        raise ConfigMismatchError(f"{args.index}: {exc}") from None
    if args.format == "jsonl":
        import json

        record = {
            "word": args.word,
            "suggestions": [
                {"word": s.word, "tier": int(s.match_tier), "distance": s.distance}
                for s in results
            ],
        }
        print(json.dumps(record, ensure_ascii=False))
    else:
        for s in results:
            print(f"{s.word}\t{int(s.match_tier)}\t{s.distance}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    config = _config(args)
    lexicon = load_lexicon(args.lexicon)
    index = build_index(lexicon, config)
    dump_index(index, args.out)
    print(
        f"indexed {len(lexicon)} words into {len(index)} keys -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config(args)
    corpus = load_corpus(args.corpus)
    lexicon_words = None
    if args.lexicon is not None:
        lexicon_words = load_lexicon(args.lexicon).words
    try:
        report = evaluate(corpus, config, lexicon_words=lexicon_words)
    except EmptyCorpusError as exc:
        # Name the corpus file, as its LoadErrors do.
        raise EmptyCorpusError(f"{args.corpus}: {exc}") from None
    if args.format == "jsonl":
        import json

        record = {
            "config": {
                "wy_as_vowels": report.wy_as_vowels,
                "mistrike_profile": report.profile_enabled,
            },
            "types": [
                {
                    "type": error_type,
                    "label": ERROR_TYPE_LABELS[error_type],
                    "total": stats.total,
                    "matched": stats.matched,
                    "rate": round(stats.rate, 4),
                }
                for error_type, stats in sorted(report.per_type.items())
            ],
            "overall": {
                "total": report.overall.total,
                "matched": report.overall.matched,
                "rate": round(report.overall.rate, 4),
            },
            "expected_fail": {
                "total": report.expected_fail.total,
                "matched": report.expected_fail.matched,
            },
        }
        if lexicon_words is not None:
            record["missing_from_lexicon"] = list(report.missing_from_lexicon)
        print(json.dumps(record, ensure_ascii=False))
    else:
        print(report.as_text())
    return 0


def _add_arguments(name: str, parser: argparse.ArgumentParser) -> None:
    if name == "encode":
        parser.add_argument("words", nargs="*", metavar="WORD")
        parser.add_argument("--stdin", action="store_true", help=(
            "read words from standard input; tokens holding a scalar the "
            "encoder does not support pass through as written, flagged with "
            "tier '-'"))
    elif name == "suggest":
        parser.add_argument("word", metavar="WORD")
        parser.add_argument("--lexicon", metavar="FILE",
                            help="lexicon to index for this query")
        parser.add_argument("--index", metavar="FILE",
                            help="index dump written by 'index' under the "
                            "same --profile and --wy-vowels")
        parser.add_argument("--limit", type=_positive_int, default=10,
                            help="max results (default: 10)")
    elif name == "index":
        parser.add_argument("--lexicon", required=True, metavar="FILE")
        parser.add_argument("--out", required=True, metavar="FILE")
    else:  # evaluate
        parser.add_argument("--corpus", required=True, metavar="FILE")
        parser.add_argument("--lexicon", metavar="FILE")
    parser.add_argument(
        "--profile",
        metavar="PATH|none",
        default=None,
        help="mistrike profile file, or 'none' to disable the "
        "input-method tier (default: bundled phonetic-keyboard profile)",
    )
    parser.add_argument(
        "--wy-vowels",
        action="store_true",
        help="also drop non-initial w/y carriers when building keys",
    )
    if name != "index":  # index writes a file, not stdout
        parser.add_argument("--format", choices=("text", "jsonl"), default="text",
                            help="output format (default: text)")


# name -> (help, description, handler)
_COMMANDS = {
    "encode": ("print phonetic keys for words", (
        "Print each word's phonetic keys, one 'word<TAB>tier<TAB>key' "
        "line per key. Tier 0 is the canonical key; 1-3 are alternates."
    ), _cmd_encode),
    "suggest": ("rank lexicon words phonetically close to a word", (
        "Print lexicon words sharing a phonetic key with WORD, one "
        "'word<TAB>tier<TAB>distance' line each, best first. Give "
        "exactly one of --lexicon and --index."
    ), _cmd_suggest),
    "index": ("build and save a phonetic index of a lexicon", (
        "Encode every lexicon word and write the key->word index as a "
        "sorted, reloadable text dump."
    ), _cmd_index),
    "evaluate": ("score the encoder against a misspelling corpus", (
        "Read 'canonical<TAB>variant<TAB>type' rows and report match "
        "rates per error type. With --lexicon, also list canonicals "
        "missing from that lexicon."
    ), _cmd_evaluate),
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amharic-metaphone",
        description="Phonetic keys and fuzzy dictionary lookup for Amharic.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_text, description, handler = _COMMANDS[name]
        command = sub.add_parser(name, help=help_text, description=description)
        _add_arguments(name, command)
        command.set_defaults(func=handler, parser=command)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv).parse_args(argv)
        if args.command == "encode":
            if args.stdin and args.words:
                args.parser.error("WORD arguments cannot be mixed with --stdin")
            if not args.stdin and not args.words:
                args.parser.error("at least one WORD is required (or --stdin)")
        elif args.command == "suggest" and (args.index is None) == (args.lexicon is None):
            args.parser.error("exactly one of --lexicon and --index is required")
    except SystemExit as exc:
        # argparse exits 2 on a usage error (after printing it) and 0
        # after --help; this front end reserves 2 for data errors.
        return 1 if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; devnull takes the write.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (AmharicMetaphoneError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
