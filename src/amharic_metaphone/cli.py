"""Command-line front end: encode, suggest, index, and evaluate.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
malformed files, undecodable input, words the encoder rejects).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import unicodedata
from pathlib import Path
from typing import Iterator, Sequence

from .encoder import EncoderConfig, encode, load_mistrike_profile
from .errors import AmharicMetaphoneError, InvalidInputError
from .evaluate import ERROR_TYPE_LABELS, evaluate, load_corpus
from .lexicon import build_index, dump_index, load_lexicon, suggest

# Word separators for --stdin mode: whitespace plus the Ethiopic
# wordspace and punctuation block (U+1360..U+1368).
_SEPARATORS = re.compile(r"[\s፠-፨]+")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this front end reserves 2 for
    data errors, so usage problems are remapped to exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
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


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "jsonl"),
        default="text",
        help="output format (default: text)",
    )


def _config(args: argparse.Namespace) -> EncoderConfig:
    if args.profile is None:
        return EncoderConfig(wy_as_vowels=args.wy_vowels)
    if args.profile == "none":
        return EncoderConfig(wy_as_vowels=args.wy_vowels, profile=None)
    profile = load_mistrike_profile(Path(args.profile))
    return EncoderConfig(wy_as_vowels=args.wy_vowels, profile=profile)


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def _stdin_words() -> Iterator[str]:
    """The tokens of standard input, read one line at a time.

    _SEPARATORS holds every line break, so no token spans two lines,
    and NFC never joins characters across one.
    """
    for line in sys.stdin:
        for token in _SEPARATORS.split(_nfc(line)):
            if token:
                yield token


def _cmd_encode(args: argparse.Namespace) -> int:
    config = _config(args)
    words = _stdin_words() if args.stdin else [_nfc(w) for w in args.words]
    # Each output line leaves in one write, newline included (print()
    # makes two). Batching lines into fewer writes would change what
    # perfbench's stream-encode times, since it stamps each line end.
    write = sys.stdout.write
    for word in words:
        try:
            encodings = encode(word, config)
        except InvalidInputError:
            if not args.stdin:
                raise
            # Bulk text carries names, numbers, punctuation runs; pass
            # them through with a '-' tier flag instead of failing.
            if args.format == "jsonl":
                record = {"word": word, "ethiopic": False, "encodings": []}
                write(json.dumps(record, ensure_ascii=False) + "\n")
            else:
                write(f"{word}\t-\t{word}\n")
            continue
        if args.format == "jsonl":
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
                write(f"{word}\t{int(e.tier)}\t{e.key}\n")
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    config = _config(args)
    lexicon = load_lexicon(args.lexicon)
    index = build_index(lexicon, config)
    query = _nfc(args.word)
    results = suggest(query, index, config, limit=args.limit)
    if args.format == "jsonl":
        record = {
            "word": query,
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
    report = evaluate(corpus, config, lexicon_words=lexicon_words)
    if args.format == "jsonl":
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


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="amharic-metaphone",
        description="Phonetic keys and fuzzy dictionary lookup for Amharic.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_encode = sub.add_parser(
        "encode", help="print phonetic keys for words", description=(
            "Print each word's phonetic keys, one 'word<TAB>tier<TAB>key' "
            "line per key. Tier 0 is the canonical key; 1-3 are alternates."
        )
    )
    p_encode.add_argument("words", nargs="*", metavar="WORD")
    p_encode.add_argument(
        "--stdin",
        action="store_true",
        help="read words from standard input; non-Ethiopic tokens are "
        "passed through with tier '-'",
    )
    _add_config_flags(p_encode)
    _add_format_flag(p_encode)
    p_encode.set_defaults(func=_cmd_encode, parser=p_encode)

    p_suggest = sub.add_parser(
        "suggest", help="rank lexicon words phonetically close to a word",
        description=(
            "Print lexicon words sharing a phonetic key with WORD, one "
            "'word<TAB>tier<TAB>distance' line each, best first."
        )
    )
    p_suggest.add_argument("word", metavar="WORD")
    p_suggest.add_argument("--lexicon", required=True, metavar="FILE")
    p_suggest.add_argument(
        "--limit", type=_positive_int, default=10, help="max results (default: 10)"
    )
    _add_config_flags(p_suggest)
    _add_format_flag(p_suggest)
    p_suggest.set_defaults(func=_cmd_suggest, parser=p_suggest)

    p_index = sub.add_parser(
        "index", help="build and save a phonetic index of a lexicon",
        description=(
            "Encode every lexicon word and write the key->word index as a "
            "sorted, reloadable text dump."
        )
    )
    p_index.add_argument("--lexicon", required=True, metavar="FILE")
    p_index.add_argument("--out", required=True, metavar="FILE")
    _add_config_flags(p_index)
    p_index.set_defaults(func=_cmd_index, parser=p_index)

    p_eval = sub.add_parser(
        "evaluate", help="score the encoder against a misspelling corpus",
        description=(
            "Read 'canonical<TAB>variant<TAB>type' rows and report match "
            "rates per error type. With --lexicon, also list canonicals "
            "missing from that lexicon."
        )
    )
    p_eval.add_argument("--corpus", required=True, metavar="FILE")
    p_eval.add_argument("--lexicon", metavar="FILE")
    _add_config_flags(p_eval)
    _add_format_flag(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate, parser=p_eval)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "encode":
            if args.stdin and args.words:
                args.parser.error("WORD arguments cannot be mixed with --stdin")
            if not args.stdin and not args.words:
                args.parser.error("at least one WORD is required (or --stdin)")
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except (AmharicMetaphoneError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
