"""Command-line interface.

Subcommands: audit (full two-cohort run), sweep (shots / temperature /
length), match (maximal matches between two raw text files), transcript
(print the faux transcript for one document).

To re-score a finished run, run audit or sweep again with the same --cache
and a new --lmin, --lmax, --exact-lengths or --lowercase. No request key covers
those options, so every completion the cache holds is served from it and only
requests that failed before are sent again.

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Callable, Sequence

from msr_audit import __version__
from msr_audit.corpus import CorpusError, load_corpus, tokenize_document, truncate, words
from msr_audit.gateway import BackendError
from msr_audit.matching import frequency_array, maximal_common_substrings
from msr_audit.prompting import build_transcript, format_transcript, segment
from msr_audit.runner import SWEEP_FIELDS, ExperimentConfig, low_vs_high, report_paths, run_audit, sweep, value_dir

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        # argparse defaults to exit code 2, which we reserve for data errors.
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    # Each dest is an ExperimentConfig field name, and the field's default is the option's.
    parser.set_defaults(**asdict(ExperimentConfig()))
    parser.add_argument("--pre", required=True, help="JSONL corpus for the likely-trained cohort")
    parser.add_argument("--post", required=True, help="JSONL corpus for the post-cutoff control cohort")
    parser.add_argument("--backend", help="live | verbatim | oblivious | partial:P (default: %(default)s)")
    parser.add_argument("--backend-pre", help="override backend for the pre cohort only")
    parser.add_argument("--backend-post", help="override backend for the post cohort only")
    parser.add_argument("--model", help="model name sent to the live backend")
    parser.add_argument("--shots", type=int, help="segments per document, even (default: %(default)s)")
    parser.add_argument(
        "--lmin", dest="l_min", type=int, metavar="LMIN", help="smallest match length tracked (default: %(default)s)"
    )
    parser.add_argument(
        "--lmax", dest="l_max", type=int, metavar="LMAX", help="largest match length tracked (default: %(default)s)"
    )
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--min-words", type=int, help="keep documents strictly longer than this")
    parser.add_argument(
        "--truncate", dest="truncate_words", type=int, metavar="L", help="cap every document at L words"
    )
    parser.add_argument(
        "--concurrency",
        dest="max_in_flight",
        type=int,
        metavar="CONCURRENCY",
        help="max in-flight requests to a backend that waits on I/O (live); the mocks run inline",
    )
    parser.add_argument("--cache", dest="cache_path", metavar="PATH", help="JSONL completion cache")
    parser.add_argument("--seed", type=int, help="seed for the mock backends")
    parser.add_argument("--out", default="msr_report", metavar="DIR", help="report directory (default: %(default)s)")
    parser.add_argument(
        "--base-url", default=os.environ.get("MSR_BASE_URL"), help="live backend base URL (default: $MSR_BASE_URL)"
    )
    parser.add_argument("--system-prompt")
    parser.add_argument("--lowercase", action="store_true", help="case-fold reference and completion before matching")
    parser.add_argument("--exact-lengths", action="store_true", help="count exact lengths instead of >= k")
    parser.add_argument("--max-tokens", type=int, help="completion budget (default: auto)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msr", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_audit = sub.add_parser("audit", help="run the full two-cohort audit")
    _add_run_options(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_sweep = sub.add_parser("sweep", help="re-run the audit across one parameter")
    p_sweep.add_argument("dimension", choices=list(SWEEP_FIELDS))
    p_sweep.add_argument("--values", required=True, nargs="+", help="comma- or space-separated values to sweep")
    _add_run_options(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_match = sub.add_parser("match", help="maximal matches between two raw text files")
    p_match.add_argument("reference", help="reference text file")
    p_match.add_argument("generated", help="generated text file")
    defaults = ExperimentConfig()
    p_match.add_argument("--lmin", type=int, default=defaults.l_min)
    p_match.add_argument("--lmax", type=int, default=defaults.l_max)
    p_match.add_argument("--lowercase", action="store_true")
    p_match.add_argument("--exact-lengths", action="store_true")
    p_match.set_defaults(func=cmd_match)

    p_tr = sub.add_parser("transcript", help="print the faux transcript for one document")
    p_tr.add_argument("--corpus", required=True, help="JSONL corpus file")
    p_tr.add_argument("--doc", required=True, metavar="ID", help="document id")
    p_tr.add_argument("--shots", type=int, default=defaults.shots)
    p_tr.add_argument("--system-prompt", default=defaults.system_prompt)
    p_tr.add_argument("--truncate", type=int, default=None, metavar="L")
    p_tr.set_defaults(func=cmd_transcript)

    return parser


def _config_from_args(args: argparse.Namespace, **overrides) -> ExperimentConfig:
    return ExperimentConfig(**{field.name: getattr(args, field.name) for field in fields(ExperimentConfig)} | overrides)


def _load_cohorts(args: argparse.Namespace) -> list:
    """The --pre/--post flags assign cohorts, overriding any cohort field."""
    return load_corpus(args.pre, cohort_override="pre") + load_corpus(args.post, cohort_override="post")


def _cohort_specs(args: argparse.Namespace) -> dict[str, str]:
    """Each cohort's backend spec: --backend-pre/--backend-post, else --backend."""
    return {"pre": args.backend_pre or args.backend, "post": args.backend_post or args.backend}


def cmd_audit(args: argparse.Namespace) -> int:
    corpus = _load_cohorts(args)
    report = run_audit(corpus, _config_from_args(args), backends=_cohort_specs(args), out=args.out)
    print(json.dumps(asdict(report.comparison), sort_keys=True))
    for path in report_paths(args.out).values():
        print(f"wrote {path}")
    return EXIT_OK


def _parse_values(raw: Sequence[str], cast: Callable) -> list:
    values = []
    for chunk in raw:
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                values.append(cast(piece))
            except ValueError:
                raise ValueError(f"bad sweep value {piece!r}") from None
    if not values:
        raise ValueError("no sweep values given")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    corpus = _load_cohorts(args)
    values = _parse_values(args.values, float if args.dimension == "temperature" else int)
    # The swept field starts at the first value, so a flag the sweep
    # overrides (say --shots in a shots sweep) cannot fail the config.
    config = _config_from_args(args, **{SWEEP_FIELDS[args.dimension]: values[0]})
    results = sweep(corpus, config, args.dimension, values, backends=_cohort_specs(args), out=args.out)
    contrast = low_vs_high(results) if args.dimension == "temperature" else None

    for value, report in results.items():
        line = {"value": value}
        line.update(asdict(report.comparison))
        print(json.dumps(line, sort_keys=True))
        print(f"wrote {report_paths(value_dir(args.out, args.dimension, value))['summary']}", file=sys.stderr)
    if contrast is not None:
        payload = {"low_vs_high": asdict(contrast)}
        contrast_path = Path(args.out) / "low_vs_high.json"
        contrast_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(json.dumps(payload, sort_keys=True))
        print(f"wrote {contrast_path}", file=sys.stderr)
    return EXIT_OK


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc


def cmd_match(args: argparse.Namespace) -> int:
    frequency_array((), args.lmin, args.lmax)  # reject bad thresholds before reading the files
    ref = words(_read_text(args.reference), args.lowercase)
    gen = words(_read_text(args.generated), args.lowercase)
    matches = maximal_common_substrings(ref, gen)
    lengths = matches[:, 0]
    counts = frequency_array(lengths, args.lmin, args.lmax, exact=args.exact_lengths)

    print(f"longest={lengths.max(initial=0)} matches={len(matches)}")
    print("length,pos_ref,pos_gen")
    for length, pos_ref, pos_gen in matches.tolist():
        print(f"{length},{pos_ref},{pos_gen}")
    print()
    print("k,count")
    for k, count in zip(range(args.lmin, args.lmax + 1), counts):
        print(f"{k},{count}")
    return EXIT_OK


def cmd_transcript(args: argparse.Namespace) -> int:
    # Cohort is irrelevant here; the override keeps the field optional, matching
    # how audit corpora are loaded via --pre/--post.
    docs = load_corpus(args.corpus, cohort_override="pre")
    by_id = {doc.id: doc for doc in docs}
    if args.doc not in by_id:
        raise CorpusError(f"no document with id {args.doc!r} in {args.corpus}")
    doc = tokenize_document(by_id[args.doc])
    if args.truncate is not None:
        doc = truncate(doc, args.truncate)
    transcript = build_transcript(doc, segment(doc, args.shots), system_prompt=args.system_prompt)
    print(format_transcript(transcript))
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except BrokenPipeError:
        raise  # entrypoint() exits quietly on a closed stdout
    except (CorpusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", level=logging.WARNING)
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. `msr transcript | head`); point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_OK
    raise SystemExit(status)


if __name__ == "__main__":
    entrypoint()
