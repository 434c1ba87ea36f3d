"""Command-line surface: mine-words, mine-sentences, translate, evaluate, run-all.

Exit codes: 0 ok, 2 config/validation, 3 backend, 4 data.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import POLICIES, load_config
from .errors import MinerError
from .pipeline import Pipeline, RunLock

log = logging.getLogger(__name__)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline INI file")
    parser.add_argument(
        "--backend", choices=("http", "mock"), help="override backend kind"
    )
    parser.add_argument("--cache-dir", help="override response cache directory")
    parser.add_argument("--output-dir", help="override run output directory")
    parser.add_argument("--seed", type=int, help="override sampling seed")
    parser.add_argument(
        "--concurrency",
        type=int,
        help="max requests in flight to network (HTTP) backends, LLM and "
        "embedding together, in every stage including translation; local "
        "backends run on the calling thread",
    )
    parser.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icl-miner",
        description=(
            "Mine word- and sentence-level in-context examples for machine "
            "translation from monolingual data plus an LLM, then translate "
            "and evaluate test sets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine-words", help="mine the word-pair lexicon")
    _add_common_flags(p)

    p = sub.add_parser("mine-sentences", help="mine the pseudo-parallel pool")
    _add_common_flags(p)

    p = sub.add_parser("translate", help="translate the test set")
    _add_common_flags(p)
    p.add_argument(
        "--policy",
        action="append",
        choices=tuple(POLICIES),
        help="policy to run (repeatable; default: configured policies)",
    )

    p = sub.add_parser("evaluate", help="score a hypothesis file")
    _add_common_flags(p)
    p.add_argument("--hyp", required=True, help="hypothesis file, one line per input")
    p.add_argument("--ref", required=True, help="line-aligned reference file")
    p.add_argument("--system", default="system", help="system name for the report")

    p = sub.add_parser("run-all", help="run every stage end to end")
    _add_common_flags(p)
    p.add_argument(
        "--policy",
        action="append",
        choices=tuple(POLICIES),
        help="policy to run (repeatable; default: configured policies); "
        "only the stages these policies read run",
    )

    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    return {
        "backend_kind": args.backend,
        "cache_dir": args.cache_dir,
        "output_dir": args.output_dir,
        "seed": args.seed,
        "concurrency": args.concurrency,
    }


def _run(args: argparse.Namespace) -> int:
    config = load_config(args.config, _overrides_from_args(args))
    pipeline = Pipeline(config)

    if args.command == "evaluate":
        report = pipeline.evaluate(args.hyp, args.ref, system=args.system)
        print(report.row())
        return 0

    with RunLock(pipeline.run_dir):
        if args.command == "mine-words":
            lexicon = pipeline.mine_words()
            print(f"lexicon: {lexicon}")
        elif args.command == "mine-sentences":
            pool_path = pipeline.mine_sentences()
            from .sentence_mining import read_pool

            print(f"pool: {pool_path} ({len(read_pool(pool_path))} pairs)")
        elif args.command == "translate":
            policies = tuple(args.policy) if args.policy else config.effective_policies()
            for policy in policies:  # reject a policy before any stage runs
                config.policy(policy)
            for policy in policies:
                hyp = pipeline.translate(policy)
                print(f"{policy}: {hyp}")
        elif args.command == "run-all":
            policies = tuple(args.policy) if args.policy else None
            reports = pipeline.run_all(policies)
            for report in reports:
                print(report.row())
            print(f"run directory: {pipeline.run_dir}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _run(args)
    except MinerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
