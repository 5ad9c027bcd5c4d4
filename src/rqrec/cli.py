"""Command-line entry point: stage orchestration with config files and overrides."""
from __future__ import annotations

import argparse
import logging
import sys

from .config import RERANK_MODES, load_config
from .pipeline import STAGES, run_stage


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqrec",
        description="Hierarchical item indexing, trie-constrained retrieval, "
                    "and self-consistency reranking.")
    parser.add_argument("stage", choices=list(STAGES) + ["all"],
                        help="pipeline stage to run")
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="line-oriented 'section.key = value' config file")
    parser.add_argument("--set", dest="overrides", metavar="KEY=VALUE",
                        action="append", default=[],
                        help="override a config entry (repeatable)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the global seed")
    parser.add_argument("--mode", choices=RERANK_MODES, default=None,
                        help="rerank fusion mode (full, single-index, conf/cons-only)")
    parser.add_argument("--synthetic", action="store_true",
                        help="prepare: generate the seeded synthetic fixture")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only warnings and errors")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING if args.quiet else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)
    try:
        cfg = load_config(args.config, overrides=args.overrides, seed=args.seed)
        if args.mode:
            cfg.mode = args.mode
    except (ValueError, OSError) as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    for stage in STAGES if args.stage == "all" else (args.stage,):
        try:
            run_stage(cfg, stage, synthetic=args.synthetic)
        except (ValueError, OSError, RuntimeError) as exc:  # PipelineError is a RuntimeError
            print(f"error [{stage}]: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
