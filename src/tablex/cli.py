"""Command-line surface.

Subcommands: ``extract`` (run the reconstruction pipeline on one input),
``check`` (symbolic validation report for a table against a source),
``eval`` (gold-referenced metrics for a prediction), and ``bench`` (the
dataset harness). Exit codes: 0 success, 1 task-level failure, 2 usage
error. Configuration precedence: flags > environment > config file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from functools import lru_cache
from pathlib import Path

from . import bench as benchmod
from .checker import ConvergenceThresholds, parse_entity_patterns, run_sanity_check
from .errors import TablexError, UnreadableFile, UsageError, check_value
from .gateway import Backend, BackendConfig, PromptKind, build_backend
from .metrics import evaluate
from .model import SourceText, serialize_csv, serialize_html
from .pipeline import GENERATION_KINDS, PipelineConfig, run_ten

CACHE_DIR_ENV = "TEN_CACHE_DIR"
# path flags whose empty value is a usage error, not read as no flag (as an empty cache_dir in the config file is)
PATH_FLAGS = ("config", "cache_dir", "patterns", "source", "output", "outputs")
# extract --out: how each format renders the loop's result
OUT_FORMATS = {
    "html": lambda result: serialize_html(result.final),
    "csv": lambda result: serialize_csv(result.final),
    "json": lambda result: result.to_json(),
}


def _read_named_file(path: str) -> str:
    """``bench.read_text`` for a ``--config`` or ``--patterns`` file; one it cannot read is a usage error."""
    try:
        return benchmod.read_text(path)
    except UnreadableFile as exc:
        raise UsageError(str(exc)) from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(_read_named_file(path))
    except (ValueError, RecursionError) as exc:  # bad JSON, or too deep a nesting
        raise UsageError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError(f"{path}: not a JSON object")
    return config


def _backend_config(section: dict, args: argparse.Namespace) -> BackendConfig:
    merged = dict(section)
    if args.model:
        merged["model_id"] = args.model
    if args.endpoint:
        merged["endpoint"] = args.endpoint
    return BackendConfig(**merged)


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """Build the loop's configuration. An unknown key, a bad value or a cache
    mode without a cache directory is a usage error, prefixed with the config
    file's name when one was given."""
    path = args.config
    config = _load_config(path)
    try:
        for key, value in config.items():
            if key == "cache_dir":
                check_value(key, value, str)
            elif key not in ("generator", "critic", "thresholds", "pipeline"):
                raise ValueError(f"unknown key {key!r}")
            elif not isinstance(value, dict):
                raise TypeError(f"section {key!r} must be a JSON object, not {value!r}")
        mode = "replay" if args.replay else "record" if args.record else "live"
        cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or config.get("cache_dir")
        generator: Backend = build_backend(_backend_config(config.get("generator", {}), args), mode, cache_dir)
        # the critic shares the generator's backend unless the config file names its own
        critic: Backend = generator
        if "critic" in config:
            critic = build_backend(BackendConfig(**config["critic"]), mode, cache_dir)
        pipeline_section = dict(config.get("pipeline", {}))
        if args.prompt:
            pipeline_section["generation_prompt"] = args.prompt
        if args.last_iteration:
            pipeline_section["keep_last_iteration"] = True
        if "generation_prompt" in pipeline_section:
            pipeline_section["generation_prompt"] = PromptKind(pipeline_section["generation_prompt"])
        thresholds = ConvergenceThresholds(**config.get("thresholds", {}))
        return PipelineConfig(generator=generator, critic=critic, thresholds=thresholds, **pipeline_section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}" if path else str(exc)) from exc


def _ready_output(flag: str, path: str, directory: bool = False) -> None:
    """Before the run, refuse ``path`` or make its directory (a ``directory``: itself), so no result is lost."""
    if not directory and Path(path).is_dir():
        raise UsageError(f"{flag} {path}: is a directory")
    try:
        if directory:  # made by the outputs writer, as in the batch, so perfbench times it as outputs work
            benchmod.write_task_outputs([], path)
        else:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"{flag} {path}: cannot create its directory: {exc.strerror or exc}") from exc


def _refuse_clashing_paths(args: argparse.Namespace, tasks: list[benchmod.Task]) -> None:
    """Refuse an ``--outputs`` that is the dataset directory, whose gold files
    the task files would overwrite, and a ``--report`` that is a dataset file
    or a task file under ``--outputs``."""
    if args.outputs and os.path.exists(args.outputs) and os.path.samefile(args.outputs, args.dir):
        raise UsageError(f"--outputs {args.outputs}: is the dataset directory")
    if os.path.exists(args.report) and any(
        os.path.samefile(args.report, path) for task in tasks for path in task.files
    ):
        raise UsageError(f"--report {args.report}: is a file the dataset was read from")
    if args.outputs:
        # names first: CLI time is outside the batch, so a report named like no task file costs no path lookup
        name = os.path.basename(args.report)
        stems = {name.removesuffix(suffix) for suffix in benchmod.TASK_FILE_SUFFIXES if name.endswith(suffix)}
        if (
            stems
            and any(task.id in stems for task in tasks)
            and os.path.realpath(os.path.dirname(args.report)) == os.path.realpath(args.outputs)
        ):
            raise UsageError(f"--report {args.report}: is a task file that --outputs {args.outputs} would write")


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8", newline="")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_extract(args: argparse.Namespace) -> int:
    source = SourceText(benchmod.read_text(args.input))
    cfg = _pipeline_config(args)
    if args.output:
        _ready_output("--output", args.output)
    result = run_ten(source, cfg)
    _emit(OUT_FORMATS[args.out](result), args.output)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    table = benchmod.load_table(args.table)
    source = SourceText(benchmod.read_text(args.source))
    try:
        patterns = parse_entity_patterns(_read_named_file(args.patterns)) if args.patterns else None
    except ValueError as exc:
        raise UsageError(f"{args.patterns}: cannot load patterns: {exc}") from exc
    report = run_sanity_check(source, table, patterns=patterns)
    print(report.to_json())
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    pred = benchmod.load_table(args.pred)
    gold = benchmod.load_table(args.gold)
    source = SourceText(benchmod.read_text(args.source)) if args.source else None
    report = evaluate(pred, gold, source)
    print(report.to_json())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        check_value("--parallel", args.parallel, int, min=1)
        if args.timeout is not None:
            check_value("--timeout", args.timeout, float, above=0, max=threading.TIMEOUT_MAX)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    tasks = benchmod.ingest_dataset(args.dir, args.format)
    cfg = _pipeline_config(args)
    timeout = args.timeout if args.timeout else (None if args.replay else 120.0)
    _refuse_clashing_paths(args, tasks)
    _ready_output("--report", args.report)
    if args.outputs:
        if Path(os.path.abspath(args.outputs)).is_relative_to(os.path.abspath(args.report)):
            raise UsageError(f"--outputs {args.outputs}: would turn --report {args.report} into a directory")
        _ready_output("--outputs", args.outputs, directory=True)
    report = benchmod.run_bench(
        tasks, cfg, parallelism=args.parallel, per_task_timeout=timeout, outputs=args.outputs or None
    )
    Path(args.report).write_text(report.to_json(), encoding="utf-8")
    errored = report.aggregates["errored"]
    if errored:
        print(f"bench: {errored} task(s) failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--prompt", choices=sorted(kind.value for kind in GENERATION_KINDS), default=None)
    parser.add_argument("--config", help="JSON config file (backends, thresholds, pipeline)")
    parser.add_argument("--model", help="override the generator model id")
    parser.add_argument("--endpoint", help="override the generator endpoint URL")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--replay", action="store_true", help="serve responses from the cache only")
    mode.add_argument("--record", action="store_true", help="call the live backend and cache responses")
    parser.add_argument("--cache-dir", help=f"transcript cache directory (or ${CACHE_DIR_ENV})")
    parser.add_argument(
        "--last-iteration",
        action="store_true",
        help="on exhaustion return the last candidate instead of the best-scoring one",
    )


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(prog="tablex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="reconstruct a table from a text file")
    p_extract.add_argument("input", help="input text file")
    p_extract.add_argument("--out", choices=tuple(OUT_FORMATS), default="html")
    p_extract.add_argument("--output", help="write result here instead of stdout")
    _add_pipeline_flags(p_extract)
    p_extract.set_defaults(func=_cmd_extract)

    p_check = sub.add_parser("check", help="validate a table against its source text")
    p_check.add_argument("table", help="table file (.html or .csv)")
    p_check.add_argument("--source", required=True, help="source text file")
    p_check.add_argument("--patterns", help="entity pattern JSON file")
    p_check.set_defaults(func=_cmd_check)

    p_eval = sub.add_parser("eval", help="score a prediction against a gold table")
    p_eval.add_argument("pred", help="predicted table file (.html or .csv)")
    p_eval.add_argument("gold", help="gold table file (.html or .csv)")
    p_eval.add_argument("--source", help="source text file for coverage/hallucination")
    p_eval.set_defaults(func=_cmd_eval)

    p_bench = sub.add_parser("bench", help="run the benchmark harness on a dataset directory")
    p_bench.add_argument("dir", help="dataset directory")
    p_bench.add_argument("--format", choices=benchmod.DATASET_FORMATS, required=True)
    p_bench.add_argument("--report", required=True, help="write the report JSON here")
    p_bench.add_argument("--parallel", type=int, default=1)
    p_bench.add_argument(
        "--timeout", type=float, default=None, help="per-task timeout in seconds, from the task's start"
    )
    p_bench.add_argument("--outputs", help="directory for per-task traces and tables")
    _add_pipeline_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for dest in PATH_FLAGS:
            if getattr(args, dest, None) == "":
                raise UsageError(f"--{dest.replace('_', '-')} must be a non-empty path")
        return args.func(args)
    except (TablexError, OSError) as exc:
        print(f"tablex: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
