"""A replayed bench run writes the same bytes whatever the string hash
seed: ``report.json``, every per-task trace, HTML and CSV file, and the exit
code. The checker keys sets and dicts by cell text, so an order taken from
one of them would show here as a difference between two processes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from tablex.gateway import BackendConfig, ReplayBackend, TranscriptStore
from tablex.model import SourceText, Table, flatten_table, serialize_csv, serialize_html
from tablex.pipeline import PipelineConfig, run_ten

SRC = Path(__file__).resolve().parents[1] / "src"
MARK_RE = re.compile(r"task(\d\d)z")


class FixtureAnswers:
    """Answers every prompt of task i with its table, found by the mark
    "task<i>z" that its header, and so every prompt about it, carries.
    Tables the checker flags go round the loop to its last iteration."""

    def __init__(self, tables: list[Table]):
        self.answers = [
            json.dumps({"tables": [{"$starting_token$": None, "$html_output$": serialize_html(table)}]})
            for table in tables
        ]

    def complete(self, prompt: str) -> str:
        return self.answers[int(MARK_RE.search(prompt).group(1))]


# columns that read as numbers and as words, each with three distinct outliers
OUTLIERS = [[str(r), word] for r, word in enumerate(["alpha", "beta", "gamma", "delta"] * 3)]
OUTLIERS += [["north", "x1"], ["south", "y-2"], ["east", "z 3"]]


def record_dataset(tmp_path: Path, grids: list[tuple[list, list]]) -> tuple[Path, Path]:
    data_dir, cache_dir = tmp_path / "data", tmp_path / "cache"
    data_dir.mkdir()
    tables = []
    for i, (header, body) in enumerate(grids):
        header = [[f"task{i:02d}z", *header[0][1:]]] if header else [[f"task{i:02d}z"]]
        tables.append(Table.from_rows(body=body, header=header))
        (data_dir / f"t{i:02d}.csv").write_text(serialize_csv(tables[-1]) + "\r\n", encoding="utf-8")
    # what the CLI builds from no config, recording through the replay path
    backend = ReplayBackend(BackendConfig(), TranscriptStore(cache_dir), FixtureAnswers(tables))
    cfg = PipelineConfig(generator=backend, critic=backend)
    for table in tables:
        run_ten(SourceText(flatten_table(table).raw), cfg)
    return data_dir, cache_dir


def replay(data_dir: Path, cache_dir: Path, out: Path, hash_seed: str) -> tuple[int, dict[str, bytes]]:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "tablex.cli", "bench", str(data_dir), "--format", "csv", "--replay",
            "--cache-dir", str(cache_dir), "--report", str(out / "report.json"), "--outputs", str(out / "tasks")]  # fmt: skip
    code = subprocess.run(argv, env=env, capture_output=True, timeout=300).returncode
    files = sorted(path for path in out.rglob("*") if path.is_file())
    return code, {str(path.relative_to(out)): path.read_bytes() for path in files}


def test_replay_is_byte_identical_across_hash_seeds(tmp_path, corrupted_corpus):
    grids = [(fx["header"], fx["rows"]) for fx in corrupted_corpus] + [([["n", "w"]], OUTLIERS)]
    data_dir, cache_dir = record_dataset(tmp_path, grids)
    first = replay(data_dir, cache_dir, tmp_path / "seed1", "1")
    second = replay(data_dir, cache_dir, tmp_path / "seed2", "2")
    code, files = first
    assert code in (0, 1) and len(files) == 1 + 3 * len(grids)
    assert b'"rule": "Merged Cell"' in b"".join(files.values())  # the checker's findings are in the traces
    assert first == second
