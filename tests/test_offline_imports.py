"""Offline runs never load the HTTP stack or OpenSSL: ``requests`` is
imported by the first live call, and request fingerprints use CPython's
built-in SHA-256 rather than ``hashlib``, whose import loads OpenSSL's
libcrypto through ``_hashlib``. So importing tablex, a replayed ``bench``
and a record run whose every request is a cache hit leave both out of
``sys.modules``, and a one-worker ``bench`` imports no thread pool. The
pytest process already holds them, so each check runs in a fresh
interpreter."""

from __future__ import annotations

import os
import subprocess
import sys

from tablex.gateway import BackendConfig, TranscriptStore, request_fingerprint

from test_replay_hash_seed import SRC, record_dataset

LOADED = "print('requests' in sys.modules)"
OPENSSL_LOADED = "print('_hashlib' in sys.modules)"


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "TEN_API_KEY"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


def test_import_leaves_requests_unloaded():
    done = run_python(f"import sys, tablex, tablex.cli; {LOADED}")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_replayed_bench_leaves_requests_unloaded(tmp_path):
    data_dir, cache_dir = record_dataset(tmp_path, [([["n", "w"]], [["1", "a"], ["2", "b"]])])
    argv = ["bench", str(data_dir), "--format", "csv", "--replay", "--cache-dir", str(cache_dir),
            "--report", str(tmp_path / "report.json")]  # fmt: skip
    done = run_python(f"import sys; from tablex.cli import cli; code = cli(sys.argv[1:]); {LOADED}; print(code)", *argv)
    assert done.stdout == "False\n0\n", done.stderr
    assert (tmp_path / "report.json").is_file()


def test_one_worker_bench_starts_no_thread_pool(tmp_path):
    """A replayed one-worker ``bench`` runs its tasks on the calling thread
    and never imports ``concurrent.futures``; at ``--parallel 2`` the pool
    does, and its threads are joined before ``cli`` returns."""
    data_dir, cache_dir = record_dataset(tmp_path, [([["n", "w"]], [["1", "a"], ["2", "b"]])] * 2)
    code = """
import sys, threading
from tablex.cli import cli
code = cli(sys.argv[1:])
print(code, 'concurrent.futures' in sys.modules, threading.active_count())
"""
    for parallel, pooled in (("1", False), ("2", True)):
        out = tmp_path / f"p{parallel}"
        argv = ["bench", str(data_dir), "--format", "csv", "--replay", "--cache-dir", str(cache_dir),
                "--report", str(out / "report.json"), "--outputs", str(out / "tasks"), "--parallel", parallel]  # fmt: skip
        done = run_python(code, *argv)
        assert done.stdout == f"0 {pooled} 1\n", done.stderr
    assert (tmp_path / "p1" / "report.json").read_bytes() == (tmp_path / "p2" / "report.json").read_bytes()


def test_record_run_of_cache_hits_leaves_requests_unloaded(tmp_path):
    """A cache hit never reaches the live backend; the first miss does, and
    so loads ``requests`` (it then fails for want of an API key)."""
    TranscriptStore(tmp_path).put("recorded prompt", "recorded answer", BackendConfig())
    code = f"""
import sys
from tablex.errors import AuthMissingError
from tablex.gateway import BackendConfig, build_backend
backend = build_backend(BackendConfig(), "record", sys.argv[1])
print(backend.complete("recorded prompt"))
{LOADED}
try:
    backend.complete("unrecorded prompt")
except AuthMissingError:
    {LOADED}
"""
    done = run_python(code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "recorded answer\nFalse\nTrue\n"


def test_import_leaves_openssl_unloaded():
    done = run_python(f"import sys, tablex, tablex.cli; {OPENSSL_LOADED}")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_replayed_bench_leaves_openssl_unloaded(tmp_path):
    data_dir, cache_dir = record_dataset(tmp_path, [([["n", "w"]], [["1", "a"], ["2", "b"]])])
    argv = ["bench", str(data_dir), "--format", "csv", "--replay", "--cache-dir", str(cache_dir),
            "--report", str(tmp_path / "report.json"), "--outputs", str(tmp_path / "tasks")]  # fmt: skip
    code = f"import sys; from tablex.cli import cli; code = cli(sys.argv[1:]); {OPENSSL_LOADED}; print(code)"
    done = run_python(code, *argv)
    assert done.stdout == "False\n0\n", done.stderr
    assert (tmp_path / "report.json").is_file() and (tmp_path / "tasks" / "t00.trace.json").is_file()


def test_record_run_of_cache_hits_leaves_openssl_unloaded(tmp_path):
    """A cache hit hashes its prompt with the built-in SHA-256; the first
    miss loads ``requests``, and OpenSSL with it."""
    TranscriptStore(tmp_path).put("recorded prompt", "recorded answer", BackendConfig())
    code = f"""
import sys
from tablex.errors import AuthMissingError
from tablex.gateway import BackendConfig, build_backend
backend = build_backend(BackendConfig(), "record", sys.argv[1])
print(backend.complete("recorded prompt"))
{OPENSSL_LOADED}
try:
    backend.complete("unrecorded prompt")
except AuthMissingError:
    {OPENSSL_LOADED}
"""
    done = run_python(code, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "recorded answer\nFalse\nTrue\n"


def test_fingerprint_falls_back_to_hashlib_without_a_built_in_sha256():
    """A build without ``_sha2`` or ``_sha256`` hashes through ``hashlib``,
    to the same digests."""
    short = ["plain", "caf\u00e9 \U0001f600", "lone \ud800", ""]
    config = BackendConfig()
    expected = [request_fingerprint(prompt, config.model_id, config.params) for prompt in [*short, "x\u00e9|" * 50_000]]
    code = f"""
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from tablex.gateway import BackendConfig, request_fingerprint
config = BackendConfig()
prompts = {short!r} + ["x\u00e9|" * 50_000]  # built here: one argv string is capped at 128 KB
print([request_fingerprint(prompt, config.model_id, config.params) for prompt in prompts])
{OPENSSL_LOADED}
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{expected!r}\nTrue\n"
