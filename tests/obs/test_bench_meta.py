"""``benchmarks/conftest.py``'s provenance stamp: SHA plus dirty flag."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo: pathlib.Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=bench", "-c",
                    "user.email=bench@example.invalid", *args],
                   cwd=repo, check=True, capture_output=True)


def test_dirty_flag_tracks_changes_to_tracked_files(bench_conftest,
                                                    tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    (repo / "code.py").write_text("x = 1\n")
    git(repo, "add", "code.py")
    git(repo, "commit", "-q", "-m", "seed")
    sha = bench_conftest._git_sha(repo)
    assert len(sha) == 12 and sha != "unknown"
    assert bench_conftest._git_dirty(repo) is False
    # Untracked outputs do not make the tree dirty ...
    (repo / "BENCH_x.json").write_text("{}\n")
    assert bench_conftest._git_dirty(repo) is False
    # ... an edit to a tracked file does, staged or not.
    (repo / "code.py").write_text("x = 2\n")
    assert bench_conftest._git_dirty(repo) is True
    git(repo, "add", "code.py")
    assert bench_conftest._git_dirty(repo) is True
    git(repo, "commit", "-q", "-m", "edit")
    assert bench_conftest._git_dirty(repo) is False
    assert bench_conftest._git_sha(repo) != sha


def test_outside_a_checkout_is_unknown(bench_conftest, tmp_path,
                                      monkeypatch):
    # Even if the temp dir sits inside some checkout, git must not
    # find it.
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert bench_conftest._git_sha(tmp_path) == "unknown"
    assert bench_conftest._git_dirty(tmp_path) is None


def test_stamp_carries_the_flag(bench_conftest):
    meta = bench_conftest.bench_meta("probe")
    assert set(meta) == {"name", "schema_version", "git_sha", "git_dirty",
                         "cpu_count"}
    assert meta["git_dirty"] in (True, False, None)
