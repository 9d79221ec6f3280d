"""Byte-identity corpus: every recorded CLI case still prints the same bytes.

``data/corpus.json`` holds, per case, the arguments given to
``regcap.cli.main`` and the SHA-256 of its stdout, its stderr and the
``--json-out`` file (null when the case writes none), plus the exit status.
Each case runs in a fresh directory holding a copy of ``data/``, so every
path in the arguments, and so in the reports, is relative.

A change that alters output on purpose re-records the digests in the same
diff with ``python tests/test_corpus.py [NAME ...]``, run with ``src`` on
PYTHONPATH: the named cases only, or every case when none is named.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from regcap.cli import main
from regcap.config import ENV_CONFIG_PATH

DATA_DIR = Path(__file__).parent / "data"
CORPUS = DATA_DIR / "corpus.json"
JSON_OUT = "out.json"

# argparse wraps --help text to the terminal width.
HELP_COLUMNS = "80"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(args: list[str], workdir: Path) -> dict:
    """Run one case in ``workdir``: its exit status and output digests."""
    for path in DATA_DIR.iterdir():
        if path.is_file() and path != CORPUS:
            shutil.copy(path, workdir / path.name)
    stdout, stderr = io.StringIO(), io.StringIO()
    saved_cwd, saved_env = os.getcwd(), dict(os.environ)
    os.chdir(workdir)
    os.environ.pop(ENV_CONFIG_PATH, None)
    os.environ["COLUMNS"] = HELP_COLUMNS
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                status = main(list(args))
            except SystemExit as exc:  # --help prints argparse's text and exits 0
                status = exc.code
        out = workdir / JSON_OUT
        document = _digest(out.read_bytes()) if out.exists() else None
    finally:
        os.chdir(saved_cwd)
        os.environ.clear()
        os.environ.update(saved_env)
    return {
        "status": status,
        "stdout": _digest(stdout.getvalue().encode("utf-8")),
        "stderr": _digest(stderr.getvalue().encode("utf-8")),
        "json": document,
    }


def _cases() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["name"])
def test_case_prints_the_recorded_bytes(case, tmp_path):
    recorded = {key: case[key] for key in ("status", "stdout", "stderr", "json")}
    assert replay(case["args"], tmp_path) == recorded


def test_corpus_covers_every_command_and_book():
    cases = _cases()
    assert len({case["name"] for case in cases}) == len(cases)
    commands = {case["args"][0] for case in cases}
    assert commands == {"compute", "compare", "disclose", "validate", "dump-tables", "--help"}
    books = {arg for case in cases for arg in case["args"] if arg.endswith(".csv")}
    assert {"worked_example.csv", "portfolio_golden.csv", "irb_small.csv"} <= books
    assert {case["status"] for case in cases} == {0, 1, 2}


def test_recording_named_cases_leaves_the_others(tmp_path, monkeypatch):
    cases = _cases()[:3]
    for case in cases:
        case["stdout"] = "stale"
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(cases), encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "CORPUS", corpus)
    with pytest.raises(SystemExit, match="no corpus case named absent"):
        record([cases[1]["name"], "absent"])
    record([cases[1]["name"]])
    stdout = [case["stdout"] for case in _cases()]
    assert stdout[0] == stdout[2] == "stale" != stdout[1]
    record([])
    assert "stale" not in [case["stdout"] for case in _cases()]


def record(names: list[str]) -> None:
    """Re-record the digests of the named cases in place, or of every case
    when none is named, keeping names and arguments."""
    import tempfile

    cases = _cases()
    unknown = set(names) - {case["name"] for case in cases}
    if unknown:
        sys.exit(f"no corpus case named {', '.join(sorted(unknown))}")
    chosen = [case for case in cases if not names or case["name"] in names]
    for case in chosen:
        with tempfile.TemporaryDirectory() as workdir:
            case.update(replay(case["args"], Path(workdir)))
    lines = ",\n".join(json.dumps(case) for case in cases)
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"recorded {len(chosen)} of {len(cases)} cases in {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:])
