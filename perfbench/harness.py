"""Runs CLI ops in-process: one ``genbound.cli.main`` call per op."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import genbound from the checkout's src/; refuse a tree without it."""
    if not (SRC / "genbound" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'genbound'} not found; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Runner:
    """Writes each op's config under ``workdir`` and calls ``cli.main`` on it."""

    def __init__(self, workdir: Path) -> None:
        from genbound import cli  # after use_source_tree()

        self.main = cli.main
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._paths: dict[str, Path] = {}

    def argv(self, op) -> list[str]:
        if op.config is None:
            return list(op.argv)
        text = json.dumps(op.config)
        if text not in self._paths:
            path = self.workdir / f"config{len(self._paths)}.json"
            path.write_text(text)
            self._paths[text] = path
        return [a.replace("{config}", str(self._paths[text])) for a in op.argv]

    def call(self, argv: list[str]) -> tuple[int | None, str | None, str, float]:
        """(exit code or None on an exception, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            return None, None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - start

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
