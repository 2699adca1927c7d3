"""Provenance stamps, the printed report and the final result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path


def provenance(root: Path, backend: str, fallback: str | None) -> dict:
    """Where and on what a run was measured."""
    import numpy

    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = None
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _tree_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi_version,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend,
        "fallback_reason": fallback,
    }


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, when it is a git repository at all."""
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _tree_digest(directory: Path) -> str:
    """SHA-256 over every ``.py`` file's path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def print_metrics(title: str, metrics: dict, notes: dict | None = None) -> None:
    print(f"== {title}")
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"  {name:34} {entry['value']:>16.6g} {entry['unit']}{note}")


def print_layer_table(title: str, rows: list[dict], layers: dict) -> None:
    """Rows of ``{name, p50, p99?, n?, unit}``, annotated with what moves."""
    print(f"== {title}")
    print(f"  {'layer':34} {'p50':>11} {'p99':>11} {'n':>6}  {'unit':14} moves")
    for row in rows:
        p99 = row.get("p99")
        p99_text = f"{p99:11.4g}" if p99 is not None else f"{'':>11}"
        n = row.get("n")
        n_text = f"{n:6d}" if n is not None else f"{'':>6}"
        moves = layers.get(row["name"].split("[")[0], {}).get("moves", "")
        print(
            f"  {row['name']:34} {row['p50']:11.4g} {p99_text} {n_text}  "
            f"{row.get('unit', ''):14} {moves}"
        )


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        }
    )
