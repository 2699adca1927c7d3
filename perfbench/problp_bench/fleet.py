"""The served program: a ``problp serve`` subprocess tree and its metrics.

The server runs as its own process (``--shards 1 --replicas 1``: a
routing front plus one replica worker), so the load generator never
shares an interpreter lock with it. Only ``--port 0`` is passed besides
the topology: every tuning flag keeps its shipped default.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_BANNER = re.compile(r"on (\S+):(\d+) across")


def child_env(root: Path, cache: Path, tmp: Path) -> dict:
    """Environment for a program process: checkout sources, fresh cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PROBLP_NATIVE_CACHE"] = str(cache)
    env["TMPDIR"] = str(tmp)
    env.pop("PROBLP_BACKEND", None)
    return env


class ServerProcess:
    """One ``problp serve`` process tree, started and stopped by us."""

    def __init__(self, root: Path, workdir: Path, name: str) -> None:
        self.cache = workdir / f"{name}-native"
        self.cache.mkdir(parents=True)
        self.log_path = workdir / f"{name}.log"
        self._root = root
        self._env = child_env(root, self.cache, workdir)
        self.process: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--shards", "1", "--replicas", "1", "--port", "0",
        ]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command,
                cwd=self._root,
                env=self._env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=log,
                start_new_session=True,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _BANNER.search(self.log_path.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(
            "problp serve did not come up:\n"
            + self.log_path.read_text(errors="replace")[-2000:]
        )

    def tree_pids(self) -> list[int]:
        """The server pid and every live descendant, from ``/proc``."""
        if self.process is None:
            return []
        parents: dict[int, list[int]] = {}
        for entry in Path("/proc").iterdir():
            if not entry.name.isdigit():
                continue
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            parents.setdefault(ppid, []).append(int(entry.name))
        tree, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            tree.append(pid)
            frontier.extend(parents.get(pid, ()))
        return tree

    def peak_rss_mb(self) -> float:
        """Peak resident memory summed over the process tree (MiB)."""
        return sum(peak_rss_kb(pid) for pid in self.tree_pids()) / 1024.0

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (a clean drain), then kill whatever is left of the tree."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait(timeout=timeout)


def peak_rss_kb(pid: int | str = "self") -> int:
    """``VmHWM`` of one process in KiB (0 when it has gone)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


# -- metrics op scrape ---------------------------------------------------


def _matches(labels: dict, where: dict) -> bool:
    return all(labels.get(key) == value for key, value in where.items())


def counter_sum(families: list, name: str, **where) -> float:
    """Sum of a counter/gauge family's samples whose labels match."""
    total = 0.0
    for family in families:
        if family["name"] != name:
            continue
        for sample in family["samples"]:
            if _matches(sample["labels"], where):
                total += float(sample["value"])
    return total


def histogram_sum_count(families: list, name: str, **where) -> tuple[float, int]:
    """``(sum, count)`` of a histogram family's matching samples."""
    total, count = 0.0, 0
    for family in families:
        if family["name"] != name:
            continue
        for sample in family["samples"]:
            if _matches(sample["labels"], where):
                total += float(sample["sum"])
                count += int(sample["count"])
    return total, count


def label_values(families: list, name: str, label: str) -> list[str]:
    values = set()
    for family in families:
        if family["name"] == name:
            for sample in family["samples"]:
                if label in sample["labels"]:
                    values.add(sample["labels"][label])
    return sorted(values)


MEMO_CACHES = ("tape", "analysis", "session", "native_kernels", "native_module")


def counters(families: list) -> dict[str, float]:
    """The flat counter view the layer table is built from.

    Taking the difference of two such views brackets a run exactly.
    """
    view: dict[str, float] = {}
    for kind in label_values(families, "problp_batch_size", "kind"):
        total, count = histogram_sum_count(families, "problp_batch_size", kind=kind)
        view[f"batch.requests.{kind}"] = total
        view[f"batch.flushes.{kind}"] = count
    for kind in label_values(families, "problp_executor_seconds", "workload"):
        total, count = histogram_sum_count(
            families, "problp_executor_seconds", workload=kind
        )
        view[f"executor.sum_s.{kind}"] = total
        view[f"executor.count.{kind}"] = count
    view["admission.overloaded"] = counter_sum(
        families, "problp_front_overloaded_total"
    ) + counter_sum(families, "problp_serve_overloaded_total")
    view["dispatch.native"] = counter_sum(
        families, "problp_backend_dispatch_total", backend="native"
    )
    view["dispatch.total"] = counter_sum(families, "problp_backend_dispatch_total")
    view["dispatch.fallbacks"] = counter_sum(families, "problp_backend_fallback_total")
    for cache in MEMO_CACHES:
        for outcome in ("hit", "miss", "stale"):
            view[f"memo.{cache}.{outcome}"] = counter_sum(
                families, "problp_memo_cache_total", cache=cache, outcome=outcome
            )
    view["native.build_s"], _ = histogram_sum_count(families, "problp_native_cc_seconds")
    view["native.compiled"] = counter_sum(
        families, "problp_native_build_total", outcome="compiled"
    )
    return view


def diff(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def memo_hit_ratio(view: dict, caches=MEMO_CACHES) -> float:
    hits = sum(view.get(f"memo.{cache}.hit", 0.0) for cache in caches)
    lookups = sum(
        view.get(f"memo.{cache}.{outcome}", 0.0)
        for cache in caches
        for outcome in ("hit", "miss", "stale")
    )
    return hits / lookups if lookups else 0.0
