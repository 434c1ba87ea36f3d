"""One timed pipeline run in a fresh interpreter.

    python3 perfbench/phase.py <job.json>

The job names the config file and overrides, the wall-clock time at which
the parent started this process (so set-up time includes interpreter
start-up), and whether to trace. The result is written as JSON to the job's `result` path.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from spans import RAW_BACKENDS, Tracer, public_methods  # noqa: E402


class RequestCounter:
    """Counts calls into the raw LLM and embedding backends and those that raise.

    Set on every public method of the raw backend classes, so it sits on
    the client side of every raw backend instance the pipeline builds,
    below the response cache, whether it asks for one item or a batch. A
    call made from inside another counted call on the same thread is part
    of that request and is not counted again.

    It also keeps a digest of each request's arguments. Two identical
    requests in flight at once both miss the response cache and both reach
    the backend, so the number of calls depends on thread timing; the
    number of distinct requests does not, and is what the checks compare.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.counts = {"llm": 0, "llm_failed": 0, "embed": 0, "embed_failed": 0}
        self.seen: dict[str, set[bytes]] = {"llm": set(), "embed": set()}
        self.missing: list[str] = []

    def wrap(self, kind: str, fn):
        def counted(*args, **kwargs):
            if getattr(self.local, "inside", False):
                return fn(*args, **kwargs)
            self.local.inside = True
            key = hashlib.blake2b(repr((fn.__name__, args[1:], kwargs)).encode("utf-8"),
                                  digest_size=16).digest()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self.local.inside = False
                with self.lock:
                    self.counts[kind] += 1
                    self.counts[kind + "_failed"] += failed
                    self.seen[kind].add(key)

        return counted

    def install(self) -> None:
        from icl_miner import backends

        for kind, names in RAW_BACKENDS.items():
            for name in names:
                cls = getattr(backends, name, None)
                if cls is None:
                    self.missing.append(f"icl_miner.backends.{name}")
                    continue
                for attr in public_methods(cls):
                    setattr(cls, attr, self.wrap(kind, getattr(cls, attr)))


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from icl_miner.config import load_config
    from icl_miner.pipeline import Pipeline

    counter = RequestCounter()
    tracer = None
    if job["trace"]:
        tracer = Tracer(tau=job["tau"])
        tracer.install()
    counter.install()
    config = load_config(job["config"], job["overrides"])
    pipeline = Pipeline(config)
    setup_s = time.time() - job["t0"]
    os.sync()
    started, cpu = time.perf_counter(), os.times()
    reports = pipeline.run_all()
    run_s, cpu_end = time.perf_counter() - started, os.times()
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "user_s": cpu_end.user - cpu.user,
        "sys_s": cpu_end.system - cpu.system,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "chrf": {r.system: r.chrf_pp for r in reports},
        "run_dir": str(pipeline.run_dir),
        "requests": counter.counts,
        "distinct": {kind: len(keys) for kind, keys in counter.seen.items()},
        "missing": counter.missing,
    }
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    if tracer is not None:
        tracer.dump(job["spans"])


if __name__ == "__main__":
    main()
