"""Pipeline benchmark: cold, warm and resume runs of `run_all` on a generated workload.

    python3 perfbench/run.py --workload wide_pool --seed 1 --seconds 55 --trace 0

Run from the repository root. Each run:

1. runs the bundled toy config into a scratch directory and compares every
   artifact byte for byte with the committed golden run;
2. generates the workload's corpora from the seed, and for the mock
   workloads records the mock fixture by running the pipeline once over
   HTTP against the oracle stub (zero latency);
3. runs `run_all`, each time in a fresh interpreter, while the next step
   is expected to end within --seconds (at least one cycle): up to
   COLD_RUNS cycles of a cold run (empty response cache, no run directory)
   and warm runs (cache kept, run directory deleted) until they add up to
   WARM_MIN_S, the first cycle ending with a resume run (everything
   current); then, when no further cycle fits, more warm runs on the last
   cycle's cache;
4. with --trace 1, instead runs one untraced cold run, then a traced cold,
   warm and resume run, and reports per-layer numbers;
5. checks outputs and counters, and prints one JSON object as its last line.

It exits 1 when a check fails, and 2 when the repository is not there.
Scratch files go to .perfbench_work/ under the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TOY_INI = ROOT / "fixtures" / "toy" / "toy.ini"
TOY_GOLDEN = ROOT / "fixtures" / "toy" / "golden" / "run-8f7db4f8eb8c"
WORK = ROOT / ".perfbench_work"
PHASE_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH_DIR))

from spans import summarize  # noqa: E402
from workload import (  # noqa: E402
    SOURCE_CODE, SOURCE_NAME, TARGET_CODE, TARGET_NAME, Language, LanguageParams,
)

POLICIES = ("zero_shot", "uw2w", "random", "topk", "topk_bm25", "gold_kshot", "gold_bm25")
KEPT_FIXTURES = 40
WARM_MIN_S = 1.5  # short warm runs are repeated within a cycle, for a steadier median
# Cold runs per benchmark run; the rest of --seconds goes to warm runs. Each
# cold run leaves thousands of cache files that are deleted when the run
# ends, and file creation right after a mass deletion is slow (README: Noise).
COLD_RUNS = 3
RECORD_CONCURRENCY = 4  # outputs do not depend on it; the recording is not timed


@dataclass(frozen=True)
class Workload:
    language: LanguageParams
    backend: str  # mock: recorded fixture; http: live stub with latency
    concurrency: int
    tau: float
    iterations: int = 1
    shot_strategy: str = "first_k"
    latency_ms: float = 0.0
    fail_once: int = 0  # completion prompts that get one injected 503


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "wide_pool": Workload(
        language=LanguageParams(
            vocab_size=80, unlabeled=75, test=40, repeats=8, gold_dev=40,
            closeness=0.8, bt_noise=0.1,
        ),
        backend="mock", concurrency=2, tau=0.50, iterations=2,
        shot_strategy="top_sim",
    ),
    "http_latency": Workload(
        language=LanguageParams(
            vocab_size=40, unlabeled=60, test=50, repeats=1, gold_dev=10,
            closeness=0.8, bt_noise=0.1,
        ),
        backend="http", concurrency=2, tau=0.90, latency_ms=20.0,
        fail_once=3,
    ),
}


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)

    def equal(self, got, want, what: str) -> None:
        self.expect(got == want, f"{what}: got {got!r}, expected {want!r}")

    def same_files(self, got: dict, want: dict, what: str) -> None:
        differ = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        self.expect(not differ, f"{what}: files differ: {differ}")


def digest_tree(path: Path, skip_manifests: bool = False) -> dict[str, str]:
    out = {}
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        if skip_manifests and file.name.endswith(".manifest.json"):
            continue
        out[str(file.relative_to(path))] = hashlib.sha256(file.read_bytes()).hexdigest()
    return out


def times(run: dict) -> str:
    return "{:.3f} s (user {:.2f}, sys {:.2f})".format(run["run_s"], run["user_s"], run["sys_s"])


def stage_outputs(run_dir: Path) -> dict[str, tuple[int, int]]:
    """Inode and mtime of each stage manifest and of the outputs it lists.

    A stage that is skipped leaves them untouched; one that runs again
    rewrites them, even with the same bytes.
    """
    out = {}
    for manifest in sorted(run_dir.rglob("*.manifest.json")):
        outputs = json.loads(manifest.read_text(encoding="utf-8")).get("outputs", {})
        for file in (manifest, *(manifest.parent / name for name in outputs)):
            if file.exists():
                st = file.stat()
                out[str(file.relative_to(run_dir))] = (st.st_ino, st.st_mtime_ns)
    return out


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Stub:
    """The oracle HTTP server, in its own process."""

    def __init__(self, workload: Workload, seed: int, log_path: Path):
        self._log = log_path.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--seed", str(seed),
             "--params", json.dumps(dataclasses.asdict(workload.language)),
             "--latency-ms", str(workload.latency_ms),
             "--fail-once", str(workload.fail_once)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "listening":
            self.close()
            raise RuntimeError(f"stub did not start; see {log_path}")
        self.url = f"http://127.0.0.1:{line[1]}"

    def call(self, path: str, payload: dict | None = None) -> dict:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        with urllib.request.urlopen(self.url + path, data=data, timeout=60) as resp:
            return json.loads(resp.read())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.checks = Checks()
        self.work = fresh_dir(WORK / "run")
        self.trash = fresh_dir(self.work / "trash")
        self.jobs = 0
        self.stub: Stub | None = None
        # names what is kept across runs: the workload, the seed and the code
        digest = hashlib.sha256(json.dumps(
            [seed, dataclasses.asdict(self.workload)]).encode("utf-8"))
        for file in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
            digest.update(file.read_bytes())
        self.key = f"{name}-{seed}-{digest.hexdigest()[:16]}"

    def discard(self, path: Path) -> None:
        """Move a directory out of the way; `run` deletes them all at the end.

        Deleting thousands of cache files can slow the file creation that
        follows for seconds (the reference disk is mounted with online
        discard), so nothing is deleted between timed runs.
        """
        if path.exists():
            path.rename(self.trash / str(len(list(self.trash.iterdir()))))

    # --------------------------------------------------------------- phases

    def phase(self, config: Path, overrides: dict | None = None,
              trace: bool = False) -> dict:
        """Run one child interpreter; returns its result (and spans if traced)."""
        self.jobs += 1
        job_path = self.work / f"job{self.jobs}.json"
        result_path = self.work / f"result{self.jobs}.json"
        spans_path = self.work / f"spans{self.jobs}.json"
        log_path = self.work / f"phase{self.jobs}.log"
        job = {
            "src": str(SRC), "config": str(config), "overrides": overrides or {},
            "trace": trace, "tau": self.workload.tau,
            "result": str(result_path), "spans": str(spans_path),
        }
        if self.stub is not None:
            self.stub.call("/reset", {})
        os.sync()
        job["t0"] = time.time()
        job_path.write_text(json.dumps(job), encoding="utf-8")
        with log_path.open("w") as log:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "phase.py"), str(job_path)],
                stdout=log, stderr=subprocess.STDOUT, timeout=PHASE_TIMEOUT_S,
            )
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"phase {job_path.name} exited {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if trace:
            result["trace"] = json.loads(spans_path.read_text(encoding="utf-8"))
        if self.stub is not None:
            result["stub"] = self.stub.call("/stats")
        return result

    # ---------------------------------------------------------------- inputs

    def toy_golden(self) -> None:
        out = fresh_dir(self.work / "toy")
        result = self.phase(TOY_INI, {
            "output_dir": str(out / "out"), "cache_dir": str(out / "cache"),
        })
        run_dir = Path(result["run_dir"])
        self.checks.equal(run_dir.name, TOY_GOLDEN.name, "toy run directory")
        self.checks.same_files(digest_tree(run_dir), digest_tree(TOY_GOLDEN),
                               "toy run vs golden run")

    def write_config(self, scratch: Path, backend: dict) -> Path:
        """An INI whose run directory and cache live under `scratch`."""
        w = self.workload
        data = self.work / "data"
        names = {
            "source_vocab": "vocab.ava.txt", "target_vocab": "vocab.zor.txt",
            "unlabeled": "mono.zor.txt", "test_source": "test.ava.txt",
            "test_target": "test.zor.txt", "gold_dev_source": "dev.ava.txt",
            "gold_dev_target": "dev.zor.txt",
        }
        sections = {
            "languages": {"source": SOURCE_CODE, "target": TARGET_CODE,
                          "source_name": SOURCE_NAME, "target_name": TARGET_NAME},
            "paths": {**{key: data / name for key, name in names.items()},
                      "output_dir": scratch / "out"},
            "backend": {"model": "bench", "cache_dir": scratch / "cache",
                        "concurrency": w.concurrency, **backend},
            "mining": {"seed": self.seed, "tau": w.tau, "iterations": w.iterations,
                       "shot_strategy": w.shot_strategy},
            "run": {"policies": ",".join(POLICIES)},
        }
        lines = []
        for section, values in sections.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for key, value in values.items()]
            lines.append("")
        path = fresh_dir(scratch) / "bench.ini"
        path.write_text("\n".join(lines), encoding="utf-8")
        return path

    def prepare(self) -> Path:
        """Write the corpora and the config the timed runs use."""
        data = fresh_dir(self.work / "data")
        for name, lines in Language(self.workload.language, self.seed).corpora().items():
            (data / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        w = self.workload
        timed = self.work / "timed"
        if w.backend == "http":
            self.stub = Stub(w, self.seed, self.work / "stub.log")
            return self.write_config(timed, {
                "kind": "http", "base_url": self.stub.url + "/v1", "embedding": "http",
            })
        fixture, recorded = self.record_fixture()
        self.recorded = json.loads(recorded.read_text(encoding="utf-8"))
        return self.write_config(timed, {
            "kind": "mock", "llm_fixture": fixture, "embedding": "trigram",
        })

    def record_fixture(self) -> tuple[Path, Path]:
        """The mock fixture of this seed, recorded once per `self.key`.

        The pipeline runs over the public HTTP path against the oracle stub
        at zero latency; the stub then writes every prompt it answered. The
        recording run's artifacts, manifests aside, are kept to compare with
        the mock runs'.
        """
        stem = WORK / "fixtures" / self.key
        fixture, recorded = stem.with_suffix(".jsonl"), stem.with_suffix(".digest.json")
        if fixture.exists() and recorded.exists():
            return fixture, recorded
        fixture.parent.mkdir(parents=True, exist_ok=True)
        kept = sorted(fixture.parent.glob("*.jsonl"), key=lambda p: p.stat().st_mtime)
        for old in kept[:-KEPT_FIXTURES]:
            old.unlink()
            old.with_suffix(".digest.json").unlink(missing_ok=True)
        recorder = Stub(dataclasses.replace(self.workload, latency_ms=0.0, fail_once=0),
                        self.seed, self.work / "recorder.log")
        try:
            record_ini = self.write_config(self.work / "record", {
                "kind": "http", "base_url": recorder.url + "/v1", "embedding": "trigram",
            })
            started = time.perf_counter()
            result = self.phase(record_ini, {"concurrency": RECORD_CONCURRENCY})
            print(f"recorded fixture in {time.perf_counter() - started:.1f} s",
                  file=sys.stderr)
            recorder.call("/dump", {"path": str(fixture)})
        finally:
            recorder.close()
        digest = digest_tree(Path(result["run_dir"]), skip_manifests=True)
        recorded.write_text(json.dumps(digest), encoding="utf-8")
        return fixture, recorded

    # ---------------------------------------------------------------- cycles

    def timed_runs(self, config: Path, trace: bool = False, resume: bool = True,
                   warm_min_s: float = 0.0) -> dict:
        """A cold run, warm runs until they add up to `warm_min_s` (at least
        one), then optionally a resume run, all against one config. Each
        later run's artifacts are checked as soon as it ends, before the next
        run moves them aside."""
        timed = config.parent
        self.discard(timed / "cache")
        self.discard(timed / "out")
        cold = self.phase(config, trace=trace)
        run_dir = Path(cold["run_dir"])
        cold["digest"] = digest_tree(run_dir)
        self.check_cold(cold, run_dir)
        runs = {"cold": cold, "warm": []}
        while not runs["warm"] or sum(r["run_s"] for r in runs["warm"]) < warm_min_s:
            self.discard(timed / "out")
            runs["warm"].append(self.later_run(config, run_dir, cold, "warm", trace))
        if resume:
            before = stage_outputs(run_dir)
            runs["resume"] = self.later_run(config, run_dir, cold, "resume", trace)
            self.checks.expect(bool(before), "no stage manifest lists its outputs")
            self.checks.same_files(stage_outputs(run_dir), before,
                                   "stage outputs rewritten by the resume run")
        return runs

    def later_run(self, config: Path, run_dir: Path, cold: dict, kind: str,
                  trace: bool) -> dict:
        """A warm or resume run: same artifacts as the cold run, no request."""
        run = self.phase(config, trace=trace)
        self.checks.same_files(digest_tree(run_dir), cold["digest"], f"{kind} run vs cold run")
        self.checks.equal(run["requests"]["llm"] + run["requests"]["embed"], 0,
                          f"{kind}: requests into the raw backends")
        if "stub" in run:
            self.checks.equal(run["stub"]["requests"], 0, f"{kind}: requests the stub saw")
        return run

    def check_cold(self, cold: dict, run_dir: Path) -> None:
        for name in cold["missing"]:
            self.checks.expect(False, f"backend class {name} not found; requests not counted")
        self.checks.expect(cold["requests"]["llm"] > 0, "cold run sent no LLM request")
        if hasattr(self, "recorded"):
            self.checks.same_files(digest_tree(run_dir, skip_manifests=True),
                                   self.recorded, "mock run vs the recording run over HTTP")
        if "stub" in cold:
            stub = cold["stub"]
            self.checks.expect(stub["requests"] > 0, "the stub saw no request in a cold run")
            self.checks.expect(stub["max_inflight"] <= self.workload.concurrency,
                               f"{stub['max_inflight']} requests in flight at once")

    def counters(self, cold: dict) -> dict:
        """Deterministic counters of one cold run.

        Requests are counted as distinct requests: when two identical ones
        are in flight at once, both miss the response cache and both are
        sent, so the raw number of calls depends on thread timing.
        """
        out = {
            "llm_requests": cold["distinct"]["llm"],
            "embed_requests": cold["distinct"]["embed"],
            "failed": cold["requests"]["llm_failed"] + cold["requests"]["embed_failed"],
        }
        if "stub" in cold:
            out["stub_requests"] = cold["stub"]["distinct"]
            out["retries"] = cold["stub"]["retries"]
        return out

    def measure(self, config: Path) -> tuple[dict, list[int]]:
        """Up to COLD_RUNS cycles, then warm runs on the last cycle's cache;
        each step only if it is expected to end within --seconds, except
        the first cycle."""
        cycles: list[dict] = []
        warm: list[dict] = []
        step_s: dict[str, list[float]] = {"cycle": [], "warm": []}
        started = time.perf_counter()
        kind = "cycle"
        while True:
            step_started = time.perf_counter()
            if kind == "cycle":
                runs = self.timed_runs(config, resume=not cycles, warm_min_s=WARM_MIN_S)
                cycles.append(runs)
                warm += runs["warm"]
                print("cycle {}: cold {}, warm {}; backend calls {} LLM, {} embedding"
                      " ({} and {} distinct)".format(
                          len(cycles), times(runs["cold"]),
                          ", ".join(times(r) for r in runs["warm"]),
                          runs["cold"]["requests"]["llm"], runs["cold"]["requests"]["embed"],
                          runs["cold"]["distinct"]["llm"], runs["cold"]["distinct"]["embed"]),
                      file=sys.stderr)
            else:
                cold = cycles[-1]["cold"]
                self.discard(config.parent / "out")
                warm.append(self.later_run(config, Path(cold["run_dir"]), cold, "warm", False))
            step_s[kind].append(time.perf_counter() - step_started)
            remaining = self.seconds - (time.perf_counter() - started)
            warm_s = (statistics.mean(step_s["warm"]) if step_s["warm"]
                      else step_s["cycle"][-1] / (len(cycles[-1]["warm"]) + 1))
            if len(cycles) < COLD_RUNS and statistics.mean(step_s["cycle"]) <= remaining:
                kind = "cycle"
            elif warm_s <= remaining:
                kind = "warm"
            else:
                break
        print(f"{len(step_s['warm'])} warm runs after the cycles: "
              + ", ".join(times(r) for r in warm[len(warm) - len(step_s["warm"]):]),
              file=sys.stderr)
        setups = [r["setup_s"] for r in (*(c["cold"] for c in cycles), *warm)]
        first = cycles[0]
        for runs in cycles[1:]:
            self.checks.same_files(runs["cold"]["digest"], first["cold"]["digest"],
                                   "cold runs across cycles")
            self.checks.equal(self.counters(runs["cold"]), self.counters(first["cold"]),
                              "cold-run counters across cycles")
        self.remember(self.counters(first["cold"]))
        attempted = sum(r["cold"]["requests"]["llm"] + r["cold"]["requests"]["embed"]
                        for r in cycles)
        failed = sum(self.counters(r["cold"])["failed"] for r in cycles)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "cold_run_s": (statistics.median(r["cold"]["run_s"] for r in cycles), "s"),
            "warm_run_s": (statistics.median(w["run_s"] for w in warm), "s"),
            "peak_rss_mb": (statistics.median(
                max(run["rss_mb"] for run in (r["cold"], *r["warm"])) for r in cycles), "MB"),
            "success_frac": (1.0 - failed / attempted if attempted else 0.0, "ratio"),
            "chrf.topk_bm25": (first["cold"]["chrf"]["topk_bm25"], "chrF"),
        }
        print(f"{self.name}: {len(cycles)} cold and {len(warm)} warm runs", file=sys.stderr)
        return metrics, [attempted, failed]

    def remember(self, counters: dict) -> None:
        """Counters must repeat exactly across runs of one seed and code."""
        path = WORK / "counters" / f"{self.key}.json"
        known = json.loads(path.read_text()) if path.exists() else {}
        for key in counters.keys() & known.keys():
            self.checks.equal(counters[key], known[key],
                              f"counter {key} vs an earlier run of this seed")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**known, **counters}, sort_keys=True))

    # ----------------------------------------------------------------- trace

    def check_calls(self, trace: dict, kind: str) -> None:
        """Every wrapper must have seen the calls the workload implies.

        Exact counts are stated in workload terms only (policies, test
        sentences, back-translation rounds), so that they hold for any
        correct program. Every other wrapper must see at least one call
        (warm runs send no request and store nothing), and the cache must
        store exactly its misses.
        """
        spans, counts = summarize(trace["spans"]), trace["counts"]

        def calls(name: str) -> int:
            return spans.get(name, {}).get("calls", 0)

        for target, hits in trace["installed"].items():
            self.checks.expect(hits >= 1, f"{kind}: wrapper for {target} installed nowhere")
        for error in trace["errors"]:
            self.checks.expect(False, f"{kind}: {error}")
        w = self.workload
        t = w.language.test * w.language.repeats
        in_translate = Counter(  # span: (id, parent, name, start, end, ok, stage)
            span[2] for span in trace["spans"] if span[6].startswith("pipeline.translate.")
        )
        expected = {
            "pipeline.run_all": 1,
            "pipeline.evaluate_policy": len(POLICIES),
            **{f"pipeline.translate.{p}": 1 for p in POLICIES},
            "metrics.chrf": len(POLICIES),
            "metrics.bleu": len(POLICIES),
            "sentence_mining.back_translate": w.iterations,
        }
        for name, want in expected.items():
            self.checks.equal(calls(name), want, f"{kind}: calls of {name}")
        # one selection per test sentence and policy: random, gold_kshot;
        # topk; topk_bm25, gold_bm25
        for name, want in (("random", 2 * t), ("topk", t), ("topk_bm25", 2 * t)):
            self.checks.equal(in_translate[f"sentence_mining.select.{name}"], want,
                              f"{kind}: calls of select.{name} while translating")
        warm_idle = ("backends.llm", "backends.embed", "cache.put")
        for name in (
            "bm25.build_index", "bm25.score_all", "similarity.sim", "similarity.embed",
            "word_mining.consistency_filter", "word_mining.rank_and_select",
            "w2w.build_w2w", "prompts.render", "cache.get", "cache.client.llm",
            "cache.client.embed", "sentence_mining.mine_examples", *warm_idle,
        ):
            if kind == "warm" and name in warm_idle:
                self.checks.equal(calls(name), 0, f"warm: calls of {name}")
            else:
                self.checks.expect(calls(name) > 0, f"{kind}: no calls of {name}")
        self.checks.equal(calls("cache.put"), calls("cache.get") - counts.get("cache.hits", 0),
                          f"{kind}: cache puts vs cache misses")

    def deterministic(self, trace: dict) -> dict:
        spans, counts, values = summarize(trace["spans"]), trace["counts"], trace["values"]
        return {
            **values,
            "bm25.index_builds": spans.get("bm25.build_index", {}).get("calls", 0),
            "sentence_mining.fallbacks": counts.get("sentence_mining.fallbacks", 0),
            "prompts.calls": spans.get("prompts.render", {}).get("calls", 0),
        }

    def traced(self, config: Path) -> tuple[dict, list[int]]:
        timed = config.parent
        self.discard(timed / "cache")
        self.discard(timed / "out")
        base = self.phase(config)
        base_digest = digest_tree(Path(base["run_dir"]))
        runs = self.timed_runs(config, trace=True)
        self.checks.same_files(runs["cold"]["digest"], base_digest,
                               "traced vs untraced cold run")
        self.checks.equal(self.counters(runs["cold"]), self.counters(base),
                          "traced vs untraced cold-run counters")
        cold, warm = runs["cold"]["trace"], runs["warm"][0]["trace"]
        self.check_calls(cold, "cold")
        self.check_calls(warm, "warm")
        self.checks.equal(len(cold["http_s"]), runs["cold"].get("stub", {}).get("requests", 0),
                          "cold: timed HTTP requests vs requests the stub saw")
        cold_counters = self.deterministic(cold)
        self.checks.equal(self.deterministic(warm), cold_counters,
                          "warm vs cold deterministic counters")
        self.remember({**self.counters(base), **cold_counters})
        attempted = sum(r["requests"]["llm"] + r["requests"]["embed"]
                        for r in (base, runs["cold"]))
        failed = self.counters(base)["failed"] + self.counters(runs["cold"])["failed"]
        return self.layer_metrics(runs, base), [attempted, failed]

    def layer_metrics(self, runs: dict, base: dict) -> dict:
        """Per-layer numbers, summed over the traced cold and warm runs."""
        cold, warm = runs["cold"]["trace"], runs["warm"][0]["trace"]
        spans = {}
        for trace in (cold, warm):
            for name, entry in summarize(trace["spans"]).items():
                total = spans.setdefault(name, dict.fromkeys(entry, 0))
                for key, value in entry.items():
                    total[key] += value
        counts = {k: cold["counts"].get(k, 0) + warm["counts"].get(k, 0)
                  for k in cold["counts"].keys() | warm["counts"].keys()}
        values = cold["values"]
        requests = {k: runs["cold"]["requests"][k] + runs["warm"][0]["requests"][k]
                    for k in runs["cold"]["requests"]}

        def get(name: str, key: str = "self_s") -> float:
            return spans.get(name, {}).get(key, 0)

        m: dict[str, tuple[float, str]] = {}
        for stage in ("mine_words", "build_w2w", "mine_sentences"):
            m[f"pipeline.{stage}_s"] = (get(f"pipeline.{stage}", "stage_s"), "s")
        for policy in POLICIES:
            m[f"pipeline.translate.{policy}_s"] = (
                get(f"pipeline.translate.{policy}", "stage_s"), "s")
        m["pipeline.evaluate_s"] = (get("pipeline.evaluate_policy", "stage_s"), "s")
        m["pipeline.resume_s"] = (runs["resume"]["run_s"], "s")
        for layer in ("llm", "embed"):
            m[f"backends.{layer}.requests"] = (requests[layer], "count")
            m[f"backends.{layer}.busy_s"] = (get(f"backends.{layer}"), "s")
            m[f"backends.{layer}.failed"] = (requests[f"{layer}_failed"], "count")
        stub = runs["cold"].get("stub", {})
        m["backends.http.retries"] = (stub.get("retries", 0), "count")
        m["backends.http.max_inflight"] = (stub.get("max_inflight", 0), "count")
        latency = self.workload.latency_ms
        overheads = sorted(seconds * 1000.0 - latency for seconds in cold["http_s"])
        for label, q in (("p50", 0.50), ("p99", 0.99)):
            value = overheads[min(len(overheads) - 1, int(q * len(overheads)))] if overheads else 0.0
            m[f"backends.http.overhead_ms.{label}"] = (value, "ms")
        gets, hits = get("cache.get", "calls"), counts.get("cache.hits", 0)
        m["cache.get.calls"] = (gets, "count")
        m["cache.hits"] = (hits, "count")
        m["cache.hit_ratio"] = (hits / gets if gets else 0.0, "ratio")
        m["cache.get.busy_s"] = (get("cache.get"), "s")
        m["cache.put.calls"] = (get("cache.put", "calls"), "count")
        m["cache.put.busy_s"] = (get("cache.put"), "s")
        m["cache.client.busy_s"] = (get("cache.client.llm") + get("cache.client.embed"), "s")
        for op in ("sim", "embed"):
            m[f"similarity.{op}.calls"] = (get(f"similarity.{op}", "calls"), "count")
            m[f"similarity.{op}.busy_s"] = (get(f"similarity.{op}"), "s")
        for op in ("build_index", "score_all"):
            m[f"bm25.{op}.calls"] = (get(f"bm25.{op}", "calls"), "count")
            m[f"bm25.{op}.busy_s"] = (get(f"bm25.{op}"), "s")
        m["bm25.docs_scored"] = (counts.get("bm25.docs_scored", 0), "count")
        sm = "sentence_mining"
        m[f"{sm}.back_translate.busy_s"] = (get(f"{sm}.back_translate"), "s")
        bm25_selects = get(f"{sm}.select.topk_bm25", "calls")
        m[f"{sm}.select.calls"] = (sum(get(f"{sm}.select.{p}", "calls")
                                       for p in ("random", "topk", "topk_bm25")), "count")
        m[f"{sm}.select.topk.busy_s"] = (get(f"{sm}.select.topk"), "s")
        m[f"{sm}.select.topk_bm25.busy_s"] = (get(f"{sm}.select.topk_bm25"), "s")
        m[f"{sm}.fallback_ratio"] = (
            counts.get(f"{sm}.fallbacks", 0) / bm25_selects if bm25_selects else 0.0, "ratio")
        pool = values.get(f"{sm}.pool_size", 0)
        m[f"{sm}.pool_size"] = (pool, "count")
        m[f"{sm}.pool_above_tau_frac"] = (
            values.get(f"{sm}.pool_above_tau", 0) / pool if pool else 0.0, "ratio")
        for name in ("consistent_pairs", "refined_pairs"):
            m[f"word_mining.{name}"] = (values.get(f"word_mining.{name}", 0), "count")
        m["word_mining.rank_and_select.busy_s"] = (get("word_mining.rank_and_select"), "s")
        m["w2w.distinct_words"] = (values.get("w2w.distinct_words", 0), "count")
        m["w2w.copy_through_ratio"] = (values.get("w2w.copy_through_ratio", 0.0), "ratio")
        m["w2w.busy_s"] = (get("w2w.build_w2w"), "s")
        chars = counts.get("prompts.chars", 0)
        m["prompts.calls"] = (get("prompts.render", "calls"), "count")
        m["prompts.busy_s"] = (get("prompts.render"), "s")
        m["prompts.chars"] = (chars, "count")
        m["prompts.shared_prefix_frac"] = (
            counts.get("prompts.shared_chars", 0) / chars if chars else 0.0, "ratio")
        m["metrics.chrf.busy_s"] = (get("metrics.chrf"), "s")
        m["metrics.bleu.busy_s"] = (get("metrics.bleu"), "s")
        m["trace.overhead_frac"] = (runs["cold"]["run_s"] / base["run_s"] - 1.0, "ratio")
        return m

    # ------------------------------------------------------------------ main

    def run(self) -> tuple[dict, list[int]]:
        try:
            self.toy_golden()
            config = self.prepare()
            return self.traced(config) if self.trace else self.measure(config)
        finally:
            if self.stub is not None:
                self.stub.close()
            for name in ("record", "timed", "toy"):
                self.discard(self.work / name)
            shutil.rmtree(self.trash)
            os.sync()  # write the deletions out now, not during the next run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "icl_miner", TOY_INI, TOY_GOLDEN) if not p.exists()]
    if missing:
        print(f"not a repository checkout; missing {missing}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, (attempted, failed) = bench.run()
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if bench.checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
