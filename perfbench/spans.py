"""Spans around the public functions of each icl_miner layer, set from outside.

`Tracer.install` wraps functions and methods after the package is imported.
A module-level function is replaced in every icl_miner namespace that holds
it, because `from .x import y` binds `y` in the importing module too; methods
are replaced on their class. A target that no longer exists is recorded as
installed in 0 places, and a counter hook that fails is recorded as an
error, so the caller can report both instead of crashing. Each span records
its name, parent span (per thread), start, end, whether it raised, and the
pipeline stage running when it started. Spans stay in memory; `dump`
writes them, the counters and the number of namespaces each wrapper was
installed in, once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter


# The raw backend classes, by layer; their public methods are the client
# side of every request the pipeline sends.
RAW_BACKENDS = {
    "llm": ("MockLLMBackend", "HttpLLMBackend"),
    "embed": ("TrigramHashEmbedder", "HttpEmbeddingBackend", "FixtureEmbeddingBackend"),
}


def public_methods(cls) -> list[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(value)]


class Tracer:
    def __init__(self, tau: float):
        self.tau = tau
        self.spans: list[tuple[int, int, str, float, float, bool, str]] = []
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self.installed: dict[str, int] = {}
        self.errors: list[str] = []
        self.http_s: list[float] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stage = ""
        self._last_prompt: dict[str, str] = {}

    # ------------------------------------------------------------ wrapping

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, after=None, stage=False):
        """`name` is a string or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stage_at_start = tracer._stage
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            if stage:
                outer, tracer._stage = tracer._stage, label
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                if stage:
                    tracer._stage = outer
                tracer.spans.append((span_id, parent, label, start, end, ok, stage_at_start))
            if after is not None:
                with tracer._lock:
                    try:
                        after(result, *args, **kwargs)
                    except Exception as exc:
                        tracer.errors.append(f"{label}: counter hook failed: {exc!r}")
            return result

        return wrapper

    def time_calls(self, fn, sink: list):
        """Durations only: no span, so the caller's self time keeps them."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(time.perf_counter() - start)

        return timed

    def patch_function(self, module, attr: str, name, after=None) -> None:
        target = f"{module.__name__}.{attr}"
        original = getattr(module, attr, None)
        if original is None:
            self.installed[target] = 0
            return
        wrapped = self.wrap(name, original, after)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("icl_miner"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    hits += 1
        self.installed[target] = hits

    def patch_method(self, module, qualname: str, name, after=None, stage=False) -> None:
        """Wrap `Class.method` of `module`, or every public method for `Class.*`."""
        cls_name, attr = qualname.split(".")
        cls = getattr(module, cls_name, None)
        attrs = [] if cls is None else (
            public_methods(cls) if attr == "*" else [a for a in (attr,) if a in vars(cls)]
        )
        for a in attrs:
            setattr(cls, a, self.wrap(name, vars(cls)[a], after, stage))
        self.installed[f"{module.__name__}.{qualname}"] = len(attrs)

    # ------------------------------------------------------------ counters

    def _cache_get(self, result, *args, **kwargs) -> None:
        if result is not None:
            self.counts["cache.hits"] += 1

    def _prompt(self, result, *args, **kwargs) -> None:
        previous = self._last_prompt.get(self._stage, "")
        self._last_prompt[self._stage] = result
        self.counts["prompts.chars"] += len(result)
        self.counts["prompts.shared_chars"] += len(
            os.path.commonprefix([previous, result])
        )

    def _bm25_scored(self, result, *args, **kwargs) -> None:
        self.counts["bm25.docs_scored"] += len(result)

    def _audit(self, result, *args, **kwargs) -> None:
        self.counts["sentence_mining.fallbacks"] += int(result[1].used_fallback)

    def _pool(self, result, *args, **kwargs) -> None:
        self.values["sentence_mining.pool_size"] = len(result)
        self.values["sentence_mining.pool_above_tau"] = sum(
            1 for p in result.pairs if p.similarity > self.tau
        )

    def _pairs(self, result, *args, **kwargs) -> None:
        refined = kwargs.get("provenance", "zero_shot") != "zero_shot"
        key = "word_mining.refined_pairs" if refined else "word_mining.consistent_pairs"
        self.values[key] = len(result)

    def _w2w(self, result, sentences, *args, **kwargs) -> None:
        if "w2w.distinct_words" in self.values:
            return  # the uw2w policy renders the test set again
        from icl_miner.tokens import segment

        words = {
            tok for s in sentences for tok, is_word in segment(s)
            if is_word and not tok.isdigit()
        }
        self.values["w2w.distinct_words"] = len(words)
        self.values["w2w.copy_through_ratio"] = result.copy_through_ratio

    # -------------------------------------------------------------- layers

    def install(self) -> None:
        import requests

        from icl_miner import backends, bm25, metrics, pipeline, prompts
        from icl_miner import sentence_mining as sm
        from icl_miner import w2w, word_mining

        for stage in ("mine_words", "build_w2w", "mine_sentences",
                      "evaluate_policy", "run_all"):
            self.patch_method(pipeline, f"Pipeline.{stage}", f"pipeline.{stage}", stage=True)
        self.patch_method(
            pipeline, "Pipeline.translate",
            lambda self_, policy, *a, **k: f"pipeline.translate.{policy}", stage=True,
        )
        for layer, classes in RAW_BACKENDS.items():
            for cls in classes:
                self.patch_method(backends, f"{cls}.*", f"backends.{layer}")
        session = requests.Session
        session.request = self.time_calls(session.request, self.http_s)
        self.patch_method(backends, "ResponseCache.get", "cache.get", self._cache_get)
        self.patch_method(backends, "ResponseCache.put", "cache.put")
        self.patch_method(backends, "CachingLLM.*", "cache.client.llm")
        self.patch_method(backends, "CachingEmbedder.*", "cache.client.embed")
        self.patch_method(backends, "SimilarityScorer.sim", "similarity.sim")
        self.patch_method(backends, "SimilarityScorer.embedding", "similarity.embed")
        self.patch_function(bm25, "build_index", "bm25.build_index")
        self.patch_function(bm25, "score_all", "bm25.score_all", self._bm25_scored)
        self.patch_function(sm, "back_translate", "sentence_mining.back_translate")
        self.patch_function(sm, "mine_examples", "sentence_mining.mine_examples", self._pool)
        self.patch_function(sm, "select_random", "sentence_mining.select.random")
        self.patch_function(sm, "select_topk", "sentence_mining.select.topk")
        self.patch_function(
            sm, "select_topk_bm25_with_audit", "sentence_mining.select.topk_bm25",
            self._audit,
        )
        self.patch_function(
            word_mining, "consistency_filter", "word_mining.consistency_filter",
            self._pairs,
        )
        self.patch_function(
            word_mining, "rank_and_select", "word_mining.rank_and_select"
        )
        self.patch_function(w2w, "build_w2w", "w2w.build_w2w", self._w2w)
        for fn in ("word_translation_prompt", "sentence_translation_prompt"):
            self.patch_function(prompts, fn, "prompts.render", self._prompt)
        self.patch_function(metrics, "chrf_pp", "metrics.chrf")
        self.patch_function(metrics, "bleu", "metrics.bleu")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": self.spans,
                "counts": dict(self.counts),
                "values": self.values,
                "installed": self.installed,
                "errors": self.errors,
                "http_s": self.http_s,
            }, fh)


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, failed, self time, and stage time.

    Self time is a span's duration minus its direct children's durations.
    Stage time, meaningful for `pipeline.*` spans, subtracts only nested
    pipeline spans, so it keeps the layers a stage calls.
    """
    nested: Counter = Counter()
    nested_stage: Counter = Counter()
    for _, parent, name, start, end, *_ in spans:
        if parent >= 0:
            nested[parent] += end - start
            if name.startswith("pipeline."):
                nested_stage[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for span_id, _, name, start, end, ok, *_ in spans:
        entry = out.setdefault(
            name, {"calls": 0, "failed": 0, "self_s": 0.0, "stage_s": 0.0}
        )
        entry["calls"] += 1
        entry["failed"] += 0 if ok else 1
        entry["self_s"] += end - start - nested[span_id]
        entry["stage_s"] += end - start - nested_stage[span_id]
    return out
