"""Stage orchestration: resumable, manifest-tracked runs under one directory.

Every stage (word mining, w2w, sentence mining, translation per policy,
the reference file and evaluation per policy) runs through one runner,
`Pipeline._stage`. It writes the stage's artifacts plus a manifest
recording the input hashes, the semantic config, the backend, the seed and
the output hashes, and skips the stage while that record still matches, so
an interrupted run resumes where it stopped and a repeated run rescores
nothing. Each stage pulls the stages it reads: `evaluate_policy` calls
`translate`, which calls what its policy needs. A `Pipeline` remembers each
stage it has found current or has built, and checks it no more; this holds
while nothing else writes the run directory (the CLI holds `RunLock`), and
a new `Pipeline` picks up edited inputs. `run_all` scores each policy on
one scorer thread while the next policy translates on the calling thread;
the scorer hands the chrF++/BLEU counting to a pool of forked worker
processes, one per CPU. Both are shut down when `run_all` returns or
raises. The run directory is named by the config hash and guarded by a
lock file.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import logging
import multiprocessing
import os
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

from . import bm25, metrics, sentence_mining, w2w, word_mining
from .backends import (
    CachingEmbedder,
    CachingLLM,
    DecodingMode,
    FixtureEmbeddingBackend,
    HttpEmbeddingBackend,
    HttpLLMBackend,
    MockLLMBackend,
    ResponseCache,
    SimilarityScorer,
    TrigramHashEmbedder,
)
from .backends.base import generate_each
from .config import PipelineConfig, Policy
from .corpus import (
    LanguageSpec,
    load_monolingual,
    load_parallel,
    load_vocabulary,
    write_jsonl,
    write_lines,
)
from .errors import ConfigError
from .prompts import PromptTemplates, sentence_request
from .sentence_mining import MinedPool, SentencePair

log = logging.getLogger(__name__)


def _sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )


def _scoring_pool() -> ProcessPoolExecutor | None:
    """Worker processes that score every chrF++/BLEU chunk.

    One per CPU; None with one CPU or where processes cannot be forked. All
    workers fork here, before this returns: a fork copies only the calling
    thread, so it must happen while the process has one thread, and
    `run_all` calls this before any stage or the scorer thread starts one.
    A fork pool starts every worker at its first submit and none later.
    (`forkserver` and `spawn` would re-run the calling script in each
    worker, which breaks a script without a `__main__` guard.)
    """
    workers = metrics.usable_cpus()
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return None
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    pool.submit(int).result()
    return pool


class RunLock:
    """One process owns a run directory at a time.

    The owner holds an exclusive `flock` on the lock file, which names its
    PID. The kernel releases the lock when the owner's process ends, however
    it ends, so a lock file that no process holds (a killed run left it) is
    taken over whatever it contains, and only a live owner rejects a second
    one. A forked child (a scoring worker) would share the lock and keep it
    past a killed owner, so each child closes the held descriptors as it
    forks, and leaving the lock from a child does nothing. `flock` is
    unreliable on some network file systems, where two hosts may both take
    it: keep run directories on a local disk.
    """

    _held: set[RunLock] = set()  # the locks this process owns

    def __init__(self, run_dir: Path):
        self.path = run_dir / ".lock"

    def __enter__(self) -> "RunLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT)
            try:
                if self._take(fd):
                    self._fd = fd
                    RunLock._held.add(self)
                    return self
            except BaseException:
                os.close(fd)
                raise
            os.close(fd)  # the previous owner unlinked this file on exit

    def _take(self, fd: int) -> bool:
        """Lock `fd` and write this PID to it; False if another file has
        replaced it at `path` since it was opened."""
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            owner = os.read(fd, 32).decode("ascii", "replace") or "unknown"
            raise ConfigError(
                f"run directory is locked by process {owner}: {self.path}"
            ) from None
        try:
            if not os.path.samestat(os.stat(self.path), os.fstat(fd)):
                return False
        except FileNotFoundError:
            return False
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode("ascii"))
        return True

    def __exit__(self, *exc_info) -> None:
        if self not in RunLock._held:
            return  # a forked child: the owner unlocks
        RunLock._held.discard(self)
        self.path.unlink(missing_ok=True)  # while still holding the lock
        os.close(self._fd)

    @classmethod
    def _close_in_child(cls) -> None:
        for lock in cls._held:
            os.close(lock._fd)
        cls._held.clear()


os.register_at_fork(after_in_child=RunLock._close_in_child)


class Pipeline:
    def __init__(self, config: PipelineConfig):
        config.validate()
        self.config = config
        self.run_dir = Path(config.output_dir) / f"run-{config.run_hash()}"
        self.source_lang = LanguageSpec.from_code(
            config.source_code, config.source_name or None
        )
        self.target_lang = LanguageSpec.from_code(
            config.target_code, config.target_name or None
        )
        self.templates = PromptTemplates(
            word_zero_shot=config.word_zero_shot_template
            or PromptTemplates.word_zero_shot,
            word_shot_header=config.word_shot_header_template
            or PromptTemplates.word_shot_header,
            sentence_header=config.sentence_header_template
            or PromptTemplates.sentence_header,
        )
        cache = ResponseCache(config.cache_dir)
        self.llm = CachingLLM(self._make_llm(), cache)
        self.embedder = CachingEmbedder(self._make_embedder(), cache)
        self.scorer = SimilarityScorer(self.embedder, max_workers=config.concurrency)
        self._mining_config = word_mining.MiningConfig(
            n=config.n,
            k_wp=config.k_wp,
            temperature=config.temperature,
            seed=config.seed,
            max_word_tokens=config.max_word_tokens,
            templates=self.templates,
        )
        self._resolved: set[str] = set()  # stages found current or built

    # ------------------------------------------------------------- wiring

    def _make_llm(self):
        cfg = self.config
        if cfg.backend_kind == "mock":
            return MockLLMBackend(cfg.llm_fixture, model_id=cfg.model or "mock-model")
        return HttpLLMBackend(cfg.base_url, cfg.model)

    def _make_embedder(self):
        cfg = self.config
        if cfg.embedding_kind == "trigram":
            return TrigramHashEmbedder(dim=cfg.embedding_dim)
        if cfg.embedding_kind == "fixture":
            return FixtureEmbeddingBackend(cfg.embedding_fixture)
        return HttpEmbeddingBackend(
            cfg.embedding_base_url or cfg.base_url,
            cfg.embedding_model or cfg.model,
        )

    def _sentence_decoding(self) -> DecodingMode:
        if self.config.sentence_decoding == "beam":
            return DecodingMode.beam(self.config.beam_width)
        return DecodingMode.greedy()

    # -------------------------------------------------------------- stages

    def _stage(
        self,
        name: str,
        inputs: dict[str, str],
        outputs: Sequence[Path],
        build: Callable[[], None],
    ) -> None:
        """Run `build`, which writes `outputs`, unless the stage is current.

        The stage's manifest, `<first output>.manifest.json`, records the
        stage name, the hashes of the input files, the semantic config, the
        backend, the seed and the hashes of the outputs. The stage is current
        when the recorded manifest equals that record for these inputs and
        the outputs now on disk; a missing output, a missing manifest or one
        that is not valid JSON is not current. Writes need no temp file and
        rename: a half-written artifact or manifest never matches the
        recorded hashes, so the stage runs again. A stage found current or
        built is not checked again by this `Pipeline`; one whose build raised
        is checked again on the next call.
        """
        if name in self._resolved:
            return
        manifest_path = outputs[0].with_name(outputs[0].name + ".manifest.json")
        manifest = {
            "stage": name,
            "inputs": {key: _sha256_file(path) for key, path in inputs.items()},
            "constants": self.config.semantic_dict(),
            "backend": {"id": self.llm.backend_id, "model": self.llm.model_id},
            "seed": self.config.seed,
        }
        if manifest_path.exists() and all(path.exists() for path in outputs):
            try:
                recorded = json.loads(manifest_path.read_text(encoding="utf-8"))
            except ValueError:
                recorded = None
            current = {path.name: _sha256_file(path) for path in outputs}
            if recorded == {**manifest, "outputs": current}:
                log.info("%s up to date, skipping", name)
                self._resolved.add(name)
                return
        build()
        manifest["outputs"] = {path.name: _sha256_file(path) for path in outputs}
        _write_json(manifest_path, manifest)
        self._resolved.add(name)

    def mine_words(self) -> Path:
        """Stage 1: mined word-pair lexicon (zero-shot round plus refinement)."""
        cfg = self.config
        lexicon_path = self.run_dir / "lexicon.tsv"

        def build() -> None:
            pairs = word_mining.mine_lexicon(
                load_vocabulary(cfg.source_vocab, self.source_lang, cfg.vocab_size),
                load_vocabulary(cfg.target_vocab, self.target_lang, cfg.vocab_size),
                self._mining_config, self.llm, self.scorer, cfg.concurrency,
            )
            word_mining.write_lexicon(lexicon_path, pairs)
            log.info("mined %d word pairs -> %s", len(pairs), lexicon_path)

        inputs = {"source_vocab": cfg.source_vocab, "target_vocab": cfg.target_vocab}
        self._stage("mine_words", inputs, [lexicon_path], build)
        return lexicon_path

    def build_w2w(self) -> Path:
        """Stage 2: word-by-word renderings of the w2w source sentences."""
        cfg = self.config
        w2w_path = self.run_dir / "w2w.jsonl"
        lexicon_path = self.mine_words()
        source_path = cfg.w2w_source or cfg.test_source

        def build() -> None:
            shots = word_mining.read_lexicon(lexicon_path)
            corpus = w2w.build_w2w(
                load_monolingual(source_path), shots, self.llm, self.source_lang,
                self.target_lang, self.templates, cfg.max_word_tokens,
                max_workers=cfg.concurrency,
            )
            w2w.write_w2w(w2w_path, corpus)

        inputs = {"lexicon": str(lexicon_path), "w2w_source": source_path}
        self._stage("w2w", inputs, [w2w_path], build)
        return w2w_path

    def mine_sentences(self) -> Path:
        """Stage 3: pseudo-parallel pool mined via back-translation."""
        cfg = self.config
        pool_path = self.run_dir / "pool.jsonl"
        w2w_path = self.build_w2w()

        def build() -> None:
            d_u = load_monolingual(cfg.unlabeled)
            corpus = w2w.read_w2w(w2w_path)
            pool = sentence_mining.mine_examples(
                d_u,
                corpus,
                cfg.k,
                self.llm,
                self.scorer,
                self.source_lang,
                self.target_lang,
                iterations=cfg.iterations,
                shot_strategy=cfg.shot_strategy,
                templates=self.templates,
                decoding=self._sentence_decoding(),
                max_sentence_tokens=cfg.max_sentence_tokens,
                max_workers=cfg.concurrency,
            )
            sentence_mining.write_pool(pool_path, pool)
            log.info("mined pool of %d pairs (<= %d unlabeled)", len(pool), len(d_u))

        inputs = {"w2w": str(w2w_path), "unlabeled": cfg.unlabeled}
        self._stage("mine_sentences", inputs, [pool_path], build)
        return pool_path

    # ---------------------------------------------------------- translation

    def _test_pairs(self) -> tuple[tuple[str, str], ...]:
        return load_parallel(self.config.test_source, self.config.test_target)

    def _gold_pool(self) -> MinedPool:
        cfg = self.config
        # human-annotated pairs count as perfectly aligned for the filter
        pairs = tuple(
            SentencePair(
                source_text=src,
                target_text=tgt,
                similarity=1.0,
                origin=sentence_mining.ORIGIN_GOLD,
            )
            for src, tgt in load_parallel(cfg.gold_dev_source, cfg.gold_dev_target)
        )
        return MinedPool(pairs=pairs)

    def _selections(
        self, policy: str, spec: Policy, sources: Sequence[str]
    ) -> tuple[list[list[tuple[str, str]]], list[dict]]:
        """Shots and audit record per test sentence, in order.

        Work that does not depend on the query (the similarity order, the
        BM25 candidates and their index) is done once, before the loop;
        the selectors are looked up in `sentence_mining` at call time.
        """
        cfg = self.config
        if spec.selector == "none":
            return [[] for _ in sources], []
        if spec.pool == "gold":
            pool = self._gold_pool()
        else:
            pool = sentence_mining.read_pool(self.run_dir / "pool.jsonl")
        if spec.selector == "top_k_bm25":
            candidates = sentence_mining.bm25_candidates(
                pool, cfg.k, cfg.tau, cfg.fallback_m,
                bm25.Bm25Params(k1=cfg.bm25_k1, b=cfg.bm25_b),
            )
        shot_lists, records = [], []
        for query_index, sentence in enumerate(sources):
            bm25_scores = None
            if spec.selector == "first_k":
                selected = sentence_mining.select_random(pool, cfg.k)
                indices = list(range(len(selected)))
            elif spec.selector == "top_k":
                selected = sentence_mining.select_topk(pool, cfg.k)
                indices = list(pool.by_similarity[: cfg.k])
            else:
                selected, audit = sentence_mining.select_topk_bm25_with_audit(
                    candidates, sentence
                )
                indices = list(audit.pool_indices)
                bm25_scores = list(audit.bm25_scores)
            shots = [pair.as_shot() for pair in selected]
            if spec.ranked and cfg.shot_order == "best_last":
                shots.reverse()
            shot_lists.append(shots)
            records.append(
                {
                    "query_index": query_index,
                    "policy": policy,
                    "selected": indices,
                    "bm25_scores": bm25_scores,
                }
            )
        return shot_lists, records

    def translate(self, policy: str) -> Path:
        """Stage 4: one hypothesis line per test source line, per policy.

        Failures follow `generate_each`: a line whose request failed is
        empty, and more than half failing aborts the stage. Failures are
        not cached, but the stage is current once built, so a failed line
        stays empty on resume, as a dropped pool pair does; it is sent
        again only when the stage runs again.
        """
        cfg = self.config
        spec = cfg.policy(policy)
        hyp_path = self.run_dir / f"hyp.{policy}.txt"
        audit_path = self.run_dir / f"audit.{policy}.jsonl"

        inputs = {"test_source": cfg.test_source, "test_target": cfg.test_target}
        if spec.pool == "mined":
            inputs["pool"] = str(self.mine_sentences())
        if spec.pool == "gold":
            inputs["gold_dev_source"] = cfg.gold_dev_source
            inputs["gold_dev_target"] = cfg.gold_dev_target
        if spec.needs_lexicon:
            inputs["lexicon"] = str(self.mine_words())
            inputs["w2w"] = str(self.build_w2w())

        writes_audit = spec.selector != "none"
        outputs = [hyp_path, audit_path] if writes_audit else [hyp_path]

        def build() -> None:
            sources = [src for src, _ in self._test_pairs()]
            if spec.needs_lexicon:
                # by text: w2w.jsonl keeps the sources of blank-side pairs
                rendered = dict(w2w.read_w2w(inputs["w2w"]).pairs)
                missing = [source for source in sources if source not in rendered]
                if missing:  # w2w_source names another corpus
                    rendered.update(w2w.build_w2w(
                        missing, word_mining.read_lexicon(inputs["lexicon"]),
                        self.llm, self.source_lang, self.target_lang,
                        self.templates, cfg.max_word_tokens,
                        max_workers=cfg.concurrency,
                    ).pairs)
                hypotheses = [rendered[source] for source in sources]
            else:
                shot_lists, audit_records = self._selections(policy, spec, sources)
                decoding = self._sentence_decoding()
                requests = [
                    sentence_request(
                        source, self.source_lang, self.target_lang, shots,
                        self.templates, decoding, cfg.max_sentence_tokens,
                    )
                    for source, shots in zip(sources, shot_lists)
                ]
                results = generate_each(
                    self.llm, requests, cfg.concurrency, "translations"
                )
                hypotheses = [c[0].text if c else "" for c in results]
                if writes_audit:
                    write_jsonl(audit_path, audit_records)
            write_lines(hyp_path, hypotheses)

        self._stage(f"translate.{policy}", inputs, outputs, build)
        return hyp_path

    # ----------------------------------------------------------- evaluation

    def evaluate(self, hyp_path: str | Path, ref_path: str | Path,
                 system: str = "system", *,
                 pool: Executor | None = None) -> metrics.EvalReport:
        return metrics.evaluate_corpus(
            hyp_path,
            ref_path,
            self.source_lang.code,
            self.target_lang.code,
            system=system,
            chrf_config=self.config.chrf_config(),
            bleu_config=self.config.bleu_config(),
            pool=pool,
        )

    def _reference(self) -> Path:
        """The test targets that the hypotheses align with: blank pairs are
        dropped, so the sources are an input too."""
        cfg = self.config
        ref_path = self.run_dir / "test.ref.txt"
        inputs = {"test_source": cfg.test_source, "test_target": cfg.test_target}
        self._stage(
            "reference", inputs, [ref_path],
            lambda: write_lines(ref_path, [tgt for _, tgt in self._test_pairs()]),
        )
        return ref_path

    def evaluate_policy(
        self, policy: str, scorer: Executor, pool: Executor | None = None
    ) -> Future[metrics.EvalReport]:
        """Stage 5: score the hypotheses of `translate(policy)` against the
        test targets.

        The translation and the reference are pulled on the calling thread;
        the `evaluate.<policy>` stage runs on `scorer`, and the returned
        future holds its report. `pool`, if given, is a process pool that
        shares the scoring. Scoring sends no backend request.
        """
        hyp_path = self.translate(policy)
        ref_path = self._reference()
        report_path = self.run_dir / f"report.{policy}.json"
        inputs = {"hypotheses": str(hyp_path), "reference": str(ref_path)}
        vocab = metrics.subword_vocab(self.config.bleu_tokenizer)
        if vocab is not None:
            inputs["subword_vocab"] = vocab

        def build() -> None:
            report = self.evaluate(hyp_path, ref_path, system=policy, pool=pool)
            _write_json(report_path, report.to_record())

        def score() -> metrics.EvalReport:
            self._stage(f"evaluate.{policy}", inputs, [report_path], build)
            return metrics.EvalReport.from_record(
                json.loads(report_path.read_text(encoding="utf-8"))
            )

        return scorer.submit(score)

    # --------------------------------------------------------------- run-all

    def run_all(self, policies: Sequence[str] | None = None) -> list[metrics.EvalReport]:
        """Translate and score `policies` (default: the config's), in order,
        and write `report.txt`.

        Each policy is scored on one scorer thread while the next one
        translates here. Before each translation, the error of a scoring
        that has already failed is raised; on any error the pending scorings
        are cancelled, and the one running is waited for.
        """
        selected = tuple(policies) if policies else self.config.effective_policies()
        for policy in selected:  # reject a policy before any stage runs
            self.config.policy(policy)
        pool = _scoring_pool()
        with pool or contextlib.nullcontext():
            scorer = ThreadPoolExecutor(1, thread_name_prefix="scorer")
            try:
                futures: list[Future[metrics.EvalReport]] = []
                for policy in selected:
                    for future in futures:
                        if future.done():
                            future.result()  # raises a failed scoring's error
                    futures.append(self.evaluate_policy(policy, scorer, pool))
                reports = [future.result() for future in futures]
            finally:
                scorer.shutdown(cancel_futures=True)
        write_lines(
            self.run_dir / "report.txt", [report.row() for report in reports]
        )
        return reports
