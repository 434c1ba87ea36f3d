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
a new `Pipeline` picks up edited inputs. `run_all` translates and scores
each policy in turn on the calling thread. It counts chrF++/BLEU through one
`metrics.Scoring` per run, which counts each distinct (hypothesis,
reference) line pair once, whichever policies share it. The run directory
is named by the config hash and guarded by a lock file.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
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
from .prompts import PromptTemplates, Translator
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


class RunLock:
    """One process owns a run directory at a time.

    The owner holds an exclusive `flock` on the lock file, which names its
    PID. The kernel releases the lock when the owner's process ends, however
    it ends, so a lock file that no process holds (a killed run left it) is
    taken over whatever it contains, and only a live owner rejects a second
    one. The descriptor is not inherited by a subprocess (PEP 446). `flock`
    is unreliable on some network file systems, where two hosts may both
    take it: keep run directories on a local disk.
    """

    def __init__(self, run_dir: Path):
        self.path = run_dir / ".lock"

    def __enter__(self) -> "RunLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        while True:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT)
            try:
                if self._take(fd):
                    self._fd = fd
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
        self.path.unlink(missing_ok=True)  # while still holding the lock
        os.close(self._fd)


class Pipeline:
    def __init__(self, config: PipelineConfig):
        config.validate()
        self.config = config
        self.run_dir = Path(config.output_dir) / f"run-{config.run_hash()}"
        source = LanguageSpec.from_code(config.source_code, config.source_name or None)
        target = LanguageSpec.from_code(config.target_code, config.target_name or None)
        cache = ResponseCache(config.cache_dir)
        llm, embedder = self._make_llm(), self._make_embedder()
        self.llm = CachingLLM(llm, cache, self._workers(llm))
        templates = PromptTemplates(
            config.word_zero_shot_template or PromptTemplates.word_zero_shot,
            config.word_shot_header_template or PromptTemplates.word_shot_header,
            config.sentence_header_template or PromptTemplates.sentence_header,
        )
        decoding = (DecodingMode.beam(config.beam_width)
                    if config.sentence_decoding == "beam" else DecodingMode.greedy())
        self.translator = Translator(
            self.llm, source, target, templates, config.max_word_tokens,
            config.max_sentence_tokens, decoding,
        )
        self.embedder = CachingEmbedder(embedder, cache, self._workers(embedder))
        self.scorer = SimilarityScorer(self.embedder)
        self._mining_config = word_mining.MiningConfig(
            n=config.n,
            k_wp=config.k_wp,
            temperature=config.temperature,
            seed=config.seed,
        )
        self._resolved: set[str] = set()  # stages found current or built

    # ------------------------------------------------------------- wiring

    def _make_llm(self):
        cfg = self.config
        if cfg.backend_kind == "mock":
            return MockLLMBackend(cfg.llm_fixture, model_id=cfg.model or "mock-model")
        return HttpLLMBackend(cfg.base_url, cfg.model)

    def _workers(self, backend) -> int:
        """Requests in flight to `backend`: `concurrency` when it waits on a
        network, else 1. A local backend computes in Python under the
        interpreter lock, so worker threads would only take turns at it."""
        return self.config.concurrency if backend.remote else 1

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

    # -------------------------------------------------------------- stages

    @staticmethod
    def _manifest_path(outputs: Sequence[Path]) -> Path:
        return outputs[0].with_name(outputs[0].name + ".manifest.json")

    def _unless_current(
        self, name: str, inputs: dict[str, str], outputs: Sequence[Path]
    ) -> dict | None:
        """None if the stage is current on disk, else the manifest to record
        once it is built; every input file must exist.

        The stage's manifest, `<first output>.manifest.json`, records the
        stage name, the hashes of the input files, the semantic config, the
        backend, the seed and the hashes of the outputs. The stage is current
        when the recorded manifest equals that record for these inputs and
        the outputs now on disk; a missing output, a missing manifest or one
        that is not valid JSON is not current. Writes need no temp file and
        rename: a half-written artifact or manifest never matches the
        recorded hashes, so the stage runs again.
        """
        manifest_path = self._manifest_path(outputs)
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
                return None
        return manifest

    def _record(self, manifest: dict, outputs: Sequence[Path]) -> None:
        """Write the manifest of a built stage, with its outputs' hashes."""
        manifest["outputs"] = {path.name: _sha256_file(path) for path in outputs}
        _write_json(self._manifest_path(outputs), manifest)

    def _stage(
        self,
        name: str,
        inputs: dict[str, str],
        outputs: Sequence[Path],
        build: Callable[[], None],
    ) -> None:
        """Run `build`, which writes `outputs`, unless the stage is current
        (see `_unless_current`), and record it.

        A stage found current or built is not checked again by this
        `Pipeline`; one whose build raised is checked again on the next call.
        """
        if name in self._resolved:
            return
        manifest = self._unless_current(name, inputs, outputs)
        if manifest is None:
            log.info("%s up to date, skipping", name)
        else:
            build()
            self._record(manifest, outputs)
        self._resolved.add(name)

    def mine_words(self) -> Path:
        """Stage 1: mined word-pair lexicon (zero-shot round plus refinement)."""
        cfg = self.config
        lexicon_path = self.run_dir / "lexicon.tsv"

        def build() -> None:
            pairs = word_mining.mine_lexicon(
                load_vocabulary(cfg.source_vocab, cfg.vocab_size),
                load_vocabulary(cfg.target_vocab, cfg.vocab_size),
                self._mining_config, self.translator, self.scorer,
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
                load_monolingual(source_path), shots, self.translator
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
                d_u, corpus, cfg.k, self.translator, self.scorer,
                cfg.iterations, cfg.shot_strategy,
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
        the selectors are looked up in `sentence_mining` at call time and
        called once per test sentence, and the candidates rank each
        distinct sentence only once.
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
                        self.translator,
                    ).pairs)
                hypotheses = [rendered[source] for source in sources]
            else:
                shot_lists, audit_records = self._selections(policy, spec, sources)
                hypotheses = self.translator.sentences(sources, shot_lists)
                if writes_audit:
                    write_jsonl(audit_path, audit_records)
            write_lines(hyp_path, hypotheses)

        self._stage(f"translate.{policy}", inputs, outputs, build)
        return hyp_path

    # ----------------------------------------------------------- evaluation

    def evaluate(self, hyp_path: str | Path, ref_path: str | Path,
                 system: str = "system", *,
                 scoring: metrics.Scoring | None = None) -> metrics.EvalReport:
        return metrics.evaluate_corpus(
            hyp_path,
            ref_path,
            self.translator.src.code,
            self.translator.trg.code,
            system=system,
            chrf_config=self.config.chrf_config(),
            bleu_config=self.config.bleu_config(),
            scoring=scoring,
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
        self, policy: str, scoring: metrics.Scoring | None = None
    ) -> metrics.EvalReport:
        """Stage 5: score the hypotheses of `translate(policy)` against the
        test targets.

        `scoring` is the run's line-pair counting (a fresh one if None).
        Scoring sends no backend request.
        """
        hyp_path, ref_path = self.translate(policy), self._reference()
        report_path = self.run_dir / f"report.{policy}.json"
        inputs = {"hypotheses": str(hyp_path), "reference": str(ref_path)}
        vocab = metrics.subword_vocab(self.config.bleu_tokenizer)
        if vocab is not None:
            inputs["subword_vocab"] = vocab

        def build() -> None:
            report = self.evaluate(hyp_path, ref_path, system=policy, scoring=scoring)
            _write_json(report_path, report.to_record())

        self._stage(f"evaluate.{policy}", inputs, [report_path], build)
        return metrics.EvalReport.from_record(
            json.loads(report_path.read_text(encoding="utf-8"))
        )

    # --------------------------------------------------------------- run-all

    def run_all(self, policies: Sequence[str] | None = None) -> list[metrics.EvalReport]:
        """Translate and score `policies` (default: the config's), in order,
        and write `report.txt`.

        Every policy is scored through one `metrics.Scoring`, so a line
        pair that several policies share is counted once.
        """
        selected = tuple(policies) if policies else self.config.effective_policies()
        for policy in selected:  # reject a policy before any stage runs
            self.config.policy(policy)
        scoring = metrics.Scoring()
        reports = [self.evaluate_policy(policy, scoring) for policy in selected]
        write_lines(
            self.run_dir / "report.txt", [report.row() for report in reports]
        )
        return reports
