"""Pipeline stages with reproducible run manifests.

Each stage reads its declared inputs from disk, writes its declared outputs
into the configured output directory, and records a manifest with the config
snapshot, seed, and sha256 digests of every input and output, so the
provenance chain is verifiable end to end. Stages are resumable: a missing
upstream artifact is an error naming the stage to run first.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
from pathlib import Path

from . import __version__
from .collab import train_collaborative_embeddings
from .config import PipelineConfig
from .dataio import (EmbeddingMatrix, SplitDataset, kcore_filter,
                     leave_one_out_split, load_embedding_matrix,
                     load_interactions, load_split, write_embedding_matrix,
                     write_interactions, write_split)
from .metrics import (chr_avg, hit_at_k, hit_sets, ndcg_at_k, per_matrix,
                      write_metrics_csv, write_per_matrix)
from .rerank import RankArrays, score_pairs, top_k, write_score_breakdown
from .retrieval import (RankedList, beam_search_users, read_ranked_lists,
                        write_ranked_lists)
from .rqvae import (assign_codes, load_code_table, resolve_collisions,
                    save_model, train_rqvae, write_code_table)
from .scorer import count_ngrams, load_scorer, save_scorer, train_markov_scorer
from .synth import generate_synthetic
from .vocab import build_prefix_trie, build_vocabulary, item_tokens, write_vocab

log = logging.getLogger(__name__)

STAGES = ("prepare", "embed-collab", "build-index", "train-scorers",
          "retrieve", "rerank", "evaluate", "analyze")

# artifact -> stage that produces it, for resumability diagnostics
_PRODUCED_BY = {
    "train.tsv": "prepare",
    "valid.tsv": "prepare",
    "test.tsv": "prepare",
    "collab.emb": "embed-collab",
    "codes_ceid.tsv": "build-index",
    "codes_seid.tsv": "build-index",
    "vocab.tsv": "build-index",
    "ranked_ceid.jsonl": "retrieve",
    "ranked_seid.jsonl": "retrieve",
    "fused.jsonl": "rerank",
}


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _producer_of(name: str) -> str | None:
    if name.startswith("scorer_"):
        return "train-scorers"
    if name.startswith(("rqvae_", "codes_")):
        return "build-index"
    return _PRODUCED_BY.get(name)


def _require(cfg: PipelineConfig, stage: str, *names: str) -> dict[str, Path]:
    found = {}
    for name in names:
        p = cfg.out_dir / name
        if not p.exists():
            producer = _producer_of(name)
            hint = f"; run the {producer!r} stage first" if producer else ""
            raise PipelineError(stage, f"missing input {p}{hint}")
        found[name] = p
    return found


def _write_manifest(cfg: PipelineConfig, stage: str,
                    inputs: dict[str, Path], outputs: dict[str, Path],
                    extra: dict | None = None) -> None:
    def rel(p: Path) -> str:
        try:
            return str(p.relative_to(cfg.out_dir))
        except ValueError:
            return str(p)

    manifest = {
        "stage": stage,
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.snapshot(),
        "inputs": {rel(p): _sha256(p) for p in inputs.values()},
        "outputs": {rel(p): _sha256(p) for p in outputs.values()},
    }
    if extra:
        manifest.update(extra)
    path = cfg.out_dir / f"manifest_{stage.replace('-', '_')}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# Stages

def stage_prepare(cfg: PipelineConfig, synthetic: bool = False) -> None:
    """Ingest (or generate) interactions, apply k-core, write the split manifest."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    inputs: dict[str, Path] = {}
    outputs: dict[str, Path] = {}
    if synthetic:
        ds, semantic = generate_synthetic(cfg.synthetic)
        cfg.interactions.parent.mkdir(parents=True, exist_ok=True)
        write_interactions(ds, cfg.interactions)
        write_embedding_matrix(semantic, cfg.semantic_emb)
        outputs["interactions"] = cfg.interactions
        outputs["semantic_emb"] = cfg.semantic_emb
    else:
        if not cfg.interactions.exists():
            raise PipelineError("prepare", f"interactions file not found: {cfg.interactions}")
        ds = load_interactions(cfg.interactions)
        inputs["interactions"] = cfg.interactions
    filtered = kcore_filter(ds, cfg.kcore)
    if not filtered.users:
        raise PipelineError("prepare", f"{cfg.kcore}-core filtering removed every user")
    split = leave_one_out_split(filtered, cfg.max_len)
    write_split(split, cfg.out_dir)
    for name in ("train.tsv", "valid.tsv", "test.tsv"):
        outputs[name] = cfg.out_dir / name
    log.info("prepare: %d users, %d items, %d interactions after %d-core",
             len(filtered.users), len(filtered.items),
             filtered.num_interactions(), cfg.kcore)
    _write_manifest(cfg, "prepare", inputs, outputs,
                    extra={"synthetic": synthetic})


def stage_embed_collab(cfg: PipelineConfig) -> None:
    inputs = _require(cfg, "embed-collab", "train.tsv")
    split = load_split(cfg.out_dir)
    emb = train_collaborative_embeddings(
        SplitDataset(train=split.train, valid={}, test={}), cfg.collab)
    out = cfg.out_dir / "collab.emb"
    write_embedding_matrix(emb, out)
    _write_manifest(cfg, "embed-collab", inputs, {"collab.emb": out})


def stage_build_index(cfg: PipelineConfig) -> None:
    """Train one quantizer per embedding source and emit collision-free code tables."""
    inputs = _require(cfg, "build-index", "collab.emb")
    if not cfg.semantic_emb.exists():
        raise PipelineError("build-index",
                            f"semantic embeddings not found: {cfg.semantic_emb}")
    inputs["semantic_emb"] = cfg.semantic_emb
    collab = load_embedding_matrix(cfg.out_dir / "collab.emb", "collaborative")
    semantic = load_embedding_matrix(cfg.semantic_emb, "semantic")
    common = sorted(set(collab.rows) & set(semantic.rows))
    if not common:
        raise PipelineError("build-index", "no items shared by both embedding sources")
    dropped = (len(collab.rows) - len(common)) + (len(semantic.rows) - len(common))
    if dropped:
        log.warning("build-index: %d embedding row(s) outside the common item set", dropped)
    outputs: dict[str, Path] = {}
    tables = []
    for index_type, emb, sub_cfg in (("ceid", collab, cfg.rqvae_ceid),
                                     ("seid", semantic, cfg.rqvae_seid)):
        restricted = EmbeddingMatrix(dim=emb.dim,
                                     rows={i: emb.rows[i] for i in common},
                                     source_tag=emb.source_tag)
        model = train_rqvae(restricted, sub_cfg)
        table = resolve_collisions(assign_codes(model, restricted), index_type)
        tables.append(table)
        ckpt = cfg.out_dir / f"rqvae_{index_type}"
        save_model(model, ckpt)
        codes_path = cfg.out_dir / f"codes_{index_type}.tsv"
        write_code_table(table, codes_path)
        outputs[f"codes_{index_type}.tsv"] = codes_path
        outputs[f"rqvae_{index_type}.bin"] = ckpt.with_suffix(".bin")
        outputs[f"rqvae_{index_type}.manifest"] = ckpt.with_suffix(".manifest")
        n_collide = sum(1 for tup in table.codes.values() if tup[-1] != 0)
        log.info("build-index: %s codes for %d items (%d in collision groups)",
                 index_type, len(table.codes), n_collide)
    vocab_path = cfg.out_dir / "vocab.tsv"
    write_vocab(build_vocabulary(tables), vocab_path)
    outputs["vocab.tsv"] = vocab_path
    _write_manifest(cfg, "build-index", inputs, outputs)


def _token_streams(split: SplitDataset, table) -> dict[str, list[str]]:
    streams = {}
    for user in sorted(split.train):
        toks: list[str] = []
        for item in split.train[user]:
            if item in table.codes:
                toks.extend(item_tokens(table, item))
        if toks:
            streams[user] = toks
    return streams


def stage_train_scorers(cfg: PipelineConfig) -> None:
    """One n-gram counting pass per index type, then one scorer per template.

    The manifest records the n-gram rows per order of every scorer.
    """
    inputs = _require(cfg, "train-scorers", "train.tsv",
                      "codes_ceid.tsv", "codes_seid.tsv")
    split = load_split(cfg.out_dir)
    outputs: dict[str, Path] = {}
    ngram_rows: dict[str, list[int]] = {}
    for index_type in ("ceid", "seid"):
        table = load_code_table(cfg.out_dir / f"codes_{index_type}.tsv", index_type)
        streams = _token_streams(split, table)
        vocab = sorted({code_tok for item in table.codes
                        for code_tok in item_tokens(table, item)})
        index = count_ngrams(streams, cfg.scorer.order, vocab)
        for t in range(1, cfg.templates + 1):
            scorer = train_markov_scorer(streams, t, cfg.scorer, index_type, vocab,
                                         index=index)
            path = cfg.out_dir / f"scorer_{index_type}_t{t}.txt"
            save_scorer(scorer, path)
            outputs[path.name] = path
            ngram_rows[f"{index_type}_t{t}"] = scorer.ngram_rows()
    _write_manifest(cfg, "train-scorers", inputs, outputs,
                    extra={"ngram_rows": ngram_rows})


def stage_retrieve(cfg: PipelineConfig) -> None:
    """Beam-search top-K lists for every (index type, template, user).

    The inference context is the train history plus the held-out validation
    item (everything observed before the test item), truncated to max_len
    items; scorers themselves were trained on train histories only. Each
    (index type, template) is one search over all users. The manifest
    records, per index type, the lists written, the (beam, child) pairs
    scored and the users without a list (no codable history).
    """
    needed = ["train.tsv", "valid.tsv", "codes_ceid.tsv", "codes_seid.tsv"]
    needed += [f"scorer_{x}_t{t}.txt" for x in ("ceid", "seid")
               for t in range(1, cfg.templates + 1)]
    inputs = _require(cfg, "retrieve", *needed)
    split = load_split(cfg.out_dir)
    context_split = SplitDataset(
        train={u: (seq + [split.valid[u]] if u in split.valid else seq)[-cfg.max_len:]
               for u, seq in split.train.items()},
        valid={}, test={})
    outputs: dict[str, Path] = {}
    counters: dict[str, dict[str, int]] = {}
    for index_type in ("ceid", "seid"):
        table = load_code_table(cfg.out_dir / f"codes_{index_type}.tsv", index_type)
        trie = build_prefix_trie(table)
        streams = _token_streams(context_split, table)
        users = sorted(streams)
        contexts = [streams[user] for user in users]
        results: list[RankedList] = []
        pairs = 0
        for t in range(1, cfg.templates + 1):
            scorer = load_scorer(cfg.out_dir / f"scorer_{index_type}_t{t}.txt")
            lists, scored = beam_search_users(scorer, trie, contexts, cfg.k_retrieve,
                                              users, template_id=t)
            results += lists
            pairs += scored
        path = cfg.out_dir / f"ranked_{index_type}.jsonl"
        write_ranked_lists(results, path)
        outputs[path.name] = path
        without = len(context_split.train) - len(users)
        counters[index_type] = {"lists": len(results), "pairs_scored": pairs,
                                "users_without_list": without}
        if without:
            log.warning("retrieve: %s: %d users get no list (no coded item in their "
                        "history)", index_type, without)
        log.info("retrieve: %s wrote %d lists", index_type, len(results))
    _write_manifest(cfg, "retrieve", inputs, outputs, extra={"counters": counters})


def fuse_all_users(ranks: RankArrays, alpha: float, tau: float, k_out: int,
                   max_templates: int) -> dict[str, RankedList]:
    """Per-user fusion over the lists with template id <= max_templates."""
    return {rl.user: rl for rl in top_k(score_pairs(ranks, alpha, tau, max_templates), k_out)}


def stage_rerank(cfg: PipelineConfig, mode: str | None = None) -> None:
    """Fuse each user's lists; fused.jsonl and the breakdown share one scoring pass."""
    mode = mode or cfg.mode
    needed = []
    if mode != "seid-only":
        needed.append("ranked_ceid.jsonl")
    if mode != "ceid-only":
        needed.append("ranked_seid.jsonl")
    inputs = _require(cfg, "rerank", *needed)
    ranks = RankArrays()
    for name in ("ranked_ceid.jsonl", "ranked_seid.jsonl"):
        ranks.add(read_ranked_lists(inputs[name]) if name in inputs else [])
    alpha = {"conf-only": 1.0, "cons-only": 0.0}.get(mode, cfg.alpha)
    scores = score_pairs(ranks, alpha, cfg.tau, cfg.templates)
    out = cfg.out_dir / "fused.jsonl"
    write_ranked_lists(top_k(scores, cfg.k_retrieve), out)
    outputs = {"fused.jsonl": out}
    if cfg.breakdown:
        bpath = cfg.out_dir / "score_breakdown.tsv"
        write_score_breakdown(scores, bpath)
        outputs["score_breakdown.tsv"] = bpath
    _write_manifest(cfg, "rerank", inputs, outputs,
                    extra={"mode": mode, "alpha": alpha})


def stage_evaluate(cfg: PipelineConfig) -> None:
    inputs = _require(cfg, "evaluate", "fused.jsonl", "test.tsv")
    split = load_split(cfg.out_dir)
    fused = {rl.user: rl for rl in read_ranked_lists(cfg.out_dir / "fused.jsonl")}
    rows = []
    for k in cfg.k_report:
        h = hit_at_k(fused, split.test, k)
        n = ndcg_at_k(fused, split.test, k)
        if n > h + 1e-12:
            raise PipelineError("evaluate", f"NDCG@{k} ({n}) exceeds Hit@{k} ({h})")
        rows += [("hit", k, h), ("ndcg", k, n)]
        log.info("evaluate: hit@%d=%.4f ndcg@%d=%.4f", k, h, k, n)
    out = cfg.out_dir / "metrics.csv"
    write_metrics_csv(rows, out)
    _write_manifest(cfg, "evaluate", inputs, {"metrics.csv": out})


def stage_analyze(cfg: PipelineConfig) -> None:
    """Complementarity analysis (PER matrices, CHR) and the template-count sweep."""
    inputs = _require(cfg, "analyze", "ranked_ceid.jsonl", "ranked_seid.jsonl", "test.tsv")
    split = load_split(cfg.out_dir)
    outputs: dict[str, Path] = {}
    sets_by_type = {}
    ranks = RankArrays()
    for index_type in ("ceid", "seid"):
        lists = read_ranked_lists(cfg.out_dir / f"ranked_{index_type}.jsonl")
        ranks.add(lists)
        by_template: dict[int, dict[str, RankedList]] = {}
        for rl in lists:
            by_template.setdefault(rl.template_id, {})[rl.user] = rl
        sets_by_type[index_type] = hit_sets(by_template, split.test, cfg.analysis_k)
        del lists, by_template  # one index type's lists in memory at a time
        matrix, ids = per_matrix(sets_by_type[index_type])
        path = cfg.out_dir / f"per_matrix_{index_type}.csv"
        write_per_matrix(matrix, ids, path)
        outputs[path.name] = path
    chr_path = cfg.out_dir / "chr.csv"
    with chr_path.open("w", encoding="utf-8") as fh:
        fh.write("direction,value\n")
        for t1, t2 in (("ceid", "seid"), ("seid", "ceid")):
            if any(h.users for h in sets_by_type[t2]):
                value = chr_avg(sets_by_type[t1], sets_by_type[t2])
            else:
                log.warning("analyze: no %s template has a hit, CHR %s_vs_%s is nan",
                            t2, t1, t2)
                value = math.nan
            fh.write(f"{t1}_vs_{t2},{value!r}\n")
    outputs["chr.csv"] = chr_path
    sweep_path = cfg.out_dir / "template_sweep.csv"
    with sweep_path.open("w", encoding="utf-8") as fh:
        ks = sorted(cfg.k_report)
        fh.write("num_templates," + ",".join(f"hit@{k},ndcg@{k}" for k in ks) + "\n")
        for t in range(2, cfg.templates + 1):
            fused = fuse_all_users(ranks, cfg.alpha, cfg.tau, cfg.k_retrieve, max_templates=t)
            cells = []
            for k in ks:
                cells += [hit_at_k(fused, split.test, k), ndcg_at_k(fused, split.test, k)]
            fh.write(str(t) + "," + ",".join(repr(c) for c in cells) + "\n")
    outputs["template_sweep.csv"] = sweep_path
    _write_manifest(cfg, "analyze", inputs, outputs)


def run_stage(cfg: PipelineConfig, stage: str, synthetic: bool = False,
              mode: str | None = None) -> None:
    if stage == "prepare":
        stage_prepare(cfg, synthetic=synthetic)
    elif stage == "embed-collab":
        stage_embed_collab(cfg)
    elif stage == "build-index":
        stage_build_index(cfg)
    elif stage == "train-scorers":
        stage_train_scorers(cfg)
    elif stage == "retrieve":
        stage_retrieve(cfg)
    elif stage == "rerank":
        stage_rerank(cfg, mode=mode)
    elif stage == "evaluate":
        stage_evaluate(cfg)
    elif stage == "analyze":
        stage_analyze(cfg)
    elif stage == "all":
        for name in STAGES:
            run_stage(cfg, name, synthetic=synthetic, mode=mode)
    else:
        raise PipelineError(stage, "unknown stage")
