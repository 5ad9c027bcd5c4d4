"""Pipeline stages with reproducible run manifests.

Each stage reads its declared inputs from disk, writes its declared outputs
into the configured output directory, and records a manifest with the config
snapshot, seed, and sha256 digests of every input and output, so the
provenance chain is verifiable end to end. Stages are resumable: a missing
upstream artifact is an error naming the stage to run first. Ranked lists and
manifests are written to a temporary file and moved into place, the manifest
last, so a reader never sees a partial file.

Every list file goes through one parse, `_read_side`, into its `RankSide`
(int32 columns); `evaluate` reads `fused.jsonl` through it uncached.
`rerank` and `analyze` read the ranked lists through one cache per process,
keyed by the sha256 of the bytes read and bounded at two entries (a stage
reads at most two list files). An entry is the file's `RankSide`, never its
records. A stage hashes each list file once, from the same read that a parse
would use, parses only bytes new to the process, and records that digest in
its manifest. The cache pays where one process runs several of these stages
over the same lists: the rerank ablation modes and `analyze`, or `all`, where
`analyze` reuses what `rerank` parsed. A single stage pays a hash per file,
which its manifest no longer repeats.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
from pathlib import Path

import numpy as np

from . import __version__
from .collab import train_collab_state
from .config import PipelineConfig
from .dataio import (PRODUCED_BY, EmbeddingMatrix, SplitDataset, decoded, kcore_filter,
                     leave_one_out_split, load_embedding_matrix,
                     load_interactions, load_split, refusal, replace_on_close,
                     write_embedding_matrix, write_interactions, write_split)
from .metrics import (chr_avg, hit_at_k, hit_sets, ndcg_at_k, numbered_targets, per_matrix,
                      write_metrics_csv, write_per_matrix)
from .rerank import (MalformedList, RankArrays, RankSide, rank_arrays, rank_side, score_pairs,
                     top_k, write_score_breakdown)
from .retrieval import ListRecord, beam_search_users, read_ranked_lists, write_ranked_lists
from .rqvae import (assign_codes, index_counters, load_code_table, resolve_collisions,
                    train_rqvae, write_code_table)
from .scorer import load_scorer, save_scorer, train_markov_scorer
from .synth import generate_synthetic
from .vocab import PrefixTrie, build_prefix_trie

log = logging.getLogger(__name__)

STAGES = ("prepare", "embed-collab", "build-index", "train-scorers",
          "retrieve", "rerank", "evaluate", "analyze")


class PipelineError(RuntimeError):
    """A stage refusing its inputs or its results; whoever ran the stage names it."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


# sha256 of a ranked-list file's bytes -> its parsed side, least recently used first.
# Shared by the whole process on purpose: equal bytes give an equal side wherever
# they were read. Two entries hold the most a stage reads.
_SIDES: dict[str, RankSide] = {}
_SIDES_MAX = 2


def _read_side(path: Path, cached: bool = True) -> tuple[RankSide, str]:
    """A ranked-list file's checked `RankSide` and the digest of the bytes read.

    This is every list file's one parse. A byte that is not UTF-8, a line that
    is not a record and a record unfit for the columns each raise `path:lineno`
    and the stage that rewrites the file. A `cached` read parses only bytes
    new to the process, and keeps a side that parsed.
    """
    data = path.read_bytes()
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    side = _SIDES.pop(digest, None) if cached else None
    if side is None:
        # bytes, text and lines are each as large as the file: hold one at a time
        text = decoded(path, data)
        del data
        lines = text.splitlines()
        del text
        blank = [n for n, line in enumerate(lines, 1) if not line]
        records = read_ranked_lists(path, lines)
        del lines
        try:
            side = rank_side(records)
        except MalformedList as exc:
            lineno = exc.position + 1  # a record's line, past the empty ones the reader skips
            for n in blank:
                lineno += n <= lineno
            raise ValueError(refusal(path, str(exc), lineno)) from None
        if not cached:
            return side, digest
        if len(_SIDES) == _SIDES_MAX:
            del _SIDES[next(iter(_SIDES))]
    _SIDES[digest] = side
    return side, digest


def _require(cfg: PipelineConfig, *names: str) -> dict[str, Path]:
    found = {}
    for name in names:
        p = cfg.out_dir / name
        if not p.exists():
            producer = PRODUCED_BY.get(name)
            hint = f"; run the {producer!r} stage first" if producer else ""
            raise PipelineError(f"missing input {p}{hint}")
        found[name] = p
    return found


def _write_manifest(cfg: PipelineConfig, stage: str,
                    inputs: dict[str, Path], outputs: dict[str, Path],
                    extra: dict | None = None, digests: dict[Path, str] | None = None) -> None:
    """`digests` holds the inputs the stage has hashed already, by path."""
    digests = digests or {}

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
        "inputs": {rel(p): digests.get(p) or _sha256(p) for p in inputs.values()},
        "outputs": {rel(p): _sha256(p) for p in outputs.values()},
    }
    if extra:
        manifest.update(extra)
    with replace_on_close(cfg.out_dir / f"manifest_{stage.replace('-', '_')}.json") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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
            raise PipelineError(f"interactions file not found: {cfg.interactions}")
        ds = load_interactions(cfg.interactions)
        inputs["interactions"] = cfg.interactions
    filtered = kcore_filter(ds, cfg.kcore)
    if not filtered.users:
        raise PipelineError(f"{cfg.kcore}-core filtering removed every user")
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
    inputs = _require(cfg, "train.tsv")
    split = load_split(cfg.out_dir)
    state = train_collab_state(SplitDataset(train=split.train, valid={}, test={}), cfg.collab)
    out = cfg.out_dir / "collab.emb"
    write_embedding_matrix(state.item_matrix(), out)
    _write_manifest(cfg, "embed-collab", inputs, {"collab.emb": out},
                    extra={"counters": state.counters()})


def stage_build_index(cfg: PipelineConfig) -> None:
    """Train one quantizer per embedding source and emit collision-free code tables.

    The manifest records each index type's index_counters.
    """
    inputs = _require(cfg, "collab.emb")
    if not cfg.semantic_emb.exists():
        raise PipelineError(f"semantic embeddings not found: {cfg.semantic_emb}")
    inputs["semantic_emb"] = cfg.semantic_emb
    collab = load_embedding_matrix(inputs["collab.emb"])
    semantic = load_embedding_matrix(cfg.semantic_emb, produced=False)
    common = set(collab.items) & set(semantic.items)
    if not common:
        raise PipelineError("no items shared by both embedding sources")
    dropped = len(collab.items) + len(semantic.items) - 2 * len(common)
    if dropped:
        log.warning("build-index: %d embedding row(s) outside the common item set", dropped)
    outputs: dict[str, Path] = {}
    counters: dict[str, dict] = {}
    for index_type, emb, sub_cfg in (("ceid", collab, cfg.rqvae_ceid),
                                     ("seid", semantic, cfg.rqvae_seid)):
        if len(common) < sub_cfg.codebook_size:  # k-means starts a codeword from each item
            raise PipelineError(f"{len(common)} items, fewer than "
                                f"rqvae_{index_type}.codebook_size ({sub_cfg.codebook_size})")
        keep = [k for k, item in enumerate(emb.items) if item in common]
        restricted = EmbeddingMatrix([emb.items[k] for k in keep], emb.vectors[keep])
        try:
            model = train_rqvae(restricted, sub_cfg)
        except RuntimeError as exc:  # training diverged
            raise PipelineError(f"rqvae_{index_type}: {exc}") from exc
        raw_codes = assign_codes(model, restricted)
        counters[index_type] = index_counters(model, raw_codes)
        table = resolve_collisions(raw_codes, index_type)
        codes_path = cfg.out_dir / f"codes_{index_type}.tsv"
        write_code_table(table, codes_path)
        outputs[f"codes_{index_type}.tsv"] = codes_path
        n_collide = sum(1 for tup in table.codes.values() if tup[-1] != 0)
        log.info("build-index: %s codes for %d items (%d in collision groups)",
                 index_type, len(table.codes), n_collide)
    _write_manifest(cfg, "build-index", inputs, outputs, extra={"counters": counters})


def _token_streams(split: SplitDataset, trie: PrefixTrie) -> dict:
    """Per user with a coded train item: the trie's ids of those items, in order."""
    leaf = {item: n for n, item in enumerate(trie.items)}
    streams = {}
    for user in sorted(split.train):
        leaves = [leaf[item] for item in split.train[user] if item in leaf]
        if leaves:
            streams[user] = trie.ids[leaves].ravel()
    return streams


def stage_train_scorers(cfg: PipelineConfig) -> None:
    """One n-gram counting pass and one checkpoint per index type, holding every template.

    The manifest records the n-gram rows per order of every scorer.
    """
    inputs = _require(cfg, "train.tsv", "codes_ceid.tsv", "codes_seid.tsv")
    split = load_split(cfg.out_dir)
    outputs: dict[str, Path] = {}
    ngram_rows: dict[str, list[int]] = {}
    for index_type in ("ceid", "seid"):
        trie = build_prefix_trie(load_code_table(inputs[f"codes_{index_type}.tsv"], index_type))
        templates = list(range(1, cfg.templates + 1))
        scorers = train_markov_scorer(_token_streams(split, trie), templates, cfg.scorer,
                                      index_type, trie.vocab)
        path = cfg.out_dir / f"scorer_{index_type}.txt"
        save_scorer(scorers, path)
        outputs[path.name] = path
        for scorer in scorers:
            ngram_rows[f"{index_type}_t{scorer.template_id}"] = scorer.ngram_rows()
    _write_manifest(cfg, "train-scorers", inputs, outputs,
                    extra={"ngram_rows": ngram_rows})


def stage_retrieve(cfg: PipelineConfig) -> None:
    """Beam-search top-K lists for every (index type, template, user).

    The inference context is the train history plus the held-out validation
    item (everything observed before the test item), truncated to max_len
    items; scorers themselves were trained on train histories only. Each
    index type is one search over all its templates and users, which shares
    the work of users with the same scorer context. The manifest records, per
    index type, the lists written, the distinct contexts searched, the (beam,
    child) pairs scored, the distinct key lookups and the users without a list
    (no codable history).
    """
    inputs = _require(cfg, "train.tsv", "valid.tsv", "codes_ceid.tsv",
                      "codes_seid.tsv", "scorer_ceid.txt", "scorer_seid.txt")
    split = load_split(cfg.out_dir)
    context_split = SplitDataset(
        train={u: (seq + [split.valid[u]] if u in split.valid else seq)[-cfg.max_len:]
               for u, seq in split.train.items()},
        valid={}, test={})
    outputs: dict[str, Path] = {}
    counters: dict[str, dict[str, int]] = {}
    for index_type in ("ceid", "seid"):
        codes = inputs[f"codes_{index_type}.tsv"]
        trie = build_prefix_trie(load_code_table(codes, index_type))
        streams = _token_streams(context_split, trie)
        users = sorted(streams)
        contexts = [streams[user] for user in users]
        ckpt = inputs[f"scorer_{index_type}.txt"]
        scorers = load_scorer(ckpt)
        if scorers[0].index_type != index_type or len(scorers) < cfg.templates:
            raise PipelineError(refusal(
                ckpt, f"holds {len(scorers)} {scorers[0].index_type} template(s), "
                      f"{cfg.templates} {index_type} needed"))
        if scorers[0].vocab != trie.vocab:
            diff = set(scorers[0].vocab).symmetric_difference(trie.vocab)
            first = f"first difference {min(diff)!r}" if diff else "the same tokens, reordered"
            raise PipelineError(refusal(
                ckpt, f"vocabulary does not match {codes.name} ({first})"))
        results, searched = beam_search_users(scorers[:cfg.templates], trie, contexts,
                                              cfg.k_retrieve, users)
        path = cfg.out_dir / f"ranked_{index_type}.jsonl"
        write_ranked_lists(results, path)
        outputs[path.name] = path
        without = len(context_split.train) - len(users)
        counters[index_type] = {"lists": len(results), **searched,
                                "users_without_list": without}
        if without:
            log.warning("retrieve: %s: %d users get no list (no coded item in their "
                        "history)", index_type, without)
        log.info("retrieve: %s wrote %d lists", index_type, len(results))
    _write_manifest(cfg, "retrieve", inputs, outputs, extra={"counters": counters})


def fuse_all_users(ranks: RankArrays, alpha: float, tau: float, k_out: int,
                   max_templates: int) -> RankSide:
    """Per-user fusion over the lists with template id <= max_templates."""
    return top_k(score_pairs(ranks, alpha, tau, max_templates), k_out)[0]


def stage_rerank(cfg: PipelineConfig, mode: str | None = None) -> None:
    """Fuse each user's lists; fused.jsonl and the breakdown share one scoring pass.

    The manifest records the lists read per index type (0 for a side the mode
    does not read), the users fused and the (user, item) pairs scored.
    """
    mode = mode or cfg.mode
    # a single-index mode reads one side and fuses the other as empty
    reads = {"ranked_ceid.jsonl": mode != "seid-only", "ranked_seid.jsonl": mode != "ceid-only"}
    inputs = _require(cfg, *(name for name, read in reads.items() if read))
    sides = []
    digests: dict[Path, str] = {}
    for name in reads:
        side = rank_side([])
        if name in inputs:
            side, digests[inputs[name]] = _read_side(inputs[name])
        sides.append(side)
    ranks = rank_arrays(*sides)
    alpha = {"conf-only": 1.0, "cons-only": 0.0}.get(mode, cfg.alpha)
    scores = score_pairs(ranks, alpha, cfg.tau, cfg.templates)
    fused, s_total = top_k(scores, cfg.k_retrieve)
    names = [fused.items[i] for i in fused.item.tolist()]
    values = s_total.tolist()
    # entries are in user order, each of a listed user: a list ends where the next starts
    ends = np.searchsorted(fused.user, fused.list_user, "right").tolist()
    out = cfg.out_dir / "fused.jsonl"
    write_ranked_lists([ListRecord(fused.users[u], "fused", 0, names[a:b], values[a:b])
                        for u, a, b in zip(fused.list_user.tolist(), [0] + ends, ends)], out)
    outputs = {"fused.jsonl": out}
    if cfg.breakdown:
        bpath = cfg.out_dir / "score_breakdown.tsv"
        write_score_breakdown(scores, bpath)
        outputs["score_breakdown.tsv"] = bpath
    counters = {"lists_read": {"ceid": len(sides[0].list_user), "seid": len(sides[1].list_user)},
                "users_fused": len(fused.list_user), "pairs_scored": len(scores.user)}
    _write_manifest(cfg, "rerank", inputs, outputs, digests=digests,
                    extra={"mode": mode, "alpha": alpha, "counters": counters})


def stage_evaluate(cfg: PipelineConfig) -> None:
    """Hit@K and NDCG@K of the fused lists over the test split.

    `fused.jsonl` gets the parse and record checks of `rerank` and `analyze`,
    uncached. The manifest records the test users evaluated (every metric's
    denominator) and those without a fused list, which count as misses.
    """
    inputs = _require(cfg, "fused.jsonl", "test.tsv")
    split = load_split(cfg.out_dir)
    path = inputs["fused.jsonl"]
    fused, digest = _read_side(path, cached=False)
    if len(fused.list_user) > len(fused.users):  # a user with two lists
        twice = fused.users[np.bincount(fused.list_user).argmax()]
        raise PipelineError(refusal(path, f"holds two lists for user {twice!r}"))
    without = len(set(split.test).difference(fused.users))
    if without:
        log.warning("evaluate: %d user(s) missing a ranked list, counted as misses", without)
    rows = []
    target = numbered_targets(fused.users, fused.items, split.test)
    for k in cfg.k_report:
        h = hit_at_k(fused, split.test, k, target)
        n = ndcg_at_k(fused, split.test, k, target)
        if n > h + 1e-12:
            raise PipelineError(f"NDCG@{k} ({n}) exceeds Hit@{k} ({h})")
        rows += [("hit", k, h), ("ndcg", k, n)]
        log.info("evaluate: hit@%d=%.4f ndcg@%d=%.4f", k, h, k, n)
    out = cfg.out_dir / "metrics.csv"
    write_metrics_csv(rows, out)
    counters = {"users_evaluated": len(split.test), "users_without_list": without}
    _write_manifest(cfg, "evaluate", inputs, {"metrics.csv": out}, digests={path: digest},
                    extra={"counters": counters})


def stage_analyze(cfg: PipelineConfig) -> None:
    """Complementarity analysis (PER matrices, CHR) and the template-count sweep.

    The manifest records the (user, item) pairs numbered over all templates and
    the sweep points (template counts fused).
    """
    inputs = _require(cfg, "ranked_ceid.jsonl", "ranked_seid.jsonl", "test.tsv")
    split = load_split(cfg.out_dir)
    outputs: dict[str, Path] = {}
    sets_by_type = {}
    sides = []
    digests: dict[Path, str] = {}
    for index_type in ("ceid", "seid"):
        ranked = inputs[f"ranked_{index_type}.jsonl"]
        side, digests[ranked] = _read_side(ranked)
        sides.append(side)
        sets_by_type[index_type] = hit_sets(side, split.test, cfg.analysis_k)
        matrix, ids = per_matrix(sets_by_type[index_type])
        path = cfg.out_dir / f"per_matrix_{index_type}.csv"
        write_per_matrix(matrix, ids, path)
        outputs[path.name] = path
    chr_path = cfg.out_dir / "chr.csv"
    with replace_on_close(chr_path) as fh:
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
    ranks = rank_arrays(*sides)
    sweep_path = cfg.out_dir / "template_sweep.csv"
    with replace_on_close(sweep_path) as fh:
        ks = sorted(cfg.k_report)
        fh.write("num_templates," + ",".join(f"hit@{k},ndcg@{k}" for k in ks) + "\n")
        sweep = range(2, cfg.templates + 1)
        # every cap's fused lists are on the names of `ranks`: one numbering serves them all
        target = numbered_targets(ranks.users, ranks.items, split.test)
        for t in sweep:
            fused = fuse_all_users(ranks, cfg.alpha, cfg.tau, cfg.k_retrieve, max_templates=t)
            cells = []
            for k in ks:
                cells += [hit_at_k(fused, split.test, k, target),
                          ndcg_at_k(fused, split.test, k, target)]
            fh.write(str(t) + "," + ",".join(repr(c) for c in cells) + "\n")
    outputs["template_sweep.csv"] = sweep_path
    counters = {"pairs_numbered": len(ranks.user), "sweep_points": len(sweep)}
    _write_manifest(cfg, "analyze", inputs, outputs, digests=digests,
                    extra={"counters": counters})


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
        raise PipelineError(f"unknown stage {stage!r}")
