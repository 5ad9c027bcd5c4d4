"""Tracing rqrec from outside the program, and the per-layer metrics derived from it.

`Tracer.install()` rebinds the public functions of `rqrec.*` modules (every
module attribute bound to the same function object, so the names that
`rqrec.pipeline` imported with `from .x import y` are wrapped too) and three
class methods. Coarse calls become spans `[id, name, parent, stage, start, end]`;
the stage id is the id of the enclosing `pipeline.<stage>` span. The hottest
inner calls (next_token_logprobs, add_stream, NormalizedAdjacency.apply, ...) are
aggregated per (parent frame, name) as a count plus summed seconds, so a
fixture-sized trace stays small in memory. The trace is written out once, at
the end of the run, by the caller.

`summarize()` turns a written trace into the per-layer metrics named in
BENCHMARK.json; it is pure Python so the parent process can use it without
importing rqrec.
"""
from __future__ import annotations

import functools
import sys
import weakref
from time import perf_counter

# (module, attribute, trace name, kind). "span" records one span per call,
# "agg" aggregates per (parent frame, name); "agg_nest" also becomes the parent
# frame of wrapped calls made inside it. Stage functions open a new stage id.
_FUNCTIONS = [
    ("pipeline", "stage_prepare", "pipeline.prepare", "stage"),
    ("pipeline", "stage_embed_collab", "pipeline.embed_collab", "stage"),
    ("pipeline", "stage_build_index", "pipeline.build_index", "stage"),
    ("pipeline", "stage_train_scorers", "pipeline.train_scorers", "stage"),
    ("pipeline", "stage_retrieve", "pipeline.retrieve", "stage"),
    ("pipeline", "stage_rerank", "pipeline.rerank", "stage"),
    ("pipeline", "stage_evaluate", "pipeline.evaluate", "stage"),
    ("pipeline", "stage_analyze", "pipeline.analyze", "stage"),
    ("pipeline", "fuse_all_users", "pipeline.fuse_all_users", "span"),
    ("dataio", "load_split", "dataio.load_split", "span"),
    ("dataio", "load_embedding_matrix", "dataio.load_embedding_matrix", "span"),
    ("dataio", "write_embedding_matrix", "dataio.write_embedding_matrix", "span"),
    ("dataio", "load_interactions", "dataio.load_interactions", "span"),
    ("dataio", "write_interactions", "dataio.write_interactions", "span"),
    ("dataio", "kcore_filter", "dataio.kcore_filter", "span"),
    ("dataio", "leave_one_out_split", "dataio.leave_one_out_split", "span"),
    ("dataio", "write_split", "dataio.write_split", "span"),
    ("synth", "generate_synthetic", "synth.generate", "span"),
    ("collab", "train_collab_state", "collab.train", "span"),
    ("rqvae", "train_rqvae", "rqvae.train", "span"),
    ("rqvae", "kmeans_init", "rqvae.kmeans_init", "span"),
    ("rqvae", "quantize_batch", "rqvae.quantize_batch", "agg"),
    ("rqvae", "assign_codes", "rqvae.assign_codes", "span"),
    ("rqvae", "resolve_collisions", "rqvae.resolve_collisions", "span"),
    ("vocab", "build_prefix_trie", "vocab.build_prefix_trie", "span"),
    ("vocab", "item_tokens", "vocab.item_tokens", "agg"),
    ("scorer", "train_markov_scorer", "scorer.train", "span"),
    ("scorer", "save_scorer", "scorer.save", "span"),
    ("scorer", "load_scorer", "scorer.load", "span"),
    ("retrieval", "beam_search_constrained", "retrieval.beam_search", "span"),
    ("retrieval", "write_ranked_lists", "retrieval.write", "span"),
    ("retrieval", "read_ranked_lists", "retrieval.read", "span"),
    ("rerank", "fuse_and_rank", "rerank.fuse_and_rank", "agg_nest"),
    ("rerank", "score_items", "rerank.score_items", "agg"),
    ("rerank", "write_score_breakdown", "rerank.write_breakdown", "span"),
    ("metrics", "hit_at_k", "metrics.hit_at_k", "agg"),
    ("metrics", "ndcg_at_k", "metrics.ndcg_at_k", "agg"),
    ("metrics", "hit_sets", "metrics.hit_sets", "span"),
    ("metrics", "per_matrix", "metrics.per_matrix", "span"),
    ("metrics", "chr_avg", "metrics.chr_avg", "span"),
]

# (module, class, method, trace name)
_METHODS = [
    ("collab", "NormalizedAdjacency", "apply", "collab.apply"),
    ("scorer", "MarkovScorer", "add_stream", "scorer.add_stream"),
]

ROOT_FRAME = "0"  # frame of calls made outside any span


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.aggs: dict[tuple[str, str], list] = {}
        self.stack = [ROOT_FRAME]
        self.stage = 0
        self.candidates_scored = 0
        self._query_keys: dict[int, set[int]] = {}
        self._scorer_serial: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, opens_stage: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans) + 1
            outer_stage = self.stage
            if opens_stage:
                self.stage = sid
            rec = [sid, name, self.stack[-1], self.stage, 0.0, 0.0]
            self.spans.append(rec)
            self.stack.append(str(sid))
            rec[4] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                self.stack.pop()
                self.stage = outer_stage
        return wrapper

    def _add(self, frame: str, name: str, seconds: float) -> None:
        entry = self.aggs.get((frame, name))
        if entry is None:
            self.aggs[(frame, name)] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def _agg(self, name: str, fn, nests: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.stack[-1]
            if nests:
                self.stack.append(frame + "/" + name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(frame, name, perf_counter() - t0)
                if nests:
                    self.stack.pop()
        return wrapper

    def _logprobs(self, fn):
        """next_token_logprobs: aggregated, plus candidate and query-key counts."""
        @functools.wraps(fn)
        def wrapper(scorer, context, candidates):
            serial = self._scorer_serial.get(scorer)
            if serial is None:
                serial = self._scorer_serial[scorer] = len(self._query_keys)
                self._query_keys[serial] = set()
            tail = tuple(context[len(context) - scorer.order:]) if scorer.order else ()
            self._query_keys[serial].add(hash((tail, tuple(sorted(candidates)))))
            self.candidates_scored += len(candidates)
            frame = self.stack[-1]
            t0 = perf_counter()
            try:
                return fn(scorer, context, candidates)
            finally:
                self._add(frame, "scorer.logprobs", perf_counter() - t0)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and method, for the rest of the process."""
        import rqrec.pipeline  # noqa: F401  (imports every module that runs)

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "rqrec" or n.startswith("rqrec."))]
        for mod_name, attr, name, kind in _FUNCTIONS:
            original = getattr(sys.modules[f"rqrec.{mod_name}"], attr)
            if kind in ("span", "stage"):
                wrapped = self._span(name, original, opens_stage=kind == "stage")
            else:
                wrapped = self._agg(name, original, nests=kind == "agg_nest")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, meth, name in _METHODS:
            cls = getattr(sys.modules[f"rqrec.{mod_name}"], cls_name)
            setattr(cls, meth, self._agg(name, cls.__dict__[meth], nests=False))
        cls = sys.modules["rqrec.scorer"].MarkovScorer
        cls.next_token_logprobs = self._logprobs(cls.__dict__["next_token_logprobs"])

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggs": [[frame, name, c, s] for (frame, name), (c, s) in self.aggs.items()],
            "counters": {
                "scorer.candidates_scored": self.candidates_scored,
                "scorer.queries_distinct": sum(len(k) for k in self._query_keys.values()),
            },
        }


# ---------------------------------------------------------------------------
# Per-layer metrics from a written trace

STAGE_NAMES = ("prepare", "embed_collab", "build_index", "train_scorers",
               "retrieve", "rerank", "evaluate", "analyze")

# metrics that are call or item counts: deterministic for a seed, compared exactly
COUNT_METRICS = ("pipeline.fuse_all_users_calls", "dataio.load_split_calls",
                 "collab.apply_calls", "rqvae.quantize_batch_calls",
                 "vocab.item_tokens_calls", "scorer.add_stream_calls",
                 "scorer.logprobs_calls", "scorer.candidates_scored",
                 "scorer.query_reuse_ratio", "retrieval.beam_search_calls",
                 "retrieval.read_calls", "rerank.fuse_and_rank_calls")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def summarize(trace: dict) -> dict[str, float]:
    spans = trace["spans"]
    aggs = trace["aggs"]
    dur: dict[str, list[float]] = {}
    child_time: dict[str, float] = {}
    for sid, name, parent, _stage, start, end in spans:
        dur.setdefault(name, []).append(end - start)
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    calls: dict[str, int] = {}
    agg_s: dict[str, float] = {}
    for frame, name, count, seconds in aggs:
        calls[name] = calls.get(name, 0) + count
        agg_s[name] = agg_s.get(name, 0.0) + seconds
        child_time[frame] = child_time.get(frame, 0.0) + seconds

    def span_s(*names: str) -> float:
        return sum(sum(dur.get(n, ())) for n in names)

    def self_s(name: str) -> float:
        return sum((end - start) - child_time.get(str(sid), 0.0)
                   for sid, n, _p, _s, start, end in spans if n == name)

    stage_ids = {str(sid) for sid, n, *_ in spans if n.startswith("pipeline.")
                 and n.split(".", 1)[1] in STAGE_NAMES}
    breakdown_scoring = sum(s for frame, name, _c, s in aggs
                            if name == "rerank.score_items" and frame in stage_ids)
    lists_ms = sorted(1000.0 * d for d in dur.get("retrieval.beam_search", ()))
    counters = trace["counters"]
    queries = calls.get("scorer.logprobs", 0)

    out: dict[str, float] = {}
    for stage in STAGE_NAMES:
        out[f"pipeline.{stage}_s"] = span_s(f"pipeline.{stage}")
    out["pipeline.self_s"] = sum(self_s(f"pipeline.{s}") for s in STAGE_NAMES)
    out["pipeline.fuse_all_users_calls"] = len(dur.get("pipeline.fuse_all_users", ()))
    out["pipeline.fuse_all_users_s"] = span_s("pipeline.fuse_all_users")
    out["dataio.load_split_calls"] = len(dur.get("dataio.load_split", ()))
    out["dataio.load_split_s"] = span_s("dataio.load_split")
    out["dataio.emb_io_s"] = span_s("dataio.load_embedding_matrix",
                                    "dataio.write_embedding_matrix")
    out["dataio.split_build_s"] = span_s("dataio.load_interactions",
                                         "dataio.write_interactions",
                                         "dataio.kcore_filter",
                                         "dataio.leave_one_out_split",
                                         "dataio.write_split")
    out["synth.generate_s"] = span_s("synth.generate")
    out["collab.train_s"] = span_s("collab.train")
    out["collab.apply_calls"] = calls.get("collab.apply", 0)
    out["collab.apply_s"] = agg_s.get("collab.apply", 0.0)
    out["collab.train_self_s"] = self_s("collab.train")
    out["rqvae.train_s"] = span_s("rqvae.train")
    out["rqvae.kmeans_init_s"] = span_s("rqvae.kmeans_init")
    out["rqvae.quantize_batch_calls"] = calls.get("rqvae.quantize_batch", 0)
    out["rqvae.quantize_batch_s"] = agg_s.get("rqvae.quantize_batch", 0.0)
    out["rqvae.assign_codes_s"] = span_s("rqvae.assign_codes")
    out["rqvae.resolve_collisions_s"] = span_s("rqvae.resolve_collisions")
    out["vocab.build_prefix_trie_s"] = span_s("vocab.build_prefix_trie")
    out["vocab.item_tokens_calls"] = calls.get("vocab.item_tokens", 0)
    out["scorer.train_s"] = span_s("scorer.train")
    out["scorer.add_stream_calls"] = calls.get("scorer.add_stream", 0)
    out["scorer.add_stream_s"] = agg_s.get("scorer.add_stream", 0.0)
    out["scorer.save_s"] = span_s("scorer.save")
    out["scorer.load_s"] = span_s("scorer.load")
    out["scorer.logprobs_calls"] = queries
    out["scorer.logprobs_s"] = agg_s.get("scorer.logprobs", 0.0)
    out["scorer.candidates_scored"] = counters["scorer.candidates_scored"]
    out["scorer.query_reuse_ratio"] = (
        1.0 - counters["scorer.queries_distinct"] / queries if queries else 0.0)
    out["retrieval.beam_search_calls"] = len(lists_ms)
    out["retrieval.beam_search_s"] = span_s("retrieval.beam_search")
    out["retrieval.beam_search_self_s"] = self_s("retrieval.beam_search")
    out["retrieval.list_ms_p50"] = _percentile(lists_ms, 50)
    out["retrieval.list_ms_p99"] = _percentile(lists_ms, 99)
    out["retrieval.write_s"] = span_s("retrieval.write")
    out["retrieval.read_calls"] = len(dur.get("retrieval.read", ()))
    out["retrieval.read_s"] = span_s("retrieval.read")
    out["rerank.fuse_and_rank_calls"] = calls.get("rerank.fuse_and_rank", 0)
    out["rerank.fuse_and_rank_s"] = agg_s.get("rerank.fuse_and_rank", 0.0)
    out["rerank.score_items_s"] = agg_s.get("rerank.score_items", 0.0)
    out["rerank.breakdown_s"] = span_s("rerank.write_breakdown") + breakdown_scoring
    out["metrics.hit_ndcg_s"] = agg_s.get("metrics.hit_at_k", 0.0) + agg_s.get(
        "metrics.ndcg_at_k", 0.0)
    out["metrics.per_chr_s"] = span_s("metrics.hit_sets", "metrics.per_matrix",
                                      "metrics.chr_avg")
    return out
