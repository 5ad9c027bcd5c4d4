import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from rqrec.cli import main
from rqrec.config import load_config
from rqrec.pipeline import PipelineError, run_stage, stage_rerank
from rqrec.rqvae import load_code_table


def write_config(tmp_path, **extra):
    out = tmp_path / "run"
    base = {
        "paths.out_dir": out,
        "paths.interactions": out / "interactions.tsv",
        "paths.semantic_emb": out / "semantic.emb",
        "pipeline.seed": 11,
        "pipeline.templates": 3,
        "synthetic.n_users": 70,
        "synthetic.n_items": 40,
        "synthetic.n_clusters": 4,
        "synthetic.emb_dim": 12,
        "collab.dim": 12,
        "collab.epochs": 25,
        "collab.learning_rate": 2.0,
        "rqvae.latent_dim": 6,
        "rqvae.codebook_size": 8,
        "rqvae.hidden_dim": 16,
        "rqvae.epochs": 30,
        "rqvae.batch_size": 64,
        "scorer.order": 4,
        "retrieval.k": 20,
    }
    base.update(extra)
    path = tmp_path / "cfg.txt"
    path.write_text("\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


def test_config_parse_and_overrides(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path, overrides=["rerank.alpha=0.5", "scorer.delta=0.2"])
    assert cfg.alpha == 0.5
    assert cfg.scorer.delta == 0.2
    assert cfg.templates == 3
    assert cfg.rqvae_ceid.codebook_size == 8 and cfg.rqvae_seid.codebook_size == 8


def test_config_seed_derivation(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.seed == 11
    assert cfg.collab.seed == 12
    assert cfg.rqvae_ceid.seed == 13 and cfg.rqvae_seid.seed == 14
    cfg2 = load_config(write_config(tmp_path), seed=99)
    assert cfg2.seed == 99 and cfg2.collab.seed == 100
    cfg3 = load_config(write_config(tmp_path, **{"collab.seed": 5}))
    assert cfg3.collab.seed == 5  # explicit value wins over derivation


def test_config_unknown_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(write_config(tmp_path, **{"nonsense.key": 1}))


def test_config_validation_before_work(tmp_path, capsys):
    with pytest.raises(ValueError, match="k_retrieve"):
        load_config(write_config(tmp_path, **{"retrieval.k": 3}))
    with pytest.raises(ValueError, match="alpha"):
        load_config(write_config(tmp_path, **{"rerank.alpha": 1.5}))
    with pytest.raises(ValueError, match="k_report"):
        load_config(write_config(tmp_path, **{"eval.k_report": ""}))
    with pytest.raises(ValueError, match="k_report"):
        load_config(write_config(tmp_path, **{"eval.k_report": "-3"}))
    with pytest.raises(ValueError, match="k_report"):
        load_config(write_config(tmp_path, **{"eval.k_report": "5,0"}))
    with pytest.raises(ValueError, match=r"^k_report must .* none twice, got \[10, 10\]$"):
        load_config(write_config(tmp_path, **{"eval.k_report": "10,10"}))
    with pytest.raises(ValueError, match="analysis_k"):
        load_config(write_config(tmp_path, **{"eval.analysis_k": 50}))
    with pytest.raises(ValueError, match="analysis_k"):
        load_config(write_config(tmp_path, **{"eval.analysis_k": 0}))
    assert load_config(write_config(tmp_path, **{"eval.analysis_k": 20})).analysis_k == 20
    for key, value, message in (("min_len", 2, "min_len"), ("p_follow", 1.5, "p_follow"),
                                ("n_users", 0, "n_users"), ("p_stay", -0.1, "p_stay"),
                                ("n_clusters", 1, "n_clusters"), ("emb_dim", 0, "emb_dim"),
                                ("n_items", 3, "one item per cluster"),
                                ("center_scale", -2, "synthetic.center_scale must be >= 0"),
                                ("noise_scale", -1, "synthetic.noise_scale must be >= 0"),
                                ("noise_scale", "nan", "synthetic.noise_scale must be >= 0"),
                                ("n_items", 3, r"^synthetic\.n_items must be >= n_clusters "
                                               r"\(4\) for one item per cluster, got 3$"),
                                ("min_len", 2, r"^synthetic\.min_len must be >= 3, got 2$"),
                                ("max_len", 4, r"^synthetic\.max_len must be >= min_len "
                                               r"\(8\), got 4$")):
        with pytest.raises(ValueError, match=message):
            load_config(write_config(tmp_path, **{f"synthetic.{key}": value}))
    cfg = load_config(write_config(tmp_path, **{"synthetic.p_follow": 1.0,
                                                "synthetic.p_stay": 0.0,
                                                "synthetic.noise_scale": 0.0}))
    assert (cfg.synthetic.p_follow, cfg.synthetic.p_stay) == (1.0, 0.0)
    assert cfg.synthetic.noise_scale == 0.0
    for key, value, message in (
            ("rerank.tau", "nan", "tau must be > 0"), ("rerank.tau", 0, "tau must be > 0"),
            ("data.max_len", 0, "max_len must be >= 1"), ("data.kcore", 0, "kcore must be >= 1"),
            ("collab.learning_rate", "nan", "learning_rate must be > 0"),
            ("collab.neg_samples_per_positive", 0, "neg_samples_per_positive must be >= 1"),
            ("collab.epochs", -1, "epochs must be >= 0"), ("collab.dim", 0, "dim must be >= 1"),
            ("rqvae.beta", "nan", "beta must be > 0"),
            ("rqvae.learning_rate", -1, "learning_rate must be > 0"),
            ("rqvae.learning_rate", "nan", "learning_rate must be > 0"),
            ("rqvae.weight_decay", -1, "weight_decay must be >= 0"),
            ("rqvae.weight_decay", "nan", "weight_decay must be >= 0"),
            ("rqvae.latent_dim", 0, "latent_dim must be >= 1"),
            ("rqvae.hidden_dim", 0, "hidden_dim must be >= 1"),
            ("rqvae.batch_size", 0, "batch_size must be >= 1"),
            ("rqvae.batch_size", 4,
             r"rqvae_ceid\.batch_size must be >= codebook_size \(8\), got 4"),
            ("rqvae.epochs", -1, "epochs must be >= 0"),
            ("rqvae_seid.kmeans_iters", -1, "kmeans_iters must be >= 0"),
            ("scorer.delta", "nan", "delta must be > 0"),
            ("scorer.backoff_lambda", "nan", "backoff_lambda"),
            ("rqvae_seid.beta", "nan", r"^rqvae_seid\.beta must be > 0, got nan$"),
            ("collab.learning_rate", 0, r"^collab\.learning_rate must be > 0, got 0\.0$"),
            ("scorer.delta", 0, r"^scorer\.delta must be > 0, got 0\.0$")):
        with pytest.raises(ValueError, match=message):
            load_config(write_config(tmp_path, **{key: value}))
    # a value of the wrong type names its key, and its file line when it comes from a file
    for setting, message in (("pipeline.templates=x", "pipeline.templates: expected int"),
                             ("rqvae.epochs=1.5", "rqvae.epochs: expected int"),
                             ("eval.k_report=5,a", "eval.k_report: expected comma-separated ints"),
                             ("rerank.breakdown=maybe", "rerank.breakdown: expected bool"),
                             ("rerank.alpha=high", "rerank.alpha: expected float")):
        raw = setting.partition("=")[2]
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}, got '{raw}'$"):
            load_config(write_config(tmp_path), overrides=[setting])
    path = write_config(tmp_path, **{"scorer.order": "eight"})
    lineno = path.read_text().splitlines().index("scorer.order = eight") + 1
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: scorer\.order: "
                                         r"expected int, got 'eight'$"):
        load_config(path)
    # a section's keys are its fields, not its methods or other attributes
    for key in ("collab.validate", "rqvae.__class__", "synthetic.__init__"):
        with pytest.raises(ValueError, match=rf"^unknown config key '{re.escape(key)}'$"):
            load_config(write_config(tmp_path), overrides=[f"{key}=x"])
    assert main(["prepare", "--config", str(write_config(tmp_path)), "--set",
                 "collab.validate=x"]) == 2
    assert "error [config]: unknown config key 'collab.validate'" in capsys.readouterr().err
    cfg = load_config(write_config(tmp_path, **{"collab.epochs": 0, "rqvae.epochs": 0,
                                                "rqvae.weight_decay": 0,
                                                "rqvae.kmeans_iters": 0}))
    assert (cfg.collab.epochs, cfg.rqvae_ceid.epochs, cfg.rqvae_seid.weight_decay,
            cfg.rqvae_seid.kmeans_iters) == (0, 0, 0.0, 0)


def test_repo_configs_and_benchmark_overrides_validate():
    import ast
    root = Path(__file__).resolve().parents[1]
    configs = sorted((root / "configs").glob("*.cfg"))
    assert configs
    for path in configs:
        load_config(path)
    tree = ast.parse((root / "perfbench" / "run.py").read_text(encoding="utf-8"))
    workloads = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign) and node.targets[0].id == "WORKLOADS")
    pipelines = [spec for spec in workloads.values() if spec["kind"] == "pipeline"]
    assert pipelines
    for spec in pipelines:
        for size in ("bench", "tiny"):
            load_config(root / "configs" / "synthetic.cfg", overrides=spec[size])


def test_missing_upstream_names_stage(tmp_path):
    cfg = load_config(write_config(tmp_path))
    with pytest.raises(PipelineError, match="prepare"):
        run_stage(cfg, "embed-collab")
    cfg.out_dir.mkdir(parents=True)
    with pytest.raises(PipelineError, match="retrieve"):
        run_stage(cfg, "rerank")


def test_missing_input_hint_names_its_producer(tmp_path):
    cfg = load_config(write_config(tmp_path))
    cfg.out_dir.mkdir(parents=True)
    for name, producer in (("train.tsv", "prepare"), ("valid.tsv", "prepare"),
                           ("codes_ceid.tsv", "build-index"), ("codes_seid.tsv", "build-index"),
                           ("scorer_ceid.txt", "train-scorers"),
                           ("scorer_seid.txt", "train-scorers")):
        with pytest.raises(PipelineError, match=rf"{name}; run the '{producer}' stage first$"):
            run_stage(cfg, "retrieve")
        (cfg.out_dir / name).touch()  # _require checks existence only


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    path = write_config(tmp)
    cfg = load_config(path)
    run_stage(cfg, "all", synthetic=True)
    return tmp, path, cfg


# sha256 of every artifact of the run above except the manifest_*.json files,
# which embed the absolute out_dir. A change that moves any of these bytes is
# either a bug or an intentional format/behaviour change that re-pins them and
# says why in CHANGES.md.
GOLDEN_DIGESTS = {
    "chr.csv": "2c04098a472055ba220766c6fdfa52b0d5410f0d131c2cb6c841bdf10d8ed934",
    "codes_ceid.tsv": "702c784c84ce86a0163b902c59ea9fda75164894e4cb6e92cf58d80a51d9a6c0",
    "codes_seid.tsv": "dbc039f6cb33355cb968e69b086e6e933340b2e42532765c83a6a4737be00a99",
    "collab.emb": "94725804778a8a2cb61940e4e6fe40812a74da8f0a2de69f491d9d66365d66db",
    "fused.jsonl": "ffdd68ade1db74063c2f086f1a99354b9ee66176dffb7f25c775f480529394a9",
    "interactions.tsv": "11780222bcc2bda48643da9e02e75fc54cf0856ed0565d84fb67d53c6ed5deb7",
    "metrics.csv": "14b59926beacd4bf10543c1f226aad964ca8ca9075b789c1bffce658d00d9fb5",
    "per_matrix_ceid.csv": "5802a9eda9d5e488d5946c4320749ff1382a55db5e91370a54d12d0e1c120488",
    "per_matrix_seid.csv": "b533b1332f343e95ee83c9adba84277910151d456644211002630c300f6d004e",
    "ranked_ceid.jsonl": "af2683596cfa75c8d9b1855857bc72b6412cee10bbb5fe3b6ba8879b5ae3f9e0",
    "ranked_seid.jsonl": "dca8b8ac1c1168be7c2b2af12cf5d813108d9b07284d2cd288515096f6e733a9",
    "scorer_ceid.txt": "b695932a2c5adc2eea4bd1d0e88321541d42c4a5ae2783bd236f83a329eb775b",
    "scorer_seid.txt": "85e9e6677b2eddea1f4dc525e5e960b8a1b9e0f1143fbb58727c53b5517304bc",
    "semantic.emb": "2465c4bb017ebadb3305aa484066a244371fe607309db2a2b39164e5db770b5b",
    "template_sweep.csv": "190e16d8c3f58936add3a5f81a53d5126f9b9b963aa844701590c9ed83b19fc4",
    "test.tsv": "841549674b3aec0110a7af4f79b0c5b574f85e51aa1e09f1490e233d20663a6e",
    "train.tsv": "1c99702ad175e391ab65710275e43a417a6906911a16a1699b634ddad4522098",
    "valid.tsv": "56e42462b56ad7c0842e87844440e186ad0507415b071f111e5a2d26d19b1990",
}


def test_golden_artifact_digests(pipeline_run):
    import hashlib
    _, _, cfg = pipeline_run
    got = {name: hashlib.sha256((cfg.out_dir / name).read_bytes()).hexdigest()
           for name in GOLDEN_DIGESTS}
    assert got == GOLDEN_DIGESTS


# sha256 of what rerank (in each mode) and then evaluate write over the lists of the
# run above; `full` runs with rerank.breakdown = true, and its fused.jsonl and
# metrics.csv are the run's own. Pinned with GOLDEN_DIGESTS and kept the same way.
MODE_DIGESTS = {
    "ceid-only": {
        "fused.jsonl": "3e13e2ba6952df71a15121d04972dfa98426bff113f2e959911f1caba4e0cb4d",
        "metrics.csv": "6f5573d6840fe7e9bdb8e051a9a0fa47cc9e7fcb9054d4dc3327f7667c8939a0",
    },
    "seid-only": {
        "fused.jsonl": "6de7f44209b5ce48e47c060c3732df2c1b2e018785045eed4f0a48f4fa15a82e",
        "metrics.csv": "0c815173d820d06436455da1d2649ad6f09c351e11f719ad23826ba14f941e4a",
    },
    "conf-only": {
        "fused.jsonl": "5ad3fc722fc079c96feb03d5864eba00713c53ab8bb93052f1fc3a3190163335",
        "metrics.csv": "060b0059cb228d068da84b541ffc03503dd5c235f03a3a12d6f03a74ffe63635",
    },
    "cons-only": {
        "fused.jsonl": "ad0c138f51039a03b3d30ac9083e5e7790130c82f493bd88b58bfcee786d204b",
        "metrics.csv": "479dff0d378095afe37a1078cf505b105642127114870db9f8759713729877e7",
    },
    "full": {
        "fused.jsonl": "ffdd68ade1db74063c2f086f1a99354b9ee66176dffb7f25c775f480529394a9",
        "metrics.csv": "14b59926beacd4bf10543c1f226aad964ca8ca9075b789c1bffce658d00d9fb5",
        "score_breakdown.tsv": "792437996e98ddabc06aa7c338f6955158e1e030e8a404e982221e561b1c69f6",
    },
}


def test_golden_digests_of_every_rerank_mode(pipeline_run, tmp_path):
    import dataclasses
    import hashlib
    import shutil

    from rqrec.pipeline import stage_evaluate
    _, _, cfg = pipeline_run
    out = tmp_path / "modes"
    shutil.copytree(cfg.out_dir, out)
    got = {}
    for mode, names in MODE_DIGESTS.items():
        run = dataclasses.replace(cfg, out_dir=out, breakdown="score_breakdown.tsv" in names)
        stage_rerank(run, mode=mode)
        stage_evaluate(run)
        got[mode] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in names}
    assert got == MODE_DIGESTS


EXPECTED_ARTIFACTS = [
    "train.tsv", "valid.tsv", "test.tsv", "collab.emb",
    "codes_ceid.tsv", "codes_seid.tsv",
    "ranked_ceid.jsonl", "ranked_seid.jsonl", "fused.jsonl",
    "metrics.csv", "per_matrix_ceid.csv", "per_matrix_seid.csv",
    "chr.csv", "template_sweep.csv",
]


def test_all_emits_artifacts(pipeline_run):
    _, _, cfg = pipeline_run
    for name in EXPECTED_ARTIFACTS:
        assert (cfg.out_dir / name).exists(), name
    for index_type in ("ceid", "seid"):
        assert (cfg.out_dir / f"scorer_{index_type}.txt").exists()
    assert not list(cfg.out_dir.glob("rqvae_*"))
    assert not (cfg.out_dir / "vocab.tsv").exists()
    man = json.loads((cfg.out_dir / "manifest_build_index.json").read_text())
    assert sorted(man["outputs"]) == ["codes_ceid.tsv", "codes_seid.tsv"]


def test_metrics_within_bounds(pipeline_run):
    _, _, cfg = pipeline_run
    lines = (cfg.out_dir / "metrics.csv").read_text().splitlines()
    assert lines[0] == "metric,K,value"
    values = {}
    for line in lines[1:]:
        metric, k, v = line.split(",")
        values[(metric, int(k))] = float(v)
    for (metric, k), v in values.items():
        assert 0.0 <= v <= 1.0
    for k in (5, 10):
        assert values[("ndcg", k)] <= values[("hit", k)] + 1e-12


def test_manifest_provenance_chain(pipeline_run):
    import hashlib
    _, _, cfg = pipeline_run
    for stage in ("prepare", "embed_collab", "build_index", "train_scorers",
                  "retrieve", "rerank", "evaluate", "analyze"):
        man = json.loads((cfg.out_dir / f"manifest_{stage}.json").read_text())
        assert man["seed"] == cfg.seed
        assert man["config"]
        for rel, digest in {**man["inputs"], **man["outputs"]}.items():
            p = cfg.out_dir / rel if not Path(rel).is_absolute() else Path(rel)
            data = p.read_bytes()
            assert digest == "sha256:" + hashlib.sha256(data).hexdigest()


def test_rerun_stage_deterministic(pipeline_run):
    _, _, cfg = pipeline_run
    fused = (cfg.out_dir / "fused.jsonl").read_bytes()
    stage_rerank(cfg)
    assert (cfg.out_dir / "fused.jsonl").read_bytes() == fused


def test_rerank_modes_recorded(pipeline_run):
    _, _, cfg = pipeline_run
    full = (cfg.out_dir / "fused.jsonl").read_bytes()
    stage_rerank(cfg, mode="conf-only")
    man = json.loads((cfg.out_dir / "manifest_rerank.json").read_text())
    assert man["mode"] == "conf-only" and man["alpha"] == 1.0
    stage_rerank(cfg, mode="ceid-only")
    man = json.loads((cfg.out_dir / "manifest_rerank.json").read_text())
    assert man["mode"] == "ceid-only"
    fused = [json.loads(ln) for ln in
             (cfg.out_dir / "fused.jsonl").read_text().splitlines()]
    assert all(rec["index_type"] == "fused" for rec in fused)
    stage_rerank(cfg)  # restore full mode for later tests
    assert (cfg.out_dir / "fused.jsonl").read_bytes() == full


def test_rerank_breakdown_table(pipeline_run):
    _, _, cfg = pipeline_run
    fused = (cfg.out_dir / "fused.jsonl").read_bytes()
    cfg.breakdown = True
    try:
        stage_rerank(cfg)
    finally:
        cfg.breakdown = False
    bpath = cfg.out_dir / "score_breakdown.tsv"
    lines = bpath.read_text().splitlines()
    assert lines[0].split("\t") == ["user", "item", "conf_c", "cons_c", "s_c",
                                    "conf_s", "cons_s", "s_s", "s_total",
                                    "appearances"]
    row = lines[1].split("\t")
    assert float(row[8]) == pytest.approx(float(row[4]) + float(row[7]), abs=1e-12)
    stage_rerank(cfg)
    assert (cfg.out_dir / "fused.jsonl").read_bytes() == fused


def test_rerank_and_analyze_counters(pipeline_run, tmp_path):
    import dataclasses
    import shutil

    from rqrec.pipeline import stage_analyze
    _, _, cfg = pipeline_run
    out = tmp_path / "counted"
    shutil.copytree(cfg.out_dir, out)
    run = dataclasses.replace(cfg, out_dir=out, breakdown=True)

    def lines(name):
        return (out / name).read_text().splitlines()

    listed = {t: len(lines(f"ranked_{t}.jsonl")) for t in ("ceid", "seid")}
    # a cap below the lists' templates scores fewer pairs than the lists hold
    for mode, read, templates in (("seid-only", ("seid",), 2), ("full", ("ceid", "seid"), 3)):
        run.templates = templates
        stage_rerank(run, mode=mode)
        counters = json.loads((out / "manifest_rerank.json").read_text())["counters"]
        rows = lines("score_breakdown.tsv")[1:]
        assert counters == {"lists_read": {t: listed[t] if t in read else 0 for t in listed},
                            "users_fused": len(lines("fused.jsonl")), "pairs_scored": len(rows)}
        assert 0 < counters["users_fused"] < counters["pairs_scored"]
    # the lists hold 3 templates, so the last breakdown has every pair
    stage_analyze(run)
    counters = json.loads((out / "manifest_analyze.json").read_text())["counters"]
    assert counters == {"pairs_numbered": len(rows),
                        "sweep_points": len(lines("template_sweep.csv")) - 1}
    assert counters["sweep_points"] == cfg.templates - 1 == 2


def test_evaluate_counters(pipeline_run, tmp_path):
    import dataclasses
    import shutil

    from rqrec.pipeline import stage_evaluate
    _, _, cfg = pipeline_run
    out = tmp_path / "counted"
    shutil.copytree(cfg.out_dir, out)
    test_users = [line.split("\t")[0] for line in (out / "test.tsv").read_text().splitlines()]
    fused = (out / "fused.jsonl").read_text().splitlines(keepends=True)
    # every test user has a list, then three of them lose it
    for kept in (fused, fused[3:]):
        (out / "fused.jsonl").write_text("".join(kept))
        stage_evaluate(dataclasses.replace(cfg, out_dir=out))
        listed = {json.loads(line)["user"] for line in kept}
        counters = json.loads((out / "manifest_evaluate.json").read_text())["counters"]
        assert counters == {"users_evaluated": len(test_users),
                            "users_without_list": len(set(test_users) - listed)}
    assert counters["users_without_list"] == 3


def test_missing_lists_are_logged_once(pipeline_run, tmp_path, caplog):
    import dataclasses
    import logging
    import shutil

    from rqrec.pipeline import stage_analyze, stage_evaluate
    _, _, cfg = pipeline_run
    out = tmp_path / "missing"
    shutil.copytree(cfg.out_dir, out)
    run = dataclasses.replace(cfg, out_dir=out)
    assert run.k_report == [5, 10]
    fused = (out / "fused.jsonl").read_text().splitlines(keepends=True)
    (out / "fused.jsonl").write_text("".join(fused[3:]))
    dropped = {json.loads(line)["user"] for line in fused[:3]}
    for name in ("ranked_ceid.jsonl", "ranked_seid.jsonl"):  # the sweep fuses no list for them
        lines = (out / name).read_text().splitlines(keepends=True)
        (out / name).write_text("".join(ln for ln in lines
                                        if json.loads(ln)["user"] not in dropped))
    with caplog.at_level(logging.WARNING):
        stage_evaluate(run)
        stage_analyze(run)
    warned = [r.getMessage() for r in caplog.records if "missing a ranked list" in r.getMessage()]
    assert warned == ["evaluate: 3 user(s) missing a ranked list, counted as misses"]


def test_breakdown_agrees_with_fused_under_template_cap(pipeline_run, monkeypatch):
    import rqrec.pipeline
    from rqrec.retrieval import read_ranked_lists
    _, _, cfg = pipeline_run
    fused_bytes = (cfg.out_dir / "fused.jsonl").read_bytes()
    caps = []
    score_pairs = rqrec.pipeline.score_pairs

    def counting(ranks, alpha, tau, max_templates):
        caps.append(max_templates)
        return score_pairs(ranks, alpha, tau, max_templates)

    monkeypatch.setattr(rqrec.pipeline, "score_pairs", counting)
    templates = cfg.templates
    cfg.templates, cfg.breakdown = 2, True  # the lists on disk hold 3 templates
    try:
        stage_rerank(cfg)
    finally:
        cfg.templates, cfg.breakdown = templates, False
    monkeypatch.undo()
    rows = [ln.split("\t") for ln in
            (cfg.out_dir / "score_breakdown.tsv").read_text().splitlines()[1:]]
    s_total = {(r[0], r[1]): float(r[8]) for r in rows}
    capped: set[tuple[str, str]] = set()
    for index_type in ("ceid", "seid"):
        for rec in read_ranked_lists(cfg.out_dir / f"ranked_{index_type}.jsonl"):
            if rec.template <= 2:
                capped.update((rec.user, item) for item in rec.items)
    assert set(s_total) == capped
    entries = [(rec["user"], item, score)
               for rec in map(json.loads, (cfg.out_dir / "fused.jsonl").read_text().splitlines())
               for item, score in zip(rec["items"], rec["scores"])]
    assert entries
    disagree = [e for e in entries if s_total[e[0], e[1]] != e[2]]
    assert not disagree, f"{len(disagree)} of {len(entries)} fused entries disagree"
    assert caps == [2]  # one scoring pass feeds fused.jsonl and the breakdown
    stage_rerank(cfg)
    assert (cfg.out_dir / "fused.jsonl").read_bytes() == fused_bytes


def counting_parser(monkeypatch):
    """Names of the files the list cache parses: the reader the benchmark tracer spans."""
    import rqrec.pipeline
    read = rqrec.pipeline.read_ranked_lists
    calls = []
    monkeypatch.setattr(rqrec.pipeline, "read_ranked_lists",
                        lambda path, lines=None: calls.append(Path(path).name)
                        or read(path, lines))
    monkeypatch.setattr(rqrec.pipeline, "_SIDES", {})  # as in a new process
    return calls


LIST_OUTPUTS = ("fused.jsonl", "metrics.csv", "per_matrix_ceid.csv", "per_matrix_seid.csv",
                "chr.csv", "template_sweep.csv")


def test_stages_parse_each_list_file_once_per_process(pipeline_run, monkeypatch):
    _, _, cfg = pipeline_run
    before = {name: (cfg.out_dir / name).read_bytes() for name in LIST_OUTPUTS}
    calls = counting_parser(monkeypatch)
    reads = {}
    for stage, mode in (("rerank", "ceid-only"), ("rerank", "full"), ("evaluate", None),
                        ("analyze", None)):
        calls.clear()
        run_stage(cfg, stage, mode=mode)
        reads[stage, mode] = list(calls)
    # evaluate reads fused.jsonl straight from the reader, uncached
    assert reads == {("rerank", "ceid-only"): ["ranked_ceid.jsonl"],
                     ("rerank", "full"): ["ranked_seid.jsonl"],
                     ("evaluate", None): ["fused.jsonl"],
                     ("analyze", None): []}
    # the parsed (cold) stages above and the cached (warm) ones write the same bytes
    assert {name: (cfg.out_dir / name).read_bytes() for name in LIST_OUTPUTS} == before


def test_stages_number_the_test_targets_once(pipeline_run, tmp_path, monkeypatch):
    import dataclasses
    import shutil

    import rqrec.metrics
    import rqrec.pipeline
    _, _, cfg = pipeline_run
    out = tmp_path / "targets"
    shutil.copytree(cfg.out_dir, out)
    run = dataclasses.replace(cfg, out_dir=out)
    numberings, metric_targets = [], []
    numbered = rqrec.pipeline.numbered_targets

    def counting(users, items, test):
        numberings.append(numbered(users, items, test))
        return numberings[-1]

    def recording(metric):
        def call(side, test, k, target=None):
            metric_targets.append(target)
            # a passed numbering is the one the metric would make of the side
            assert np.array_equal(target, numbered(side.users, side.items, test))
            return metric(side, test, k, target)
        return call

    monkeypatch.setattr(rqrec.pipeline, "numbered_targets", counting)
    for name in ("hit_at_k", "ndcg_at_k"):
        monkeypatch.setattr(rqrec.pipeline, name, recording(getattr(rqrec.metrics, name)))
    for stage in (rqrec.pipeline.stage_evaluate, rqrec.pipeline.stage_analyze):
        numberings.clear()
        metric_targets.clear()
        stage(run)
        # one numbering per stage, handed to every Hit and NDCG call: 2 K x 1 list set in
        # evaluate, 2 K x 2 sweep points in analyze
        assert len(numberings) == 1
        assert len(metric_targets) == 4 * (1 if stage is rqrec.pipeline.stage_evaluate else 2)
        assert all(target is numberings[0] for target in metric_targets)
    for name in ("metrics.csv", "template_sweep.csv"):
        assert (out / name).read_bytes() == (cfg.out_dir / name).read_bytes()


def test_list_cache_keys_on_bytes_not_paths(pipeline_run, tmp_path, monkeypatch):
    import dataclasses
    import hashlib
    import shutil

    import rqrec.pipeline
    _, _, cfg = pipeline_run
    out = tmp_path / "copy"
    shutil.copytree(cfg.out_dir, out)
    copy = dataclasses.replace(cfg, out_dir=out)
    calls = counting_parser(monkeypatch)
    stage_rerank(cfg)
    stage_rerank(copy)  # the same bytes at another path
    assert calls == ["ranked_ceid.jsonl", "ranked_seid.jsonl"]
    assert (out / "fused.jsonl").read_bytes() == (cfg.out_dir / "fused.jsonl").read_bytes()
    # changed bytes are parsed again, and the manifest records the bytes read
    path = out / "ranked_seid.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    calls.clear()
    stage_rerank(copy)
    assert calls == ["ranked_seid.jsonl"]
    manifest = json.loads((out / "manifest_rerank.json").read_text())
    assert manifest["inputs"]["ranked_seid.jsonl"] == (
        "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest())
    assert (out / "fused.jsonl").read_bytes() != (cfg.out_dir / "fused.jsonl").read_bytes()
    # at most two sides, the two read last, with read-only columns
    sides = rqrec.pipeline._SIDES
    assert list(sides) == [manifest["inputs"]["ranked_ceid.jsonl"],
                           manifest["inputs"]["ranked_seid.jsonl"]]
    for side in sides.values():
        for column in side[2:]:
            assert column.dtype == np.int32 and not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            side.rank[0] = 1
    path.write_text("".join(lines))
    calls.clear()
    stage_rerank(copy)
    assert calls == ["ranked_seid.jsonl"] and len(sides) == 2
    assert (out / "fused.jsonl").read_bytes() == (cfg.out_dir / "fused.jsonl").read_bytes()


def test_duplicate_template_line_rejected(pipeline_run, tmp_path, monkeypatch):
    import dataclasses
    import shutil

    import rqrec.pipeline
    _, _, cfg = pipeline_run
    out = tmp_path / "dup"
    shutil.copytree(cfg.out_dir, out)
    path = out / "ranked_seid.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[4])
    path.write_text("".join(lines[:5] + lines[4:]))
    calls = counting_parser(monkeypatch)
    dup = dataclasses.replace(cfg, out_dir=out)
    for stage in (stage_rerank, stage_rerank, rqrec.pipeline.stage_analyze):
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:6: duplicate template id {rec['template']} for user "
                f"'{rec['user']}' in the seid lists; rerun 'retrieve'")):
            stage(dup)
    # never cached: every call parses the file again
    assert calls == ["ranked_ceid.jsonl", "ranked_seid.jsonl", "ranked_seid.jsonl",
                     "ranked_seid.jsonl"]
    assert len(rqrec.pipeline._SIDES) == 1
    # the reader skips blank lines, and the line named is still the file's
    path.write_text("".join(lines[:5] + ["\n"] + lines[4:]))
    with pytest.raises(ValueError, match=re.escape(f"{path}:7: duplicate template id")):
        stage_rerank(dup)


def test_malformed_list_file_is_never_cached(pipeline_run, tmp_path, monkeypatch):
    import dataclasses
    import shutil

    import rqrec.pipeline
    _, _, cfg = pipeline_run
    out = tmp_path / "bad"
    shutil.copytree(cfg.out_dir, out)
    path = out / "ranked_ceid.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]) + lines[-1][:20])
    calls = counting_parser(monkeypatch)
    bad = dataclasses.replace(cfg, out_dir=out)
    for stage in (stage_rerank, rqrec.pipeline.stage_analyze):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{len(lines)}: "
                                             "malformed ranked list"):
            stage(bad)
    assert calls == ["ranked_ceid.jsonl"] * 2 and not rqrec.pipeline._SIDES


def test_failed_writes_leave_the_old_file(pipeline_run, tmp_path):
    import dataclasses
    import shutil

    from rqrec.pipeline import _write_manifest
    from rqrec.retrieval import ListRecord, write_ranked_lists
    from rqrec.rqvae import ItemCodeTable, write_code_table
    from rqrec.scorer import load_scorer, save_scorer
    _, _, cfg = pipeline_run
    out = tmp_path / "crash"
    shutil.copytree(cfg.out_dir, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # the first line is written before the second fails to encode
    lists = [ListRecord("u0", "fused", 0, ["a"], [0.0]),
             ListRecord("u1", "fused", 0, [object()], [0.0])]
    with pytest.raises(TypeError):
        write_ranked_lists(lists, out / "fused.jsonl")
    with pytest.raises(TypeError):
        _write_manifest(dataclasses.replace(cfg, out_dir=out), "rerank", {}, {},
                        extra={"mode": object()})
    # the header and the arrays of orders 0..4 are written before order 5's are missing
    scorers = load_scorer(out / "scorer_ceid.txt")
    for sc in scorers:
        sc.order += 1
    with pytest.raises(IndexError):
        save_scorer(scorers, out / "scorer_ceid.txt")
    # item a's line is written before item b's code fails to iterate
    with pytest.raises(TypeError):
        write_code_table(ItemCodeTable("ceid", 1, {"a": (1, 0), "b": None}),
                         out / "codes_ceid.tsv")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_every_artifact_is_written_whole(tmp_path, monkeypatch):
    import contextlib
    import sys

    import rqrec.dataio
    swap, written = rqrec.dataio.replace_on_close, []

    @contextlib.contextmanager
    def recorded(path):
        with swap(path) as fh:
            yield fh
        written.append(Path(path).name)

    for name, module in list(sys.modules.items()):
        if name.startswith("rqrec") and getattr(module, "replace_on_close", None) is swap:
            monkeypatch.setattr(module, "replace_on_close", recorded)
    cfg = load_config(write_config(tmp_path, **{"rerank.breakdown": "true"}))
    run_stage(cfg, "all", synthetic=True)
    assert sorted(written) == sorted(p.name for p in cfg.out_dir.iterdir())
    assert "score_breakdown.tsv" in written and len(written) == len(set(written))


def test_evaluate_rejects_two_lists_for_one_user(pipeline_run, tmp_path):
    import dataclasses
    import re
    import shutil
    from rqrec.pipeline import stage_evaluate
    _, _, cfg = pipeline_run
    out = tmp_path / "dup"
    shutil.copytree(cfg.out_dir, out)
    path = out / "fused.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[3])
    rec["items"].reverse()
    rec["scores"].reverse()
    # a second template-0 list fails the record checks; one of template 3 fails evaluate's own
    for template, error, message in (
            (0, ValueError, f"{path}:{len(lines) + 1}: duplicate template id 0 for user "
                            f"'{rec['user']}' in the fused lists; rerun 'rerank' to rewrite it"),
            (3, PipelineError, f"{path}: holds two lists for user '{rec['user']}'; rerun "
                               "'rerank' to rewrite it")):
        path.write_text("".join(lines) + json.dumps({**rec, "template": template}) + "\n")
        with pytest.raises(error, match=re.escape(message)):
            stage_evaluate(dataclasses.replace(cfg, out_dir=out))
        assert (out / "metrics.csv").read_bytes() == (cfg.out_dir / "metrics.csv").read_bytes()


def test_template_sweep_full_row_equals_metrics(pipeline_run):
    from rqrec.pipeline import stage_evaluate
    _, _, cfg = pipeline_run
    stage_rerank(cfg)
    stage_evaluate(cfg)
    rows = (cfg.out_dir / "metrics.csv").read_text().splitlines()[1:]
    metrics = {f"{m}@{k}": v for m, k, v in (row.split(",") for row in rows)}
    lines = (cfg.out_dir / "template_sweep.csv").read_text().splitlines()
    sweep = dict(zip(lines[0].split(",")[1:], lines[-1].split(",")[1:]))
    assert lines[-1].split(",")[0] == str(cfg.templates)
    assert sweep == metrics


def test_per_matrix_zero_diagonal(pipeline_run):
    _, _, cfg = pipeline_run
    for index_type in ("ceid", "seid"):
        lines = (cfg.out_dir / f"per_matrix_{index_type}.csv").read_text().splitlines()
        ids = lines[0].split(",")[1:]
        assert len(lines) == len(ids) + 1
        for row_idx, line in enumerate(lines[1:]):
            cells = line.split(",")[1:]
            assert float(cells[row_idx]) == 0.0


def test_template_sweep_has_all_cells(pipeline_run):
    _, _, cfg = pipeline_run
    lines = (cfg.out_dir / "template_sweep.csv").read_text().splitlines()
    assert lines[0] == "num_templates,hit@5,ndcg@5,hit@10,ndcg@10"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [2, 3]
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")[1:]]
        assert len(cells) == 4
        assert all(0.0 <= c <= 1.0 for c in cells)


def test_cli_exit_codes(pipeline_run, capsys):
    tmp, path, cfg = pipeline_run
    assert main(["evaluate", "--config", str(path), "-q"]) == 0
    # config error before any work
    assert main(["evaluate", "--config", str(path), "--set", "rerank.alpha=7"]) == 2
    err = capsys.readouterr().err
    assert "config" in err
    # missing upstream artifact names the stage to run first
    assert main(["rerank", "--config", str(path), "-q",
                 "--set", f"paths.out_dir={tmp}/empty"]) == 1
    err = capsys.readouterr().err
    assert "retrieve" in err


def test_cli_mode_flag(pipeline_run):
    _, path, cfg = pipeline_run
    assert main(["rerank", "--config", str(path), "--mode", "conf-only", "-q"]) == 0
    man = json.loads((cfg.out_dir / "manifest_rerank.json").read_text())
    assert man["mode"] == "conf-only"
    assert main(["rerank", "--config", str(path), "-q"]) == 0


def test_cli_seed_flag_changes_outputs(tmp_path):
    path = write_config(tmp_path)
    assert main(["prepare", "--config", str(path), "--synthetic", "-q"]) == 0
    first = (tmp_path / "run" / "train.tsv").read_bytes()
    assert main(["prepare", "--config", str(path), "--synthetic",
                 "--seed", "123", "-q"]) == 0
    assert (tmp_path / "run" / "train.tsv").read_bytes() != first


def test_manifest_counters_deterministic(pipeline_run):
    from collections import Counter

    from rqrec.pipeline import (stage_build_index, stage_embed_collab, stage_retrieve,
                                stage_train_scorers)
    _, _, cfg = pipeline_run

    def counters():
        collab = json.loads((cfg.out_dir / "manifest_embed_collab.json").read_text())
        train = json.loads((cfg.out_dir / "manifest_train_scorers.json").read_text())
        retrieve = json.loads((cfg.out_dir / "manifest_retrieve.json").read_text())
        return collab["counters"], train["ngram_rows"], retrieve["counters"]

    collab, ngram_rows, retrieval = counters()
    train_pairs = set((cfg.out_dir / "train.tsv").read_text().splitlines())
    assert sorted(collab) == ["edges", "loss_first", "loss_last", "negatives_redrawn"]
    assert collab["edges"] == len(train_pairs)
    assert 0.0 < collab["loss_last"] < collab["loss_first"] < 1.0
    assert collab["negatives_redrawn"] > 0
    assert sorted(ngram_rows) == [f"{x}_t{t}" for x in ("ceid", "seid") for t in (1, 2, 3)]
    assert all(len(rows) == cfg.scorer.order + 1 and min(rows) > 0
               for rows in ngram_rows.values())
    n_users = len({ln.split("\t")[0]
                   for ln in (cfg.out_dir / "train.tsv").read_text().splitlines()})
    for index_type in ("ceid", "seid"):
        c = retrieval[index_type]
        written = (cfg.out_dir / f"ranked_{index_type}.jsonl").read_text().splitlines()
        assert c["lists"] == len(written) == 3 * (n_users - c["users_without_list"])
        assert c["pairs_scored"] >= c["lists"] * cfg.k_retrieve
        # one search per distinct context tail and template; each key lookup once
        items = len(load_code_table(cfg.out_dir / f"codes_{index_type}.tsv", index_type).codes)
        assert 0 < c["distinct_contexts"] <= c["lists"] / 3
        assert 0 < c["lookup_pairs"] <= c["pairs_scored"]
        assert c["pairs_scored"] >= 3 * c["distinct_contexts"] * min(cfg.k_retrieve, items)

    def index_counters():
        return json.loads((cfg.out_dir / "manifest_build_index.json").read_text())["counters"]

    index = index_counters()
    assert sorted(index) == ["ceid", "seid"]
    for index_type, c in index.items():
        table = load_code_table(cfg.out_dir / f"codes_{index_type}.tsv", index_type)
        groups = Counter(tup[:-1] for tup in table.codes.values())
        assert c["used_per_level"] == [len({prefix[level] for prefix in groups})
                                       for level in range(table.code_len)]
        assert c["prefixes"] == len(groups)
        assert c["max_group"] == max(groups.values())
        assert len(c["reseeds_per_level"]) == table.code_len
        assert all(r >= 0 for r in c["reseeds_per_level"])
        assert len(c["loss_first"]) == len(c["loss_last"]) == 2  # (l_rec, l_rq)
        assert 0.0 < c["loss_last"][0] < c["loss_first"][0]
    stage_embed_collab(cfg)
    stage_build_index(cfg)
    stage_train_scorers(cfg)
    stage_retrieve(cfg)
    assert counters() == (collab, ngram_rows, retrieval)
    assert index_counters() == index


def test_retrieve_refuses_checkpoint_without_the_templates(pipeline_run, tmp_path):
    import dataclasses
    import shutil

    from rqrec.pipeline import stage_retrieve
    _, _, cfg = pipeline_run
    out = tmp_path / "short"
    shutil.copytree(cfg.out_dir, out)
    with pytest.raises(PipelineError, match="holds 3 ceid template.*4 ceid needed.*"
                                            "train-scorers"):
        stage_retrieve(dataclasses.replace(cfg, out_dir=out, templates=4))
    shutil.copy(out / "scorer_seid.txt", out / "scorer_ceid.txt")
    with pytest.raises(PipelineError, match="holds 3 seid template.*3 ceid needed.*"
                                            "train-scorers"):
        stage_retrieve(dataclasses.replace(cfg, out_dir=out))


def test_retrieve_with_fewer_templates_writes_their_lines(pipeline_run, tmp_path):
    import dataclasses
    import shutil

    from rqrec.pipeline import stage_retrieve
    _, _, cfg = pipeline_run
    out = tmp_path / "two"
    shutil.copytree(cfg.out_dir, out)
    stage_retrieve(dataclasses.replace(cfg, out_dir=out, templates=2))
    for index_type in ("ceid", "seid"):
        three = (cfg.out_dir / f"ranked_{index_type}.jsonl").read_text().splitlines()
        two = (out / f"ranked_{index_type}.jsonl").read_text().splitlines()
        assert two == [line for line in three if json.loads(line)["template"] <= 2]
        assert len(two) == 2 * len(three) // 3


def test_analyze_reports_nan_for_templates_without_hits(pipeline_run, tmp_path):
    import dataclasses
    import shutil

    from rqrec.pipeline import stage_analyze
    _, _, cfg = pipeline_run
    out = tmp_path / "unlucky"
    shutil.copytree(cfg.out_dir, out)
    test = dict(ln.split("\t") for ln in (out / "test.tsv").read_text().splitlines())
    # no seid list and no ceid template-2 list holds the user's test item
    for index_type in ("ceid", "seid"):
        path = out / f"ranked_{index_type}.jsonl"
        recs = [json.loads(ln) for ln in path.read_text().splitlines()]
        for rec in recs:
            if index_type == "seid" or rec["template"] == 2:
                keep = [j for j, item in enumerate(rec["items"]) if item != test[rec["user"]]]
                rec["items"] = [rec["items"][j] for j in keep]
                rec["scores"] = [rec["scores"][j] for j in keep]
        path.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
    stage_analyze(dataclasses.replace(cfg, out_dir=out))
    ceid = [ln.split(",") for ln in (out / "per_matrix_ceid.csv").read_text().splitlines()[1:]]
    assert ceid[1][1:] == ["nan"] * 3
    assert float(ceid[0][1]) == 0.0 and ceid[0][2] != "nan"
    seid = [ln.split(",") for ln in (out / "per_matrix_seid.csv").read_text().splitlines()[1:]]
    assert all(row[1:] == ["nan"] * 3 for row in seid)
    chr_rows = (out / "chr.csv").read_text().splitlines()
    assert chr_rows[1] == "ceid_vs_seid,nan"
    assert chr_rows[2] == "seid_vs_ceid,1.0"


def test_retrieve_warns_about_users_without_list(pipeline_run, tmp_path, caplog):
    import dataclasses
    import shutil

    from rqrec.pipeline import stage_retrieve
    _, _, cfg = pipeline_run
    out = tmp_path / "uncoded"
    shutil.copytree(cfg.out_dir, out)
    before = json.loads((out / "manifest_retrieve.json").read_text())["counters"]
    assert all(c["users_without_list"] == 0 for c in before.values())
    # a new user whose only item is in no code table
    with (out / "train.tsv").open("a", encoding="utf-8") as fh:
        fh.write("u_uncoded\ti_uncoded\n")
    stage_retrieve(dataclasses.replace(cfg, out_dir=out))
    after = json.loads((out / "manifest_retrieve.json").read_text())["counters"]
    for index_type in ("ceid", "seid"):
        assert after[index_type]["users_without_list"] == 1
        assert after[index_type]["lists"] == before[index_type]["lists"]
        assert f"retrieve: {index_type}: 1 users get no list" in caplog.text


def test_cli_malformed_ranked_list_names_line(pipeline_run, tmp_path, capsys):
    import shutil
    _, path, cfg = pipeline_run
    for case in ("truncated", "no_template"):
        out = tmp_path / case
        shutil.copytree(cfg.out_dir, out)
        ranked = out / "ranked_ceid.jsonl"
        lines = ranked.read_text().splitlines(keepends=True)
        if case == "truncated":
            lines[-1] = lines[-1][:len(lines[-1]) // 2]
        else:
            rec = json.loads(lines[6])
            del rec["template"]
            lines[6] = json.dumps(rec) + "\n"
        ranked.write_text("".join(lines))
        assert main(["rerank", "--config", str(path), "-q",
                     "--set", f"paths.out_dir={out}"]) == 1
        err = capsys.readouterr().err
        lineno = len(lines) if case == "truncated" else 7
        assert f"{ranked}:{lineno}: malformed ranked list" in err
        assert "rerun 'retrieve'" in err


@pytest.mark.parametrize("edit, problem", [
    ({"template": 1.5}, "template 1.5 is not a 32-bit integer"),
    ({"template": "1"}, "template '1' is not a 32-bit integer"),
    ({"template": True}, "template True is not a 32-bit integer"),
    ({"template": 2**31}, "template 2147483648 is not a 32-bit integer"),
    ({"user": 7}, "user 7 is not a string"),
    ({"user": ["u"]}, "user ['u'] is not a string"),
    ({"items": "abc", "scores": [0.0, 0.0, 0.0]}, "items and scores must be lists"),
    ({"items": ["a", "b", "c"], "scores": "xyz"}, "items and scores must be lists"),
    ({"items": ["a", 5, "c"], "scores": [0.0, 0.0, 0.0]}, "item 5 is not a string"),
    ({"items": ["a", "b", "a"], "scores": [0.0, 0.0, 0.0]},
     "item 'a' repeated in the list of user"),
], ids=["float-template", "string-template", "bool-template", "large-template", "int-user",
        "list-user", "string-items", "string-scores", "int-item", "repeated-item"])
def test_cli_malformed_list_record_names_line(pipeline_run, tmp_path, capsys, edit, problem):
    import shutil
    _, path, cfg = pipeline_run
    out = tmp_path / "bad"
    shutil.copytree(cfg.out_dir, out)
    metrics = (out / "metrics.csv").read_bytes()
    for name, stages, lists, producer in (
            ("ranked_ceid.jsonl", ("rerank", "analyze"), "ceid", "retrieve"),
            ("fused.jsonl", ("evaluate",), "fused", "rerank")):
        file = out / name
        lines = file.read_text().splitlines(keepends=True)
        lines[2] = json.dumps({**json.loads(lines[2]), **edit}) + "\n"
        file.write_text("".join(lines))
        for stage in stages:
            assert main([stage, "--config", str(path), "-q",
                         "--set", f"paths.out_dir={out}"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error [{stage}]: {file}:3: {problem}")
            assert f"in the {lists} lists; rerun '{producer}' to rewrite it" in err
    assert (out / "metrics.csv").read_bytes() == metrics


def test_cli_list_file_not_utf8_names_line(pipeline_run, tmp_path, capsys, monkeypatch):
    import hashlib
    import shutil

    import rqrec.pipeline
    _, path, cfg = pipeline_run
    out = tmp_path / "bad"
    shutil.copytree(cfg.out_dir, out)
    monkeypatch.setattr(rqrec.pipeline, "_SIDES", {})
    for name, stages, producer, at in (("ranked_seid.jsonl", ("rerank", "analyze"), "retrieve", 9),
                                       ("fused.jsonl", ("evaluate",), "rerank", 0)):
        file = out / name
        good = file.read_bytes()
        lines = good.splitlines(keepends=True)
        lines[2] = lines[2][:at] + b"\xff" + lines[2][at + 1:]  # mid-line, then line-start
        file.write_bytes(b"".join(lines))
        for stage in stages:
            assert main([stage, "--config", str(path), "-q",
                         "--set", f"paths.out_dir={out}"]) == 1
            err = capsys.readouterr().err
            assert err == (f"error [{stage}]: {file}:3: byte 0xff is not UTF-8; "
                           f"rerun '{producer}' to rewrite it\n")
        file.write_bytes(good)
    # only the readable ceid file was kept
    ceid = hashlib.sha256((out / "ranked_ceid.jsonl").read_bytes()).hexdigest()
    assert list(rqrec.pipeline._SIDES) == ["sha256:" + ceid]


NOT_UTF8 = {  # file: the stage that reads it, the hint its error ends with
    "test.tsv": ("evaluate", "rerun 'prepare' to rewrite it"),
    "codes_seid.tsv": ("train-scorers", "rerun 'build-index' to rewrite it"),
    "scorer_ceid.txt": ("retrieve", "rerun 'train-scorers' to rewrite it"),
    "collab.emb": ("build-index", "rerun 'embed-collab' to rewrite it"),
}


@pytest.mark.parametrize("name", list(NOT_UTF8))
def test_cli_input_not_utf8_names_line(pipeline_run, tmp_path, capsys, name):
    import shutil
    _, path, cfg = pipeline_run
    stage, rerun = NOT_UTF8[name]
    out = tmp_path / "bad"
    shutil.copytree(cfg.out_dir, out)
    file = out / name
    lines = file.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:1] + b"\xff" + lines[2][2:]
    file.write_bytes(b"".join(lines))
    assert main([stage, "--config", str(path), "-q", "--set", f"paths.out_dir={out}"]) == 1
    err = capsys.readouterr().err
    assert err == f"error [{stage}]: {file}:3: byte 0xff is not UTF-8; {rerun}\n"


# out_dir file -> the first stage that reads it (load_split reads all three split files)
READ_FIRST_BY = {
    "train.tsv": "embed-collab", "valid.tsv": "embed-collab", "test.tsv": "embed-collab",
    "collab.emb": "build-index",
    "codes_ceid.tsv": "train-scorers", "codes_seid.tsv": "train-scorers",
    "scorer_ceid.txt": "retrieve", "scorer_seid.txt": "retrieve",
    "ranked_ceid.jsonl": "rerank", "ranked_seid.jsonl": "rerank",
    "fused.jsonl": "evaluate",
}


def test_cli_every_produced_file_not_utf8_names_its_producer(pipeline_run, tmp_path, capsys,
                                                              monkeypatch):
    import shutil

    import rqrec.pipeline
    from rqrec.dataio import PRODUCED_BY
    # a file the table gains without a reader here fails, and so does one it loses
    assert set(READ_FIRST_BY) == set(PRODUCED_BY)
    _, path, cfg = pipeline_run
    out = tmp_path / "bad"
    shutil.copytree(cfg.out_dir, out)
    monkeypatch.setattr(rqrec.pipeline, "_SIDES", {})
    for name, stage in READ_FIRST_BY.items():
        file = out / name
        good = file.read_bytes()
        lines = good.splitlines(keepends=True)
        lines[2] = lines[2][:1] + b"\xff" + lines[2][2:]
        file.write_bytes(b"".join(lines))
        assert main([stage, "--config", str(path), "-q", "--set", f"paths.out_dir={out}"]) == 1
        assert capsys.readouterr().err == (f"error [{stage}]: {file}:3: byte 0xff is not UTF-8; "
                                           f"rerun '{PRODUCED_BY[name]}' to rewrite it\n")
        file.write_bytes(good)


@pytest.mark.parametrize("name, stage, code", [("interactions", "prepare", 1),
                                               ("config", "config", 2)])
def test_cli_outside_input_not_utf8_names_line(pipeline_run, tmp_path, capsys, name, stage, code):
    _, path, cfg = pipeline_run
    good = cfg.interactions if name == "interactions" else path
    lines = good.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1][:1] + b"\xff" + lines[1][2:]
    file = tmp_path / name
    file.write_bytes(b"".join(lines))
    config, interactions = (path, file) if name == "interactions" else (file, cfg.interactions)
    assert main(["prepare", "--config", str(config), "-q", "--set", f"paths.out_dir={tmp_path}",
                 "--set", f"paths.interactions={interactions}"]) == code
    # outside input: no stage writes it, so there is no stage to rerun
    assert capsys.readouterr().err == f"error [{stage}]: {file}:2: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("key, name, stage, code", [
    ("paths.interactions", "train.tsv", "prepare", 1),
    ("paths.semantic_emb", "collab.emb", "build-index", 1),
    ("config", "fused.jsonl", "config", 2)])
def test_cli_outside_input_named_like_an_output_gets_no_hint(pipeline_run, tmp_path, capsys,
                                                             key, name, stage, code):
    import shutil
    _, path, cfg = pipeline_run
    out = tmp_path / "out"
    shutil.copytree(cfg.out_dir, out)
    good = {"paths.interactions": cfg.interactions, "paths.semantic_emb": cfg.semantic_emb,
            "config": path}[key]
    lines = good.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:1] + b"\xff" + lines[2][2:]
    file = tmp_path / "outside" / name  # not in the out_dir, named like a file of it
    file.parent.mkdir()
    file.write_bytes(b"".join(lines))
    config = file if key == "config" else path
    sets = [] if key == "config" else ["--set", f"{key}={file}"]
    assert main([stage if key != "config" else "prepare", "--config", str(config), "-q",
                 "--set", f"paths.out_dir={out}", *sets]) == code
    assert capsys.readouterr().err == f"error [{stage}]: {file}:3: byte 0xff is not UTF-8\n"


# every character str.splitlines ends a line at that a text-mode read keeps in a line
LINE_BREAKS_IN_A_LINE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS_IN_A_LINE)
@pytest.mark.parametrize("field", ["user", "item"])
def test_cli_prepare_refuses_an_id_holding_a_line_break(tmp_path, capsys, brk, field):
    users, items = [f"u{u}" for u in range(6)], ["a", "b", "c", "d"]
    (users if field == "user" else items)[1] = f"x{brk}y"
    rows = [f"{u}\t{i}\t{t}" for u in users for t, i in enumerate(items)]
    file = tmp_path / "interactions.tsv"
    file.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["prepare", "--config", str(write_config(tmp_path)), "-q",
                 "--set", f"paths.out_dir={out}", "--set", f"paths.interactions={file}",
                 "--set", "data.kcore=1"]) == 1
    lineno = rows.index(next(row for row in rows if brk in row)) + 1
    assert capsys.readouterr().err == (f"error [prepare]: {file}:{lineno}: id "
                                       f"{f'x{brk}y'!r} holds a line break\n")
    assert not (out / "train.tsv").exists()


def test_cli_truncated_split_names_line(pipeline_run, tmp_path, capsys):
    import shutil
    _, path, cfg = pipeline_run
    for name, stage in (("train.tsv", "embed-collab"), ("test.tsv", "evaluate"),
                        ("valid.tsv", "evaluate")):
        out = tmp_path / name
        shutil.copytree(cfg.out_dir, out)
        split = out / name
        lines = split.read_text().splitlines(keepends=True)
        lineno = len(lines) if name == "train.tsv" else 3
        if name == "valid.tsv":  # an extra field
            lines[lineno - 1] = lines[lineno - 1].rstrip("\n") + "\tx\n"
        else:  # the tab and the item lost
            lines[lineno - 1] = lines[lineno - 1].split("\t")[0] + "\n"
        split.write_text("".join(lines))
        assert main([stage, "--config", str(path), "-q", "--set", f"paths.out_dir={out}"]) == 1
        err = capsys.readouterr().err
        assert f"{split}:{lineno}: expected 'user<TAB>item'" in err
        assert "rerun 'prepare' to rewrite it" in err


def test_cli_bad_code_names_line(pipeline_run, tmp_path, capsys):
    import shutil
    _, path, cfg = pipeline_run
    for stage in ("train-scorers", "retrieve"):
        out = tmp_path / stage
        shutil.copytree(cfg.out_dir, out)
        codes = out / "codes_ceid.tsv"
        lines = codes.read_text().splitlines(keepends=True)
        item, _, *rest = lines[2].split("\t")
        lines[2] = "\t".join([item, "x", *rest])
        codes.write_text("".join(lines))
        assert main([stage, "--config", str(path), "-q", "--set", f"paths.out_dir={out}"]) == 1
        err = capsys.readouterr().err
        assert f"{codes}:3: invalid literal for int() with base 10: 'x'" in err
        assert "rerun 'build-index' to rewrite it" in err


def test_cli_negative_code_word_names_line(pipeline_run, tmp_path, capsys):
    import shutil
    _, path, cfg = pipeline_run
    for stage in ("train-scorers", "retrieve"):
        out = tmp_path / stage
        shutil.copytree(cfg.out_dir, out)
        codes = out / "codes_ceid.tsv"
        lines = codes.read_text().splitlines(keepends=True)
        item, _, *rest = lines[2].split("\t")
        lines[2] = "\t".join([item, "-1", *rest])
        codes.write_text("".join(lines))
        assert main([stage, "--config", str(path), "-q", "--set", f"paths.out_dir={out}"]) == 1
        err = capsys.readouterr().err
        assert f"{codes}:3: negative code word -1; rerun 'build-index' to rewrite it" in err
        scorer = "scorer_ceid.txt"
        assert (out / scorer).read_bytes() == (cfg.out_dir / scorer).read_bytes()


def test_cli_retrieve_refuses_a_checkpoint_of_another_code_table(pipeline_run, tmp_path, capsys):
    import shutil

    from rqrec.scorer import load_scorer
    from rqrec.vocab import code_token
    _, path, cfg = pipeline_run

    def refused(out):
        """`retrieve` over out fails naming the first token of ceid's two vocabularies that
        only one holds, and writes no list."""
        before = (out / "ranked_ceid.jsonl").read_bytes()
        ckpt, codes = out / "scorer_ceid.txt", out / "codes_ceid.tsv"
        old = set(load_scorer(ckpt)[0].vocab)
        new = {code_token("ceid", level, word)
               for tup in load_code_table(codes, "ceid").codes.values()
               for level, word in enumerate(tup, start=1)}
        assert old != new
        assert main(["retrieve", "--config", str(path), "--set", f"paths.out_dir={out}"]) == 1
        assert capsys.readouterr().err.endswith(
            f"error [retrieve]: {ckpt}: vocabulary does not match codes_ceid.tsv (first "
            f"difference {min(old ^ new)!r}); rerun 'train-scorers' to rewrite it\n")
        assert (out / "ranked_ceid.jsonl").read_bytes() == before

    # the codes rebuilt with another seed after the scorers were trained
    out = tmp_path / "reseeded"
    shutil.copytree(cfg.out_dir, out)
    assert main(["build-index", "--config", str(path), "-q", "--seed", "99",
                 "--set", f"paths.out_dir={out}"]) == 0
    refused(out)
    # a table whose tokens are a subset of the checkpoint's: an item with a token of its
    # own dropped
    out = tmp_path / "subset"
    shutil.copytree(cfg.out_dir, out)
    codes = out / "codes_ceid.tsv"
    lines = codes.read_text().splitlines(keepends=True)
    columns = [Counter(line.split("\t")[level] for line in lines)
               for level in range(1, len(lines[0].split("\t")))]
    drop = next(n for n, line in enumerate(lines)
                if any(columns[level][word] == 1
                       for level, word in enumerate(line.split("\t")[1:])))
    codes.write_text("".join(lines[:drop] + lines[drop + 1:]))
    refused(out)


def test_stages_make_each_code_token_string_once(pipeline_run, tmp_path, monkeypatch):
    import dataclasses
    import shutil
    import sys

    import rqrec.vocab
    from rqrec.pipeline import stage_retrieve, stage_train_scorers
    from rqrec.scorer import load_scorer
    _, _, cfg = pipeline_run
    out = tmp_path / "strings"
    shutil.copytree(cfg.out_dir, out)
    make, calls = rqrec.vocab.code_token, Counter()

    def counted(index_type, level, word):
        calls[index_type, level, word] += 1
        return make(index_type, level, word)

    for name, module in list(sys.modules.items()):
        if name.startswith("rqrec") and getattr(module, "code_token", None) is make:
            monkeypatch.setattr(module, "code_token", counted)
    distinct = sum(len(load_scorer(out / f"scorer_{t}.txt")[0].vocab) for t in ("ceid", "seid"))
    for stage in (stage_train_scorers, stage_retrieve):
        calls.clear()
        stage(dataclasses.replace(cfg, out_dir=out))
        # at most one call per distinct token of each index type
        assert max(calls.values()) == 1 and sum(calls.values()) == distinct
    for name in ("scorer_ceid.txt", "scorer_seid.txt", "ranked_ceid.jsonl", "ranked_seid.jsonl"):
        assert (out / name).read_bytes() == (cfg.out_dir / name).read_bytes()


def test_cli_malformed_embeddings_name_line(pipeline_run, tmp_path, capsys):
    import shutil
    _, path, cfg = pipeline_run
    out = tmp_path / "emb"
    shutil.copytree(cfg.out_dir, out)
    args = ["build-index", "--config", str(path), "-q", "--set", f"paths.out_dir={out}",
            "--set", f"paths.semantic_emb={out / 'semantic.emb'}"]
    for name, case in (("collab.emb", "short row"), ("collab.emb", "extra rows"),
                       ("semantic.emb", "short row")):
        emb = out / name
        good = emb.read_text()
        lines = good.splitlines(keepends=True)
        if case == "short row":
            lines[5] = lines[5].rsplit(" ", 1)[0] + "\n"
            fields = len(lines[4].split())
            message = f"{emb}:6: expected {fields} fields, got {fields - 1}"
        else:  # the size line declares 30 of the 40 rows
            lines[1] = "30 " + lines[1].split()[1] + "\n"
            message = f"{emb}:33: a row beyond the 30 the size line declares"
        emb.write_text("".join(lines))
        assert main(args) == 1
        err = capsys.readouterr().err
        # collab.emb names the stage that writes it; semantic.emb is outside input
        hint = "; rerun 'embed-collab' to rewrite it" if name == "collab.emb" else ""
        assert err == f"error [build-index]: {message}{hint}\n"
        emb.write_text(good)


def test_cli_all_names_the_stage_that_failed(pipeline_run, tmp_path, capsys):
    import shutil
    _, path, cfg = pipeline_run
    out = tmp_path / "all"
    out.mkdir()
    emb = out / "semantic.emb"
    shutil.copy(cfg.semantic_emb, emb)
    lines = emb.read_text().splitlines(keepends=True)
    lines[2] = lines[2].rsplit(" ", 1)[0] + "\n"  # a row one field short
    emb.write_text("".join(lines))
    fields = len(lines[3].split())
    assert main(["all", "--config", str(path), "-q", "--set", f"paths.out_dir={out}",
                 "--set", f"paths.semantic_emb={emb}"]) == 1
    assert capsys.readouterr().err == (f"error [build-index]: {emb}:3: expected {fields} "
                                       f"fields, got {fields - 1}\n")
    assert (out / "collab.emb").exists() and not (out / "codes_ceid.tsv").exists()


def test_build_index_codes_ignore_embedding_row_order(pipeline_run, tmp_path, caplog):
    import dataclasses
    import random
    import shutil

    from rqrec.pipeline import stage_build_index
    _, _, cfg = pipeline_run
    out = tmp_path / "shuffled"
    shutil.copytree(cfg.out_dir, out)
    for name in ("semantic.emb", "collab.emb"):
        lines = (out / name).read_text().splitlines(keepends=True)
        rows = lines[2:]
        if name == "semantic.emb":  # an item no collab row has, which build-index drops
            rows.append("i000 " + rows[0].split(" ", 1)[1])
            lines[1] = f"{len(rows)} {lines[1].split()[1]}\n"
        random.Random(5).shuffle(rows)
        assert rows != lines[2:]
        (out / name).write_text("".join(lines[:2] + rows))
    stage_build_index(dataclasses.replace(cfg, out_dir=out, semantic_emb=out / "semantic.emb"))
    assert "1 embedding row(s) outside the common item set" in caplog.text
    for name in ("codes_ceid.tsv", "codes_seid.tsv"):
        assert (out / name).read_bytes() == (cfg.out_dir / name).read_bytes()


def test_cli_catalog_smaller_than_codebook_names_the_key(tmp_path, capsys):
    path = write_config(tmp_path, **{"synthetic.n_items": 6})  # codebook_size 8
    assert main(["all", "--config", str(path), "--synthetic", "-q"]) == 1
    err = capsys.readouterr().err
    assert "error [build-index]: 6 items, fewer than rqvae_ceid.codebook_size (8)" in err
    assert not (tmp_path / "run" / "codes_ceid.tsv").exists()


def test_cli_diverging_quantizer_names_index_and_epoch(tmp_path, capsys):
    import numpy as np
    path = write_config(tmp_path, **{"rqvae.learning_rate": 1e150})  # one batch per epoch
    with np.errstate(all="ignore"):
        assert main(["all", "--config", str(path), "--synthetic", "-q"]) == 1
    err = capsys.readouterr().err
    assert re.search(r"error \[build-index\]: rqvae_ceid: non-finite loss at epoch \d+\n", err)
    assert not (tmp_path / "run" / "codes_ceid.tsv").exists()


def test_all_with_one_template(tmp_path):
    path = write_config(tmp_path, **{"pipeline.templates": 1})
    assert main(["all", "--config", str(path), "--synthetic", "-q"]) == 0
    out = tmp_path / "run"
    for index_type in ("ceid", "seid"):
        rows = (out / f"per_matrix_{index_type}.csv").read_text().splitlines()
        assert rows == ["template,1", "1,0.0"]
    chr_rows = (out / "chr.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in chr_rows] == ["direction", "ceid_vs_seid",
                                                      "seid_vs_ceid"]
    assert all(0.0 <= float(row.split(",")[1]) <= 1.0 for row in chr_rows[1:])
    sweep = (out / "template_sweep.csv").read_text()
    assert sweep == "num_templates,hit@5,ndcg@5,hit@10,ndcg@10\n"
    manifest = json.loads((out / "manifest_analyze.json").read_text())
    assert set(manifest["outputs"]) == {"per_matrix_ceid.csv", "per_matrix_seid.csv",
                                        "chr.csv", "template_sweep.csv"}
