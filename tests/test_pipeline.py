import json
from pathlib import Path

import pytest

from rqrec.cli import main
from rqrec.config import load_config
from rqrec.pipeline import PipelineError, run_stage, stage_rerank


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


def test_config_validation_before_work(tmp_path):
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
    with pytest.raises(ValueError, match="analysis_k"):
        load_config(write_config(tmp_path, **{"eval.analysis_k": 50}))
    with pytest.raises(ValueError, match="analysis_k"):
        load_config(write_config(tmp_path, **{"eval.analysis_k": 0}))
    assert load_config(write_config(tmp_path, **{"eval.analysis_k": 20})).analysis_k == 20


def test_missing_upstream_names_stage(tmp_path):
    cfg = load_config(write_config(tmp_path))
    with pytest.raises(PipelineError, match="prepare"):
        run_stage(cfg, "embed-collab")
    cfg.out_dir.mkdir(parents=True)
    with pytest.raises(PipelineError, match="retrieve"):
        run_stage(cfg, "rerank")


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
    "rqvae_ceid.bin": "5233c4492907dd7961bfa90c47c3bf5dd7e38112b808a394b180139a75d7bfab",
    "rqvae_ceid.manifest": "1c9392470baa350dfe7f58581f827e3bb2786a80217c8fcda65d96a1f31cabce",
    "rqvae_seid.bin": "60d05c9f58d6f82dbc914428da200a7090513f7b1252223966109f8aa2931ec6",
    "rqvae_seid.manifest": "239dd696c153b8edaee742d3cdafdc55f7725c07bee8de693d5640013e71243b",
    "scorer_ceid_t1.txt": "742d6716105a7ccb5a9505b70296d7989db193ad52ae7850a6d89d6474c3f4bc",
    "scorer_ceid_t2.txt": "7e42a2abc2dd963f808f570eebe1f7550814fe4ea53814b276e9d0469b3afed3",
    "scorer_ceid_t3.txt": "016a5e4836e525c7ae9a801aaba5ade0ed577841cf761c3dbfc07d91c4bf5856",
    "scorer_seid_t1.txt": "2b8071c4bbb39e7db59214ad870bd1c7cfb397eab4c88b7bf3889193e33d2b24",
    "scorer_seid_t2.txt": "413916a6fb43864d7f711cbbc5df7be55325dd8241acb50e97c78b8e928a4885",
    "scorer_seid_t3.txt": "7e08b0c225602210a0b61da5c22815f351bf486649795a4b13f6329e988a51c2",
    "semantic.emb": "2465c4bb017ebadb3305aa484066a244371fe607309db2a2b39164e5db770b5b",
    "template_sweep.csv": "190e16d8c3f58936add3a5f81a53d5126f9b9b963aa844701590c9ed83b19fc4",
    "test.tsv": "841549674b3aec0110a7af4f79b0c5b574f85e51aa1e09f1490e233d20663a6e",
    "train.tsv": "1c99702ad175e391ab65710275e43a417a6906911a16a1699b634ddad4522098",
    "valid.tsv": "56e42462b56ad7c0842e87844440e186ad0507415b071f111e5a2d26d19b1990",
    "vocab.tsv": "bb469c0282fb4cf0eca7bbfee713544ef2dcc47c63b0b58df8164d1f25042040",
}


def test_golden_artifact_digests(pipeline_run):
    import hashlib
    _, _, cfg = pipeline_run
    got = {name: hashlib.sha256((cfg.out_dir / name).read_bytes()).hexdigest()
           for name in GOLDEN_DIGESTS}
    assert got == GOLDEN_DIGESTS


EXPECTED_ARTIFACTS = [
    "train.tsv", "valid.tsv", "test.tsv", "collab.emb",
    "codes_ceid.tsv", "codes_seid.tsv", "vocab.tsv",
    "ranked_ceid.jsonl", "ranked_seid.jsonl", "fused.jsonl",
    "metrics.csv", "per_matrix_ceid.csv", "per_matrix_seid.csv",
    "chr.csv", "template_sweep.csv",
]


def test_all_emits_artifacts(pipeline_run):
    _, _, cfg = pipeline_run
    for name in EXPECTED_ARTIFACTS:
        assert (cfg.out_dir / name).exists(), name
    for t in range(1, 4):
        assert (cfg.out_dir / f"scorer_ceid_t{t}.txt").exists()


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
        for rl in read_ranked_lists(cfg.out_dir / f"ranked_{index_type}.jsonl"):
            if rl.template_id <= 2:
                capped.update((rl.user, item) for item in rl.items())
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


def test_duplicate_template_line_rejected(pipeline_run, tmp_path):
    import dataclasses
    import shutil
    _, _, cfg = pipeline_run
    out = tmp_path / "dup"
    shutil.copytree(cfg.out_dir, out)
    path = out / "ranked_seid.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    rec = json.loads(lines[4])
    path.write_text("".join(lines[:5] + lines[4:]))
    with pytest.raises(ValueError, match=f"duplicate template id {rec['template']} "
                                         f"for user '{rec['user']}'"):
        stage_rerank(dataclasses.replace(cfg, out_dir=out))


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
    from rqrec.pipeline import stage_retrieve, stage_train_scorers
    _, _, cfg = pipeline_run

    def counters():
        train = json.loads((cfg.out_dir / "manifest_train_scorers.json").read_text())
        retrieve = json.loads((cfg.out_dir / "manifest_retrieve.json").read_text())
        return train["ngram_rows"], retrieve["counters"]

    ngram_rows, retrieval = counters()
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
    stage_train_scorers(cfg)
    stage_retrieve(cfg)
    assert counters() == (ngram_rows, retrieval)


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
