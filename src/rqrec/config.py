"""Line-oriented `section.key = value` pipeline configuration with CLI overrides."""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from .collab import CollabConfig
from .dataio import decoded
from .rqvae import RqVaeConfig
from .scorer import ScorerConfig
from .synth import SyntheticConfig

RERANK_MODES = ("full", "ceid-only", "seid-only", "conf-only", "cons-only")


@dataclass
class PipelineConfig:
    out_dir: Path = Path("runs/out")
    interactions: Path = Path("interactions.tsv")
    semantic_emb: Path = Path("semantic.emb")
    seed: int = 0
    templates: int = 10
    kcore: int = 5
    max_len: int = 20
    k_retrieve: int = 20
    k_report: list[int] = field(default_factory=lambda: [5, 10])
    analysis_k: int = 10          # hit sets for PER/CHR use top-10 predictions
    alpha: float = 0.8
    tau: float = 10.0
    mode: str = "full"
    breakdown: bool = False
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    collab: CollabConfig = field(default_factory=CollabConfig)
    rqvae_ceid: RqVaeConfig = field(default_factory=RqVaeConfig)
    rqvae_seid: RqVaeConfig = field(default_factory=RqVaeConfig)
    scorer: ScorerConfig = field(default_factory=ScorerConfig)

    def validate(self) -> None:
        for key, value in _flatten(self).items():
            if key.endswith(".seed") and value < 0:  # numpy's generators take none
                raise ValueError(f"{key} must be >= 0, got {value}")
        ks = self.k_report
        if not ks or min(ks) < 1 or len(set(ks)) < len(ks):
            raise ValueError(f"k_report must list at least one K, each >= 1 and none twice, "
                             f"got {self.k_report}")
        if self.k_retrieve < max(self.k_report):
            raise ValueError(f"k_retrieve ({self.k_retrieve}) must be >= "
                             f"max reported K ({max(self.k_report)})")
        if not 1 <= self.analysis_k <= self.k_retrieve:
            raise ValueError(f"analysis_k must be in 1..k_retrieve ({self.k_retrieve}), "
                             f"got {self.analysis_k}")
        for name in ("kcore", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.templates <= 10:
            raise ValueError(f"templates must be in 1..10, got {self.templates}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.tau > 0:  # nan fails too
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.mode not in RERANK_MODES:
            raise ValueError(f"mode must be one of {RERANK_MODES}, got {self.mode!r}")
        self.synthetic.validate()  # names its section itself
        for section in ("collab", "rqvae_ceid", "rqvae_seid", "scorer"):
            try:
                getattr(self, section).validate()
            except ValueError as exc:
                raise ValueError(f"{section}.{exc}") from None

    def snapshot(self) -> dict[str, str]:
        """Flat, sorted key -> value view recorded in run manifests."""
        out: dict[str, str] = {}
        for key, value in sorted(_flatten(self).items()):
            out[key] = str(value)
        return out


_SECTIONS = ("synthetic", "collab", "rqvae_ceid", "rqvae_seid", "scorer")

_TOP_KEYS = {  # dotted key -> PipelineConfig field
    "paths.out_dir": "out_dir",
    "paths.interactions": "interactions",
    "paths.semantic_emb": "semantic_emb",
    "pipeline.seed": "seed",
    "pipeline.templates": "templates",
    "data.kcore": "kcore",
    "data.max_len": "max_len",
    "retrieval.k": "k_retrieve",
    "eval.k_report": "k_report",
    "eval.analysis_k": "analysis_k",
    "rerank.alpha": "alpha",
    "rerank.tau": "tau",
    "rerank.mode": "mode",
    "rerank.breakdown": "breakdown",
}


def _flatten(cfg: PipelineConfig) -> dict[str, object]:
    out: dict[str, object] = {}
    for dotted, attr in _TOP_KEYS.items():
        value = getattr(cfg, attr)
        out[dotted] = ",".join(str(v) for v in value) if isinstance(value, list) else value
    for section in _SECTIONS:
        sub = getattr(cfg, section)
        for f in fields(sub):
            out[f"{section}.{f.name}"] = getattr(sub, f.name)
    return out


def _coerce(default, raw: str):
    """raw as a value of the default's type."""
    if isinstance(default, bool):
        if raw.lower() not in ("true", "1", "yes", "false", "0", "no"):
            raise ValueError(raw)
        return raw.lower() in ("true", "1", "yes")
    if isinstance(default, list):
        return [int(x) for x in raw.split(",") if x.strip()]
    return type(default)(raw)


def apply_setting(cfg: PipelineConfig, dotted: str, raw: str) -> None:
    """Set one `section.key = value` entry, with type coercion."""
    if dotted in _TOP_KEYS:
        attr, targets = _TOP_KEYS[dotted], [cfg]
    else:
        section, _, attr = dotted.partition(".")
        targets = [getattr(cfg, section)] if section in _SECTIONS else []
        if section == "rqvae":  # shorthand applying to both index types
            targets = [cfg.rqvae_ceid, cfg.rqvae_seid]
        if not targets or attr not in {f.name for f in fields(targets[0])}:
            raise ValueError(f"unknown config key {dotted!r}")
    default = getattr(type(targets[0])(), attr)
    try:
        value = _coerce(default, raw)
    except ValueError:
        name = ("comma-separated ints" if isinstance(default, list)
                else type(default).__name__)
        raise ValueError(f"{dotted}: expected {name}, got {raw!r}") from None
    for target in targets:
        setattr(target, attr, value)


def load_config(path: str | Path | None,
                overrides: list[str] | None = None,
                seed: int | None = None) -> PipelineConfig:
    """Parse a config file plus `--set key=value` overrides; validate before use."""
    cfg = PipelineConfig()
    entries: list[tuple[str, str, str]] = []  # key, value, where a file entry came from
    if path is not None:
        text = decoded(path, Path(path).read_bytes(), produced=False)
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'section.key = value'")
            key, _, raw = line.partition("=")
            entries.append((key.strip(), raw.strip(), f"{path}:{lineno}: "))
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} must be section.key=value")
        key, _, raw = item.partition("=")
        entries.append((key.strip(), raw.strip(), ""))
    for key, raw, where in entries:
        try:
            apply_setting(cfg, key, raw)
        except ValueError as exc:
            raise ValueError(f"{where}{exc}") from None
    if seed is not None:
        cfg.seed = seed
    _derive_seeds(cfg, explicit={key for key, _, _ in entries})
    cfg.validate()
    return cfg


def _derive_seeds(cfg: PipelineConfig, explicit: set[str]) -> None:
    """Module seeds default to fixed offsets from the global seed."""
    if "rqvae.seed" in explicit:
        explicit = explicit | {"rqvae_ceid.seed", "rqvae_seid.seed"}
    derived = {
        "synthetic.seed": ("synthetic", 0),
        "collab.seed": ("collab", 1),
        "rqvae_ceid.seed": ("rqvae_ceid", 2),
        "rqvae_seid.seed": ("rqvae_seid", 3),
        "scorer.seed": ("scorer", 4),
    }
    for dotted, (attr, offset) in derived.items():
        if dotted not in explicit:
            getattr(cfg, attr).seed = cfg.seed + offset
