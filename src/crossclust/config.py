"""Run configuration: the full hyperparameter set and its YAML loader.

Config files are YAML mappings; every field has a default, partial files
override only what they name, and unknown keys are rejected so typos fail
loudly.  Precedence elsewhere in the package is flags > file > defaults.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import yaml

from .augment import AugmentConfig
from .errors import ConfigError


def _require_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(name, f"must be an integer, got {value!r}")


@dataclass(frozen=True)
class DimsSpec:
    """Model shape: encoder hidden widths and embedding dimension.

    ``input_dim`` is normally inferred from the dataset; setting it pins the
    expected feature count.
    """

    input_dim: int | None = None
    hidden: tuple[int, ...] = (128, 64)
    z_dim: int = 32

    def __post_init__(self):
        if not isinstance(self.hidden, (list, tuple)):
            raise ConfigError("dims.hidden", f"must be a list of integers, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        for width in self.hidden:
            _require_int("dims.hidden", width)
        if self.input_dim is not None:
            _require_int("dims.input_dim", self.input_dim)
        _require_int("dims.z_dim", self.z_dim)


@dataclass(frozen=True)
class TrainConfig:
    M: int = 8
    zeta: float = 0.6
    gamma: float = 0.1
    tau_I: float = 0.5
    tau_C: float = 1.0
    init_epochs: int = 100
    c3_epochs: int = 20
    init_lr: float = 3e-4
    c3_lr: float = 1e-5
    batch_size: int = 128
    seed: int = 0
    dims: DimsSpec = field(default_factory=DimsSpec)
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def validate(self) -> "TrainConfig":
        if self.M < 2:
            raise ConfigError("M", f"cluster count must be >= 2, got {self.M}")
        if not -1.0 <= self.zeta <= 1.0:
            raise ConfigError("zeta", f"must lie in [-1, 1], got {self.zeta}")
        if not self.gamma > 0:
            raise ConfigError("gamma", f"must be positive, got {self.gamma}")
        if not self.tau_I > 0:
            raise ConfigError("tau_I", f"must be positive, got {self.tau_I}")
        if not self.tau_C > 0:
            raise ConfigError("tau_C", f"must be positive, got {self.tau_C}")
        if self.init_epochs < 0:
            raise ConfigError("init_epochs", f"must be >= 0, got {self.init_epochs}")
        if self.c3_epochs < 0:
            raise ConfigError("c3_epochs", f"must be >= 0, got {self.c3_epochs}")
        if not self.init_lr > 0:
            raise ConfigError("init_lr", f"must be positive, got {self.init_lr}")
        if not self.c3_lr > 0:
            raise ConfigError("c3_lr", f"must be positive, got {self.c3_lr}")
        if self.batch_size < 2:
            raise ConfigError("batch_size", f"must be >= 2, got {self.batch_size}")
        if not isinstance(self.seed, int):
            raise ConfigError("seed", f"must be an integer, got {self.seed!r}")
        if self.dims.input_dim is not None and self.dims.input_dim < 1:
            raise ConfigError("dims.input_dim", f"must be positive, got {self.dims.input_dim}")
        if self.dims.z_dim < 1:
            raise ConfigError("dims.z_dim", f"must be positive, got {self.dims.z_dim}")
        if not self.dims.hidden or any(w < 1 for w in self.dims.hidden):
            raise ConfigError("dims.hidden", f"widths must be positive, got {self.dims.hidden}")
        return self

    def to_dict(self) -> dict:
        out = asdict(self)
        out["dims"]["hidden"] = list(self.dims.hidden)
        out["augment"]["scale_range"] = list(self.augment.scale_range)
        return out

    def override(self, **kwargs) -> "TrainConfig":
        provided = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **provided).validate() if provided else self


def _build_section(cls, raw: dict, section: str):
    if not isinstance(raw, dict):
        raise ConfigError(section, f"expected a mapping, got {type(raw).__name__}")
    known = {f for f in cls.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{section}.{sorted(unknown)[0]}", "unknown field")
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ConfigError(section, str(exc)) from None


_INT_FIELDS = ("M", "init_epochs", "c3_epochs", "batch_size", "seed")
_FLOAT_FIELDS = ("zeta", "gamma", "tau_I", "tau_C", "init_lr", "c3_lr")


def config_from_dict(raw: dict) -> TrainConfig:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config", f"expected a mapping, got {type(raw).__name__}")
    known = {f for f in TrainConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")
    kwargs = dict(raw)
    for name in _INT_FIELDS:
        if name in kwargs:
            _require_int(name, kwargs[name])
    for name in _FLOAT_FIELDS:
        if name in kwargs:
            try:
                kwargs[name] = float(kwargs[name])
            except (TypeError, ValueError):
                raise ConfigError(name, f"must be a number, got {kwargs[name]!r}") from None
    if "dims" in kwargs:
        kwargs["dims"] = _build_section(DimsSpec, kwargs["dims"], "dims")
    if "augment" in kwargs:
        kwargs["augment"] = _build_section(AugmentConfig, kwargs["augment"], "augment")
    return TrainConfig(**kwargs).validate()


def load_config(path) -> TrainConfig:
    """Parse a YAML config file, fill defaults, and validate invariants."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"invalid YAML in {path}: {exc}") from None
    return config_from_dict(raw)
