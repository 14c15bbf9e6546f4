"""Run configuration: the full hyperparameter set and its YAML loader.

Every config is valid by construction: ``TrainConfig``, ``DimsSpec`` and
``AugmentConfig`` check each field in ``__post_init__``, so a bad value
raises :class:`ConfigError` where the config is built, and
``dataclasses.replace`` checks again.  Config files are YAML mappings; every
field has a default, partial files override only what they name, and unknown
keys are rejected so typos fail loudly.  Precedence elsewhere in the package
is flags > file > defaults.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .augment import AugmentConfig
from .errors import ConfigError


def _require_int(name: str, value, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(name, f"must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(name, f"must be >= {minimum}, got {value}")


def check_zeta(zeta: float) -> None:
    """The positive threshold is a cosine: zeta must lie in [-1, 1]."""
    if not -1.0 <= zeta <= 1.0:
        raise ConfigError("zeta", f"must lie in [-1, 1], got {zeta}")


def check_positive(name: str, value: float) -> None:
    """Temperatures, the weight concentration and learning rates must be > 0."""
    if not value > 0:
        raise ConfigError(name, f"must be positive, got {value}")


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
        if not isinstance(self.hidden, (list, tuple)) or not self.hidden:
            raise ConfigError("dims.hidden", f"must be a non-empty list of integers, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        for width in self.hidden:
            _require_int("dims.hidden", width, 1)
        if self.input_dim is not None:
            _require_int("dims.input_dim", self.input_dim, 1)
        _require_int("dims.z_dim", self.z_dim, 1)


# TrainConfig's integer fields and their least values
_INT_MINIMA = {"M": 2, "init_epochs": 0, "c3_epochs": 0, "batch_size": 2, "seed": 0}


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

    def __post_init__(self):
        for name, minimum in _INT_MINIMA.items():
            _require_int(name, getattr(self, name), minimum)
        for name in ("zeta", "gamma", "tau_I", "tau_C", "init_lr", "c3_lr"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, float(value))
            except (TypeError, ValueError):
                raise ConfigError(name, f"must be a number, got {value!r}") from None
            if name == "zeta":
                check_zeta(self.zeta)
            else:
                check_positive(name, getattr(self, name))
        for name, cls in (("dims", DimsSpec), ("augment", AugmentConfig)):
            value = getattr(self, name)
            if not isinstance(value, cls):
                raise ConfigError(name, f"expected {cls.__name__}, got {type(value).__name__}")

    def to_dict(self) -> dict:
        return asdict(self)

    def override(self, **kwargs) -> "TrainConfig":
        """A copy with every field given a value other than None replaced."""
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


def _known_fields(cls, raw, section: str | None = None) -> dict:
    """``raw``, once it is a mapping whose keys are all fields of ``cls``."""
    if not isinstance(raw, dict):
        raise ConfigError(section or "config", f"expected a mapping, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(cls.__dataclass_fields__), key=str)
    if unknown:
        raise ConfigError(f"{section}.{unknown[0]}" if section else str(unknown[0]), "unknown field")
    return raw


def config_from_dict(raw: dict | None) -> TrainConfig:
    kwargs = dict(_known_fields(TrainConfig, {} if raw is None else raw))
    for name, cls in (("dims", DimsSpec), ("augment", AugmentConfig)):
        if name in kwargs:
            kwargs[name] = cls(**_known_fields(cls, kwargs[name], name))
    return TrainConfig(**kwargs)


def load_config(path) -> TrainConfig:
    """Parse a YAML config file and fill defaults; raises ConfigError on any bad value."""
    import yaml  # imported here: only a config file needs PyYAML

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"{path} is not UTF-8 text: {exc.reason}") from None
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"invalid YAML in {path}: {exc}") from None
    return config_from_dict(raw)
