"""Run configuration: a flat key-value text format with strict validation.

A config file is plain text, one ``key = value`` per line, with ``#``
comments and blank lines ignored.  Unknown keys are rejected with the line
number.  An empty file yields the default configuration: the 10-agent
bandit with 10-dimensional actions, exploration scale 0.1, critic step 0.1,
actor step 0.01, batch size 2m, and five seeds.
"""

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError
from .network import check_failure_prob
from .policy import GaussianNoise, check_box

__all__ = [
    "Schedule", "RunConfig", "MetricsRow", "load_config", "parse_config", "serialize_config"
]

_KINDS = ("bandit", "finite-mdp")
_ALGORITHMS = ("alg1", "alg2")
_FEATURES = ("compatible", "fourier", "tabular")
_UPDATE_MODES = ("batch", "online")
_ACTOR_GRADS = ("batch-mean", "last-sample")
_TOPOLOGIES = ("complete", "path", "ring", "star", "edgeless")


@dataclass(frozen=True)
class Schedule:
    """Step-size schedules for the critic (fast) and actor (slow) timescales.

    ``constant`` uses the two scales as-is.  ``polynomial`` decays them as
    scale / (1 + t)^power with 0.5 < critic_pow < actor_pow <= 1, which keeps
    the actor on a strictly slower timescale than the critic.
    """

    mode: str = "constant"
    critic: float = 0.1
    actor: float = 0.01
    critic_pow: float = 0.6
    actor_pow: float = 0.9

    def __post_init__(self):
        if self.mode not in ("constant", "polynomial"):
            raise ValueError(f"schedule must be constant or polynomial, got {self.mode!r}")
        if not (0.0 <= self.critic < math.inf and 0.0 <= self.actor < math.inf):
            raise ValueError("step sizes must be finite and non-negative")
        if self.mode == "polynomial" and not 0.5 < self.critic_pow < self.actor_pow <= 1.0:
            raise ValueError("polynomial schedule needs 0.5 < critic_pow < actor_pow <= 1")

    def beta_critic(self, t: int) -> float:
        if self.mode == "constant":
            return self.critic
        return self.critic / (1.0 + t) ** self.critic_pow

    def beta_actor(self, t: int) -> float:
        if self.mode == "constant":
            return self.actor
        return self.actor / (1.0 + t) ** self.actor_pow


@dataclass(frozen=True)
class RunConfig:
    """Everything a reproducible experiment run needs.

    ``batch_size = 0`` means "twice the action dimension".  ``topology`` is
    one of complete/path/ring/star/edgeless or ``edgelist:<path>`` pointing
    at an edge-list file (one ``i j`` pair per line).
    """

    kind: str = "bandit"
    algorithm: str = "alg1"
    agents: int = 10
    action_dim: int = 10
    states: int = 5
    seeds: tuple = (0, 1, 2, 3, 4)
    env_seed: int = 0
    schedule: str = "constant"
    critic_step: float = 0.1
    actor_step: float = 0.01
    critic_pow: float = 0.6
    actor_pow: float = 0.9
    sigma: float = 0.1
    topology: str = "complete"
    failure_prob: float = 0.0
    features: str = "compatible"
    feature_count: int = 8
    feature_bias: bool = True
    feature_centered: bool = True
    feature_seed: int = 0
    update_mode: str = "batch"
    batch_size: int = 0
    batches: int = 300
    actor_grad: str = "batch-mean"
    critic_warm_start: bool = False
    proj_lo: float = -1e3
    proj_hi: float = 1e3
    eval_rollout: int = 0
    output: str = "runs.csv"

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.kind not in _KINDS:
            raise ConfigError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {_ALGORITHMS}, got {self.algorithm!r}")
        if self.agents < 1:
            raise ConfigError("agents must be >= 1")
        if self.action_dim < 1:
            raise ConfigError("action_dim must be >= 1")
        if self.kind == "finite-mdp" and self.states < 2:
            raise ConfigError("states must be >= 2 for finite-mdp runs")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        # Rules stated by the components that use the values, as ConfigErrors.
        try:
            self.step_sizes  # the Schedule checks its own rules when built
            GaussianNoise(self.sigma)
            check_failure_prob(self.failure_prob)
            check_box(self.proj_lo, self.proj_hi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        base = self.topology.split(":", 1)[0]
        if base not in _TOPOLOGIES + ("edgelist",):
            raise ConfigError(f"unknown topology {self.topology!r}")
        if base == "edgelist" and ":" not in self.topology:
            raise ConfigError("edgelist topology needs a path: edgelist:<path>")
        if self.features not in _FEATURES:
            raise ConfigError(f"features must be one of {_FEATURES}, got {self.features!r}")
        if self.features == "fourier" and self.feature_count < 1:
            raise ConfigError("fourier features need feature_count >= 1")
        if self.update_mode not in _UPDATE_MODES:
            raise ConfigError(f"update_mode must be one of {_UPDATE_MODES}")
        if self.batch_size < 0:
            raise ConfigError("batch_size must be >= 0 (0 means 2 * action_dim)")
        if self.batches < 0:
            raise ConfigError("batches must be >= 0")
        if self.actor_grad not in _ACTOR_GRADS:
            raise ConfigError(f"actor_grad must be one of {_ACTOR_GRADS}")
        if self.eval_rollout < 0:
            raise ConfigError("eval_rollout must be >= 0")

    @property
    def step_sizes(self) -> Schedule:
        return Schedule(
            self.schedule, self.critic_step, self.actor_step, self.critic_pow, self.actor_pow
        )

    @property
    def effective_batch_size(self) -> int:
        return self.batch_size if self.batch_size > 0 else 2 * self.action_dim


@dataclass(frozen=True)
class MetricsRow:
    """One evaluation record of a run (CSV row)."""

    run_id: str
    seed: int
    t: int
    batch: int
    eval_cost: float
    mean_jhat: float
    critic_disagreement: float
    actor_grad_norm: float
    wallclock_ms: int


_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_bool(key: str, raw: str, ln: int) -> bool:
    word = raw.strip().lower()
    if word not in _BOOL_WORDS:
        raise ConfigError(f"line {ln}: {key} expects true/false, got {raw!r}")
    return _BOOL_WORDS[word]


def _parse_seeds(raw: str, ln: int) -> tuple:
    parts = [p for chunk in raw.split(",") for p in chunk.split()]
    if not parts:
        raise ConfigError(f"line {ln}: seeds must list at least one integer")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"line {ln}: seeds must be integers, got {raw!r}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse config text; unknown keys and malformed values raise ConfigError."""
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        rhs = rhs.strip()
        if key not in fields:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        if rhs == "":
            raise ConfigError(f"line {ln}: empty value for {key!r}")
        ftype = fields[key].type
        try:
            if key == "seeds":
                values[key] = _parse_seeds(rhs, ln)
            elif ftype in (bool, "bool"):
                values[key] = _parse_bool(key, rhs, ln)
            elif ftype in (int, "int"):
                values[key] = int(rhs)
            elif ftype in (float, "float"):
                values[key] = float(rhs)
            else:
                values[key] = rhs
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {ln}: bad value for {key!r}: {rhs!r}") from exc
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    """Read and parse a config file; an empty file gives the defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    """Render a config as text that parses back to an equal config."""
    lines = []
    for f in dataclasses.fields(RunConfig):
        val = getattr(cfg, f.name)
        if f.name == "seeds":
            rendered = ", ".join(str(s) for s in val)
        elif isinstance(val, bool):
            rendered = "true" if val else "false"
        else:
            rendered = repr(val) if isinstance(val, float) else str(val)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"
