"""Named random sub-streams derived from a single integer seed.

Every source of randomness in a run (environment transitions, exploration
noise, communication-graph sampling, behavior-policy draws) gets its own
generator so that changing how often one consumer draws never perturbs the
others.  Streams are derived with ``numpy.random.SeedSequence`` keyed by the
run seed plus a stable hash of the stream label.

A training run draws from "env", "graph" and one action stream: "noise"
under alg1 (exploration) and "behavior" under alg2 (the behavior policy),
plus "eval" when the policy cost is estimated by rollouts.
"""

import hashlib

import numpy as np

__all__ = ["substream", "STREAM_LABELS"]

# Labels used by the training loop; other callers may use any label.
STREAM_LABELS = ("env", "noise", "graph", "behavior")


def _label_key(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, label: str) -> np.random.Generator:
    """Return a Generator for the (seed, label) pair.

    The same pair always yields an identical stream; distinct labels under
    one seed are statistically independent.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), _label_key(label)]))
