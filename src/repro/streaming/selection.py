"""Peer-selection policy: where network awareness enters the protocol.

A :class:`SelectionPolicy` scores candidate peers from the point of view of
a chooser, combining the network properties the paper studies:

* ``bw``  — candidate behind a high-bandwidth uplink;
* ``as_``— candidate in the chooser's Autonomous System;
* ``cc``  — candidate in the chooser's country;
* ``net`` — candidate on the chooser's subnet;
* ``hop`` — candidate closer than a hop threshold.

Scores feed an exponential-weight (softmax) sampler, so a weight of 0 gives
uniform choice, and increasing weights shift probability mass smoothly —
letting experiments dial awareness up and down per application and letting
ablation benches isolate each term.

The five properties are binary, so a candidate's score is one of at most
2^5 = 32 values.  Each policy tabulates its distinct scores once, sorted,
as *levels*; a candidate is carried as its one-byte level index (its
*class*), and the softmax over a batch of classes gathers from a per-policy
table of exponentials instead of exponentiating every candidate.

The weights are *ground truth*: the analysis framework never sees them; it
must recover their presence from traffic alone.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from repro.errors import ConfigurationError

#: Feature columns in weight order: bit ``b`` of a candidate's feature
#: code is the feature paired with the ``b``-th :class:`SelectionWeights`
#: field.
_FEATURES = ("highbw", "same_as", "same_cc", "same_net", "near")


@dataclass(frozen=True, slots=True)
class SelectionWeights:
    """Log-preference weights for the five network properties.

    A weight ``w`` multiplies the candidate's 0/1 feature; the
    sampling probability is proportional to ``exp(Σ w·feature / T)``.
    ``w = ln(k)`` with temperature 1 makes a feature-holding candidate
    ``k×`` more likely than an otherwise-equal candidate.
    """

    bw: float = 0.0
    as_: float = 0.0
    cc: float = 0.0
    net: float = 0.0
    hop: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            w = getattr(self, f.name)
            if not math.isfinite(w):
                raise ConfigurationError(f"selection weight {f.name} must be finite, got {w}")

    def any_awareness(self) -> bool:
        """True when any property influences selection."""
        return any((self.bw, self.as_, self.cc, self.net, self.hop))


@dataclass(frozen=True, slots=True)
class CandidateFeatures:
    """Feature columns for a batch of candidates (aligned bool arrays).

    ``highbw`` is always present and sizes the batch; any other column may
    be ``None`` when the consuming policy does not weight it.
    """

    highbw: np.ndarray                # candidate uplink > 10 Mb/s
    same_as: np.ndarray | None = None
    same_cc: np.ndarray | None = None
    same_net: np.ndarray | None = None
    near: np.ndarray | None = None    # hop distance below threshold

    def __len__(self) -> int:
        return len(self.highbw)


class SelectionPolicy:
    """Softmax sampler over awareness-scored candidates.

    Two tables are built once per policy:

    * ``levels`` — the sorted distinct scores over all 32 feature codes,
      each computed with the one scoring formula
      ``0.0 + bw·b0 + as·b1 + cc·b2 + net·b3 + hop·b4`` (weighted terms
      only, in that order);
    * a 32-entry ``uint8`` table mapping a feature code to its level index.

    ``scores(feats)`` is ``levels[classes(feats)]``.  The samplers take
    level indices: the softmax of a batch is a gather from the row of
    ``exp(levels/T − levels[m]/T)`` whose ``m`` is the batch's top level,
    which is the array computation ``exp(s/T − max(s/T))`` term by term
    (dividing by ``T > 0`` keeps the top level on top), hence the same
    doubles and the same RNG draws.
    """

    def __init__(
        self,
        weights: SelectionWeights,
        rng: np.random.Generator,
        temperature: float = 1.0,
    ) -> None:
        if not math.isfinite(temperature) or temperature <= 0:
            raise ConfigurationError(
                f"selection temperature must be positive and finite, got {temperature}"
            )
        self.weights = weights
        self.temperature = temperature
        self._rng = rng
        ws = astuple(weights)
        #: ``(bit, feature column)`` of every weighted term, in weight order.
        self._terms = tuple((bit, _FEATURES[bit]) for bit, w in enumerate(ws) if w)
        codes = np.arange(1 << len(_FEATURES))
        score = np.zeros(len(codes), dtype=np.float64)
        for bit, _ in self._terms:
            score += ws[bit] * ((codes >> bit) & 1).astype(bool)
        levels, lut = np.unique(score, return_inverse=True)
        #: Sorted distinct scores (at most 32).
        self.levels: np.ndarray = levels
        self._lut = lut.astype(np.uint8)
        logits = levels / temperature
        #: Row ``m``: the softmax numerators when level ``m`` is the top.
        #: Entries past column ``m`` are never read (and may overflow).
        with np.errstate(over="ignore"):
            self._exp = np.exp(logits - logits[:, None])

    def classes(self, feats: CandidateFeatures) -> np.ndarray:
        """Level indices (``uint8``) for a candidate batch.

        Reads only the feature columns the policy weights.
        """
        code = np.zeros(len(feats), dtype=np.uint8)
        for bit, name in self._terms:
            # A uint8 multiply, not a shift: the shift is about 12x
            # slower in numpy 2.4.
            code += np.asarray(getattr(feats, name), dtype=bool).view(np.uint8) * (1 << bit)
        return self._lut.take(code)

    def scores(self, feats: CandidateFeatures) -> np.ndarray:
        """Raw awareness scores for a candidate batch."""
        return self.levels[self.classes(feats)]

    def probabilities_from_levels(self, idx: np.ndarray) -> np.ndarray:
        """Softmax selection probabilities for a batch of level indices.

        The engine's hot paths carry level indices (score rows, partner
        contexts, CDF memo keys) and call this directly, skipping feature
        construction.
        """
        if len(idx) == 0:
            return np.zeros(0)
        p = self._exp[idx.max()].take(idx)
        return p / p.sum()

    def probabilities(self, feats: CandidateFeatures) -> np.ndarray:
        """Softmax selection probabilities for a candidate batch."""
        return self.probabilities_from_levels(self.classes(feats))

    def cdf_from_levels(self, idx: np.ndarray) -> np.ndarray:
        """Normalised selection CDF for a batch of level indices.

        The CDF is a pure function of the level sequence, so the engine
        memoises it per recurring sequence; :meth:`sample_index` then
        consumes one uniform against it.  The cumsum and renormalisation
        are :meth:`_sample`'s, hence bit-identical to the uncached draw.
        """
        cdf = self.probabilities_from_levels(idx).cumsum()
        cdf /= cdf[-1]
        return cdf

    def sample_index(self, cdf: np.ndarray) -> int:
        """Draw one candidate index by inverting a precomputed CDF.

        Consumes exactly one uniform from the policy RNG — the same draw,
        against the same CDF values, as :meth:`choose_levels` with
        ``k == 1`` — so cached-CDF sampling reproduces the uncached draw
        sequence exactly (``Generator.random()`` and
        ``Generator.random(1)[0]`` yield the same double and the same
        post-call state).
        """
        return int(cdf.searchsorted(self._rng.random(), side="right"))

    def _sample(self, n: int, k: int, p: np.ndarray) -> np.ndarray:
        """``rng.choice(n, size=k, replace=False, p=p)``, minus the overhead.

        For ``k == 1`` numpy's ``Generator.choice`` consumes exactly one
        uniform and inverts the CDF of ``p`` — but spends ~35 µs/call on
        argument validation.  This replays the same computation directly
        (one ``rng.random(1)`` draw, cumsum, renormalise, right-bisect),
        which is bit-identical in both the returned index and the
        post-call generator state; ``tests/streaming/test_selection.py``
        asserts that equivalence against ``Generator.choice`` itself.
        """
        if k == 1:
            cdf = p.cumsum()
            cdf /= cdf[-1]
            x = self._rng.random()
            return np.array([cdf.searchsorted(x, side="right")], dtype=np.int64)
        return self._rng.choice(n, size=k, replace=False, p=p)

    def choose_levels(self, idx: np.ndarray, k: int = 1) -> np.ndarray:
        """Sample ``k`` distinct positions of a level-index batch."""
        n = len(idx)
        if n == 0 or k <= 0:
            return np.zeros(0, dtype=np.int64)
        k = min(k, n)
        return self._sample(n, k, self.probabilities_from_levels(idx))

    def choose(self, feats: CandidateFeatures, k: int = 1) -> np.ndarray:
        """Sample ``k`` distinct candidate indices (≤ batch size)."""
        return self.choose_levels(self.classes(feats), k)

    def choose_one(self, feats: CandidateFeatures) -> int:
        """Sample a single candidate index; -1 when the batch is empty."""
        picked = self.choose(feats, 1)
        return int(picked[0]) if len(picked) else -1
