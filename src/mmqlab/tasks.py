"""Synthetic probe pairs and quantized-vs-full-precision fidelity scoring.

Each probe pair shares a latent vector: image patches and text tokens are
independent noisy views of it, so cross-modal structure exists for the
retrieval task. Scores measure agreement with the full-precision model
(top-1 retrieval agreement, positionwise token match for generation) and
always land in [0, 1] with self-comparison at exactly 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .numerics import RngStream
from .pipeline import PipelineSpec, SpecError, TaskKind


@dataclass
class ProbeConfig:
    """The ``probes`` config section: the seed, the pair count and the text
    and question lengths of a probe set."""

    seed: int = 0
    n_pairs: int = 128
    text_len: int = 8
    question_len: int = 4

    def __post_init__(self):
        for key, low in (("n_pairs", 1), ("text_len", 0), ("question_len", 0)):
            if (value := getattr(self, key)) < low:
                raise SpecError(key, f"must be >= {low}, got {value}")


@dataclass
class ProbeSet:
    """Probe pairs as arrays, one row per pair: images (n, patch_count,
    d_input) float32 and text and question token ids (n, length) int64."""

    images: np.ndarray
    texts: np.ndarray
    questions: np.ndarray

    def __len__(self) -> int:
        return self.images.shape[0]

    def take(self, n: int) -> "ProbeSet":
        """First n pairs (probe order is part of the deterministic contract)."""
        return ProbeSet(*(getattr(self, f.name)[:n] for f in fields(self)))


def _tokens_from_latent(latent: np.ndarray, length: int, vocab: int, stride: int, offset: int) -> np.ndarray:
    dims = (offset + stride * np.arange(length)) % latent.shape[1]
    values = np.clip((latent[:, dims] + 4.0) / 8.0, 0.0, 1.0)
    return np.minimum((values * vocab).astype(np.int64), vocab - 1)


def make_probe_set(probes: ProbeConfig, spec: PipelineSpec) -> ProbeSet:
    """Deterministic probe pairs whose image and text views share a latent,
    shaped for ``spec``'s patches, model width and vocabulary. One draw holds
    each pair's latent, image, text and patch noise in turn."""
    shape = (probes.n_pairs, 3 + spec.patch_count, spec.d_model)
    draws = RngStream(probes.seed).normals(math.prod(shape)).reshape(shape)
    latent = draws[:, 0]
    image_latent = latent + 0.5 * draws[:, 1]
    text_latent = latent + 0.5 * draws[:, 2]
    images = (image_latent[:, None, :] + 0.35 * draws[:, 3:]).astype(np.float32)
    texts = _tokens_from_latent(text_latent, probes.text_len, spec.vocab, stride=1, offset=0)
    questions = _tokens_from_latent(text_latent, probes.question_len, spec.vocab, stride=7, offset=3)
    return ProbeSet(images, texts, questions)


def retrieval_agreement(
    img_q: np.ndarray, txt_q: np.ndarray, img_fp: np.ndarray, txt_fp: np.ndarray
) -> float:
    """Fraction of probes whose top-1 match under the quantized model equals
    the full-precision top-1, averaged over text->image and image->text."""
    t2i = float(np.mean(np.argmax(txt_q @ img_q.T, axis=1) == np.argmax(txt_fp @ img_fp.T, axis=1)))
    i2t = float(np.mean(np.argmax(img_q @ txt_q.T, axis=1) == np.argmax(img_fp @ txt_fp.T, axis=1)))
    return 0.5 * (t2i + i2t)


def agreement(task: TaskKind, outputs, reference) -> float:
    """Fidelity of a model's outputs to the reference model's: top-1 retrieval
    agreement over (image, text) embedding pairs, or the positionwise
    exact-match fraction of generated token ids."""
    if task is TaskKind.RETRIEVAL:
        return retrieval_agreement(*outputs, *reference)
    return float(np.mean(outputs == reference))
