"""Synthetic probe pairs and quantized-vs-full-precision fidelity scoring.

Each probe pair shares a latent vector: image patches and text tokens are
independent noisy views of it, so cross-modal structure exists for the
retrieval task. Scores measure agreement with the full-precision model
(top-1 retrieval agreement, positionwise token match for generation) and
always land in [0, 1] with self-comparison at exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .numerics import RngStream
from .pipeline import TaskKind


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


def make_probe_set(
    seed: int,
    n_pairs: int,
    patch_count: int = 16,
    d_input: int = 64,
    vocab: int = 256,
    text_len: int = 8,
    question_len: int = 4,
) -> ProbeSet:
    """Deterministic probe pairs whose image and text views share a latent.
    One draw holds each pair's latent, image, text and patch noise in turn."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    for name, length in (("text_len", text_len), ("question_len", question_len)):
        if length < 0:
            raise ValueError(f"{name} must be >= 0, got {length}")
    draws = RngStream(seed).normals(n_pairs * (3 + patch_count) * d_input).reshape(n_pairs, 3 + patch_count, d_input)
    latent = draws[:, 0]
    image_latent = latent + 0.5 * draws[:, 1]
    text_latent = latent + 0.5 * draws[:, 2]
    images = (image_latent[:, None, :] + 0.35 * draws[:, 3:]).astype(np.float32)
    texts = _tokens_from_latent(text_latent, text_len, vocab, stride=1, offset=0)
    questions = _tokens_from_latent(text_latent, question_len, vocab, stride=7, offset=3)
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
