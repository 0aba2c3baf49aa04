"""Synthetic probe pairs and quantized-vs-full-precision fidelity scoring.

Each probe pair shares a latent vector: image patches and text tokens are
independent noisy views of it, so cross-modal structure exists for the
retrieval task. Scores measure agreement with the full-precision model
(top-1 retrieval agreement, positionwise token match for generation) and
always land in [0, 1] with self-comparison at exactly 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream
from .pipeline import TaskKind


@dataclass(frozen=True)
class ProbePair:
    image_like: np.ndarray
    text_ids: np.ndarray
    question_ids: np.ndarray


@dataclass
class ProbeSet:
    pairs: list[ProbePair]
    seed: int
    image_latents: np.ndarray
    text_latents: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def images(self) -> np.ndarray:
        return np.stack([p.image_like for p in self.pairs])

    @property
    def texts(self) -> np.ndarray:
        return np.stack([p.text_ids for p in self.pairs])

    @property
    def questions(self) -> np.ndarray:
        return np.stack([p.question_ids for p in self.pairs])

    def take(self, n: int) -> "ProbeSet":
        """First n pairs (probe order is part of the deterministic contract)."""
        return ProbeSet(
            pairs=self.pairs[:n],
            seed=self.seed,
            image_latents=self.image_latents[:n],
            text_latents=self.text_latents[:n],
        )


def _tokens_from_latent(latent: np.ndarray, length: int, vocab: int, stride: int, offset: int) -> np.ndarray:
    dims = (offset + stride * np.arange(length)) % latent.shape[0]
    values = np.clip((latent[dims] + 4.0) / 8.0, 0.0, 1.0)
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
    """Deterministic probe pairs whose image and text views share a latent."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    stream = RngStream(seed)
    pairs = []
    image_latents = np.empty((n_pairs, d_input), dtype=np.float32)
    text_latents = np.empty((n_pairs, d_input), dtype=np.float32)
    for i in range(n_pairs):
        latent = stream.normals(d_input)
        image_latent = latent + 0.5 * stream.normals(d_input)
        text_latent = latent + 0.5 * stream.normals(d_input)
        patch_noise = stream.normals(patch_count * d_input).reshape(patch_count, d_input)
        image = (image_latent[None, :] + 0.35 * patch_noise).astype(np.float32)
        text_ids = _tokens_from_latent(text_latent, text_len, vocab, stride=1, offset=0)
        question_ids = _tokens_from_latent(text_latent, question_len, vocab, stride=7, offset=3)
        pairs.append(ProbePair(image_like=image, text_ids=text_ids, question_ids=question_ids))
        image_latents[i] = image_latent
        text_latents[i] = text_latent
    return ProbeSet(pairs=pairs, seed=seed, image_latents=image_latents, text_latents=text_latents)


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
