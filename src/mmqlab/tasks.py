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
from .pipeline import (
    CAPTION_HORIZON,
    VQA_HORIZON,
    ModelWeights,
    TaskKind,
    generate_tokens,
    image_embeddings,
    text_embeddings,
)


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


@dataclass(frozen=True)
class ScoreRecord:
    task: TaskKind
    score: float
    n_probes: int

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")


def retrieval_agreement(
    img_q: np.ndarray, txt_q: np.ndarray, img_fp: np.ndarray, txt_fp: np.ndarray
) -> float:
    """Fraction of probes whose top-1 match under the quantized model equals
    the full-precision top-1, averaged over text->image and image->text."""
    t2i = float(np.mean(np.argmax(txt_q @ img_q.T, axis=1) == np.argmax(txt_fp @ img_fp.T, axis=1)))
    i2t = float(np.mean(np.argmax(img_q @ txt_q.T, axis=1) == np.argmax(img_fp @ txt_fp.T, axis=1)))
    return 0.5 * (t2i + i2t)


def task_outputs(
    weights: ModelWeights,
    probes: ProbeSet,
    task: TaskKind,
    horizon: int | None = None,
    prefix: np.ndarray | None = None,
):
    """A model's outputs on the probes, the operand of ``agreement``.

    Retrieval gives the unit-norm (image, text) embedding pair; caption and
    VQA give greedy token ids, (probes, horizon), at the task's default
    horizon unless one is given. ``prefix`` is ``vision_prefix(weights,
    probes.images)`` when the caller already holds it.
    """
    if task is TaskKind.RETRIEVAL:
        if len(probes) < 2:
            raise ValueError("retrieval scoring needs at least 2 probe pairs")
        return image_embeddings(weights, probes.images, prefix), text_embeddings(weights, probes.texts)
    if horizon is None:
        horizon = CAPTION_HORIZON if task is TaskKind.CAPTION else VQA_HORIZON
    questions = probes.questions if task is TaskKind.VQA else None
    return generate_tokens(weights, probes.images, task, horizon, question_ids=questions, prefix=prefix)


def agreement(task: TaskKind, outputs, reference) -> float:
    """Fidelity of ``task_outputs`` to the reference model's: top-1 retrieval
    agreement, or the positionwise exact-match fraction of generated tokens."""
    if task is TaskKind.RETRIEVAL:
        return retrieval_agreement(*outputs, *reference)
    return float(np.mean(outputs == reference))


def score_retrieval(q_weights: ModelWeights, fp_weights: ModelWeights, probes: ProbeSet) -> ScoreRecord:
    return score_task(q_weights, fp_weights, probes, TaskKind.RETRIEVAL)


def score_generation(
    q_weights: ModelWeights,
    fp_weights: ModelWeights,
    probes: ProbeSet,
    horizon: int | None = None,
    mode: TaskKind = TaskKind.CAPTION,
) -> ScoreRecord:
    """Positionwise exact-match fraction of greedy decodes over the horizon."""
    if mode not in (TaskKind.CAPTION, TaskKind.VQA):
        raise ValueError(f"not a generation task: {mode}")
    gen_q = task_outputs(q_weights, probes, mode, horizon)
    gen_fp = task_outputs(fp_weights, probes, mode, horizon)
    return ScoreRecord(task=mode, score=agreement(mode, gen_q, gen_fp), n_probes=len(probes))


def score_task(
    q_weights: ModelWeights, fp_weights: ModelWeights, probes: ProbeSet, task: TaskKind
) -> ScoreRecord:
    """Agreement of the quantized model's outputs with the full-precision
    model's, at the task's default horizon."""
    score = agreement(task, task_outputs(q_weights, probes, task), task_outputs(fp_weights, probes, task))
    return ScoreRecord(task=task, score=score, n_probes=len(probes))
