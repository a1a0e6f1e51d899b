"""Speaker identification by embedding distance and plurality voting.

A query face embedding is compared against a labeled gallery; every gallery
entry closer than a tolerance casts one vote for its label, and the query is
classified to the label with the strictly greatest vote total (or left
unknown on a tie or an insufficient total).  A batch's squared distances to
the whole gallery come from one matrix product; the pairs it cannot decide
with certainty (near the tolerance, or overflowing) are recomputed with the
exact norm, so every vote is the norm's.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, MalformedRecordError
from .geometry import EMBEDDING_DIM
from .schema import read, read_json, to_json

NO_EMBEDDING_POLICIES = ("drop", "assume_target")

# The bounds within which vote_counts decides a pair from the matrix product.
_SLACK = 1e-9
_TINY = 1e-300
_HUGE = 1e300


@dataclass(frozen=True)
class GalleryEntry:
    label: str
    embedding: np.ndarray

    def __post_init__(self) -> None:
        if not self.label:
            raise MalformedRecordError("gallery entry with empty label")
        if self.embedding.shape != (EMBEDDING_DIM,):
            raise MalformedRecordError(
                f"gallery embedding for {self.label!r} must have {EMBEDDING_DIM} entries"
            )
        if not np.all(np.isfinite(self.embedding)):
            raise MalformedRecordError(
                f"gallery embedding for {self.label!r} has a non-finite entry"
            )


@dataclass(frozen=True)
class Gallery:
    """Labeled embeddings; the arrays derived from them are built once."""

    entries: tuple[GalleryEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigError("gallery must contain at least one entry")

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.entries)

    @cached_property
    def label_codes(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Distinct labels in first-seen order, and each entry's index into them."""
        names = tuple(dict.fromkeys(self.labels))
        return names, np.array([names.index(label) for label in self.labels])

    @cached_property
    def matrix(self) -> np.ndarray:
        """Entry embeddings, one read-only row per entry."""
        matrix = np.stack([e.embedding for e in self.entries])
        matrix.flags.writeable = False
        return matrix


@dataclass(frozen=True)
class IdentityConfig:
    """Distance tolerance and vote quorum for classification."""

    epsilon: float
    min_votes: int = 1
    no_embedding_policy: str = "drop"

    def __post_init__(self) -> None:
        if not math.isfinite(self.epsilon):
            raise ConfigError(f"epsilon must be finite, got {self.epsilon}")
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.min_votes < 1:
            raise ConfigError(f"min_votes must be >= 1, got {self.min_votes}")
        if self.no_embedding_policy not in NO_EMBEDDING_POLICIES:
            raise ConfigError(
                f"no_embedding_policy must be one of {NO_EMBEDDING_POLICIES}, "
                f"got {self.no_embedding_policy!r}"
            )


def vote_counts(embeddings: np.ndarray, gallery: Gallery, epsilon: float) -> np.ndarray:
    """Votes per row of an (N, 128) array and per distinct label, as (N, L) ints.

    Labels are in gallery.label_codes order.  A gallery entry votes for a
    row when their Euclidean distance, np.linalg.norm(row - entry), is
    strictly less than epsilon.

    All squared distances come from one matrix product, |e|^2 + |g|^2 -
    2 E G^T.  Its error is below 1e-13 (|e|^2 + |g|^2) (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1), and so is that of the
    norm above, so a pair whose value lies farther than _SLACK times that
    scale, plus _TINY for underflow, from epsilon^2 is decided by it.  Every
    other pair is recomputed with the norm itself: one near the boundary,
    a NaN, and any whose scale reaches _HUGE, where a square or a sum of
    squares could overflow.  The votes are then exactly the norm's.
    """
    embeddings = np.asarray(embeddings, dtype=float)
    if embeddings.ndim != 2 or embeddings.shape[1] != EMBEDDING_DIM:
        raise MalformedRecordError(
            f"embeddings must be rows of {EMBEDDING_DIM} entries, got {embeddings.shape}"
        )
    names, codes = gallery.label_codes
    entries = gallery.matrix
    with np.errstate(over="ignore", invalid="ignore"):
        limit = epsilon * epsilon
        scale = np.add.outer(np.einsum("ij,ij->i", embeddings, embeddings),
                             np.einsum("ij,ij->i", entries, entries))
        squared = scale - 2.0 * (embeddings @ entries.T)
        votes = squared < limit
        sure = (np.abs(squared - limit) > _SLACK * scale + _TINY) & (scale < _HUGE)
        rows, cols = np.nonzero(~sure)
        votes[rows, cols] = np.linalg.norm(embeddings[rows] - entries[cols], axis=1) < epsilon
    # Each entry's votes, summed per label.
    return votes.astype(int) @ np.eye(len(names), dtype=int)[codes]


def classify_codes(embeddings: np.ndarray, gallery: Gallery, config: IdentityConfig) -> np.ndarray:
    """The plurality label of each row of an (N, 128) array, as an index into
    gallery.label_codes[0], or -1 when unknown.

    A row is unknown when its top vote total falls short of the quorum or
    two labels tie at the top.
    """
    counts = vote_counts(embeddings, gallery, config.epsilon)
    best = counts.max(axis=1)
    decided = (best >= config.min_votes) & ((counts == best[:, None]).sum(axis=1) == 1)
    return np.where(decided, counts.argmax(axis=1), -1)


def route_frames(
    codes: np.ndarray, has_embedding: np.ndarray, target: int, config: IdentityConfig,
) -> tuple[np.ndarray, dict[str, int]]:
    """Which frames the identity filter keeps, and the tally of the routing.

    codes[i] is frame i's label code from classify_codes, and target is the
    target label's index into gallery.label_codes[0].  A frame without an
    embedding is kept only under config.no_embedding_policy "assume_target",
    whatever its code.  The tally's kept, rejected, unknown and no_embedding
    partition the frames; written counts the kept mask.
    """
    codes, has = np.asarray(codes), np.asarray(has_embedding, dtype=bool)
    if codes.shape != has.shape:
        raise ValueError(f"label codes of shape {codes.shape} for frames of shape {has.shape}")
    target_frames = has & (codes == target)
    keep = target_frames | ~has if config.no_embedding_policy == "assume_target" else target_frames
    kept = int(np.count_nonzero(target_frames))
    unknown = int(np.count_nonzero(has & (codes < 0)))
    embedded = int(np.count_nonzero(has))
    return keep, {
        "kept": kept,
        "rejected": embedded - kept - unknown,
        "unknown": unknown,
        "no_embedding": len(has) - embedded,
        "written": int(np.count_nonzero(keep)),
        "total": len(has),
    }


# ---------------------------------------------------------------------------
# Gallery file: {"entries": [{"label": ..., "embedding": [...]}]}, or the list
# ---------------------------------------------------------------------------


class _GalleryFile(NamedTuple):
    """The gallery file's keys, in the order dump_gallery writes them."""

    meta: object = None
    entries: tuple[GalleryEntry, ...] = ()


def load_gallery(path: str | Path) -> Gallery:
    raw = read_json(path, "gallery file", MalformedRecordError)
    if isinstance(raw, list):
        raw = {"entries": raw}
    entries = read(_GalleryFile, raw, f"gallery file {path}", MalformedRecordError).entries
    if not entries:
        raise MalformedRecordError(f"gallery file {path} contains no entries")
    return Gallery(entries)


def dump_gallery(gallery: Gallery, meta: dict | None = None) -> str:
    """The gallery file's text, which load_gallery reads back."""
    return json.dumps(to_json(_GalleryFile(meta, gallery.entries)), separators=(",", ":")) + "\n"
