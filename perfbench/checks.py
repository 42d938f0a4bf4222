"""Correctness checks the benchmark applies to the program's outputs.

Each check recomputes a result apart from the program, or tests a property
the method must have, and returns ``None`` when the output passes or a
one-line description of what is wrong.  Only numpy is used here, so no
check leans on the code it judges.  Comparisons are written as
``not (error <= tol)`` so that a NaN anywhere fails.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

RIGID_FIELDS = ("keys", "d1", "d2", "theta", "phi", "face1", "face2")


def finite_problem(what, values):
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        return f"{what}: non-finite value among {values.size}"
    return None


def expected_path_count(loops):
    """Two-hop paths of a closed surface, backtracking included: every
    directed edge into v pairs with every directed edge out of v, and each
    face-loop occurrence of v gives one of each, so the count is
    sum over v of deg(v)^2."""
    deg = Counter(v for loop in loops for v in loop)
    return sum(d * d for d in deg.values())


def path_count_problem(what, loops, n_paths):
    want = expected_path_count(loops)
    if n_paths != want:
        return f"{what}: {n_paths} paths, face loops give sum deg^2 = {want}"
    return None


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return np.array_equal(
        np.ascontiguousarray(a).view(np.uint8), np.ascontiguousarray(b).view(np.uint8)
    )


def reread_problem(what, written, reread, text, rewritten):
    """The rigid set read back from its text file equals the one written,
    bit for bit, and writing it again gives the same text."""
    for name in RIGID_FIELDS:
        if not _same_bits(getattr(written, name), getattr(reread, name)):
            return f"{what}: field {name} differs after the text round trip"
    if text != rewritten:
        return f"{what}: rewriting the re-read rigid set changes the text"
    return None


def proper_alignment(src, dst):
    """Least-squares proper rotation R and shift t with dst ~ src @ R.T + t.

    Kabsch by SVD of the cross-covariance; the last singular direction is
    flipped when needed so that det R = +1, hence a mirror image cannot be
    aligned onto its source.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    u, _, vt = np.linalg.svd((src - cs).T @ (dst - cd))
    flip = np.diag([1.0, 1.0, np.sign(np.linalg.det(vt.T @ u.T)) or 1.0])
    r = vt.T @ flip @ u.T
    return r, cd - r @ cs


def diameter(points):
    """Largest distance between two of the points."""
    p = np.asarray(points, dtype=np.float64)
    return float(np.sqrt(((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2).max()))


def congruence_problem(what, source, rebuilt, rel_tol=1e-6):
    """``rebuilt`` maps vertex by vertex onto ``source`` under one proper
    rigid motion, every vertex within ``rel_tol`` times the diameter."""
    source = np.asarray(source, dtype=np.float64)
    rebuilt = np.asarray(rebuilt, dtype=np.float64)
    if source.shape != rebuilt.shape:
        return f"{what}: {rebuilt.shape} vertices rebuilt for {source.shape}"
    if not np.all(np.isfinite(rebuilt)):
        return f"{what}: rebuilt vertices are not all finite"
    r, t = proper_alignment(rebuilt, source)
    dev = float(np.linalg.norm(rebuilt @ r.T + t - source, axis=1).max())
    tol = rel_tol * diameter(source)
    if not dev <= tol:
        return f"{what}: rebuilt vertex off by {dev:.3e} after alignment (tol {tol:.3e})"
    return None


def invariance_problem(what, original, moved, rel_tol=1e-6):
    """Embeddings of rigidly moved copies agree with the originals."""
    original = np.asarray(original, dtype=np.float64)
    moved = np.asarray(moved, dtype=np.float64)
    diff = np.linalg.norm(moved - original, axis=1)
    scale = np.linalg.norm(original, axis=1)
    worst = int(np.argmax(diff / np.maximum(scale, 1e-300)))
    if not np.all(diff <= rel_tol * scale):
        return (
            f"{what}: moved copy {worst} embeds {diff[worst]:.3e} away "
            f"(tol {rel_tol * scale[worst]:.3e})"
        )
    return None


def brute_force_retrieval(embeddings, labels):
    """Cosine ranking per query, ties by item index; each query keeps as many
    items as its class has other members.  Returns precision@k, MAP and
    NDCG@k averaged over queries whose class has another member."""
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = [int(v) for v in labels]
    unit = [e / max(float(np.linalg.norm(e)), 1e-300) for e in emb]
    precs, aps, ndcgs = [], [], []
    for q in range(len(labels)):
        others = [o for o in range(len(labels)) if o != q]
        k = sum(labels[o] == labels[q] for o in others)
        if k == 0:
            continue
        sims = {o: float(unit[q] @ unit[o]) for o in others}
        ranked = sorted(others, key=lambda o: (-sims[o], o))
        rel = [labels[o] == labels[q] for o in ranked]
        precs.append(sum(rel[:k]) / k)
        hits, ap = 0, 0.0
        for pos, hit in enumerate(rel, start=1):
            if hit:
                hits += 1
                ap += hits / pos
        aps.append(ap / k)
        dcg = sum(1.0 / math.log2(pos + 1) for pos in range(1, k + 1) if rel[pos - 1])
        ideal = sum(1.0 / math.log2(pos + 1) for pos in range(1, k + 1))
        ndcgs.append(dcg / ideal)
    n = len(precs)
    return {"precision": sum(precs) / n, "map": sum(aps) / n, "ndcg": sum(ndcgs) / n}


def retrieval_problem(what, embeddings, labels, reported, tol=1e-12):
    """``reported`` (precision, recall, f1, map, ndcg attributes) matches the
    brute-force ranking of ``embeddings``."""
    mine = brute_force_retrieval(embeddings, labels)
    pairs = [
        ("precision", mine["precision"]),
        ("recall", mine["precision"]),
        ("f1", mine["precision"]),
        ("map", mine["map"]),
        ("ndcg", mine["ndcg"]),
    ]
    for name, want in pairs:
        got = getattr(reported, name)
        if not abs(got - want) <= tol:
            return f"{what}: {name} {got!r} but brute force gives {want!r}"
    return None


def accuracy(logits, labels):
    logits = np.asarray(logits, dtype=np.float64)
    hits = sum(int(np.argmax(row)) == int(y) for row, y in zip(logits, labels))
    return hits / len(logits)


def accuracy_problem(what, logits, labels, reported, tol=1e-12):
    want = accuracy(logits, labels)
    if not abs(reported - want) <= tol:
        return f"{what}: accuracy {reported!r} but the logits give {want!r}"
    return None


def floor_problem(what, value, floor):
    if not value >= floor:
        return f"{what}: {value!r} is below the floor {floor}"
    return None


def gradient_problem(
    what, loss_fn, params, grads, rng, entries=48, step=1e-5, rtol=1e-4, atol=1e-10
):
    """Analytic ``grads`` match central finite differences of ``loss_fn`` on a
    random sample of parameter entries.

    A ReLU kink inside [x - step, x + step] makes the difference quotient
    meaningless, so each entry is also differenced at half the step: an entry
    whose two quotients disagree is straddling a kink and is not judged.
    At least three quarters of the sample must be judged, and every judged
    entry must agree with its analytic gradient within ``rtol`` (relative)
    or ``atol`` (absolute, below the resolution of double-precision
    differences).
    """
    sizes = np.array([p.size for p in params])
    starts = np.cumsum(sizes) - sizes
    chosen = rng.choice(int(sizes.sum()), size=min(entries, int(sizes.sum())), replace=False)

    def close(a, b):
        return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))

    def quotient(flat, idx, h):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn()
        flat[idx] = orig - h
        down = loss_fn()
        flat[idx] = orig
        return (up - down) / (2 * h)

    judged = 0
    for entry in chosen:
        a = int(np.searchsorted(starts, entry, side="right") - 1)
        idx = int(entry - starts[a])
        flat = params[a].reshape(-1)
        coarse = quotient(flat, idx, step)
        fine = quotient(flat, idx, step / 2)
        if not close(coarse, fine):
            continue
        judged += 1
        analytic = float(grads[a].reshape(-1)[idx])
        if not close(analytic, fine):
            return (
                f"{what}: parameter {a} entry {idx}: analytic {analytic:.6e}, "
                f"finite difference {fine:.6e}"
            )
    if judged < 0.75 * len(chosen):
        return f"{what}: only {judged} of {len(chosen)} entries clear of ReLU kinks"
    return None
