"""Text-analysis kernels for the training-data pipeline operators:
language-ID (n-gram heuristic), quality scoring, token counting,
document fingerprinting (rolling hash), shingling.

All kernels are batch-oriented (lists/ndarrays in, ndarrays out) so the
``map_batches`` stages stay vectorized at the row loop only — no
per-token Python in the hot path beyond a single pass per doc.
"""

from __future__ import annotations

import numpy as np

from .hashing import fnv64_one

STOPWORDS = ("the", "a", "of", "and", "to", "in", "is", "on", "for", "with")
_STOP = frozenset(STOPWORDS)

# tiny character-trigram profiles per language — deterministic heuristic
# (a real deployment would broadcast a learned profile table; the
# Ray-side plumbing is identical)
_PROFILES: dict[str, tuple[str, ...]] = {
    "en": ("the", "ing", "ion", "and", "ent", " th", "er ", "of "),
    "es": ("que", "ión", "los", "ent", "de ", " la", "ar ", "os "),
    "fr": ("les", "ent", "ion", "de ", " le", "que", "re ", "ur "),
    "de": ("der", "ein", "ich", "sch", "und", "en ", "ch ", "die"),
    "zh": ("的", "是", "了", "在", "我", "有", "和", "人"),
}


def token_counts(texts: list[str]) -> np.ndarray:
    """Whitespace token count; '' → 0 (matches the SQL oracle's
    CASE WHEN trim = '' THEN 0 ELSE len(string_split_regex(...)))."""
    return np.fromiter(
        (len(t.split()) if t is not None else 0 for t in texts),
        dtype=np.int64,
        count=len(texts),
    )


def quality_features(texts: list[str]) -> dict[str, np.ndarray]:
    """Per-doc quality features: n_tokens, avg token length and stopword
    ratio as exact integers scaled by 1e4 (``_e4``) — pure integer
    arithmetic so the SQL oracle matches bit-for-bit (float rounding
    modes differ between numpy and DuckDB)."""
    n = len(texts)
    n_tokens = np.zeros(n, dtype=np.int64)
    avg_len_e4 = np.zeros(n, dtype=np.int64)
    stop_e4 = np.zeros(n, dtype=np.int64)
    for i, t in enumerate(texts):
        toks = (t or "").split()
        n_tokens[i] = len(toks)
        if toks:
            total = sum(len(w) for w in toks)
            avg_len_e4[i] = (10000 * total) // len(toks)
            stop_e4[i] = (10000 * sum(1 for w in toks if w in _STOP)) // len(toks)
    return {
        "n_tokens": n_tokens,
        "avg_token_len_e4": avg_len_e4,
        "stopword_ratio_e4": stop_e4,
    }


def predict_lang(texts: list[str]) -> list[str]:
    """n-gram profile scoring; falls back to 'en' on ties/empty."""
    out = []
    for t in texts:
        t = (t or "").lower()
        # seed with en's own score so empty/tied inputs really fall
        # back to 'en' (a -1 seed let the alphabetically-first language
        # claim every zero-score document)
        best = "en"
        best_score = sum(t.count(g) for g in _PROFILES["en"])
        for lang in sorted(_PROFILES):
            if lang == "en":
                continue
            score = sum(t.count(g) for g in _PROFILES[lang])
            if score > best_score:
                best, best_score = lang, score
        out.append(best)
    return out


def fingerprint(texts: list[str], window: int = 4) -> list[str]:
    """Rolling-hash document fingerprint: min-of-window polynomial hash
    over token hashes (winnowing-style), hex-encoded. Stable across
    runs; equal for docs whose token streams are equal."""
    out = []
    for t in texts:
        toks = (t or "").split()
        if not toks:
            out.append("0" * 16)
            continue
        hs = [fnv64_one(w) for w in toks]
        if len(hs) <= window:
            mins = [min(hs)]
        else:
            mins = [min(hs[i : i + window]) for i in range(len(hs) - window + 1)]
        acc = 0xCBF29CE484222325
        for m in mins:
            acc = ((acc ^ m) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        out.append(f"{acc:016x}")
    return out


def word_ngrams(text: str, n: int = 3) -> set[str]:
    """Word n-grams of one text. No pipeline calls it; it stays as the
    scalar reference ``tests/test_textops.py`` builds expected values
    from."""
    toks = (text or "").split()
    if len(toks) < n:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    u = len(a | b)
    return len(a & b) / u if u else 0.0
