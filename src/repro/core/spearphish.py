"""The pHash+dHash lookalike-login classifier (Section V-A).

Reference screenshots come from *visiting the five legitimate portals*
with the crawler; candidate screenshots are compared with both fuzzy
hashes and matched when **both** Hamming distances fall under the
threshold — "the combination of both hashes proved to result in better
performance in identifying fake lookalike login pages".  Both hashes
work on grayscale data, which is why the hue-rotate(4deg) evasion fails
against this classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.imaging.image import Image
from repro.imaging.phash import fingerprint, hamming_distance

#: Default per-hash Hamming-distance threshold (out of 64 bits), chosen
#: "manually ... tailored to our needs" per the paper.
DEFAULT_THRESHOLD = 10


@dataclass(frozen=True)
class ReferencePage:
    """One known-legitimate login page."""

    brand: str
    phash: int
    dhash: int


@dataclass(frozen=True)
class SpearMatch:
    brand: str
    phash_distance: int
    dhash_distance: int

    @property
    def combined_distance(self) -> int:
        return self.phash_distance + self.dhash_distance


class SpearPhishClassifier:
    """Matches screenshots against the studied companies' login pages."""

    def __init__(self, threshold: int = DEFAULT_THRESHOLD):
        self.threshold = threshold
        self.references: list[ReferencePage] = []

    # ------------------------------------------------------------------
    def add_reference(self, brand: str, screenshot: Image) -> None:
        reference_phash, reference_dhash = fingerprint(screenshot)
        self.references.append(
            ReferencePage(brand=brand, phash=reference_phash, dhash=reference_dhash)
        )

    @classmethod
    def from_portals(cls, network, brands, threshold: int = DEFAULT_THRESHOLD) -> "SpearPhishClassifier":
        """Build references by crawling the legitimate portals.

        The reference crawl is deterministic (fixed RNG, fixed brand
        list), so its pHash/dHash results are memoized on the network
        object: every CrawlerBox built on one world in one process
        shares one portal crawl instead of re-rendering and re-hashing
        the five portals per box.  A process worker builds its box on
        its own forked copy of the world, so it crawls once itself.
        """
        key = tuple((brand.name, brand.login_domain) for brand in brands)
        cache = network.__dict__.setdefault("_spear_reference_cache", {})
        references = cache.get(key)
        if references is None:
            references = cls._crawl_references(network, brands)
            cache.setdefault(key, references)
        classifier = cls(threshold=threshold)
        classifier.references = list(references)
        return classifier

    @staticmethod
    def _crawl_references(network, brands) -> tuple[ReferencePage, ...]:
        import random

        from repro.crawlers.notabot import NotABot

        crawler = NotABot(network, rng=random.Random(99))
        references = []
        for brand in brands:
            session = crawler.crawl_url(f"https://{brand.login_domain}/").final_session
            if session is not None:
                reference_phash, reference_dhash = session.fingerprint()
                references.append(
                    ReferencePage(brand=brand.name, phash=reference_phash, dhash=reference_dhash)
                )
        return tuple(references)

    # ------------------------------------------------------------------
    def match(self, screenshot: Image) -> SpearMatch | None:
        """The closest reference within threshold on *both* hashes."""
        candidate_phash, candidate_dhash = fingerprint(screenshot)
        best: SpearMatch | None = None
        for reference in self.references:
            p_distance = hamming_distance(candidate_phash, reference.phash)
            d_distance = hamming_distance(candidate_dhash, reference.dhash)
            if p_distance <= self.threshold and d_distance <= self.threshold:
                match = SpearMatch(reference.brand, p_distance, d_distance)
                if best is None or match.combined_distance < best.combined_distance:
                    best = match
        return best

    def match_with_single_hash(self, screenshot: Image, which: str) -> SpearMatch | None:
        """Ablation helper: classify using only pHash or only dHash."""
        candidate_phash, candidate_dhash = fingerprint(screenshot)
        best: SpearMatch | None = None
        for reference in self.references:
            p_distance = hamming_distance(candidate_phash, reference.phash)
            d_distance = hamming_distance(candidate_dhash, reference.dhash)
            distance = p_distance if which == "phash" else d_distance
            if distance <= self.threshold:
                match = SpearMatch(reference.brand, p_distance, d_distance)
                key = match.phash_distance if which == "phash" else match.dhash_distance
                best_key = None if best is None else (
                    best.phash_distance if which == "phash" else best.dhash_distance
                )
                if best is None or key < best_key:
                    best = match
        return best
