"""Synthetic workloads: the Last.fm-like join dataset plus generic
text/key-value corpora."""

from .lastfm import LastFMSpec, generate_records, write_dataset
from .generators import kv_corpus, text_corpus

__all__ = [
    "LastFMSpec",
    "generate_records",
    "write_dataset",
    "kv_corpus",
    "text_corpus",
]
