"""Map/Reduce applications: the paper's data join, and word count (the
quickstart's and the locality ablation's job)."""

from .datajoin import (
    make_datajoin_conf,
    parse_join_output,
    reference_join,
    run_datajoin,
)
from .wordcount import (
    make_wordcount_conf,
    parse_counts,
    run_wordcount,
    wordcount_map,
    wordcount_reduce,
)

__all__ = [
    "make_datajoin_conf",
    "parse_join_output",
    "reference_join",
    "run_datajoin",
    "make_wordcount_conf",
    "parse_counts",
    "run_wordcount",
    "wordcount_map",
    "wordcount_reduce",
]
