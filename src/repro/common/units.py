"""Byte-size units.

Everything in the reproduction is denominated in plain integer bytes;
these constants exist so that configuration reads like the paper
("64 MB chunks", "4 KB records") rather than like arithmetic.
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB
TiB: int = 1024 * GiB

#: HDFS chunk size and the BlobSeer page size used throughout the paper
#: ("As HDFS handles data in 64 MB chunks, we also set the page size at the
#: level of BlobSeer to 64 MB, to enable a fair comparison").
CHUNK_SIZE: int = 64 * MiB

#: Typical Map/Reduce record size the BSFS client cache is tuned for
#: ("Map/Reduce applications usually process data in small records (4KB,
#: whereas Hadoop is concerned)").
RECORD_SIZE: int = 4 * KiB
