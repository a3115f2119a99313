"""``repro.server`` — an HTTP blob/file front-end on one asyncio loop.

The paper's stack served over real sockets: :class:`BlobServer` puts the
threaded in-process deployment behind a handwritten HTTP/1.1 loop
(:mod:`.http`) and runs each operation inline on that loop, so
concurrent append traffic from many network clients exercises exactly
the versioning protocol the simulations model. :class:`ServerThread` runs it from synchronous code
(tests, the load-test harness, CI); ``repro-serve`` (:mod:`.cli`) runs
it as a long-lived process with graceful signal-driven shutdown.
"""

from .app import BlobServer, ServerThread
from .http import HttpError, Request, Response

__all__ = [
    "BlobServer",
    "ServerThread",
    "HttpError",
    "Request",
    "Response",
]
