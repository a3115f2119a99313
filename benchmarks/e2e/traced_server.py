"""``repro-serve`` with the benchmark's timing wrappers installed.

The traced ``http_append_small`` run starts this instead of
``python -m repro.server.cli`` so the traced server keeps the untraced
run's shape — its own process, its own CPU, its own interpreter lock —
and the difference between the two runs is the wrappers alone.

The load generator opens and closes the timed window in-band: a
``GET /healthz`` carrying ``X-Bench-Mark: start`` (or ``end``). The
untraced server ignores the header. Inside the window every request is
tagged with the first eight bytes of its body, which the generator
fills with the op's ``(conn, seq)`` tag. On exit the span summary is
written to ``--summary-out`` and, if asked, the raw spans to
``--spans-out``.

usage: traced_server.py --summary-out PATH [--spans-out PATH] -- <repro-serve args>
"""

from __future__ import annotations

import argparse
import functools
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summary-out", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("serve_args", nargs="*")
    args = parser.parse_args(argv)

    import spans
    from repro.server import app, cli

    rec = spans.Recorder()
    spans.install(rec, "aio")

    read_request = app.read_request

    @functools.wraps(read_request)
    async def marking(reader, max_body=app.DEFAULT_MAX_BODY):
        request = await read_request(reader, max_body)
        if request is not None:
            mark = request.headers.get("x-bench-mark")
            if mark:
                rec.mark(mark)
            elif rec.active:
                rec.set_op(int.from_bytes(request.body[:8], "big"))
        return request

    app.read_request = marking

    start = app.BlobServer.start

    @functools.wraps(start)
    async def capturing(self):
        spans.dht_counter_sources(rec, self.service.dht)
        return await start(self)

    app.BlobServer.start = capturing

    code = cli.main(args.serve_args)
    with open(args.summary_out, "w") as fp:
        json.dump(rec.summary(), fp, allow_nan=False)
    if args.spans_out:
        rec.dump(args.spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
