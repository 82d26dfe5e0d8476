"""Run ``repro serve`` or ``repro cluster serve`` with layer spans recorded.

Usage::

    python bench/serve_traced.py SPANS_OUT serve --port 0 ...
    python bench/serve_traced.py SPANS_OUT cluster serve --nodes 2 ...

The server layers' public methods and the protocol functions the server
module calls are wrapped in timing spans (see ``spans.py``); then the
shipped CLI entry point runs unchanged.  When SIGTERM has been handled and
the server has drained, the spans are written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys

import harness  # noqa: F401  (puts the checkout's src/ on sys.path)
from spans import SpanRecorder

from repro.cluster import cli as cluster_cli
from repro.cluster.node import ClusterNode, PeerClient
from repro.service import cli as service_cli
from repro.service import server as server_module
from repro.service.protocol import FrameEncoder
from repro.service.sharding import ShardedStore
from repro.service.store import ReuseStore

#: (owner, attributes) wrapped in the server process
PATCHES = (
    (ShardedStore, ("get", "set", "delete")),
    (ReuseStore, ("get", "set", "delete")),
    (FrameEncoder, ("simple", "finish")),
    # the names the server module imported from the protocol module
    (server_module, ("decode_request_fields", "decode_trace", "read_frame")),
    (ClusterNode, ("handle_set", "handle_repl", "handle_inval",
                   "handle_rget")),
    (PeerClient, ("inval", "repl")),
)


def main(argv: list) -> int:
    spans_out, cli = argv[0], argv[1:]
    recorder = SpanRecorder(pid=1)
    for owner, attrs in PATCHES:
        for attr in attrs:
            recorder.patch(owner, attr)
    try:
        if cli[0] == "cluster":
            return cluster_cli.main(cli[1:])
        return service_cli.main(cli)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
