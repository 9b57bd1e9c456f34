"""A chat-completions stub for the ``live-stub`` workload, run in its own
process.

Every response is a deterministic function of the request body: the stub
finds the document whose faux transcript the request carries, takes the
held-out rest of that document as the reference, and answers with
``synth.chunk_copy`` of it at the cohort's copy probability. It sleeps a fixed
service delay before each 200, answers every k-th POST with an immediate 429,
and counts POSTs and 429s; ``GET /stats`` returns the counts and resets them.

It speaks HTTP/1.1 keep-alive with Nagle's algorithm disabled: with Nagle on,
delayed ACKs add about 40 ms to every request and the benchmark would measure
the stub instead of the client.

Run: python3 bench/stub.py --seed N --pre PRE.jsonl --post POST.jsonl
         --delay S --every K
It prints ``PORT <n>`` once it listens on 127.0.0.1 and serves until killed.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from synth import Vocabulary, chunk_copy, copy_rng
from workloads import COPY_P


def _key(text: str) -> str:
    return " ".join(text.split()[:8])


class Responder:
    """Answers transcripts cut from the documents of a corpus."""

    def __init__(self, seed: int, corpus_paths: dict[str, Path]) -> None:
        self.seed = seed
        self.vocab = Vocabulary(seed)
        self.docs: dict[str, list[tuple[str, str]]] = {}
        for cohort, path in corpus_paths.items():
            for line in Path(path).read_text(encoding="utf-8").splitlines():
                text = json.loads(line)["text"]
                self.docs.setdefault(_key(text), []).append((cohort, text))

    def _reference(self, turns: list[str]) -> tuple[str, str] | None:
        """Cohort and held-out text of the document the turns were cut from."""
        for cohort, text in self.docs.get(_key(turns[0]), ()):
            pos = 0
            for turn in turns:
                found = text.find(turn, pos)
                if found < 0:
                    break
                pos = found + len(turn)
            else:
                return cohort, text[pos:].strip()
        return None

    def complete(self, turns: list[str]) -> str:
        """Completion for a transcript given as its non-system turns; seeded by
        those turns alone, so other request fields do not change it."""
        rng = copy_rng(self.seed, json.dumps(turns))
        found = self._reference(turns) if turns else None
        if found is None:
            return " ".join(self.vocab.sample(rng, 50))
        cohort, reference = found
        return chunk_copy(reference.split(), COPY_P[cohort], rng, self.vocab)


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, responder: Responder, delay: float, every: int) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.responder = responder
        self.delay = delay
        self.every = every
        self.posts = 0
        self.http_429 = 0
        self.lock = threading.Lock()

    def admit(self) -> bool:
        """Count a POST; False when it is scheduled for a 429."""
        with self.lock:
            self.posts += 1
            if self.every and self.posts % self.every == 0:
                self.http_429 += 1
                return False
            return True


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: StubServer

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        with self.server.lock:
            stats = {"posts": self.server.posts, "http_429": self.server.http_429}
            self.server.posts = self.server.http_429 = 0
        self._send(200, stats)

    def do_POST(self) -> None:
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if not self.server.admit():
            self._send(429, {"error": {"message": "rate limited"}})
            return
        turns = [m["content"] for m in body["messages"] if m["role"] != "system"]
        text = self.server.responder.complete(turns)
        time.sleep(self.server.delay)
        self._send(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pre", type=Path, required=True)
    parser.add_argument("--post", type=Path, required=True)
    parser.add_argument("--delay", type=float, required=True)
    parser.add_argument("--every", type=int, required=True)
    args = parser.parse_args()
    server = StubServer(Responder(args.seed, {"pre": args.pre, "post": args.post}), args.delay, args.every)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
