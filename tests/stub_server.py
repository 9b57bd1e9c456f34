"""A scripted chat-completions endpoint for exercising the HTTP client.

Each incoming POST consumes the next (status, body) pair from the script;
once the script is exhausted every request gets a 200 fallback completion.
Received requests (path, headers, parsed body) and the client port of each
are recorded for assertions.

By default the server speaks HTTP/1.0 and closes after each response. With
``keep_alive`` it speaks HTTP/1.1 and keeps connections open; adding
``hang_up`` makes it close after each response anyway, without a
``Connection: close`` header, as a server does when an idle connection times
out.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def completion_body(text: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


class StubServer:
    def __init__(
        self,
        script: list[tuple[int, object]] | None = None,
        fallback_text: str = "fallback",
        keep_alive: bool = False,
        hang_up: bool = False,
    ):
        self.script = list(script or [])
        self.requests: list[tuple[str, dict, object]] = []
        self.ports: list[int] = []
        self._lock = threading.Lock()
        self._fallback = (200, completion_body(fallback_text))
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def do_POST(self) -> None:
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    parsed = json.loads(raw) if raw else None
                except ValueError:
                    parsed = raw
                with stub._lock:
                    stub.requests.append((self.path, dict(self.headers), parsed))
                    stub.ports.append(self.client_address[1])
                    status, body = stub.script.pop(0) if stub.script else stub._fallback
                data = body if isinstance(body, bytes) else (
                    body if isinstance(body, str) else json.dumps(body)
                ).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                if hang_up:
                    self.close_connection = True

            def log_message(self, *args) -> None:
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll interval: shutdown() waits up to one interval for the
        # serving loop to notice.
        self._thread = threading.Thread(target=self._httpd.serve_forever, args=(0.01,), daemon=True)

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
