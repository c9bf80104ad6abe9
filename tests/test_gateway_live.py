"""Live-provider transport tests against a local OpenAI-compatible stub."""

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import quadkit.gateway as gateway_mod
from quadkit import cli
from quadkit.bench import asset_path
from quadkit.errors import ConfigError, GatewayError
from quadkit.gateway import LIVE_MAX_RETRIES, ChatRequest, Gateway, LiveProvider


def serve(script):
    """Tiny chat-completions stub. ``script`` lists per-request behaviors:
    ("ok", n_choices_or_None), ("error", status), ("raw", body answered with
    status 200) or ("redirect", status, location); the last entry repeats. Any
    method is answered and recorded."""
    state = {"i": 0, "requests": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length) or b"{}")
            state["requests"].append({
                "path": self.path,
                "body": body,
                "auth": self.headers.get("Authorization"),
            })
            kind = script[min(state["i"], len(script) - 1)]
            state["i"] += 1
            if kind[0] == "error":
                data = b"boom"
                self.send_response(kind[1])
            elif kind[0] == "raw":
                data = kind[1].encode()
                self.send_response(200)
            elif kind[0] == "redirect":
                data = b"moved"
                self.send_response(kind[1])
                self.send_header("Location", kind[2])
            else:
                n = kind[1] if kind[1] is not None else body.get("n", 1)
                data = json.dumps({
                    "choices": [{"message": {"content": f"reply-{state['i']}-{k}"}}
                                for k in range(n)],
                }).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        do_GET = do_POST

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    # serve_forever checks for shutdown once per poll interval (0.5 s by default)
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                     daemon=True).start()
    return server, state


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(gateway_mod.time, "sleep", lambda s: None)


def provider_for(server):
    return LiveProvider(f"http://127.0.0.1:{server.server_port}", "test-model", "sekrit")


def test_live_provider_request_shape_and_responses(no_backoff):
    server, state = serve([("ok", None)])
    try:
        provider = provider_for(server)
        texts = provider.complete(ChatRequest("auto", "sys", "user text",
                                              temperature=0.7, n_samples=3))
        assert len(texts) == 3
        req = state["requests"][0]
        assert req["path"].endswith("/chat/completions")
        assert req["auth"] == "Bearer sekrit"
        assert req["body"]["model"] == "test-model"
        assert req["body"]["n"] == 3
        assert req["body"]["temperature"] == 0.7
        assert req["body"]["messages"][0] == {"role": "system", "content": "sys"}
        assert req["body"]["messages"][-1] == {"role": "user", "content": "user text"}
    finally:
        server.shutdown()


def test_live_provider_tops_up_missing_samples(no_backoff):
    # endpoint without n-sample support: always one choice per call
    server, state = serve([("ok", 1)])
    try:
        provider = provider_for(server)
        texts = provider.complete(ChatRequest("auto", "", "x", n_samples=3))
        assert len(texts) == 3
        assert len(state["requests"]) == 3
    finally:
        server.shutdown()


def test_live_provider_retries_transient_failures(no_backoff):
    server, state = serve([("error", 500), ("error", 502), ("ok", None)])
    try:
        provider = provider_for(server)
        texts = provider.complete(ChatRequest("auto", "", "x"))
        assert texts == ["reply-3-0"]
        assert len(state["requests"]) == 3
    finally:
        server.shutdown()


def test_live_provider_fails_after_retry_budget(no_backoff):
    server, _ = serve([("error", 500)])
    try:
        provider = provider_for(server)
        with pytest.raises(GatewayError):
            provider.complete(ChatRequest("auto", "", "x"))
    finally:
        server.shutdown()


def test_live_gateway_logs_like_scripted(tmp_path, no_backoff):
    server, _ = serve([("ok", None)])
    try:
        log = tmp_path / "log.jsonl"
        gateway = Gateway(provider_for(server), log_path=str(log))
        gateway.complete(ChatRequest("auto", "", "x", n_samples=2))
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["ordinal"] for r in records] == [0, 1]
        assert all(r["template_id"] == "auto" for r in records)
    finally:
        server.shutdown()


@pytest.mark.parametrize("kind, field", [
    (("raw", '{"choices": []}'), "'choices' is not a non-empty list"),
    (("raw", '{"choices": [{}]}'), "'choices[0].message.content' is not a string"),
    (("raw", "[1]"), "body is not a JSON object"),
    (("raw", '{"choices": {"a": 1}}'), "'choices' is not a non-empty list"),
    (("raw", '{"choices": [{"message": {"content": 7}}]}'),
     "'choices[0].message.content' is not a string"),
    (("raw", "not json"), "body is not JSON"),
    (("error", 404), "request failed (404): boom"),
], ids=["empty-choices", "no-message", "array", "choices-object", "int-content", "not-json",
        "http-404"])
def test_live_provider_bad_reply_is_a_gateway_error_after_the_retry_budget(no_backoff, kind,
                                                                           field):
    server, state = serve([kind])
    try:
        with pytest.raises(GatewayError) as err:
            provider_for(server).complete(ChatRequest("cost_map", "", "x"))
        assert field in str(err.value)
        if kind[0] == "raw":
            assert f"127.0.0.1:{server.server_port}/chat/completions" in str(err.value)
            assert "template 'cost_map'" in str(err.value)
        assert len(state["requests"]) == LIVE_MAX_RETRIES + 1
    finally:
        server.shutdown()


def test_live_provider_top_up_without_choices_fails_without_recursing(no_backoff):
    server, state = serve([("ok", 1), ("raw", '{"choices": []}')])
    try:
        with pytest.raises(GatewayError, match="'choices' is not a non-empty list"):
            provider_for(server).complete(ChatRequest("auto", "", "x", n_samples=3))
        # the first call, then the retry budget of the first top-up call
        assert len(state["requests"]) == 1 + LIVE_MAX_RETRIES + 1
        assert [r["body"]["n"] for r in state["requests"]] == [3, 1, 1, 1]
    finally:
        server.shutdown()


@pytest.mark.parametrize("endpoint", ["file:///etc", "ftp://127.0.0.1/x", "data:,{}", "127.0.0.1"])
def test_live_provider_rejects_non_http_endpoints(endpoint):
    with pytest.raises(ConfigError, match="QUADKIT_LLM_ENDPOINT"):
        LiveProvider(endpoint, "test-model", "sekrit")


@pytest.mark.parametrize("endpoint", ["HTTPS://127.0.0.1", "Http://127.0.0.1:8080/v1"])
def test_live_provider_accepts_http_endpoints_in_any_case(endpoint):
    assert LiveProvider(endpoint, "test-model", "sekrit").endpoint == endpoint.rstrip("/")


def test_live_provider_posts_through_an_upper_case_scheme(no_backoff):
    server, state = serve([("ok", None)])
    try:
        provider = LiveProvider(f"HTTP://127.0.0.1:{server.server_port}", "test-model", "sekrit")
        assert provider.complete(ChatRequest("auto", "", "x")) == ["reply-1-0"]
        assert len(state["requests"]) == 1
    finally:
        server.shutdown()


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_live_provider_does_not_follow_redirects(no_backoff, status):
    target, target_state = serve([("ok", None)])
    server, state = serve([("redirect", status,
                            f"http://127.0.0.1:{target.server_port}/chat/completions")])
    try:
        with pytest.raises(GatewayError, match=rf"request failed \({status}\): moved"):
            provider_for(server).complete(ChatRequest("auto", "", "x"))
        # the key never leaves for the redirect target
        assert target_state["requests"] == []
        assert len(state["requests"]) == LIVE_MAX_RETRIES + 1
    finally:
        server.shutdown()
        target.shutdown()


def test_live_provider_needs_no_requests_package(no_backoff, monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)
    server, _ = serve([("ok", None)])
    try:
        assert provider_for(server).complete(ChatRequest("auto", "", "x")) == ["reply-1-0"]
    finally:
        server.shutdown()


def test_cli_plan_with_a_malformed_live_reply_exits_2(no_backoff, monkeypatch, tmp_path, capsys):
    server, state = serve([("raw", '{"choices": [{}]}')])
    try:
        monkeypatch.setenv("QUADKIT_LLM_ENDPOINT", f"http://127.0.0.1:{server.server_port}")
        monkeypatch.setenv("QUADKIT_LLM_MODEL", "test-model")
        monkeypatch.setenv("QUADKIT_LLM_API_KEY", "sekrit")
        code = cli.main(["plan", "--provider", "live",
                         "--scene", asset_path("scenes", "band.jsonl"),
                         "--instruction", "Go to the chair", "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'choices[0].message.content' is not a string" in err
        assert len(state["requests"]) == LIVE_MAX_RETRIES + 1
    finally:
        server.shutdown()
