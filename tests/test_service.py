import json
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rdladder as rl
from rdladder import service
from rdladder.decision import FLOAT_KERNEL_LIMIT, MAX_TARGET_BITRATE
from rdladder.service import (
    MAX_BODY_BYTES,
    WORKERS,
    encode_body,
    handle_recommend_request,
    make_server,
)

from helpers import SCRIPTS, document_of, handle_document, package_env, reference_handle

T1080 = rl.tier_from_name("1080p")


def on_curve_points(model_set, cluster, bitrates=(0.5, 2.0, 4.0)):
    model = model_set.model(cluster, T1080)
    return [[float(b), rl.eval_cubic(model, float(b))] for b in bitrates]


def request_payload(model_set, clusters=(6,), target=3.0, modes=("vl",)):
    return {
        "target_bitrate": target,
        "modes": list(modes),
        "gops": [
            {"gop_id": f"g{i}", "tier": "1080p", "points": on_curve_points(model_set, c)}
            for i, c in enumerate(clusters)
        ],
    }


class TestHandleRequest:
    def test_happy_path(self, paper_model, tables):
        status, body = handle_document(request_payload(paper_model, clusters=(6,)), tables)
        assert status == 200
        rec = body["recommendations"][0]
        assert rec["cluster"] == 6
        assert rec["proposed_bitrate"] == pytest.approx(0.429, abs=0.005)
        assert body["savings"]["saving_percent"] > 0

    def test_zero_gops_rejected(self, paper_model, tables):
        payload = request_payload(paper_model)
        payload["gops"] = []
        status, body = handle_document(payload, tables)
        assert status == 400 and "gops" in body["error"]

    def test_bad_modes_rejected(self, paper_model, tables):
        payload = request_payload(paper_model, modes=("warp",))
        status, body = handle_document(payload, tables)
        assert status == 400 and "warp" in body["error"]
        payload = request_payload(paper_model, modes=())
        status, body = handle_document(payload, tables)
        assert status == 400

    @pytest.mark.parametrize("modes, unknown", [
        (["vl,nzs"], "'vl,nzs'"),
        ([" vl "], "' vl '"),
        (["", "vl"], "''"),
        (["VL", "nzs", "trans-size"], "'VL', 'trans-size'"),
    ])
    def test_each_mode_must_be_an_exact_name(self, paper_model, tables, modes, unknown):
        payload = request_payload(paper_model, modes=modes)
        assert handle_document(payload, tables) == (
            400, {"error": f"unknown mode(s): {unknown}"}
        )

    def test_repeated_mode_names_are_accepted(self, paper_model, tables):
        once = handle_document(request_payload(paper_model, modes=("vl",)), tables)
        twice = handle_document(request_payload(paper_model, modes=("vl", "vl")), tables)
        assert once == twice and once[0] == 200

    def test_bad_target_rejected(self, paper_model, tables):
        payload = request_payload(paper_model, target=-1.0)
        status, _ = handle_document(payload, tables)
        assert status == 400
        payload["target_bitrate"] = "three"
        status, _ = handle_document(payload, tables)
        assert status == 400

    @pytest.mark.parametrize(
        "target",
        [0, -1.0, float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="10**400")],
    )
    def test_target_must_be_finite_and_positive(self, paper_model, tables, target):
        payload = request_payload(paper_model)
        payload["target_bitrate"] = target
        assert handle_document(payload, tables) == (
            400, {"error": "target_bitrate must be finite and > 0"}
        )

    def test_target_bound(self, paper_model, tables):
        # Up to the bound, every number of the answer is finite; above it,
        # where a cubic or the totals overflow, the target is answered 400.
        for modes in (["nzs"], ["vl"], ["trans_size", "vl", "nzs"]):
            payload = request_payload(paper_model, clusters=(6, 1), target=MAX_TARGET_BITRATE,
                                      modes=modes)
            status, body = handle_document(payload, tables)
            assert status == 200
            json.loads(json.dumps(body), parse_constant=pytest.fail)
            for target in (float(np.nextafter(MAX_TARGET_BITRATE, np.inf)), 1e120, 1e308):
                payload["target_bitrate"] = target
                assert handle_document(payload, tables) == (
                    400, {"error": "target_bitrate must be at most 1e+06 Mbps"}
                )

    @pytest.mark.parametrize("target", [True, False, "3.0", "three", None, [3.0]])
    def test_target_must_be_a_json_number(self, paper_model, tables, target):
        payload = request_payload(paper_model)
        payload["target_bitrate"] = target
        assert handle_document(payload, tables) == (
            400, {"error": "target_bitrate must be a number"}
        )

    @pytest.mark.parametrize("coordinate", [True, False, "40", "x", None, [40.0], {"v": 40.0}])
    def test_point_coordinates_must_be_json_numbers(self, paper_model, tables, coordinate):
        for position in (0, 1):
            payload = request_payload(paper_model, clusters=(6, 5))
            payload["gops"][1]["points"][1][position] = coordinate
            status, body = handle_document(payload, tables)
            assert status == 200
            assert body["recommendations"][0]["cluster"] == 6
            assert body["recommendations"][1] == {
                "gop_id": "g1",
                "error": "gops[1]: each point must be a [bitrate, psnr] pair of numbers",
            }

    def test_integer_too_large_for_a_float_is_infinite(self, paper_model, tables):
        payload = request_payload(paper_model)
        payload["gops"][0]["points"][0][0] = -10**400
        status, body = handle_document(payload, tables)
        assert status == 200
        assert body["recommendations"][0]["error"] == "bitrate must be finite and > 0, got -inf"

    def test_per_gop_error_does_not_abort_batch(self, paper_model, tables):
        payload = request_payload(paper_model, clusters=(6, 5))
        payload["gops"][1]["tier"] = "1440p"  # not in the model
        status, body = handle_document(payload, tables)
        assert status == 200
        first, second = body["recommendations"]
        assert first["cluster"] == 6
        assert "error" in second and second["gop_id"] == "g1"
        assert body["savings"]["total_target"] == pytest.approx(3.0)

    @pytest.mark.parametrize("point,error", [
        ([True, 30.0], "each point must be a [bitrate, psnr] pair of numbers"),
        (["3.0", 30.0], "each point must be a [bitrate, psnr] pair of numbers"),
        ([3.0, 30.0, 1.0], "each point must be a [bitrate, psnr] pair"),
    ])
    def test_gop_malformed_after_good_points_owns_none(self, paper_model, tables, point, error):
        payload = request_payload(paper_model, clusters=(6, 5, 4))
        payload["gops"][1]["points"][2] = point
        batch = service._observation_batch(payload["gops"])
        assert batch.offsets == [0, 3, 3, 6] and batch.tiers[1] is None
        assert batch.bitrates == [r for gop in payload["gops"][::2] for r, _ in gop["points"]]
        status, body = handle_document(payload, tables)
        assert status == 200
        assert body["recommendations"][1] == {"gop_id": "g1", "error": f"gops[1]: {error}"}
        for index in (0, 2):
            alone = handle_document({**payload, "gops": [payload["gops"][index]]}, tables)[1]
            assert body["recommendations"][index] == alone["recommendations"][0]

    def test_no_answered_gop_gives_null_savings(self, paper_model, tables):
        payload = request_payload(paper_model, clusters=(6, 5))
        payload["gops"][0]["points"] = "none"
        payload["gops"][1]["points"][0][0] = -1.0
        status, body = handle_document(payload, tables)
        assert status == 200
        assert body == {
            "recommendations": [
                {"gop_id": "g0", "error": "gops[0]: points must be a non-empty list"},
                {"gop_id": "g1", "error": "bitrate must be finite and > 0, got -1.0"},
            ],
            "savings": None,
        }

    def test_response_order_matches_request(self, paper_model, tables):
        payload = request_payload(paper_model, clusters=(5, 6, 1))
        status, body = handle_document(payload, tables)
        assert status == 200
        assert [r["gop_id"] for r in body["recommendations"]] == ["g0", "g1", "g2"]
        assert [r["cluster"] for r in body["recommendations"]] == [5, 6, 1]


@pytest.fixture()
def server(paper_model):
    srv = make_server(paper_model, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def post(server, path, data: bytes, headers=None):
    port = server.server_address[1]
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        headers=headers or {"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def raw_post(server, content_length: bytes | None, body: bytes) -> tuple[bytes, bytes]:
    """POST ``body`` to the recommend path under the given Content-Length
    header, or under none; returns the answer's status code and body."""
    port = server.server_address[1]
    length = b"" if content_length is None else b"Content-Length: " + content_length + b"\r\n"
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\n" + length + b"\r\n" + body)
        reply = b""
        while chunk := sock.recv(65536):  # the server closes after answering
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].split(b" ")[1], body


class TestLiveServer:
    def test_recommend_round_trip(self, server, paper_model):
        payload = json.dumps(request_payload(paper_model)).encode()
        status, raw = post(server, "/v1/recommend", payload)
        body = json.loads(raw, parse_constant=pytest.fail)  # strict JSON
        assert status == 200
        assert body["recommendations"][0]["proposed_bitrate"] == pytest.approx(0.429, abs=0.005)

    def test_unknown_path_is_structured_404(self, server):
        status, raw = post(server, "/v2/other", b"{}")
        assert status == 404
        assert "error" in json.loads(raw)

    def test_invalid_json_is_structured_400(self, server):
        status, raw = post(server, "/v1/recommend", b"{not json")
        assert status == 400
        assert "JSON" in json.loads(raw)["error"]

    def test_negative_content_length_is_answered_without_reading(self, server):
        for length in (b"-1", b"1_0", b"+5"):  # int() would read "1_0" as 10 and "+5" as 5
            status, body = raw_post(server, length, b"{}")
            assert status == b"400", length
            assert json.loads(body) == {"error": "Content-Length must be a non-negative integer"}

    def test_missing_content_length_is_411(self, server):
        status, body = raw_post(server, None, b"")
        assert status == b"411"
        assert json.loads(body) == {"error": "Content-Length required"}

    @pytest.mark.parametrize("length", [
        MAX_BODY_BYTES + 1,
        1000000000000000,  # read() would need more memory than there is
        99999999999999999999,  # too large for read()'s size argument
    ])
    def test_oversized_content_length_is_413_without_reading(self, server, length):
        status, body = raw_post(server, str(length).encode(), b"")
        assert status == b"413"
        assert json.loads(body) == {"error": "request body too large"}

    def test_body_of_exactly_the_cap_is_read(self, server, paper_model):
        payload = json.dumps(request_payload(paper_model)).encode()
        payload += b" " * (MAX_BODY_BYTES - len(payload))
        status, body = raw_post(server, str(len(payload)).encode(), payload)
        assert status == b"200"
        assert json.loads(body)["recommendations"][0]["cluster"] == 6

    def test_get_is_structured_405(self, server):
        port = server.server_address[1]
        try:
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/v1/recommend", timeout=10) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status, raw = exc.code, exc.read()
        assert status == 405
        assert "POST" in json.loads(raw)["error"]

    @pytest.mark.parametrize("gop_id", ["NaN", "Infinity", "1e400", "[NaN]"])
    def test_non_string_gop_id_is_not_echoed(self, server, paper_model, gop_id):
        # json reads NaN, Infinity and 1e400 as floats that JSON cannot write.
        good = json.dumps(request_payload(paper_model)["gops"][0])
        payload = ('{"target_bitrate": 3.0, "modes": ["vl"], "gops": [%s, {"gop_id": %s}]}'
                   % (good, gop_id)).encode()
        status, raw = post(server, "/v1/recommend", payload)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        body = json.loads(raw, parse_constant=reject)
        assert status == 200
        assert body["recommendations"][1] == {
            "gop_id": "", "error": "gops[1]: gop_id must be a non-empty string"}
        assert body["recommendations"][0]["cluster"] == 6

    def test_benchmark_shaped_batch_is_served_as_json_dumps(self, server, paper_model, tables):
        payload = benchmark_shaped_payload(paper_model, 15, 1000)
        status, raw = post(server, "/v1/recommend", json.dumps(payload).encode())
        document = document_of(*handle_recommend_request(payload, tables))
        assert status == 200 and len(document["recommendations"]) == 1000
        assert raw == json.dumps(document).encode()

    def test_concurrent_identical_requests_get_identical_answers(self, server, paper_model):
        payload = json.dumps(request_payload(paper_model, clusters=(6, 5, 4))).encode()

        def call(_):
            return post(server, "/v1/recommend", payload)

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(call, range(100)))
        statuses = {status for status, _ in results}
        bodies = {raw for _, raw in results}
        assert statuses == {200}
        assert len(bodies) == 1


TIMEOUT_S = 0.5  # connection timeout of the pooled fixture's server


def thread_count_reaching(count: int) -> int:
    """The thread count once it equals ``count``, or after 5 s."""
    deadline = time.monotonic() + 5
    while threading.active_count() != count and time.monotonic() < deadline:
        time.sleep(0.01)
    return threading.active_count()


@pytest.fixture()
def pooled(paper_model, monkeypatch):
    """A running server whose connections time out after TIMEOUT_S, with
    the thread that serves it and the thread count before it started."""
    monkeypatch.setattr(service, "CONNECTION_TIMEOUT_S", TIMEOUT_S)
    before = threading.active_count()
    srv = make_server(paper_model, "127.0.0.1", 0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    assert thread_count_reaching(before + 1 + WORKERS) == before + 1 + WORKERS
    yield srv, thread, before
    stopper = threading.Thread(target=srv.shutdown, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    thread.join(timeout=5)
    srv.server_close()


class TestWorkerPool:
    def test_thread_count_is_fixed_while_connections_are_held(self, pooled):
        srv, _, before = pooled
        port = srv.server_address[1]
        held = [socket.create_connection(("127.0.0.1", port), timeout=5)
                for _ in range(WORKERS + 4)]
        try:
            time.sleep(TIMEOUT_S / 2)
            assert threading.active_count() == before + 1 + WORKERS
        finally:
            for conn in held:
                conn.close()

    def test_stalled_client_is_cut_off_while_others_are_answered(self, pooled, paper_model):
        srv, _, _ = pooled
        payload = json.dumps(request_payload(paper_model)).encode()
        with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=5) as stalled:
            stalled.sendall(b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\n")  # headers never end
            start = time.monotonic()
            status, _ = post(srv, "/v1/recommend", payload)
            answered = time.monotonic() - start
            assert stalled.recv(1024) == b""
            cut_off = time.monotonic() - start
        assert status == 200 and answered < TIMEOUT_S
        assert cut_off < TIMEOUT_S + 1.0

    def test_trickling_client_is_cut_off_at_the_request_deadline(self, pooled, paper_model):
        # One byte every 0.3 s never lets a single read wait TIMEOUT_S, but
        # the whole request has to arrive within TIMEOUT_S.
        srv, _, _ = pooled
        payload = json.dumps(request_payload(paper_model)).encode()
        request = (b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
                   % len(payload)) + payload
        stop = threading.Event()
        with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=5) as trickler:
            def trickle():
                for byte in request:
                    try:
                        trickler.send(bytes([byte]))
                    except OSError:
                        return
                    if stop.wait(0.3):
                        return

            sender = threading.Thread(target=trickle, daemon=True)
            start = time.monotonic()
            sender.start()
            try:
                status, _ = post(srv, "/v1/recommend", payload)
                answered = time.monotonic() - start
                try:
                    reply = trickler.recv(1024)
                except ConnectionResetError:
                    reply = b""
                cut_off = time.monotonic() - start
            finally:
                stop.set()
                sender.join(timeout=5)
        assert not sender.is_alive()
        assert status == 200 and answered < TIMEOUT_S
        assert reply == b"" and cut_off < TIMEOUT_S + 0.5

    def test_shutdown_of_an_idle_server_is_prompt_and_ends_every_worker(self, pooled):
        srv, thread, before = pooled
        stopper = threading.Thread(target=srv.shutdown, daemon=True)
        start = time.monotonic()
        stopper.start()
        thread.join(timeout=1)
        stopper.join(timeout=1)
        assert not thread.is_alive() and not stopper.is_alive()
        assert time.monotonic() - start < 1.0
        srv.server_close()
        assert threading.active_count() == before

    def test_stop_asked_before_serving_ends_serve_forever_at_once(self, paper_model):
        # A signal handler may call stop() while serve_forever is starting.
        before = threading.active_count()
        srv = make_server(paper_model, "127.0.0.1", 0)
        srv.stop()
        srv.stop()  # a second signal changes nothing
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        thread.join(timeout=2)
        srv.server_close()
        assert not thread.is_alive()
        assert threading.active_count() == before

    def test_do_post_is_looked_up_on_the_handler_class_for_every_request(self, pooled,
                                                                         paper_model, monkeypatch):
        # A tracer wraps RequestHandlerClass.do_POST after make_server returns.
        srv, _, _ = pooled
        handler = srv.RequestHandlerClass
        original, calls = handler.do_POST, []

        def counting(self):
            calls.append(self.path)
            return original(self)

        monkeypatch.setattr(handler, "do_POST", counting)
        payload = json.dumps(request_payload(paper_model)).encode()
        statuses = [post(srv, "/v1/recommend", payload)[0] for _ in range(3)]
        statuses.append(post(srv, "/v2/other", b"{}")[0])
        assert statuses == [200, 200, 200, 404]
        assert calls == ["/v1/recommend"] * 3 + ["/v2/other"]


def raw_exchange(port: int, data: bytes) -> bytes:
    """Send ``data`` on a new connection and return all it gets back
    before the server closes it."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError):  # answered before it all went out
            pass
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:  # closed with bytes of the request unread
            pass
    return reply


def status_and_document(reply: bytes) -> tuple[bytes, dict]:
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *fields = head.split(b"\r\n")
    assert status_line.startswith(b"HTTP/1.0 ")
    assert b"Content-Type: application/json" in fields
    assert b"Content-Length: %d" % len(body) in fields
    return status_line.split(b" ")[1], json.loads(body)


ONLY_POST = {"error": "only POST /v1/recommend is supported"}


class TestProtocolFaults:
    """Whatever a client sends, it gets a JSON error document or a plain
    close, and the server keeps its workers and answers the next request."""

    @pytest.mark.parametrize("request_bytes, status, document", [
        (b"GARBAGE\r\n\r\n", b"400", {"error": "malformed request line"}),
        (b"POST /v1/recommend\r\n\r\n", b"400", {"error": "malformed request line"}),
        (b"POST /v1/recommend FTP/1.0\r\n\r\n", b"400", {"error": "malformed request line"}),
        (b"\r\n\r\n", b"400", {"error": "malformed request line"}),
        (b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\nno colon here\r\n\r\n", b"400",
         {"error": "malformed header line"}),
        (b"POST /v1/recommend HTTP/1.1\r\nX-Pad: " + b"a" * 65536 + b"\r\n\r\n", b"431",
         {"error": "request head too large"}),
        (b"POST /v1/recommend HTTP/1.1\r\nX-Pad: " + b"a" * 100_000, b"431",
         {"error": "request head too large"}),
        (b"PUT /v1/recommend HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", b"405", ONLY_POST),
        (b"HEAD /v1/recommend HTTP/1.1\r\n\r\n", b"405", ONLY_POST),
        (b"DELETE /v2/other HTTP/1.0\r\n\r\n", b"405", ONLY_POST),
        (b"POST /v1/recommend HTTP/1.1\r\nContent-Length: x\r\n\r\n", b"400",
         {"error": "Content-Length must be a non-negative integer"}),
    ])
    def test_fault_gets_a_json_error(self, pooled, paper_model, request_bytes, status, document):
        srv, _, before = pooled
        reply = raw_exchange(srv.server_address[1], request_bytes)
        assert status_and_document(reply) == (status, document)
        self.assert_still_serving(srv, before, paper_model)

    def test_body_nested_too_deeply_gets_a_json_400(self, pooled, paper_model):
        # 100 kB, far under the body cap, but too deep for the JSON decoder.
        srv, _, before = pooled
        reply = raw_exchange(srv.server_address[1],
                             b"POST /v1/recommend HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"
                             + b"[" * 100_000)
        assert status_and_document(reply) == (b"400", {"error": "request body must be valid JSON"})
        self.assert_still_serving(srv, before, paper_model)

    def test_client_that_sends_nothing_is_closed(self, pooled, paper_model):
        srv, _, before = pooled
        assert raw_exchange(srv.server_address[1], b"") == b""
        with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=5) as sock:
            sock.shutdown(socket.SHUT_WR)  # closes its side without a byte
            assert sock.recv(1024) == b""
        self.assert_still_serving(srv, before, paper_model)

    def test_head_cut_short_is_closed(self, pooled, paper_model):
        srv, _, before = pooled
        with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=5) as sock:
            sock.sendall(b"POST /v1/recommend HTTP/1.1\r\nContent-Le")
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(1024) == b""
        self.assert_still_serving(srv, before, paper_model)

    def test_handler_fault_is_a_json_500(self, pooled, paper_model, monkeypatch):
        srv, _, before = pooled

        def broken(payload, tables):
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "handle_recommend_request", broken)
        payload = json.dumps(request_payload(paper_model)).encode()
        reply = raw_exchange(srv.server_address[1],
                             b"POST /v1/recommend HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
                             % len(payload) + payload)
        assert status_and_document(reply) == (b"500", {"error": "internal error: boom"})
        monkeypatch.undo()
        self.assert_still_serving(srv, before, paper_model)

    def test_fault_outside_the_handler_ends_no_worker(self, pooled, paper_model, monkeypatch):
        # Each worker loses its connection to the fault and goes on serving.
        srv, _, before = pooled

        def broken(body):
            raise RuntimeError("cannot encode")

        monkeypatch.setattr(service, "encode_body", broken)
        monkeypatch.setattr(service.sys, "excepthook", lambda *exc_info: None)
        for _ in range(2 * WORKERS):
            assert raw_exchange(srv.server_address[1], b"GET / HTTP/1.0\r\n\r\n") == b""
        monkeypatch.undo()
        self.assert_still_serving(srv, before, paper_model)

    def test_lf_line_ends_and_a_body_sent_after_the_head(self, pooled, paper_model):
        srv, _, before = pooled
        payload = json.dumps(request_payload(paper_model)).encode()
        with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=5) as sock:
            sock.sendall(b"POST /v1/recommend HTTP/1.0\ncontent-length:%d\n\n" % len(payload))
            time.sleep(0.05)
            for start in range(0, len(payload), 50):
                sock.sendall(payload[start:start + 50])
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        status, document = status_and_document(reply)
        assert status == b"200" and document["recommendations"][0]["cluster"] == 6
        self.assert_still_serving(srv, before, paper_model)

    @staticmethod
    def assert_still_serving(srv, before, paper_model):
        assert thread_count_reaching(before + 1 + WORKERS) == before + 1 + WORKERS
        status, raw = post(srv, "/v1/recommend", json.dumps(request_payload(paper_model)).encode())
        assert status == 200 and json.loads(raw)["recommendations"][0]["cluster"] == 6


def stop_with_sigterm(proc) -> tuple[int, float, str]:
    """SIGTERM a running ``serve``; returns its exit code, the seconds it
    took to exit and its standard error."""
    start = time.monotonic()
    proc.send_signal(signal.SIGTERM)
    code = proc.wait(timeout=2)
    return code, time.monotonic() - start, proc.stderr.read().decode()


@pytest.fixture()
def serve_command():
    """A ``serve --paper-model`` process and the port it printed."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "rdladder", "serve", "--paper-model", "--bind", "127.0.0.1:0"],
        env=package_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        line = proc.stdout.readline().decode() if ready else ""
        port = re.fullmatch(r"advisory endpoint on http://127\.0\.0\.1:(\d+)/v1/recommend\n",
                            line).group(1)
        yield proc, port
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_serve_command_answers_then_exits_0_on_sigterm(serve_command, paper_model):
    proc, port = serve_command
    request = urllib.request.Request(f"http://127.0.0.1:{port}/v1/recommend",
                                     data=json.dumps(request_payload(paper_model)).encode())
    with urllib.request.urlopen(request, timeout=10) as resp:
        assert resp.status == 200
    code, seconds, log = stop_with_sigterm(proc)
    assert code == 0 and seconds < 2.0
    assert re.fullmatch(r'127\.0\.0\.1 - - \[[^]]+\] "POST /v1/recommend HTTP/1\.1" 200 -\n', log)


def test_serve_command_exits_0_on_sigterm_while_starting(serve_command):
    # The address is printed before the workers start, so the signal lands
    # while they are being started.
    proc, _ = serve_command
    code, seconds, log = stop_with_sigterm(proc)
    assert code == 0 and seconds < 2.0
    assert log == ""


def test_serve_cpu_script():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "serve_cpu.py"), "--requests", "50", "--gops", "1",
         "--seed", "1"],
        env=package_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"requests 50 gops_per_request 1 seed 1\n"
                        r"client_p50_ms \d+\.\d{3}\n"
                        r"server_cpu_ms_per_request \d+\.\d{3}\n", done.stdout), done.stdout


# Numbers a request may carry: integers, values the batch must reject
# (NaN, infinities, <= 0) and a PSNR outside (0, 100].
NUMBERS = st.one_of(
    st.floats(0.05, 60.0),
    st.integers(-2, 60),
    st.sampled_from([0.0, -1.0, float("nan"), float("inf"), -float("inf"), 400.0]),
)
GOOD_POINTS = st.tuples(st.floats(0.1, 8.0), st.floats(20.0, 60.0)).map(list)
NUMBER_POINTS = st.one_of(
    GOOD_POINTS,
    st.lists(NUMBERS, min_size=2, max_size=2),
    st.tuples(st.floats(0.1, 8.0), st.sampled_from([float("nan"), -float("inf")])).map(list),
    st.tuples(st.sampled_from([0, -1.0, float("nan"), float("inf")]), st.floats(20.0, 60.0)).map(list),
)
POINT_LISTS = st.one_of(
    st.lists(GOOD_POINTS, min_size=1, max_size=5),
    st.lists(NUMBER_POINTS, min_size=1, max_size=4),
    st.lists(st.one_of(NUMBER_POINTS, st.lists(NUMBERS, max_size=3), st.just("ab")), max_size=3),
    st.sampled_from(["none", 5, None, {}]),
)
WELL_FORMED = st.fixed_dictionaries(
    {"gop_id": st.text("gx0", min_size=1, max_size=3),
     "tier": st.sampled_from(["1080p", "720p", "540p", "360p", "1080p", "1440p", "0720p"]),
     "points": POINT_LISTS},
)
GOP_ENTRIES = st.one_of(
    WELL_FORMED,
    WELL_FORMED,
    st.fixed_dictionaries(
        {},
        optional={
            "gop_id": st.one_of(st.text("gx", max_size=2), st.integers(), st.none(),
                                st.just(["g"])),
            "tier": st.sampled_from(["1080p", "720p", "1440p", "0720p", "foo", 720, None]),
            "points": POINT_LISTS,
        },
    ),
    st.sampled_from([5, "x", None, [1, 2], 2.5]),
)
MODE_LISTS = [list(m) for k in (1, 2, 3)
              for m in itertools.combinations(("trans_size", "vl", "nzs"), k)]


class TestHandleRequestMatchesReference:
    """The one-pass handler against the parse-then-merge reference, on
    payloads that mix well-formed and malformed GOPs. Only the documented
    changes are left out: non-number coordinates and invalid targets."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        target=st.one_of(st.floats(0.1, 8.0), st.integers(1, 8)),
        modes=st.sampled_from(MODE_LISTS + [[], ["warp"]]),
        gops=st.lists(GOP_ENTRIES, min_size=1, max_size=8),
    )
    def test_status_and_body(self, tables, target, modes, gops):
        payload = {"target_bitrate": target, "modes": modes, "gops": gops}
        assert handle_document(payload, tables) == reference_handle(payload, tables)


class TestEncodeBodyMatchesJsonDumps:
    """The advice encoder against ``json.dumps`` of the advice document,
    and error bodies against ``json.dumps`` of themselves, on the
    reference test's payloads, which mix well-formed and malformed GOPs."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        target=st.one_of(st.floats(0.1, 8.0), st.integers(1, 8)),
        modes=st.sampled_from(MODE_LISTS + [[], ["warp"]]),
        gops=st.lists(GOP_ENTRIES, min_size=1, max_size=8),
    )
    def test_bytes(self, tables, target, modes, gops):
        payload = {"target_bitrate": target, "modes": modes, "gops": gops}
        status, body = handle_recommend_request(payload, tables)
        assert encode_body(body) == json.dumps(document_of(status, body)).encode()


# GOP ids that repeat, need escaping or are not ASCII.
GOP_IDS = st.one_of(
    st.sampled_from(["g", "g", "é", "gop \"7\"", "back\\slash", "\u2028", "\U0001f600", "\x00\n"]),
    st.text(min_size=1, max_size=4),
)
# Coordinates a well-formed batch may carry, on the curves' range and off it.
COORDINATES = st.one_of(
    st.floats(0.1, 8.0),
    st.floats(20.0, 60.0),
    st.integers(1, 60),
    st.just(2**53 + 1),  # rounds to 2**53 as a float
)
PAIRS = st.tuples(COORDINATES, COORDINATES)
WELL_FORMED_GOP = st.fixed_dictionaries({
    "gop_id": GOP_IDS,
    "tier": st.sampled_from(["1080p", "720p", "540p", "360p"]),
    "points": st.lists(st.one_of(PAIRS.map(list), PAIRS), min_size=1, max_size=5),
})
WELL_FORMED_GOPS = st.lists(WELL_FORMED_GOP, min_size=1, max_size=64)
# Well-formed GOPs the batch cannot answer: a tier the model lacks, or a
# point with a bitrate <= 0 or a value that is not finite.
UNANSWERED_GOP = st.one_of(
    st.fixed_dictionaries({
        "gop_id": GOP_IDS,
        "tier": st.sampled_from(["1440p", "2160p"]),
        "points": st.lists(PAIRS.map(list), min_size=1, max_size=3),
    }),
    st.fixed_dictionaries({
        "gop_id": GOP_IDS,
        "tier": st.sampled_from(["1080p", "720p", "540p", "360p"]),
        "points": st.lists(st.sampled_from([[0, 30.0], [-1.0, 30.0], [1.0, float("nan")],
                                            [float("inf"), 40.0], [2.0, -float("inf")]]),
                           min_size=1, max_size=3),
    }),
)
# Coordinates that are not floats: a bool is not a number and makes its
# GOP malformed; an integer too large for a float reads as infinite.
NOT_BULK = st.sampled_from([True, False, 10**400, -10**400])


class TestWellFormedBatches:
    """Batches in which every GOP is well formed against the reference,
    as they are and with one coordinate spoiled: a bool gives its GOP an
    error, and an integer too large for a float reads as infinite."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        target=st.one_of(st.floats(0.1, 8.0), st.integers(1, 8)),
        modes=st.sampled_from(MODE_LISTS),
        gops=WELL_FORMED_GOPS,
        spoil=st.one_of(st.none(), st.tuples(st.integers(0), st.integers(0), st.integers(0, 1),
                                             NOT_BULK)),
    )
    def test_status_body_and_bytes(self, tables, target, modes, gops, spoil):
        if spoil is not None:
            g, p, position, value = spoil
            points = gops[g % len(gops)]["points"]
            point = list(points[p % len(points)])
            point[position] = value
            points[p % len(points)] = point
        assert_encoded_as_reference({"target_bitrate": target, "modes": modes, "gops": gops}, tables)


def assert_encoded_as_reference(payload, tables) -> dict:
    """Asserts that the handler answers ``payload`` as the reference does,
    in the bytes of ``json.dumps`` of its document; returns the document."""
    status, body = handle_recommend_request(payload, tables)
    document = document_of(status, body)
    assert (status, document) == reference_handle(payload, tables)
    assert encode_body(body) == json.dumps(document).encode()
    return document


class TestLargeAndUnansweredBatches:
    """The advice encoder against ``json.dumps`` of the advice document,
    and the document against the reference, on batches that the numpy
    pass assigns and on batches in which no GOP is answered."""

    @settings(max_examples=30, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                                     HealthCheck.large_base_example])
    @given(
        target=st.floats(0.1, 8.0),
        modes=st.sampled_from(MODE_LISTS),
        gops=st.lists(st.one_of(WELL_FORMED_GOP, WELL_FORMED_GOP, WELL_FORMED_GOP, UNANSWERED_GOP),
                      min_size=FLOAT_KERNEL_LIMIT // 6 + 1, max_size=160),
    )
    def test_above_the_float_kernel_limit(self, paper_model, tables, target, modes, gops):
        assert sum(len(gop["points"]) for gop in gops) * paper_model.k >= FLOAT_KERNEL_LIMIT
        assert_encoded_as_reference({"target_bitrate": target, "modes": modes, "gops": gops}, tables)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        target=st.floats(0.1, 8.0),
        modes=st.sampled_from(MODE_LISTS),
        gops=st.lists(UNANSWERED_GOP, min_size=1, max_size=60),
    )
    def test_no_answered_gop(self, tables, target, modes, gops):
        document = assert_encoded_as_reference(
            {"target_bitrate": target, "modes": modes, "gops": gops}, tables)
        assert document["savings"] is None
        assert all(set(entry) == {"gop_id", "error"} for entry in document["recommendations"])


def benchmark_shaped_payload(model_set, seed: int, n_gops: int) -> dict:
    """``n_gops`` GOPs of a random cluster and tier, with 4 points each,
    one in each quarter of 0.2-6 Mbps, on the cubic plus uniform noise of
    at most 0.1 dB; one random target and all three modes."""
    rng = np.random.default_rng(seed)
    tiers = ["360p", "540p", "720p", "1080p"]
    gops = []
    for i in range(n_gops):
        cluster = int(rng.integers(1, model_set.k + 1))
        tier = tiers[int(rng.integers(len(tiers)))]
        model = model_set.model(cluster, rl.tier_from_name(tier))
        bitrates = 0.2 + (np.arange(4) + rng.uniform(size=4)) / 4 * 5.8
        psnr = rl.eval_cubic(model, bitrates) + rng.uniform(-0.1, 0.1, size=4)
        gops.append({"gop_id": f"q{seed}-{i}", "tier": tier,
                     "points": [[float(b), float(q)] for b, q in zip(bitrates, psnr)]})
    target = float(rng.uniform(0.2, 6.0))
    return {"target_bitrate": target, "modes": ["trans_size", "vl", "nzs"], "gops": gops}


class TestEncodeBody:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_shaped_batch(self, paper_model, tables, seed):
        payload = benchmark_shaped_payload(paper_model, seed, 1000)
        status, advice = handle_recommend_request(payload, tables)
        document = document_of(status, advice)
        assert all("error" not in e for e in document["recommendations"])
        assert encode_body(advice) == json.dumps(document).encode()

    def test_each_decision_is_encoded_once(self, paper_model, tables, monkeypatch):
        payload = benchmark_shaped_payload(paper_model, 4, 1000)
        _, advice = handle_recommend_request(payload, tables)
        document = advice.document()
        decisions = {(entry["cluster"], gop["tier"])
                     for entry, gop in zip(document["recommendations"], payload["gops"])}
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda obj: calls.append(obj) or dumps(obj))
        data = encode_body(advice)
        monkeypatch.undo()
        assert data == json.dumps(document).encode()
        assert len(calls) == len(decisions) + 1  # and the savings

    def test_all_error_batch(self, paper_model, tables):
        payload = request_payload(paper_model, clusters=(6, 5, 4))
        payload["gops"][0]["points"][0][0] = -1.0
        payload["gops"][1]["tier"] = "1440p"
        payload["gops"][2]["points"] = []
        status, advice = handle_recommend_request(payload, tables)
        document = document_of(status, advice)
        assert document["savings"] is None
        assert all(set(e) == {"gop_id", "error"} for e in document["recommendations"])
        assert encode_body(advice) == json.dumps(document).encode()

    def test_gop_ids_that_need_escaping(self, paper_model, tables):
        payload = request_payload(paper_model, clusters=(6, 6, 5, 4, 4))
        gop_ids = ['say "hi"', "back\\slash", "line\u2028sep", "tab\tnul\x00", "caf\u00e9 \U0001f600"]
        for entry, gop_id in zip(payload["gops"], gop_ids):
            entry["gop_id"] = gop_id
        status, advice = handle_recommend_request(payload, tables)
        document = document_of(status, advice)
        data = encode_body(advice)
        assert data == json.dumps(document).encode()
        assert b'"say \\"hi\\""' in data and b"line\\u2028sep" in data
        assert b'"tab\\tnul\\u0000"' in data and b'"caf\\u00e9 \\ud83d\\ude00"' in data

    @pytest.mark.parametrize("body", [
        {"error": "gops must be a non-empty list"},
        {"savings": None, "recommendations": []},
    ])
    def test_bodies_not_from_advise(self, body):
        assert encode_body(body) == json.dumps(body).encode()
