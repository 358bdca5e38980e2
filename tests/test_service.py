import json
import socket
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import rdladder as rl
from rdladder.service import handle_recommend_request, make_server

from helpers import reference_handle

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
        status, body = handle_recommend_request(request_payload(paper_model, clusters=(6,)), tables)
        assert status == 200
        rec = body["recommendations"][0]
        assert rec["cluster"] == 6
        assert rec["proposed_bitrate"] == pytest.approx(0.429, abs=0.005)
        assert body["savings"]["saving_percent"] > 0

    def test_zero_gops_rejected(self, paper_model, tables):
        payload = request_payload(paper_model)
        payload["gops"] = []
        status, body = handle_recommend_request(payload, tables)
        assert status == 400 and "gops" in body["error"]

    def test_bad_modes_rejected(self, paper_model, tables):
        payload = request_payload(paper_model, modes=("warp",))
        status, body = handle_recommend_request(payload, tables)
        assert status == 400 and "warp" in body["error"]
        payload = request_payload(paper_model, modes=())
        status, body = handle_recommend_request(payload, tables)
        assert status == 400

    def test_bad_target_rejected(self, paper_model, tables):
        payload = request_payload(paper_model, target=-1.0)
        status, _ = handle_recommend_request(payload, tables)
        assert status == 400
        payload["target_bitrate"] = "three"
        status, _ = handle_recommend_request(payload, tables)
        assert status == 400

    @pytest.mark.parametrize(
        "target",
        [0, -1.0, float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="10**400")],
    )
    def test_target_must_be_finite_and_positive(self, paper_model, tables, target):
        payload = request_payload(paper_model)
        payload["target_bitrate"] = target
        assert handle_recommend_request(payload, tables) == (
            400, {"error": "target_bitrate must be finite and > 0"}
        )

    @pytest.mark.parametrize("target", [True, False, "3.0", "three", None, [3.0]])
    def test_target_must_be_a_json_number(self, paper_model, tables, target):
        payload = request_payload(paper_model)
        payload["target_bitrate"] = target
        assert handle_recommend_request(payload, tables) == (
            400, {"error": "target_bitrate must be a number"}
        )

    @pytest.mark.parametrize("coordinate", [True, False, "40", "x", None, [40.0], {"v": 40.0}])
    def test_point_coordinates_must_be_json_numbers(self, paper_model, tables, coordinate):
        for position in (0, 1):
            payload = request_payload(paper_model, clusters=(6, 5))
            payload["gops"][1]["points"][1][position] = coordinate
            status, body = handle_recommend_request(payload, tables)
            assert status == 200
            assert body["recommendations"][0]["cluster"] == 6
            assert body["recommendations"][1] == {
                "gop_id": "g1",
                "error": "gops[1]: each point must be a [bitrate, psnr] pair of numbers",
            }

    def test_integer_too_large_for_a_float_is_infinite(self, paper_model, tables):
        payload = request_payload(paper_model)
        payload["gops"][0]["points"][0][0] = -10**400
        status, body = handle_recommend_request(payload, tables)
        assert status == 200
        assert body["recommendations"][0]["error"] == "bitrate must be finite and > 0, got -inf"

    def test_per_gop_error_does_not_abort_batch(self, paper_model, tables):
        payload = request_payload(paper_model, clusters=(6, 5))
        payload["gops"][1]["tier"] = "1440p"  # not in the model
        status, body = handle_recommend_request(payload, tables)
        assert status == 200
        first, second = body["recommendations"]
        assert first["cluster"] == 6
        assert "error" in second and second["gop_id"] == "g1"
        assert body["savings"]["total_target"] == pytest.approx(3.0)

    def test_no_answered_gop_gives_null_savings(self, paper_model, tables):
        payload = request_payload(paper_model, clusters=(6, 5))
        payload["gops"][0]["points"] = "none"
        payload["gops"][1]["points"][0][0] = -1.0
        status, body = handle_recommend_request(payload, tables)
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
        status, body = handle_recommend_request(payload, tables)
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


class TestLiveServer:
    def test_recommend_round_trip(self, server, paper_model):
        payload = json.dumps(request_payload(paper_model)).encode()
        status, raw = post(server, "/v1/recommend", payload)
        body = json.loads(raw)
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
        port = server.server_address[1]
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n{}")
            reply = b""
            while chunk := sock.recv(4096):  # the server closes after answering
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split(b" ")[1] == b"400"
        assert json.loads(body) == {"error": "Content-Length must be a non-negative integer"}

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
        assert handle_recommend_request(payload, tables) == reference_handle(payload, tables)
