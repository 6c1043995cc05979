"""Tests for the HTTP transfer substrate."""

import pytest

from repro.files.payload import Blob
from repro.transfer.http import (HEAD_MEMO_SIZE, HttpError, HttpRequest,
                                 HttpResponse, gnutella_index_request,
                                 gnutella_urn_request, openft_request,
                                 received_request, received_response)
from repro.transfer.server import busy, not_found, parse_target, serve_request

BLOB = Blob(content_key="t", extension="exe", size=58_368)


class TestRequestCodec:
    def test_roundtrip(self):
        request = gnutella_urn_request("urn:sha1:ABCDEF")
        decoded = HttpRequest.decode(request.encode())
        assert decoded.method == "GET"
        assert decoded.target == "/uri-res/N2R?urn:sha1:ABCDEF"
        assert decoded.header("user-agent").startswith("LimeWire")

    def test_index_request_target(self):
        request = gnutella_index_request(42, "setup.exe")
        assert request.target == "/get/42/setup.exe"

    def test_openft_request_target(self):
        request = openft_request("ab" * 16)
        assert request.target == f"/?md5={'ab' * 16}"

    def test_malformed_request_line(self):
        with pytest.raises(HttpError):
            HttpRequest.decode(b"GETnothing\r\n\r\n")

    def test_missing_terminator(self):
        with pytest.raises(HttpError):
            HttpRequest.decode(b"GET / HTTP/1.1\r\n")


class TestResponseCodec:
    def test_roundtrip(self):
        response = HttpResponse(status=200, reason="OK",
                                headers={"Content-Length": "100"})
        decoded = HttpResponse.decode(response.encode())
        assert decoded.ok
        assert decoded.content_length() == 100

    def test_bad_status(self):
        with pytest.raises(HttpError):
            HttpResponse.decode(b"HTTP/1.1 abc OK\r\n\r\n")

    def test_bad_content_length(self):
        response = HttpResponse(status=200, reason="OK",
                                headers={"Content-Length": "abc"})
        with pytest.raises(HttpError):
            HttpResponse.decode(response.encode()).content_length()

    def test_no_content_length(self):
        assert HttpResponse(status=404, reason="NF").content_length() is None


class TestParseTarget:
    def test_urn(self):
        request = gnutella_urn_request("urn:sha1:XYZ")
        assert parse_target(request) == ("urn", "urn:sha1:XYZ")

    def test_index(self):
        request = gnutella_index_request(7, "a%20b.exe")
        assert parse_target(request) == ("index", "a b.exe")

    def test_md5(self):
        request = openft_request("cd" * 16)
        assert parse_target(request) == ("md5", "cd" * 16)

    def test_unknown(self):
        with pytest.raises(HttpError):
            parse_target(HttpRequest(method="GET", target="/index.html"))

    def test_malformed_get(self):
        with pytest.raises(HttpError):
            parse_target(HttpRequest(method="GET", target="/get/abc"))


class TestServeRequest:
    def test_success_gnutella(self):
        request = gnutella_urn_request(BLOB.sha1_urn())
        response, blob = serve_request(
            request, resolve=lambda key: BLOB if key == BLOB.sha1_urn()
            else None)
        assert response.ok
        assert blob is BLOB
        assert response.content_length() == BLOB.size
        assert response.header("X-Gnutella-Content-URN") == BLOB.sha1_urn()

    def test_success_openft_hash_header(self):
        request = openft_request(BLOB.md5_hex())
        response, blob = serve_request(request, resolve=lambda key: BLOB)
        assert response.ok
        assert response.header("X-OpenftHash") == f"md5:{BLOB.md5_hex()}"

    def test_not_found(self):
        request = gnutella_urn_request("urn:sha1:MISSING")
        response, blob = serve_request(request, resolve=lambda key: None)
        assert response.status == 404
        assert blob is None

    def test_busy(self):
        request = gnutella_urn_request(BLOB.sha1_urn())
        response, blob = serve_request(request, resolve=lambda key: BLOB,
                                       is_busy=True)
        assert response.status == 503
        assert blob is None
        assert response.header("Retry-After")

    def test_bad_method(self):
        request = HttpRequest(method="POST", target="/uri-res/N2R?x")
        response, _ = serve_request(request, resolve=lambda key: None)
        assert response.status == 405

    def test_bad_target(self):
        request = HttpRequest(method="GET", target="/favicon.ico")
        response, _ = serve_request(request, resolve=lambda key: None)
        assert response.status == 400

    def test_helpers(self):
        assert not_found().status == 404
        assert busy(30).header("Retry-After") == "30"


class TestHeadMemos:
    @pytest.mark.parametrize("request_for, key", [
        (gnutella_urn_request, BLOB.sha1_urn()),
        (openft_request, BLOB.md5_hex())])
    def test_request_is_the_codec_round_trip(self, request_for, key):
        request = received_request(request_for, key)
        assert request == HttpRequest.decode(request_for(key).encode())
        assert received_request(request_for, key) is request

    def test_request_functions_do_not_share_entries(self):
        key = BLOB.md5_hex()
        assert (received_request(gnutella_urn_request, key).target
                != received_request(openft_request, key).target)

    @pytest.mark.parametrize("head", [
        busy(), not_found(),
        HttpResponse(status=200, reason="OK",
                     headers={"Content-Length": str(BLOB.size)})])
    def test_response_is_the_decode(self, head):
        raw = head.encode()
        response = received_response(raw)
        assert response == HttpResponse.decode(raw) == head
        assert received_response(bytes(bytearray(raw))) is response

    def test_malformed_response_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(HttpError):
                received_response(b"HTTP/1.1 abc Broken\r\n\r\n")

    def test_memos_are_bounded(self):
        for memo in (received_request, received_response):
            assert memo.cache_info().maxsize == HEAD_MEMO_SIZE

    @pytest.mark.parametrize("resolved, is_busy, status", [
        (BLOB, False, 200), (None, False, 404), (BLOB, True, 503)])
    def test_serving_leaves_a_shared_request_alone(self, resolved, is_busy,
                                                   status):
        request = received_request(gnutella_urn_request, BLOB.sha1_urn())
        before = dict(request.headers)
        response, _ = serve_request(request, resolve=lambda key: resolved,
                                    is_busy=is_busy)
        assert response.status == status
        assert request.headers == before
        assert received_request(gnutella_urn_request,
                                BLOB.sha1_urn()) == HttpRequest.decode(
            gnutella_urn_request(BLOB.sha1_urn()).encode())
