import email.utils
import os
import subprocess
import sys
import time

import pytest

import wotgw
from wotgw import http11


def test_servers_load_no_stdlib_http_modules():
    code = (
        "import sys, wotgw.gateway, wotgw.device, wotgw.socks, wotgw.cli\n"
        "print(sorted(m for m in ('http.server', 'http.client', 'socketserver', 'email.parser')\n"
        "             if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(wotgw.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("second", [0, 951782400, 1700000000, 1792328067, 4102444799])
def test_http_date_matches_email_formatdate(second):
    assert http11.http_date(second) == email.utils.formatdate(second, usegmt=True)


def test_http_date_matches_email_formatdate_now():
    # Kept apart from the table above so that every test id stays the same from run to run.
    second = int(time.time())
    assert http11.http_date(second) == email.utils.formatdate(second, usegmt=True)


def _take_all(pieces):
    """The heads a HeadReader takes from ``pieces`` fed one after another,
    and the bytes left."""
    data = bytearray()
    reader = http11.HeadReader(data)
    heads = []
    for piece in pieces:
        data += piece
        while (head := reader.take()) is not None:
            heads.append(head)
    return heads, bytes(data)


GET_A = b"GET /a HTTP/1.1\r\nHost: gw\r\n\r\n"


class TestHeadReader:
    def test_a_bare_lf_head_then_a_crlf_head_in_one_buffer(self):
        bare = b"GET /a HTTP/1.1\nHost: gw\n\n"
        assert _take_all([bare + GET_A]) == ([bare, GET_A], b"")
        assert http11.parse_head(bare) == http11.parse_head(GET_A)

    def test_blank_lines_before_a_start_line_are_dropped(self):
        assert _take_all([b"\r\n\n\r\n" + GET_A]) == ([GET_A], b"")
        assert _take_all([b"\r", b"\n\r", b"\n", GET_A[:5], GET_A[5:]]) == ([GET_A], b"")
        # a lone CR begins no blank line: it is part of the start line
        assert _take_all([b"\rGET /a HTTP/1.1\r\n\r\n"]) == ([b"\rGET /a HTTP/1.1\r\n\r\n"], b"")

    def test_two_pipelined_heads_in_one_buffer(self):
        get_b = GET_A.replace(b"/a", b"/b")
        assert _take_all([GET_A + get_b + b"GET /c"]) == ([GET_A, get_b], b"GET /c")

    def test_a_head_leaves_its_body_in_the_buffer(self):
        data = bytearray(b"POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}" + GET_A)
        assert http11.HeadReader(data).take() == b"POST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\n"
        assert data == b"{}" + GET_A

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_a_head_in_pieces_is_the_head_taken_whole(self, size):
        head = b"GET /a HTTP/1.1\r\nHost: gw\nX-A: 1\r\n\r\n"
        pieces = [head[i : i + size] for i in range(0, len(head), size)]
        assert _take_all(pieces) == ([head], b"")

    def test_a_head_fed_a_byte_at_a_time_is_searched_once(self, monkeypatch):
        searches = []  # (where each search starts, the buffer's length then)
        head_end = http11._HEAD_END

        class Recording:
            def search(self, data, pos):
                searches.append((pos, len(data)))
                return head_end.search(data, pos)

        monkeypatch.setattr(http11, "_HEAD_END", Recording())
        head = b"GET /a HTTP/1.1\r\n" + b"".join(b"X-%d: v\r\n" % i for i in range(50)) + b"\n"
        heads, _ = _take_all([head[i : i + 1] for i in range(len(head))])
        assert heads == [head]
        assert len(searches) == len(head)
        for (pos, _), (_, searched) in zip(searches[1:], searches):
            # only a line end that a blank line may follow is looked at again
            assert head[pos:searched] in (b"", b"\n", b"\n\r"), (pos, searched)
        assert sum(end - pos for pos, end in searches) < 2 * len(head)

    def test_a_head_of_100_fields_is_taken_whatever_the_pieces(self):
        # 100 fields are allowed; the blank line after them is no 101st
        fields = b"".join(b"X-%d: v\r\n" % i for i in range(100))
        head = b"GET /a HTTP/1.1\r\n" + fields + b"\r\n"
        cut = len(head) - 2  # just after the 100th field's line end
        assert _take_all([head[:cut], head[cut:]]) == ([head], b"")
        with pytest.raises(http11.FramingError) as refused:
            _take_all([head[:cut] + b"X"])  # a 101st field is refused before its line ends
        assert (refused.value.status, str(refused.value)) == (431, "too_many_headers")

    @pytest.mark.parametrize("pieces, status", [
        ([b"GET /" + b"a" * http11.MAX_LINE], 414),
        ([b"GET /" + b"a" * http11.MAX_LINE + b" HTTP/1.1\r\nHost"], 414),
        ([b"GET / HTTP/1.1\r\nX-A: " + b"a" * http11.MAX_LINE], 431),
        ([b"GET / HTTP/1.1\r\n", b"X-A: " + b"a" * 40000, b"a" * 40000], 431),
    ], ids=["start-line", "ended-start-line", "field-line", "field-line-in-pieces"])
    def test_a_line_too_long_is_refused_as_it_arrives(self, pieces, status):
        with pytest.raises(http11.FramingError) as refused:
            _take_all(pieces)
        assert (refused.value.status, str(refused.value)) == (status, "line_too_long")


class TestCheckedHeads:
    METHODS = frozenset(("GET", "POST"))

    def test_a_head_is_kept_on_its_second_sighting(self):
        heads = http11.CheckedHeads()
        first = heads.check(GET_A, self.METHODS)
        assert heads.heads == {}
        second = heads.check(GET_A, self.METHODS)
        assert heads.heads == {GET_A: second} and second == first
        assert heads.check(GET_A, self.METHODS) is second

    def test_a_head_of_4_kib_or_more_is_never_kept(self):
        heads = http11.CheckedHeads()
        for size in (http11.MEMO_HEAD_BYTES - 1, http11.MEMO_HEAD_BYTES):
            head = b"GET /a HTTP/1.1\r\nX-Pad: " + b"p" * (size - 28) + b"\r\n\r\n"
            assert len(head) == size
            for _ in range(3):
                heads.check(head, self.METHODS)
            assert (head in heads.heads) == (size < http11.MEMO_HEAD_BYTES)

    def test_at_most_256_heads_are_kept_the_oldest_dropped_first(self):
        heads = http11.CheckedHeads()
        requests = [b"GET /%d HTTP/1.1\r\n\r\n" % n for n in range(300)]
        for head in requests:
            heads.check(head, self.METHODS)
            heads.check(head, self.METHODS)
            assert len(heads.heads) <= http11.MEMO_HEADS
        assert list(heads.heads) == requests[-http11.MEMO_HEADS :]

    def test_a_head_that_fails_its_check_is_never_kept(self):
        heads = http11.CheckedHeads()
        for _ in range(3):
            with pytest.raises(http11.FramingError):
                heads.check(b"GET /a HTTP/2.0\r\n\r\n", self.METHODS)
        assert heads.heads == {}

    def test_kept_headers_are_read_only(self):
        heads = http11.CheckedHeads()
        for _ in range(2):
            headers = heads.check(GET_A, self.METHODS)[2]
        assert headers.get("HOST") == "gw"
        for mutate in (lambda h: h.__setitem__("host", "x"), lambda h: h.__delitem__("host"),
                       lambda h: h.update(host="x"), lambda h: h.pop("host"), lambda h: h.popitem(),
                       lambda h: h.setdefault("x", "y"), lambda h: h.clear()):
            with pytest.raises(TypeError):
                mutate(headers)
        assert headers == {"host": "gw"}


def test_a_prepared_reply_renders_as_its_fields_do():
    fields = [("Content-Type", "application/json"), ("X-A", "1")]
    prepared = http11.Prepared(fields, b"{}")
    assert list(prepared) == fields
    for keep in (True, False):
        assert http11.render(200, prepared, b"{}", keep, "s/1") == http11.render(200, fields, b"{}", keep, "s/1")
