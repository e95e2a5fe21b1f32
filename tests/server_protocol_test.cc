// Wire-protocol conformance: golden byte vectors for every opcode, the
// malformed-frame catalogue, partial-read behaviour, and the Connection
// session driven through a fake sink (no sockets anywhere). The whole
// binary runs under ASan/UBSan in CI, so the parser's bounds discipline is
// checked for real, not just asserted.

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/server_metrics.h"
#include "src/server/connection.h"
#include "src/server/protocol.h"

namespace mccuckoo {
namespace server {
namespace {

std::string Bytes(std::initializer_list<int> vals) {
  std::string out;
  for (const int v : vals) out.push_back(static_cast<char>(v));
  return out;
}

// ---------------------------------------------------------------------------
// Golden request encodings — byte-for-byte, so any framing change (field
// order, endianness, header size) fails loudly here first.

TEST(ProtocolGolden, GetRequest) {
  std::string out;
  AppendGetRequest(&out, "ab", 0x11223344u);
  EXPECT_EQ(out, Bytes({0x95, 0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x11,
                        0x22, 0x33, 0x44, 'a', 'b'}));
}

TEST(ProtocolGolden, SetRequest) {
  std::string out;
  AppendSetRequest(&out, "k", "vv", /*ttl_seconds=*/5, /*opaque=*/7);
  EXPECT_EQ(out,
            Bytes({0x95, 0x03, 0x00, 0x01, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
                   0x00, 0x07, 0x00, 0x00, 0x00, 0x05, 'k', 'v', 'v'}));
}

TEST(ProtocolGolden, DelRequest) {
  std::string out;
  AppendDelRequest(&out, "x", 2);
  EXPECT_EQ(out, Bytes({0x95, 0x04, 0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00,
                        0x00, 0x00, 0x02, 'x'}));
}

TEST(ProtocolGolden, TouchRequest) {
  std::string out;
  AppendTouchRequest(&out, "x", /*ttl_seconds=*/60, /*opaque=*/3);
  EXPECT_EQ(out, Bytes({0x95, 0x05, 0x00, 0x01, 0x00, 0x00, 0x00, 0x05, 0x00,
                        0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x3C, 'x'}));
}

TEST(ProtocolGolden, MgetRequest) {
  std::string out;
  AppendMgetRequest(&out, {"a", "bc"}, 9);
  EXPECT_EQ(out,
            Bytes({0x95, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                   0x00, 0x09, 0x00, 0x02, 0x00, 0x01, 'a', 0x00, 0x02, 'b',
                   'c'}));
}

TEST(ProtocolGolden, StatsRequest) {
  std::string out;
  AppendStatsRequest(&out, 1);
  EXPECT_EQ(out, Bytes({0x95, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                        0x00, 0x00, 0x01}));
}

TEST(ProtocolGolden, OkResponseWithBody) {
  std::string out;
  AppendResponse(&out, RespStatus::kOk, 4, "hi");
  EXPECT_EQ(out, Bytes({0x96, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
                        0x00, 0x00, 0x04, 'h', 'i'}));
}

TEST(ProtocolGolden, MgetResponse) {
  std::string out;
  // One hit ("v"), one miss: body = count u16 + (1+4+1) + (1+4).
  AppendMgetResponseHeader(&out, /*opaque=*/8, /*count=*/2,
                           /*total_body_len=*/2 + 6 + 5);
  AppendMgetResponseEntry(&out, true, "v");
  AppendMgetResponseEntry(&out, false, "ignored");
  EXPECT_EQ(out,
            Bytes({0x96, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0D, 0x00, 0x00,
                   0x00, 0x08, 0x00, 0x02, 0x01, 0x00, 0x00, 0x00, 0x01, 'v',
                   0x00, 0x00, 0x00, 0x00, 0x00}));
  std::vector<MgetEntry> entries;
  ASSERT_TRUE(DecodeMgetBody(std::string_view(out).substr(kHeaderSize),
                             &entries));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_TRUE(entries[0].found);
  EXPECT_EQ(entries[0].value, "v");
  EXPECT_FALSE(entries[1].found);
  EXPECT_EQ(entries[1].value, "");
}

// ---------------------------------------------------------------------------
// Round trips: encode -> ParseRequest recovers every field.

TEST(ProtocolRoundTrip, AllOpcodes) {
  std::string buf;
  AppendGetRequest(&buf, "the-key", 1);
  AppendSetRequest(&buf, "k2", "value-bytes", 300, 2);
  AppendDelRequest(&buf, "k3", 3);
  AppendTouchRequest(&buf, "k4", 0, 4);
  AppendMgetRequest(&buf, {"m1", "m2", "m3"}, 5);
  AppendStatsRequest(&buf, 6);

  std::string_view rest = buf;
  Request req;

  ParseOutcome r = ParseRequest(rest, &req);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(req.op, Opcode::kGet);
  EXPECT_EQ(req.key, "the-key");
  EXPECT_EQ(req.opaque, 1u);
  rest.remove_prefix(r.consumed);

  r = ParseRequest(rest, &req);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(req.op, Opcode::kSet);
  EXPECT_EQ(req.key, "k2");
  EXPECT_EQ(req.value, "value-bytes");
  EXPECT_EQ(req.ttl_seconds, 300u);
  EXPECT_EQ(req.opaque, 2u);
  rest.remove_prefix(r.consumed);

  r = ParseRequest(rest, &req);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(req.op, Opcode::kDel);
  EXPECT_EQ(req.key, "k3");
  rest.remove_prefix(r.consumed);

  r = ParseRequest(rest, &req);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(req.op, Opcode::kTouch);
  EXPECT_EQ(req.key, "k4");
  EXPECT_EQ(req.ttl_seconds, 0u);
  rest.remove_prefix(r.consumed);

  r = ParseRequest(rest, &req);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(req.op, Opcode::kMget);
  ASSERT_EQ(req.mget_keys.size(), 3u);
  EXPECT_EQ(req.mget_keys[0], "m1");
  EXPECT_EQ(req.mget_keys[2], "m3");
  rest.remove_prefix(r.consumed);

  r = ParseRequest(rest, &req);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(req.op, Opcode::kStats);
  EXPECT_EQ(req.opaque, 6u);
  rest.remove_prefix(r.consumed);
  EXPECT_TRUE(rest.empty());
}

TEST(ProtocolRoundTrip, Response) {
  std::string buf;
  AppendResponse(&buf, RespStatus::kNotFound, 0xDEADBEEFu, "gone");
  Response resp;
  const ParseOutcome r = ParseResponse(buf, &resp);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(r.consumed, buf.size());
  EXPECT_EQ(resp.status, RespStatus::kNotFound);
  EXPECT_EQ(resp.opaque, 0xDEADBEEFu);
  EXPECT_EQ(resp.body, "gone");
}

// ---------------------------------------------------------------------------
// Partial reads: every proper prefix of a valid frame is kNeedMore — the
// parser never commits to a truncated header or body.

TEST(ProtocolPartial, EveryPrefixNeedsMore) {
  std::string frame;
  AppendSetRequest(&frame, "key", "value", 30, 77);
  for (size_t len = 0; len < frame.size(); ++len) {
    Request req;
    const ParseOutcome r =
        ParseRequest(std::string_view(frame).substr(0, len), &req);
    EXPECT_EQ(r.status, ParseStatus::kNeedMore) << "prefix length " << len;
    EXPECT_EQ(r.consumed, 0u);
  }
  Request req;
  EXPECT_EQ(ParseRequest(frame, &req).status, ParseStatus::kOk);
}

// ---------------------------------------------------------------------------
// Malformed frames: each is a clean kError with the right RespStatus, and
// the opaque is recovered whenever a full header was readable.

Request MustFail(std::string frame, RespStatus want) {
  Request req;
  const ParseOutcome r = ParseRequest(frame, &req);
  EXPECT_EQ(r.status, ParseStatus::kError);
  EXPECT_EQ(r.error, want);
  EXPECT_STRNE(r.error_detail, "");
  return req;
}

std::string Header(uint8_t magic, uint8_t op, uint16_t key_len,
                   uint32_t body_len, uint32_t opaque) {
  std::string out;
  out.push_back(static_cast<char>(magic));
  out.push_back(static_cast<char>(op));
  out.push_back(static_cast<char>(key_len >> 8));
  out.push_back(static_cast<char>(key_len & 0xFF));
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((body_len >> shift) & 0xFF));
  }
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<char>((opaque >> shift) & 0xFF));
  }
  return out;
}

TEST(ProtocolMalformed, BadMagic) {
  MustFail(Header(0x94, 1, 1, 1, 0) + "k", RespStatus::kBadRequest);
}

TEST(ProtocolMalformed, UnknownOpcode) {
  const Request req0 = MustFail(Header(0x95, 0, 1, 1, 42) + "k",
                                RespStatus::kBadRequest);
  EXPECT_EQ(req0.opaque, 42u);  // Opaque recovered for error correlation.
  MustFail(Header(0x95, 7, 1, 1, 0) + "k", RespStatus::kBadRequest);
}

TEST(ProtocolMalformed, OversizedKey) {
  // key_len 1025 > kMaxKeyLen: rejected from the header alone, before any
  // body arrives (body_len would be huge; the parser must not wait for it).
  MustFail(Header(0x95, 1, kMaxKeyLen + 1, kMaxKeyLen + 1, 7),
           RespStatus::kTooLarge);
}

TEST(ProtocolMalformed, OversizedBody) {
  MustFail(Header(0x95, 3, 1, static_cast<uint32_t>(kMaxBodyLen) + 1, 0),
           RespStatus::kTooLarge);
}

TEST(ProtocolMalformed, OversizedSetValue) {
  // Header fields self-consistent but the implied value exceeds the limit.
  const uint32_t body = 4 + 1 + static_cast<uint32_t>(kMaxValueLen) + 1;
  std::string frame = Header(0x95, 3, 1, body, 0);
  frame.resize(kHeaderSize + body, 'x');
  MustFail(std::move(frame), RespStatus::kTooLarge);
}

TEST(ProtocolMalformed, EmptyKey) {
  MustFail(Header(0x95, 1, 0, 0, 0), RespStatus::kBadRequest);
}

TEST(ProtocolMalformed, GetBodyKeyMismatch) {
  MustFail(Header(0x95, 1, 2, 3, 0) + "abc", RespStatus::kBadRequest);
}

TEST(ProtocolMalformed, TruncatedSetBody) {
  // body_len < 4 + key_len: no room for the TTL prefix.
  MustFail(Header(0x95, 3, 4, 5, 0) + "abcde", RespStatus::kBadRequest);
}

TEST(ProtocolMalformed, BadTouchLength) {
  MustFail(Header(0x95, 5, 1, 6, 0) + "abcdef", RespStatus::kBadRequest);
}

TEST(ProtocolMalformed, StatsWithBody) {
  MustFail(Header(0x95, 6, 0, 1, 0) + "x", RespStatus::kBadRequest);
}

TEST(ProtocolMalformed, MgetEmpty) {
  MustFail(Header(0x95, 2, 0, 2, 0) + Bytes({0, 0}), RespStatus::kBadRequest);
}

TEST(ProtocolMalformed, MgetHeaderKey) {
  MustFail(Header(0x95, 2, 1, 3, 0) + Bytes({0, 1, 'k'}),
           RespStatus::kBadRequest);
}

TEST(ProtocolMalformed, MgetTooManyKeys) {
  // count says kMaxMgetKeys+1; rejected before reading any key.
  const uint16_t count = static_cast<uint16_t>(kMaxMgetKeys + 1);
  std::string body = Bytes({count >> 8, count & 0xFF});
  MustFail(Header(0x95, 2, 0, static_cast<uint32_t>(body.size()), 0) + body,
           RespStatus::kTooLarge);
}

TEST(ProtocolMalformed, MgetTruncatedKey) {
  // Declares 2 keys but the body ends inside the second.
  std::string body = Bytes({0, 2, 0, 1, 'a', 0, 5, 'b'});
  MustFail(Header(0x95, 2, 0, static_cast<uint32_t>(body.size()), 0) + body,
           RespStatus::kBadRequest);
}

/// MustFail that also pins which check refused the frame.
void MustFailWith(const std::string& frame, RespStatus want,
                  const char* detail) {
  Request req;
  const ParseOutcome r = ParseRequest(frame, &req);
  EXPECT_EQ(r.status, ParseStatus::kError);
  EXPECT_EQ(r.error, want);
  EXPECT_STREQ(r.error_detail, detail);
}

TEST(ProtocolMalformed, MgetBodyTruncatedBeforeCount) {
  // One body byte: no room for the two-byte key count.
  MustFailWith(Header(0x95, 2, 0, 1, 0) + Bytes({0}), RespStatus::kBadRequest,
               "truncated MGET body");
}

TEST(ProtocolMalformed, MgetTruncatedKeyLength) {
  // Declares 2 keys but the body ends inside the second key's length.
  std::string body = Bytes({0, 2, 0, 1, 'a', 0});
  MustFailWith(
      Header(0x95, 2, 0, static_cast<uint32_t>(body.size()), 0) + body,
      RespStatus::kBadRequest, "truncated MGET key length");
}

TEST(ProtocolMalformed, MgetKeyTooLong) {
  // A key length of kMaxKeyLen + 1 is refused from its length field alone,
  // before the parser looks for the key's bytes.
  const uint16_t klen = static_cast<uint16_t>(kMaxKeyLen + 1);
  std::string body = Bytes({0, 1, klen >> 8, klen & 0xFF});
  MustFailWith(
      Header(0x95, 2, 0, static_cast<uint32_t>(body.size()), 0) + body,
      RespStatus::kTooLarge, "MGET key too long");
}

TEST(ProtocolMalformed, MgetTrailingBytes) {
  std::string body = Bytes({0, 1, 0, 1, 'a', 'Z'});
  MustFail(Header(0x95, 2, 0, static_cast<uint32_t>(body.size()), 0) + body,
           RespStatus::kBadRequest);
}

TEST(ProtocolMalformed, MgetResponseBodyTruncated) {
  std::vector<MgetEntry> entries;
  EXPECT_FALSE(DecodeMgetBody(Bytes({0, 1}), &entries));          // no entry
  EXPECT_FALSE(DecodeMgetBody(Bytes({0, 1, 1, 0, 0, 0, 9}), &entries));
  EXPECT_FALSE(DecodeMgetBody(Bytes({0}), &entries));             // no count
}

// Malformed response frames, which only the client parses. A response
// header has a request header's layout with the status in the opcode byte.
void ResponseMustFailWith(const std::string& frame, RespStatus want,
                          const char* detail) {
  Response resp;
  const ParseOutcome r = ParseResponse(frame, &resp);
  EXPECT_EQ(r.status, ParseStatus::kError);
  EXPECT_EQ(r.error, want);
  EXPECT_STREQ(r.error_detail, detail);
}

TEST(ProtocolMalformed, ResponseBadMagic) {
  // A request's magic on an otherwise valid empty kOk response.
  ResponseMustFailWith(Header(0x95, 0, 0, 0, 0), RespStatus::kBadRequest,
                       "bad response magic");
}

TEST(ProtocolMalformed, ResponseUnknownStatus) {
  // One past kServerError, the last status.
  ResponseMustFailWith(Header(0x96, 5, 0, 0, 0), RespStatus::kBadRequest,
                       "unknown response status");
}

TEST(ProtocolMalformed, ResponseBodyTooLarge) {
  // Refused from the header alone: the client must not wait for the body.
  ResponseMustFailWith(
      Header(0x96, 0, 0, static_cast<uint32_t>(kMaxBodyLen) + 1, 0),
      RespStatus::kTooLarge, "response body too large");
}

// ---------------------------------------------------------------------------
// Connection: the session layer over a fake sink, fed like a socket would.

class RecordingSink : public RequestSink {
 public:
  void Process(std::span<const Request> batch, std::string* out) override {
    batch_sizes.push_back(batch.size());
    for (const Request& r : batch) {
      ops.push_back(r.op);
      keys.emplace_back(r.key);
      AppendResponse(out, RespStatus::kOk, r.opaque, "");
    }
  }

  std::vector<size_t> batch_sizes;
  std::vector<Opcode> ops;
  std::vector<std::string> keys;
};

TEST(ConnectionTest, ByteAtATimeThenWholeFrame) {
  RecordingSink sink;
  ServerMetrics metrics;
  Connection conn(&sink, nullptr, &metrics);
  std::string frame;
  AppendGetRequest(&frame, "slowly", 11);
  // Dripping one byte at a time must produce exactly one request, only
  // after the last byte.
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    EXPECT_TRUE(conn.OnData(&frame[i], 1));
    EXPECT_TRUE(sink.ops.empty());
  }
  EXPECT_TRUE(conn.OnData(&frame[frame.size() - 1], 1));
  ASSERT_EQ(sink.ops.size(), 1u);
  EXPECT_EQ(sink.keys[0], "slowly");
  EXPECT_FALSE(conn.wants_close());
  Response resp;
  EXPECT_EQ(ParseResponse(conn.outbuf(), &resp).status, ParseStatus::kOk);
  EXPECT_EQ(resp.opaque, 11u);
}

TEST(ConnectionTest, PipelinedFramesArriveAsOneBatch) {
  RecordingSink sink;
  Connection conn(&sink, nullptr, nullptr);
  std::string burst;
  AppendGetRequest(&burst, "a", 1);
  AppendGetRequest(&burst, "b", 2);
  AppendSetRequest(&burst, "c", "v", 0, 3);
  EXPECT_TRUE(conn.OnData(burst.data(), burst.size()));
  // One OnData -> one Process call with all three requests (this is what
  // lets the handler coalesce the GETs into one FindBatch).
  ASSERT_EQ(sink.batch_sizes.size(), 1u);
  EXPECT_EQ(sink.batch_sizes[0], 3u);
  EXPECT_EQ(sink.ops[2], Opcode::kSet);
  // Three responses, in order, opaque-correlated.
  std::string_view out = conn.outbuf();
  for (uint32_t want = 1; want <= 3; ++want) {
    Response resp;
    const ParseOutcome r = ParseResponse(out, &resp);
    ASSERT_EQ(r.status, ParseStatus::kOk);
    EXPECT_EQ(resp.opaque, want);
    out.remove_prefix(r.consumed);
  }
  EXPECT_TRUE(out.empty());
}

TEST(ConnectionTest, MalformedFrameAnswersThenCloses) {
  RecordingSink sink;
  ServerMetrics metrics;
  Connection conn(&sink, nullptr, &metrics);
  std::string burst;
  AppendGetRequest(&burst, "good", 1);
  burst += Header(0x95, 0, 1, 1, 99);  // unknown opcode, opaque 99
  burst += "k";
  EXPECT_FALSE(conn.OnData(burst.data(), burst.size()));
  EXPECT_TRUE(conn.wants_close());
  EXPECT_EQ(metrics.protocol_errors.Value(), 1u);
  // The good prefix was still served; the error response carries the bad
  // frame's opaque.
  ASSERT_EQ(sink.ops.size(), 1u);
  std::string_view out = conn.outbuf();
  Response resp;
  ParseOutcome r = ParseResponse(out, &resp);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(resp.opaque, 1u);
  out.remove_prefix(r.consumed);
  r = ParseResponse(out, &resp);
  ASSERT_EQ(r.status, ParseStatus::kOk);
  EXPECT_EQ(resp.status, RespStatus::kBadRequest);
  EXPECT_EQ(resp.opaque, 99u);
}

TEST(ConnectionTest, GarbageFirstByteRejected) {
  RecordingSink sink;
  ServerMetrics metrics;
  Connection conn(&sink, nullptr, &metrics);
  const std::string junk = "\x01garbage";
  EXPECT_FALSE(conn.OnData(junk.data(), junk.size()));
  EXPECT_TRUE(conn.wants_close());
  EXPECT_EQ(metrics.protocol_errors.Value(), 1u);
  Response resp;
  ASSERT_EQ(ParseResponse(conn.outbuf(), &resp).status, ParseStatus::kOk);
  EXPECT_EQ(resp.status, RespStatus::kBadRequest);
  // Once closing, further data is ignored.
  EXPECT_FALSE(conn.OnData(junk.data(), junk.size()));
  EXPECT_TRUE(sink.ops.empty());
}

TEST(ConnectionTest, HttpDispatchServesStatsRoutes) {
  RecordingSink sink;
  StatsHandlers handlers;
  handlers.metrics = [] { return std::string("fake_metric 1\n"); };
  ServerMetrics metrics;
  Connection conn(&sink, &handlers, &metrics);
  const std::string req = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  EXPECT_FALSE(conn.OnData(req.data(), req.size()));  // one-shot exchange
  EXPECT_TRUE(conn.wants_close());
  EXPECT_EQ(metrics.http_requests.Value(), 1u);
  const std::string& out = conn.outbuf();
  EXPECT_NE(out.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(out.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(out.find("fake_metric 1"), std::string::npos);
  EXPECT_TRUE(sink.ops.empty());  // HTTP never reaches the request sink.
}

TEST(ConnectionTest, HttpUnsetHandlerAnswers404) {
  StatsHandlers handlers;
  handlers.metrics = [] { return std::string("only metrics\n"); };
  const auto status_line = [&handlers](const std::string& path) {
    Connection conn(nullptr, &handlers, nullptr);
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_FALSE(conn.OnData(req.data(), req.size()));
    return conn.outbuf().substr(0, conn.outbuf().find("\r\n"));
  };
  EXPECT_EQ(status_line("/metrics"), "HTTP/1.1 200 OK");
  EXPECT_EQ(status_line("/trace"), "HTTP/1.1 404 Not Found");
  EXPECT_EQ(status_line("/heatmap"), "HTTP/1.1 404 Not Found");
}

TEST(ConnectionTest, HttpHeadAnswersHeadersWithoutBody) {
  StatsHandlers handlers;
  handlers.metrics = [] { return std::string("fake_metric 1\n"); };
  const auto exchange = [&handlers](const std::string& method,
                                    const std::string& path) {
    Connection conn(nullptr, &handlers, nullptr);
    const std::string req = method + " " + path + " HTTP/1.1\r\n\r\n";
    EXPECT_FALSE(conn.OnData(req.data(), req.size()));
    return conn.outbuf();
  };
  const std::string get = exchange("GET", "/metrics");
  const std::string head = exchange("HEAD", "/metrics");
  const size_t header_end = get.find("\r\n\r\n") + 4;
  ASSERT_LT(header_end, get.size());
  // Same status line and headers (Content-Length included), no body.
  EXPECT_EQ(head, get.substr(0, header_end));

  const std::string missing = exchange("HEAD", "/nope");
  EXPECT_EQ(missing.compare(0, 22, "HTTP/1.1 404 Not Found"), 0);
  EXPECT_EQ(missing.find("\r\n\r\n") + 4, missing.size());  // No body.
}

TEST(ConnectionTest, HttpUnknownRouteIs404) {
  StatsHandlers handlers;
  Connection conn(nullptr, &handlers, nullptr);
  const std::string req = "GET /nope HTTP/1.0\r\n\r\n";
  EXPECT_FALSE(conn.OnData(req.data(), req.size()));
  EXPECT_NE(conn.outbuf().find("404 Not Found"), std::string::npos);
}

TEST(ConnectionTest, HttpOversizedRequestLineDropped) {
  Connection conn(nullptr, nullptr, nullptr);
  // 'G' selects HTTP mode, then an endless header line with no newline.
  const std::string chunk(4096, 'G');
  bool keep = true;
  for (int i = 0; i < 8 && keep; ++i) {
    keep = conn.OnData(chunk.data(), chunk.size());
  }
  EXPECT_FALSE(keep);  // Cut off before buffering unbounded garbage.
}

}  // namespace
}  // namespace server
}  // namespace mccuckoo
