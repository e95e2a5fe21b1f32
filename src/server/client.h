// Blocking client for the mccuckoo cache protocol.
//
// Two modes over one TCP connection:
//  - one-shot calls (Get/Set/Del/Touch/MGet/Stats): send a frame, block
//    until the response arrives;
//  - pipelining (PipelineGet/... + FlushPipeline): queue many frames,
//    write them in one burst, then read the responses back in order.
//    Opaques are assigned sequentially and verified on the way back, so a
//    dropped or reordered response surfaces as an error instead of
//    silently mismatched results.
//
// HttpGet() speaks just enough HTTP/1.0 to scrape the stats routes the
// server multiplexes onto the same port (/metrics, /json, /trace,
// /heatmap) — tests and tools/mccuckoo_top use it in place of curl.

#ifndef MCCUCKOO_SERVER_CLIENT_H_
#define MCCUCKOO_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/server/protocol.h"

namespace mccuckoo {
namespace server {

/// One key's outcome from MGet.
struct MgetResult {
  bool found = false;
  std::string value;
};

/// One queued operation's outcome from FlushPipeline.
struct PipelinedResult {
  Opcode op = Opcode::kGet;
  RespStatus status = RespStatus::kOk;
  std::string body;  ///< Value for GET hits; error detail otherwise.
};

class CacheClient {
 public:
  CacheClient() = default;
  ~CacheClient();

  CacheClient(const CacheClient&) = delete;
  CacheClient& operator=(const CacheClient&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // ---- One-shot calls ---------------------------------------------------

  /// `*found` is false on kNotFound (status stays OK); other response
  /// statuses become an error Status.
  Status Get(std::string_view key, std::string* value, bool* found);
  Status Set(std::string_view key, std::string_view value,
             uint32_t ttl_seconds = 0);
  Status Del(std::string_view key, bool* existed);
  Status Touch(std::string_view key, uint32_t ttl_seconds, bool* found);
  Status MGet(const std::vector<std::string>& keys,
              std::vector<MgetResult>* results);
  /// The server's STATS JSON blob.
  Status Stats(std::string* json);

  // ---- Pipelining -------------------------------------------------------

  void PipelineGet(std::string_view key);
  void PipelineSet(std::string_view key, std::string_view value,
                   uint32_t ttl_seconds = 0);
  void PipelineDel(std::string_view key);
  size_t pipeline_depth() const { return pipelined_ops_.size(); }

  /// Writes every queued frame, then reads all responses back in order,
  /// checking each opaque. Clears the queue even on error.
  Status FlushPipeline(std::vector<PipelinedResult>* results);

  // ---- HTTP scrape ------------------------------------------------------

  /// One-shot GET of `path` over a fresh connection; fills `*body` with
  /// the response body (headers stripped). `*status_code` (optional) gets
  /// the HTTP status.
  static Status HttpGet(const std::string& host, uint16_t port,
                        const std::string& path, std::string* body,
                        int* status_code = nullptr);

 private:
  Status SendAll(const char* data, size_t len);
  /// Blocks until one complete response frame is parsed; verifies opaque.
  Status ReadResponse(uint32_t expect_opaque, Response* resp,
                      std::string* storage);
  uint32_t NextOpaque() { return next_opaque_++; }

  int fd_ = -1;
  uint32_t next_opaque_ = 1;
  std::string sendbuf_;             ///< Pipelined frames awaiting flush.
  std::vector<Opcode> pipelined_ops_;
  std::string recvbuf_;             ///< Bytes read but not yet parsed.
};

}  // namespace server
}  // namespace mccuckoo

#endif  // MCCUCKOO_SERVER_CLIENT_H_
