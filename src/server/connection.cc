#include "src/server/connection.h"

namespace mccuckoo {
namespace server {

bool Connection::OnData(const char* data, size_t n) {
  if (closing_) return false;
  in_.append(data, n);
  if (mode_ == Mode::kUnknown && !in_.empty()) {
    const uint8_t first = static_cast<uint8_t>(in_[0]);
    if (first == kReqMagic) {
      mode_ = Mode::kBinary;
    } else if (first == 'G' || first == 'H') {
      mode_ = Mode::kHttp;
    } else {
      if (metrics_ != nullptr) metrics_->protocol_errors.Inc();
      AppendResponse(&out_, RespStatus::kBadRequest, 0, "not mccuckoo protocol");
      closing_ = true;
      return false;
    }
  }
  const bool keep =
      mode_ == Mode::kBinary ? ProcessBinary() : ProcessHttp();
  if (!keep) closing_ = true;
  return keep;
}

bool Connection::ProcessBinary() {
  // Parse every complete frame into one batch, then hand the batch to the
  // sink in a single call so consecutive GETs can ride one FindBatch. The
  // Request views alias in_, which therefore must not be touched until
  // Process returns.
  batch_.clear();
  size_t off = 0;
  bool error = false;
  ParseOutcome bad{};
  uint32_t bad_opaque = 0;
  while (off < in_.size()) {
    Request req;
    const ParseOutcome r =
        ParseRequest(std::string_view(in_).substr(off), &req);
    if (r.status == ParseStatus::kNeedMore) break;
    if (r.status == ParseStatus::kError) {
      error = true;
      bad = r;
      bad_opaque = req.opaque;
      break;
    }
    batch_.push_back(std::move(req));
    off += r.consumed;
  }
  if (!batch_.empty() && sink_ != nullptr) {
    sink_->Process(std::span<const Request>(batch_.data(), batch_.size()),
                   &out_);
  }
  batch_.clear();
  in_.erase(0, off);
  if (error) {
    // Answer the malformed frame (opaque-correlated when a full header was
    // readable) and drop the connection: resynchronizing a binary stream
    // after a framing error is guesswork.
    if (metrics_ != nullptr) metrics_->protocol_errors.Inc();
    AppendResponse(&out_, bad.error, bad_opaque, bad.error_detail);
    in_.clear();
    return false;
  }
  return true;
}

bool Connection::ProcessHttp() {
  // One-shot exchange: wait for a complete request line, route it against
  // the stats handlers, close after the response drains.
  if (in_.find('\n') == std::string::npos) {
    // A request line longer than any sane scrape is an attack or a bug.
    return in_.size() < 16 * 1024;
  }
  if (metrics_ != nullptr) metrics_->http_requests.Inc();
  const size_t line_end = in_.find_first_of("\r\n");
  const std::string line = in_.substr(0, line_end);
  // HEAD answers exactly like GET, minus the body.
  const bool head = line.compare(0, 5, "HEAD ") == 0;
  std::string path;
  if (head || line.compare(0, 4, "GET ") == 0) {
    const size_t path_start = head ? 5 : 4;
    const size_t path_end = line.find(' ', path_start);
    path = path_end == std::string::npos
               ? line.substr(path_start)
               : line.substr(path_start, path_end - path_start);
  }
  const std::function<std::string()>* handler = nullptr;
  const char* content_type = "application/json";
  if (http_ != nullptr) {
    if (path == "/metrics") {
      handler = &http_->metrics;
      content_type = "text/plain; version=0.0.4";
    } else if (path == "/json") {
      handler = &http_->json;
    } else if (path == "/trace") {
      handler = &http_->trace;
    } else if (path == "/heatmap") {
      handler = &http_->heatmap;
    }
  }
  std::string body;
  int code = 200;
  if (path == "/") {
    body =
        "mccuckoo cache server\n"
        "routes: /metrics /json /trace /heatmap\n";
    content_type = "text/plain";
  } else if (handler != nullptr && *handler) {
    body = (*handler)();
  } else {
    code = 404;
    body = "not found\n";
    content_type = "text/plain";
  }
  out_ += "HTTP/1.1 ";
  out_ += code == 200 ? "200 OK" : "404 Not Found";
  out_ += "\r\nContent-Type: ";
  out_ += content_type;
  out_ += "\r\nContent-Length: ";
  out_ += std::to_string(body.size());
  out_ += "\r\nConnection: close\r\n\r\n";
  if (!head) out_ += body;
  in_.clear();
  return false;
}

}  // namespace server
}  // namespace mccuckoo
