// Minimal flat-JSON persistence for the throughput benchmarks.
//
// All wall-clock benches merge their results into one machine-readable
// file (BENCH_throughput.json): a single flat JSON object mapping
// "<bench>.<case>" keys to numbers (items/sec). Each binary owns its key
// namespaces ("micro.", "batch.", "shard." and "concurrent.", ...) and
// replaces only its own keys on rewrite, so the file accumulates results
// across binaries without any external JSON dependency. The parser below
// only needs to read the flat format the writer emits.

#ifndef MCCUCKOO_BENCH_BENCH_JSON_H_
#define MCCUCKOO_BENCH_BENCH_JSON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace mccuckoo {

/// Flat string -> number mapping (std::map keeps the file diff-stable).
using FlatJson = std::map<std::string, double>;

/// Escapes `s` for use inside a JSON string literal: backslash, double
/// quote, and control characters (RFC 8259 §7). Everything else passes
/// through byte-for-byte.
inline std::string EscapeJsonString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace internal {

/// Parses the JSON string literal starting at text[pos] (which must be the
/// opening quote), honoring escape sequences. On success advances *end_pos
/// past the closing quote and returns true with the decoded bytes in *out.
inline bool ParseJsonString(const std::string& text, size_t pos,
                            size_t* end_pos, std::string* out) {
  if (pos >= text.size() || text[pos] != '"') return false;
  out->clear();
  for (size_t i = pos + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      *end_pos = i + 1;
      return true;
    }
    if (c != '\\') {
      *out += c;
      continue;
    }
    if (++i >= text.size()) return false;
    switch (text[i]) {
      case '"':  *out += '"';  break;
      case '\\': *out += '\\'; break;
      case '/':  *out += '/';  break;
      case 'b':  *out += '\b'; break;
      case 'f':  *out += '\f'; break;
      case 'n':  *out += '\n'; break;
      case 'r':  *out += '\r'; break;
      case 't':  *out += '\t'; break;
      case 'u': {
        if (i + 4 >= text.size()) return false;
        char* end = nullptr;
        const std::string hex = text.substr(i + 1, 4);
        const unsigned long cp = std::strtoul(hex.c_str(), &end, 16);
        if (end != hex.c_str() + 4) return false;
        // The writer only emits \u00XX for control bytes; decode the
        // Latin-1 range and fall back to '?' for anything wider.
        *out += cp <= 0xFF ? static_cast<char>(cp) : '?';
        i += 4;
        break;
      }
      default: return false;  // Invalid escape: bail on the whole string.
    }
  }
  return false;  // Unterminated string.
}

}  // namespace internal

/// Reads a flat JSON object written by StoreFlatJson. Returns an empty map
/// if the file does not exist or does not parse (best effort: results are
/// regenerable). Escaped characters in keys are decoded; when the file
/// holds the same key more than once, the last occurrence deterministically
/// wins (matching standard JSON object semantics).
inline FlatJson LoadFlatJson(const std::string& path) {
  FlatJson out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    std::string key;
    size_t key_end = 0;
    if (!internal::ParseJsonString(text, pos, &key_end, &key)) break;
    size_t colon = key_end;
    while (colon < text.size() &&
           (text[colon] == ' ' || text[colon] == '\t' || text[colon] == '\n' ||
            text[colon] == '\r')) {
      ++colon;
    }
    if (colon >= text.size() || text[colon] != ':') break;
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + colon + 1, &end);
    if (end != text.c_str() + colon + 1) out[key] = value;
    pos = key_end;
  }
  return out;
}

/// Writes `data` as one flat JSON object, keys escaped and sorted.
inline bool StoreFlatJson(const std::string& path, const FlatJson& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  size_t i = 0;
  for (const auto& [key, value] : data) {
    std::fprintf(f, "  \"%s\": %.10g%s\n", EscapeJsonString(key).c_str(),
                 value, ++i < data.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// Replaces every key starting with one of `prefixes` in the file with
/// `entries` (which should all carry one of them) and rewrites it. This is
/// how the bench binaries share one results file. A key present both on
/// disk and in `entries` is deterministically overwritten with the entry
/// value, whether or not it carries a prefix.
inline bool MergeFlatJson(const std::string& path,
                          const std::vector<std::string>& prefixes,
                          const FlatJson& entries) {
  FlatJson data = LoadFlatJson(path);
  std::erase_if(data, [&](const auto& row) {
    return std::ranges::any_of(prefixes, [&](const std::string& prefix) {
      return row.first.starts_with(prefix);
    });
  });
  for (const auto& [key, value] : entries) data[key] = value;
  return StoreFlatJson(path, data);
}

inline bool MergeFlatJson(const std::string& path, const std::string& prefix,
                          const FlatJson& entries) {
  return MergeFlatJson(path, std::vector<std::string>{prefix}, entries);
}

/// Results file location: $MCCUCKOO_BENCH_JSON or ./BENCH_throughput.json.
inline std::string BenchJsonPath() {
  const char* env = std::getenv("MCCUCKOO_BENCH_JSON");
  return env != nullptr ? env : "BENCH_throughput.json";
}

}  // namespace mccuckoo

#endif  // MCCUCKOO_BENCH_BENCH_JSON_H_
