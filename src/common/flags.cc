#include "src/common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace mccuckoo {

namespace {

// Parses a decimal integer, rejecting garbage and values strtoll would
// clamp to the int64 range.
Result<int64_t> ParseInt(const std::string& name, const std::string& raw) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  if (end == raw.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name + ": not an integer: '" +
                                   raw + "'");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument("flag --" + name +
                                   ": does not fit in 64 bits: '" + raw + "'");
  }
  return static_cast<int64_t>(v);
}

// ParseInt, aborting on an error so sweeps never run with a
// silently-defaulted or clamped parameter.
int64_t ParseIntOrDie(const std::string& name, const std::string& raw) {
  Result<int64_t> v = ParseInt(name, raw);
  if (!v.ok()) {
    std::fprintf(stderr, "%s\n", v.status().message().c_str());
    std::abort();
  }
  return v.value();
}

}  // namespace

Result<Flags> Flags::Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("positional argument not supported: " +
                                     arg);
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` form, unless the next token is another flag or absent
    // (then it is a bare boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[arg] = argv[++i];
    } else {
      flags.values_[arg] = "true";
    }
  }
  return flags;
}

Status Flags::CheckKnown(std::initializer_list<const char*> known) const {
  for (const auto& [name, value] : values_) {
    bool found = false;
    for (const char* k : known) found = found || name == k;
    if (found) continue;
    std::string want;
    for (const char* k : known) {
      want += (want.empty() ? "--" : ", --") + std::string(k);
    }
    return Status::InvalidArgument("unknown flag --" + name + " (want " +
                                   want + ")");
  }
  return Status::OK();
}

Result<int64_t> Flags::TryGetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return ParseInt(name, it->second);
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return ParseIntOrDie(name, it->second);
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    std::fprintf(stderr, "flag --%s: not a number: '%s'\n", name.c_str(),
                 it->second.c_str());
    std::abort();
  }
  return v;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  return !(v == "false" || v == "0" || v == "no" || v == "off");
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::vector<int64_t> Flags::GetIntList(const std::string& name,
                                       std::vector<int64_t> def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::vector<int64_t> out;
  std::string cur;
  for (char c : it->second + ",") {
    if (c == ',') {
      if (!cur.empty()) out.push_back(ParseIntOrDie(name, cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  return out;
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

}  // namespace mccuckoo
