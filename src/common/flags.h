// Minimal command-line flag parsing for the bench, tool and example
// binaries.
//
// Supports `--name=value` and `--name value` syntax plus bare `--name` for
// booleans. Parse accepts any flag name; a binary that calls CheckKnown()
// rejects names outside its list, so a typo fails loudly instead of
// silently running the default configuration.

#ifndef MCCUCKOO_COMMON_FLAGS_H_
#define MCCUCKOO_COMMON_FLAGS_H_

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace mccuckoo {

/// Parsed command line: flag name -> raw string value.
class Flags {
 public:
  /// Parses argv. Returns an error Status on malformed input. Flag names are
  /// stored without the leading dashes.
  static Result<Flags> Parse(int argc, char** argv);

  /// True if the flag was present on the command line.
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// OK when every flag set is in `known`; otherwise InvalidArgument naming
  /// the first unknown one and the known names.
  Status CheckKnown(std::initializer_list<const char*> known) const;

  /// The integer value of `name`, `def` when absent; InvalidArgument when
  /// the value is not a decimal integer or does not fit in 64 bits.
  Result<int64_t> TryGetInt(const std::string& name, int64_t def) const;

  /// Typed getters returning `def` when the flag is absent. Malformed or
  /// overflowing numeric values abort with a message (bench binaries want
  /// loud failure).
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def) const;
  std::string GetString(const std::string& name, const std::string& def) const;

  /// Comma-separated list of integers, e.g. --maxloops=50,100,200.
  std::vector<int64_t> GetIntList(const std::string& name,
                                  std::vector<int64_t> def) const;

  /// Names of all flags that were set (for echoing configuration).
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace mccuckoo

#endif  // MCCUCKOO_COMMON_FLAGS_H_
