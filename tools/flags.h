// Command-line flags shared by neutraj_cli, neutraj_server and
// neutraj_client: an optional leading subcommand, then "--key value" pairs.
// A token after "--key" that does not itself start with "--" is the key's
// value (so "--exclude -1" reads -1); otherwise "--key" is a boolean flag
// and reads "1". Any other token is an error.

#ifndef NEUTRAJ_TOOLS_FLAGS_H_
#define NEUTRAJ_TOOLS_FLAGS_H_

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

namespace neutraj::flags {

/// Parsed "--key value" flags plus the positional subcommand, if any.
struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = flags.find(key);
    return it == flags.end() ? def : std::stod(it->second);
  }
  int64_t GetInt(const std::string& key, int64_t def) const {
    auto it = flags.find(key);
    return it == flags.end() ? def : std::stoll(it->second);
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }

  /// Requires a flag to be present; throws with a usage hint otherwise.
  std::string Require(const std::string& key) const {
    auto it = flags.find(key);
    if (it == flags.end()) {
      throw std::runtime_error("missing required flag --" + key);
    }
    return it->second;
  }
};

/// Parses argv. With `subcommand`, argv[1] is the command and is required.
/// Throws std::runtime_error on a stray positional argument.
inline Args ParseArgs(int argc, const char* const* argv, bool subcommand) {
  Args args;
  int i = 1;
  if (subcommand) {
    if (argc < 2) throw std::runtime_error("no subcommand given");
    args.command = argv[i++];
  }
  for (; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected argument: " + token);
    }
    token = token.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      // Assign through a named std::string: the const char* overload of
      // operator= trips a GCC 12 -Wrestrict false positive (GCC bug
      // 105329) when inlined at -O3.
      const std::string value = argv[++i];
      args.flags[token] = value;
    } else {
      args.flags[token] = std::string("1");  // Boolean flag.
    }
  }
  return args;
}

}  // namespace neutraj::flags

#endif  // NEUTRAJ_TOOLS_FLAGS_H_
