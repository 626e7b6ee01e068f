#include "common/string_util.h"

#include <string.h>

#include <cstdarg>
#include <cstdio>
#include <cctype>

namespace neutraj {

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

uint64_t Fnv1aHash(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

// strerror_r comes in two shapes: GNU (returns char*, may ignore the
// buffer) and XSI (returns int, fills the buffer). Overload resolution
// picks the right adapter for whichever one the libc declared.
inline const char* StrErrorAdapter(char* r, const char* /*buf*/) { return r; }
inline const char* StrErrorAdapter(int r, const char* buf) {
  return r == 0 ? buf : "Unknown error";
}

}  // namespace

std::string ErrnoMessage(int err) {
  char buf[256] = "Unknown error";
  return StrErrorAdapter(strerror_r(err, buf, sizeof(buf)), buf);
}

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace neutraj
