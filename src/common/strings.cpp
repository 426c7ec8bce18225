#include "common/strings.h"

#include <cstdio>

namespace aimetro {

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed <= 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string trim(const std::string& s) {
  const char* kWhitespace = " \t\r\n";
  const std::size_t b = s.find_first_not_of(kWhitespace);
  if (b == std::string::npos) return "";
  const std::size_t e = s.find_last_not_of(kWhitespace);
  return s.substr(b, e - b + 1);
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string pad_left(const std::string& s, std::size_t width) {
  return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

}  // namespace aimetro
