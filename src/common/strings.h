// Small string/formatting helpers (GCC 12 lacks full std::format support).
#pragma once

#include <cstdarg>
#include <string>
#include <vector>

namespace aimetro {

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Split on a delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Strip leading and trailing whitespace (spaces, tabs, CR, LF).
std::string trim(const std::string& s);

/// Join with a delimiter.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Right-aligned fixed-width table cell, used by the bench harnesses.
std::string pad_left(const std::string& s, std::size_t width);

}  // namespace aimetro
