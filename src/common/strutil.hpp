// Small string formatting helpers (GCC 12 ships no <format>).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace kconv {

/// snprintf-style formatting into a std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Renders a byte count with a binary-unit suffix ("12.0 KiB").
std::string human_bytes(double bytes);

/// The body of a JSON string literal holding `s`: `"` and `\` are
/// backslash-escaped and every byte below 0x20 becomes `\u00XX`.
std::string json_escape(const std::string& s);

}  // namespace kconv
