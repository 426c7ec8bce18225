// Trace persistence: a compact binary format, mirroring how the paper
// releases collected traces as an LLM-serving benchmark artifact. Only
// the writer exists: examples/smallville_day writes a day's trace, and
// Trace.GoldenBytesAreBitExact hashes these bytes.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/schema.h"

namespace aimetro::trace {

/// Binary format "AIMT" (v1 grid, v2 graph). Throws CheckError when the
/// stream fails.
void save_binary(const SimulationTrace& trace, std::ostream& os);

void save_binary_file(const SimulationTrace& trace, const std::string& path);

}  // namespace aimetro::trace
