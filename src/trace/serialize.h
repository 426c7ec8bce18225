// Trace persistence: a compact binary format (round-trip exact),
// mirroring how the paper releases collected traces as an LLM-serving
// benchmark artifact.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/schema.h"

namespace aimetro::trace {

/// Binary format "AIMT" v1. Throws CheckError on malformed input.
void save_binary(const SimulationTrace& trace, std::ostream& os);
SimulationTrace load_binary(std::istream& is);

void save_binary_file(const SimulationTrace& trace, const std::string& path);

}  // namespace aimetro::trace
