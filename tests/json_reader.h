// Test-only JSON reader for what obs::Json writes: round-trip and
// malformed-input checks of the exporter.  CI validates exported documents
// in Python, so the library itself carries no parser.
#pragma once

#include <string_view>

#include "obs/json.h"

namespace wcds::testing {

// Parses standard JSON; throws std::invalid_argument with the byte offset
// on malformed input.
[[nodiscard]] obs::Json parse_json(std::string_view text);

}  // namespace wcds::testing
