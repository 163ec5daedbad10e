// Process-wide count of global operator new calls, from the replacement
// operators in alloc_counter.cpp. The benchmark owns this counter so its
// allocation metrics do not depend on any other harness's hooks.
#pragma once

#include <cstdint>

namespace ftcbench {

[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace ftcbench
