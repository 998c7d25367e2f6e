// Process-wide heap allocation counter. The perfbench binary replaces the
// global operator new and aligned_alloc with counting versions
// (alloc_counter.cpp), so a phase can read how many allocations its
// requests caused.
#pragma once

#include <cstdint>

namespace pb {

/// Allocations made through operator new or aligned_alloc since process
/// start, all threads.
[[nodiscard]] std::uint64_t allocations();

}  // namespace pb
