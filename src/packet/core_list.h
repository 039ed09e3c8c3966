// The ordered candidate-core list that JOIN-REQUESTs (Figure 8) and
// RP/Core-Reports (Figure 10) carry.
#pragma once

#include <cstddef>

#include "common/small_vec.h"
#include "common/types.h"

namespace cbt::packet {

/// Spec -02 fixed the core list at 5; -03 made it variable with a count
/// byte. We allow up to 8 in both formats and validate on decode.
constexpr std::size_t kMaxCores = 8;

/// Inline up to the wire cap, so every list a decoder accepts — and every
/// message built from one — lives without a heap allocation. cores[0] is
/// the primary core.
using CoreList = SmallVec<Ipv4Address, kMaxCores>;

}  // namespace cbt::packet
