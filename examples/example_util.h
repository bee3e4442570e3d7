// Shared scaffolding for the example programs. Their worlds — simulated
// hosts running the DASH stack over an Ethernet segment, a wide-area
// dumbbell or a token ring — are node::World (node/world.h).
#pragma once

#include <cstdio>

#include "node/world.h"

namespace dash::examples {

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace dash::examples
