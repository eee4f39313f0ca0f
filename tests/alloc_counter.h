// Counts the heap allocations one piece of code makes. Linking
// alloc_counter.cpp into a test binary replaces that binary's global
// operator new and delete.
#pragma once

#include <cstddef>

namespace smartsock {

/// Starts counting, from zero, the operator new calls the calling thread
/// makes.
void start_counting_allocations();

/// Stops counting and returns the calls made since the start.
std::size_t stop_counting_allocations();

}  // namespace smartsock
