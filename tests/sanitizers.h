#pragma once
// THINAIR_UNDER_SANITIZER is 1 in an ASan or TSan build and 0 otherwise.
// Those sanitizers interpose the global allocator (and deliberately never
// reuse addresses), so a test that counts allocations or reads the heap
// skips that check under them; its other checks still run.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define THINAIR_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define THINAIR_UNDER_SANITIZER 1
#endif
#endif
#ifndef THINAIR_UNDER_SANITIZER
#define THINAIR_UNDER_SANITIZER 0
#endif
