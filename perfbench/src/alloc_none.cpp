#include "alloc_count.h"

namespace perfbench {

AllocTally thread_alloc_tally() { return {}; }
bool alloc_counting() { return false; }

}  // namespace perfbench
