// Fixture: with its header read, the walk is over an ordered std::map and
// the unordered_map is used for lookup only.
#include "clean_header_member.h"

void Hub::on_tick(double now_s) {
  for (auto it = sessions_.begin(); it != sessions_.end();) {  // std::map
    it = now_s > 0.0 ? sessions_.erase(it) : std::next(it);
  }
}

bool Hub::known(std::uint64_t id) const { return cache_.contains(id); }
