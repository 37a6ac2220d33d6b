// Fixture: a .cpp walking an unordered_map its own header declares. The
// rule must read bad_header_member.h to see that sessions_ is unordered.
#include "bad_header_member.h"

void Hub::on_tick(double now_s) {
  for (auto it = sessions_.begin(); it != sessions_.end();) {  // finding
    it = now_s > 0.0 ? sessions_.erase(it) : std::next(it);
  }
}
