// Fixture header: an ordered table the .cpp walks, and an unordered one it
// only looks up.
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

class Hub {
 public:
  void on_tick(double now_s);
  bool known(std::uint64_t id) const;

 private:
  std::map<std::uint64_t, std::string> sessions_;
  std::unordered_map<std::uint64_t, std::string> cache_;
};
