// Fixture header: the unordered table is declared here, away from the
// .cpp that walks it.
#include <cstdint>
#include <string>
#include <unordered_map>

class Hub {
 public:
  void on_tick(double now_s);

 private:
  std::unordered_map<std::uint64_t, std::string> sessions_;
};
