// Fixture: a lint-clean churn shape — sessions recycled from a free list
// whose backing storage is owned by smart pointers, so the churn loop
// holds no raw new/malloc.
#include <cstddef>
#include <memory>
#include <vector>

struct Session {
  void reset() {}
};

struct SessionPool {
  std::vector<std::unique_ptr<Session>> storage;
  std::vector<Session*> free_list;

  Session* acquire() {
    if (!free_list.empty()) {
      Session* s = free_list.back();
      free_list.pop_back();
      s->reset();  // recycled: construction-equivalent, allocation-free
      return s;
    }
    storage.push_back(std::make_unique<Session>());  // cold path only
    return storage.back().get();
  }

  void release(Session* s) { free_list.push_back(s); }
};

void churn(SessionPool& pool, std::size_t cycles) {
  for (std::size_t i = 0; i < cycles; ++i) {
    Session* s = pool.acquire();
    pool.release(s);
  }
}
